//! Fault injection for the threaded runtime.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use rtc_model::ProcessorId;

/// Per-message network delay model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Deliver immediately (same-tick when the receiver is polling).
    None,
    /// Uniform random delay in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: Duration,
        /// Upper bound.
        max: Duration,
    },
    /// Mostly immediate, but with probability `permille/1000` a message
    /// is held for `spike` — the "usually on time, sometimes late"
    /// behaviour the paper's model is built around.
    Spike {
        /// Probability of a spike, in thousandths.
        permille: u32,
        /// The spike duration.
        spike: Duration,
    },
}

impl DelayModel {
    /// Samples the delay of one message.
    pub fn sample(self, rng: &mut SmallRng) -> Duration {
        match self {
            DelayModel::None => Duration::ZERO,
            DelayModel::Uniform { min, max } => {
                if max <= min {
                    min
                } else {
                    // Saturate rather than truncate: a span over ~584
                    // years of nanoseconds would otherwise wrap to a
                    // small value and silently shrink the delay.
                    let span = u64::try_from((max - min).as_nanos()).unwrap_or(u64::MAX);
                    min + Duration::from_nanos(rng.gen_range(0..=span))
                }
            }
            DelayModel::Spike { permille, spike } => {
                if rng.gen_range(0..1000u32) < permille {
                    spike
                } else {
                    Duration::ZERO
                }
            }
        }
    }
}

/// Something held until `due`: an in-memory envelope on the channel
/// substrate's delayer, an encoded frame on the socket proxy's
/// forwarder. Ordered so a [`BinaryHeap`](std::collections::BinaryHeap)
/// pops the earliest `due` first, `seq` (the holder's push counter)
/// breaking ties.
#[derive(Debug)]
pub struct Due<T> {
    /// When the hold ends.
    pub due: Instant,
    /// Tie-break among equal `due`s: lower pops first.
    pub seq: u64,
    /// What is held.
    pub item: T,
}

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Due<T> {}
impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest due.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// A scripted crash: the processor's thread exits at the given local
/// step, without sending the messages of that step (the mid-broadcast
/// failure of the paper's model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashAt {
    /// The victim.
    pub victim: ProcessorId,
    /// The local step at which it dies.
    pub at_step: u64,
}

/// A temporary outage of the link between two processors: messages
/// crossing it during the window are buffered and delivered when the
/// window closes (like a real transport retransmitting across a
/// partition), preserving the model's eventual-delivery guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkOutage {
    /// One endpoint.
    pub a: ProcessorId,
    /// The other endpoint.
    pub b: ProcessorId,
    /// Window start, relative to cluster start.
    pub from: Duration,
    /// Window end, relative to cluster start.
    pub until: Duration,
}

impl LinkOutage {
    /// Whether the outage covers traffic between `x` and `y` at offset
    /// `at` from cluster start.
    pub fn covers(&self, x: ProcessorId, y: ProcessorId, at: Duration) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && at >= self.from && at < self.until
    }
}

/// A timed network partition: during `[from, until)` every message
/// crossing a group boundary is buffered and released when the window
/// closes — the multi-way generalization of [`LinkOutage`]. Traffic
/// inside one group flows normally; eventual delivery is preserved by
/// construction because the hold ends with the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetPartition {
    /// Group id per processor, indexed by processor id. Processors in
    /// different groups cannot exchange messages during the window.
    pub groups: Vec<u32>,
    /// Window start, relative to cluster start.
    pub from: Duration,
    /// Window end (the heal), relative to cluster start.
    pub until: Duration,
}

impl NetPartition {
    /// Whether traffic between `x` and `y` at offset `at` crosses the
    /// partition while it is active.
    pub fn covers(&self, x: ProcessorId, y: ProcessorId, at: Duration) -> bool {
        at >= self.from
            && at < self.until
            && match (self.groups.get(x.index()), self.groups.get(y.index())) {
                (Some(gx), Some(gy)) => gx != gy,
                _ => false,
            }
    }
}

/// A scripted restart: at offset `at` from cluster start, a crashed
/// processor's thread is respawned — either from the snapshot captured
/// at its crash (modelling stable storage surviving the fault) or from
/// its initial state (an amnesiac rejoin, safe only because decisions
/// are caught up from peers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartAt {
    /// The processor to revive; it must have a scripted crash.
    pub victim: ProcessorId,
    /// When the thread is respawned, relative to cluster start.
    pub at: Duration,
    /// Restore from the crash-time snapshot (`true`) or restart from
    /// the automaton's initial state (`false`).
    pub from_snapshot: bool,
}

/// Why a [`FaultPlan`] failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// Two `CrashAt` entries target the same victim.
    DuplicateCrash(ProcessorId),
    /// The plan crashes more processors than the fault bound `t`
    /// without being marked [`FaultPlan::degraded`]. Mirrors the sim's
    /// `admissible = false` convention: such runs are legal to execute
    /// but their liveness guarantees are void.
    ExceedsFaultBound {
        /// Distinct crash victims in the plan.
        crashed: usize,
        /// The fault bound the plan was validated against.
        bound: usize,
    },
    /// A `RestartAt` targets a processor with no scripted crash.
    RestartWithoutCrash(ProcessorId),
    /// Two `RestartAt` entries target the same victim.
    DuplicateRestart(ProcessorId),
    /// A victim is outside the population `0..n`.
    UnknownProcessor(ProcessorId),
    /// A partition's group vector does not cover the population.
    MalformedPartition {
        /// Population size.
        expected: usize,
        /// Length of the supplied group vector.
        got: usize,
    },
    /// A probability knob exceeds 1000 permille.
    PermilleOutOfRange(u32),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::DuplicateCrash(p) => {
                write!(f, "duplicate CrashAt entries for processor {p:?}")
            }
            FaultPlanError::ExceedsFaultBound { crashed, bound } => write!(
                f,
                "plan crashes {crashed} processors, over the fault bound t={bound}; \
                 mark the plan degraded() to run it anyway"
            ),
            FaultPlanError::RestartWithoutCrash(p) => {
                write!(f, "RestartAt for processor {p:?} which never crashes")
            }
            FaultPlanError::DuplicateRestart(p) => {
                write!(f, "duplicate RestartAt entries for processor {p:?}")
            }
            FaultPlanError::UnknownProcessor(p) => {
                write!(f, "processor {p:?} is outside the population")
            }
            FaultPlanError::MalformedPartition { expected, got } => {
                write!(
                    f,
                    "partition groups cover {got} processors, expected {expected}"
                )
            }
            FaultPlanError::PermilleOutOfRange(v) => {
                write!(f, "permille value {v} exceeds 1000")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// The full fault plan for one cluster run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Scripted crashes.
    pub crashes: Vec<CrashAt>,
    /// Scripted restarts of crashed processors.
    pub restarts: Vec<RestartAt>,
    /// The network delay model.
    pub delay: DelayModel,
    /// Scripted link outages.
    pub outages: Vec<LinkOutage>,
    /// Scripted multi-way partitions.
    pub partitions: Vec<NetPartition>,
    /// Probability (in thousandths) that a sent message is duplicated:
    /// a second copy is injected through the delay heap with its own
    /// sampled hold, so the receiver may see the payload twice and in
    /// either order. Automata must be idempotent against this.
    pub duplicate_permille: u32,
    /// Probability (in thousandths) that a sent message is held for an
    /// extra one-to-three ticks, letting later traffic overtake it —
    /// the runtime's reordering fault.
    pub reorder_permille: u32,
    /// Probability (in thousandths) that a link connection is torn down
    /// after carrying a message, forcing the sender through its
    /// reconnect/backoff path. Only the socket substrate (`rtc-net`)
    /// has connections to reset; the channel-based runtime ignores this
    /// knob (its links cannot fail independently of the process).
    /// Resets are clean (frame-boundary FIN, not mid-frame RST), so
    /// eventual delivery is preserved: every frame accepted before the
    /// reset is still forwarded.
    pub reset_permille: u32,
    /// Acknowledges that the plan may exceed the fault bound `t`.
    /// Degraded plans exercise Theorem 11 territory: safety must still
    /// hold, but termination is only owed after enough restarts.
    pub degraded: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            crashes: Vec::new(),
            restarts: Vec::new(),
            delay: DelayModel::None,
            outages: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reorder_permille: 0,
            reset_permille: 0,
            degraded: false,
        }
    }
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a scripted crash.
    #[must_use]
    pub fn with_crash(mut self, victim: ProcessorId, at_step: u64) -> FaultPlan {
        self.crashes.push(CrashAt { victim, at_step });
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayModel) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Adds a link outage between `a` and `b` over `[from, until)`.
    #[must_use]
    pub fn with_link_outage(
        mut self,
        a: ProcessorId,
        b: ProcessorId,
        from: Duration,
        until: Duration,
    ) -> FaultPlan {
        self.outages.push(LinkOutage { a, b, from, until });
        self
    }

    /// Adds a scripted restart of a crashed processor.
    #[must_use]
    pub fn with_restart(
        mut self,
        victim: ProcessorId,
        at: Duration,
        from_snapshot: bool,
    ) -> FaultPlan {
        self.restarts.push(RestartAt {
            victim,
            at,
            from_snapshot,
        });
        self
    }

    /// Adds a multi-way partition with group assignment `groups` over
    /// `[from, until)`.
    #[must_use]
    pub fn with_partition(
        mut self,
        groups: Vec<u32>,
        from: Duration,
        until: Duration,
    ) -> FaultPlan {
        self.partitions.push(NetPartition {
            groups,
            from,
            until,
        });
        self
    }

    /// Sets the probability (in thousandths) of message duplication.
    #[must_use]
    pub fn with_duplication(mut self, permille: u32) -> FaultPlan {
        self.duplicate_permille = permille;
        self
    }

    /// Sets the probability (in thousandths) of message reordering.
    #[must_use]
    pub fn with_reordering(mut self, permille: u32) -> FaultPlan {
        self.reorder_permille = permille;
        self
    }

    /// Sets the probability (in thousandths) of a connection reset
    /// after a carried message (socket substrate only; see
    /// [`FaultPlan::reset_permille`]).
    #[must_use]
    pub fn with_resets(mut self, permille: u32) -> FaultPlan {
        self.reset_permille = permille;
        self
    }

    /// Marks the plan as intentionally degraded (more than `t` crashes
    /// allowed); see [`FaultPlan::degraded`].
    #[must_use]
    pub fn degraded(mut self) -> FaultPlan {
        self.degraded = true;
        self
    }

    /// Checks the plan against a population of `n` processors with
    /// fault bound `t`. Returns the first problem found; a plan that
    /// passes is *t-admissible* (or explicitly degraded) and internally
    /// consistent.
    pub fn validate(&self, n: usize, t: usize) -> Result<(), FaultPlanError> {
        let mut crash_victims = std::collections::BTreeSet::new();
        for c in &self.crashes {
            if c.victim.index() >= n {
                return Err(FaultPlanError::UnknownProcessor(c.victim));
            }
            if !crash_victims.insert(c.victim) {
                return Err(FaultPlanError::DuplicateCrash(c.victim));
            }
        }
        if crash_victims.len() > t && !self.degraded {
            return Err(FaultPlanError::ExceedsFaultBound {
                crashed: crash_victims.len(),
                bound: t,
            });
        }
        let mut restart_victims = std::collections::BTreeSet::new();
        for r in &self.restarts {
            if r.victim.index() >= n {
                return Err(FaultPlanError::UnknownProcessor(r.victim));
            }
            if !crash_victims.contains(&r.victim) {
                return Err(FaultPlanError::RestartWithoutCrash(r.victim));
            }
            if !restart_victims.insert(r.victim) {
                return Err(FaultPlanError::DuplicateRestart(r.victim));
            }
        }
        for part in &self.partitions {
            if part.groups.len() != n {
                return Err(FaultPlanError::MalformedPartition {
                    expected: n,
                    got: part.groups.len(),
                });
            }
        }
        for permille in [
            self.duplicate_permille,
            self.reorder_permille,
            self.reset_permille,
        ] {
            if permille > 1000 {
                return Err(FaultPlanError::PermilleOutOfRange(permille));
            }
        }
        Ok(())
    }

    /// The crash step for `p`, if scripted.
    pub fn crash_step(&self, p: ProcessorId) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.victim == p)
            .map(|c| c.at_step)
    }

    /// Rolls the network-fault dice for one message from `from` to `to`
    /// sent at offset `at` from cluster start: `(hold, duplicate_hold,
    /// reset)`. Both substrates call this and nothing else, so the draw
    /// order — delay, reorder, duplicate, reset — is fixed here.
    ///
    /// * `hold`: the sampled delay, stretched to the end of any outage
    ///   or partition window covering the pair (the cut buffers, it
    ///   never drops), plus one to three `tick`s when the reorder dice
    ///   hit, so younger traffic overtakes this message.
    /// * `duplicate_hold`: when the duplicate dice hit, the hold of a
    ///   second copy, one to three `tick`s beyond `hold`.
    /// * `reset`: tear the carrying connection down after this message
    ///   (only sockets have one; see [`FaultPlan::reset_permille`]).
    pub fn roll(
        &self,
        from: ProcessorId,
        to: ProcessorId,
        at: Duration,
        tick: Duration,
        rng: &mut SmallRng,
    ) -> (Duration, Option<Duration>, bool) {
        let hit = |permille: u32, rng: &mut SmallRng| {
            permille > 0 && rng.gen_range(0..1000u32) < permille
        };
        let mut hold = self.delay.sample(rng);
        let cut_until = self
            .outage_until(from, to, at)
            .max(self.partition_until(from, to, at));
        if let Some(until) = cut_until {
            hold = hold.max(until.saturating_sub(at));
        }
        if hit(self.reorder_permille, rng) {
            hold += tick * rng.gen_range(1..=3u32);
        }
        let duplicate_hold =
            hit(self.duplicate_permille, rng).then(|| hold + tick * rng.gen_range(1..=3u32));
        (hold, duplicate_hold, hit(self.reset_permille, rng))
    }

    /// If traffic between `x` and `y` at offset `at` is cut, returns
    /// when the covering outage window ends (the hold-until offset).
    pub fn outage_until(&self, x: ProcessorId, y: ProcessorId, at: Duration) -> Option<Duration> {
        self.outages
            .iter()
            .filter(|o| o.covers(x, y, at))
            .map(|o| o.until)
            .max()
    }

    /// If traffic between `x` and `y` at offset `at` crosses an active
    /// partition, returns when the last covering window heals.
    pub fn partition_until(
        &self,
        x: ProcessorId,
        y: ProcessorId,
        at: Duration,
    ) -> Option<Duration> {
        self.partitions
            .iter()
            .filter(|p| p.covers(x, y, at))
            .map(|p| p.until)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn none_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(DelayModel::None.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let model = DelayModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(3),
        };
        for _ in 0..100 {
            let d = model.sample(&mut rng);
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(3));
        }
    }

    #[test]
    fn spike_rate_is_roughly_honoured() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = DelayModel::Spike {
            permille: 100,
            spike: Duration::from_millis(50),
        };
        let spikes = (0..10_000)
            .filter(|_| model.sample(&mut rng) > Duration::ZERO)
            .count();
        assert!((500..1500).contains(&spikes), "{spikes}");
    }

    #[test]
    fn plan_lookup() {
        let plan = FaultPlan::none().with_crash(ProcessorId::new(2), 7);
        assert_eq!(plan.crash_step(ProcessorId::new(2)), Some(7));
        assert_eq!(plan.crash_step(ProcessorId::new(1)), None);
    }

    #[test]
    fn uniform_saturates_on_huge_spans() {
        let mut rng = SmallRng::seed_from_u64(4);
        let model = DelayModel::Uniform {
            min: Duration::ZERO,
            // A span whose nanosecond count exceeds u64::MAX; before
            // the saturation fix this wrapped to a tiny delay.
            max: Duration::from_secs(u64::MAX / 1_000_000_000 + 10),
        };
        for _ in 0..10 {
            let _ = model.sample(&mut rng);
        }
    }

    #[test]
    fn validate_accepts_admissible_plans() {
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(1), 3)
            .with_crash(ProcessorId::new(2), 5)
            .with_restart(ProcessorId::new(1), Duration::from_millis(50), true);
        assert_eq!(plan.validate(5, 2), Ok(()));
    }

    #[test]
    fn validate_rejects_duplicate_crash() {
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(1), 3)
            .with_crash(ProcessorId::new(1), 9);
        assert_eq!(
            plan.validate(5, 2),
            Err(FaultPlanError::DuplicateCrash(ProcessorId::new(1)))
        );
    }

    #[test]
    fn validate_rejects_over_budget_unless_degraded() {
        let over = FaultPlan::none()
            .with_crash(ProcessorId::new(0), 1)
            .with_crash(ProcessorId::new(1), 1)
            .with_crash(ProcessorId::new(2), 1);
        assert_eq!(
            over.validate(5, 2),
            Err(FaultPlanError::ExceedsFaultBound {
                crashed: 3,
                bound: 2
            })
        );
        assert_eq!(over.degraded().validate(5, 2), Ok(()));
    }

    #[test]
    fn partition_covers_only_cross_group_pairs_in_window() {
        let part = NetPartition {
            groups: vec![0, 0, 1, 1],
            from: Duration::from_millis(10),
            until: Duration::from_millis(20),
        };
        let (a, b, c) = (
            ProcessorId::new(0),
            ProcessorId::new(1),
            ProcessorId::new(2),
        );
        let mid = Duration::from_millis(15);
        assert!(part.covers(a, c, mid), "cross-group traffic is cut");
        assert!(part.covers(c, a, mid), "cuts are symmetric");
        assert!(!part.covers(a, b, mid), "same-group traffic flows");
        assert!(
            !part.covers(a, c, Duration::from_millis(5)),
            "before window"
        );
        assert!(
            !part.covers(a, c, Duration::from_millis(20)),
            "heal is exclusive"
        );
    }

    #[test]
    fn partition_until_reports_latest_covering_heal() {
        let plan = FaultPlan::none()
            .with_partition(
                vec![0, 1, 1],
                Duration::from_millis(0),
                Duration::from_millis(10),
            )
            .with_partition(
                vec![0, 1, 0],
                Duration::from_millis(5),
                Duration::from_millis(30),
            );
        let (a, b) = (ProcessorId::new(0), ProcessorId::new(1));
        assert_eq!(
            plan.partition_until(a, b, Duration::from_millis(6)),
            Some(Duration::from_millis(30))
        );
        // p0 and p2 share a side in the second cut, so only the first
        // window (healing at 10ms) applies to them.
        assert_eq!(
            plan.partition_until(a, ProcessorId::new(2), Duration::from_millis(6)),
            Some(Duration::from_millis(10))
        );
        assert_eq!(plan.partition_until(a, b, Duration::from_millis(40)), None);
    }

    #[test]
    fn validate_rejects_malformed_hostile_network_settings() {
        let short =
            FaultPlan::none().with_partition(vec![0, 1], Duration::ZERO, Duration::from_millis(5));
        assert_eq!(
            short.validate(5, 2),
            Err(FaultPlanError::MalformedPartition {
                expected: 5,
                got: 2
            })
        );
        let hot = FaultPlan::none().with_duplication(1001);
        assert_eq!(
            hot.validate(5, 2),
            Err(FaultPlanError::PermilleOutOfRange(1001))
        );
        let torn = FaultPlan::none().with_resets(2000);
        assert_eq!(
            torn.validate(5, 2),
            Err(FaultPlanError::PermilleOutOfRange(2000))
        );
        let ok = FaultPlan::none()
            .with_partition(
                vec![0, 0, 1, 1, 0],
                Duration::ZERO,
                Duration::from_millis(5),
            )
            .with_duplication(50)
            .with_reordering(100)
            .with_resets(80);
        assert_eq!(ok.validate(5, 2), Ok(()));
    }

    #[test]
    fn validate_rejects_restart_inconsistencies() {
        let no_crash =
            FaultPlan::none().with_restart(ProcessorId::new(3), Duration::from_millis(1), false);
        assert_eq!(
            no_crash.validate(5, 2),
            Err(FaultPlanError::RestartWithoutCrash(ProcessorId::new(3)))
        );
        let doubled = FaultPlan::none()
            .with_crash(ProcessorId::new(3), 2)
            .with_restart(ProcessorId::new(3), Duration::from_millis(1), false)
            .with_restart(ProcessorId::new(3), Duration::from_millis(2), true);
        assert_eq!(
            doubled.validate(5, 2),
            Err(FaultPlanError::DuplicateRestart(ProcessorId::new(3)))
        );
        let out_of_range = FaultPlan::none().with_crash(ProcessorId::new(9), 2);
        assert_eq!(
            out_of_range.validate(5, 2),
            Err(FaultPlanError::UnknownProcessor(ProcessorId::new(9)))
        );
    }

    #[test]
    fn roll_keeps_the_draw_order_of_the_proxy_it_was_lifted_from() {
        // (from, to, at ms) → (hold ms, duplicate hold ms, reset), as
        // computed by the socket proxy's `relay_one` before the dice
        // moved here (PR 12 tree, same plan, rng and tick). A changed
        // draw order or count shifts every later row.
        let ms = Duration::from_millis;
        let p = ProcessorId::new;
        let plan = FaultPlan::none()
            .with_delay(DelayModel::Spike {
                permille: 400,
                spike: ms(5),
            })
            .with_link_outage(p(0), p(1), Duration::ZERO, ms(10))
            .with_partition(vec![0, 1, 1], Duration::ZERO, ms(20))
            .with_reordering(300)
            .with_duplication(300)
            .with_resets(300);
        let captured = [
            (0, 1, 2, 18, None, false),
            (1, 2, 2, 3, None, true),
            (0, 2, 15, 5, None, false),
            (0, 1, 25, 0, None, false),
            (2, 0, 19, 6, Some(8), false),
            (1, 0, 4, 16, None, false),
            (2, 1, 30, 0, None, false),
            (0, 1, 9, 11, None, true),
            (1, 2, 40, 0, None, false),
            (2, 0, 12, 8, None, false),
            (0, 2, 21, 5, None, false),
            (1, 0, 0, 20, None, false),
        ];
        let mut rng = SmallRng::seed_from_u64(0xD1CE);
        for (from, to, at, hold, dup, reset) in captured {
            assert_eq!(
                plan.roll(p(from), p(to), ms(at), ms(1), &mut rng),
                (ms(hold), dup.map(ms), reset),
                "p{from} -> p{to} at {at} ms"
            );
        }
    }

    #[test]
    fn due_pops_earliest_first_then_lowest_seq() {
        let t0 = Instant::now();
        let at = |ms: u64, seq: u64| Due {
            due: t0 + Duration::from_millis(ms),
            seq,
            item: (ms, seq),
        };
        let mut heap = std::collections::BinaryHeap::from(vec![
            at(7, 0),
            at(3, 4),
            at(3, 1),
            at(9, 2),
            at(3, 3),
        ]);
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop().map(|d| d.item)).collect();
        assert_eq!(popped, vec![(3, 1), (3, 3), (3, 4), (7, 0), (9, 2)]);
    }
}
