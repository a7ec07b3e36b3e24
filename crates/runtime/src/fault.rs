//! The fault plan: everything that goes wrong in one run, in one
//! vocabulary for every substrate.
//!
//! Time is counted in the model's one unit, the clock tick: a message
//! is late after `K` ticks and the protocol's timeouts are `2K` ticks
//! (Section 2). Every time-valued field of a [`FaultPlan`] is a tick
//! count, and each substrate converts at the point of use. The
//! simulator runs a tick as one round-robin rotation of `n` events
//! (`rtc-chaos`'s `ChaosAdversary`); the wall-clock substrates run it as
//! `tick × count` of wall clock ([`FaultPlan::roll`] and
//! [`ClusterCore::run_scripted`](crate::ClusterCore::run_scripted)).
//!
//! Both wall-clock substrates apply the plan's network faults through
//! one [`FaultRouter`], and what it holds waits in the receiving node's
//! own due-ordered queue, not in a thread. A link outage and a
//! partition are the same fault to every substrate, a window during
//! which the messages crossing a cut are held, never an event of the
//! run: the router holds them until the last covering window ends, and
//! the simulator's adversary withholds them while a window covers their
//! pair ([`FaultPlan::cut_until`] serves both). A reorder is a hold too, one
//! to three ticks long ([`FaultPlan::reorder_ticks`]).

use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;
use rtc_model::ProcessorId;

use crate::cluster::Envelope;

/// A duration in whole nanoseconds, saturating past ~584 years.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `count` ticks of wall clock at `tick` a tick, saturating.
pub(crate) fn wall(tick: Duration, count: u64) -> Duration {
    Duration::from_nanos(count.saturating_mul(nanos(tick)))
}

/// Per-message network delay model, in ticks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayModel {
    /// Deliver immediately (same-tick when the receiver is polling).
    None,
    /// Uniform random delay in `[min, max]` ticks.
    Uniform {
        /// Lower bound.
        min: u64,
        /// Upper bound.
        max: u64,
    },
    /// Mostly immediate, but with probability `permille/1000` a message
    /// is held for `spike` ticks — the "usually on time, sometimes
    /// late" behaviour the paper's model is built around.
    Spike {
        /// Probability of a spike, in thousandths.
        permille: u32,
        /// The spike length.
        spike: u64,
    },
}

impl DelayModel {
    /// Samples the wall-clock delay of one message at `tick` a tick, to
    /// the nanosecond.
    pub fn sample(self, tick: Duration, rng: &mut SmallRng) -> Duration {
        match self {
            DelayModel::None => Duration::ZERO,
            DelayModel::Uniform { min, max } => {
                let (min, max) = (wall(tick, min), wall(tick, max));
                if max <= min {
                    min
                } else {
                    min + Duration::from_nanos(rng.gen_range(0..=nanos(max - min)))
                }
            }
            DelayModel::Spike { permille, spike } => {
                if rng.gen_range(0..1000u32) < permille {
                    wall(tick, spike)
                } else {
                    Duration::ZERO
                }
            }
        }
    }
}

/// A scripted crash: the processor fails once its local clock reaches
/// `at_step`, without taking that step (the mid-broadcast failure of
/// the paper's model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashAt {
    /// The victim.
    pub victim: ProcessorId,
    /// The local step at which it dies.
    pub at_step: u64,
    /// Whether the sends of the victim's last completed step are lost
    /// too (the classic failed-mid-broadcast shape). Only the simulator
    /// reads this, just as only sockets read
    /// [`FaultPlan::reset_permille`]: a thread always loses its crashing
    /// step's own sends and none earlier.
    pub drop_final_sends: bool,
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
    /// Window start, in ticks from the start of the run.
    pub from: u64,
    /// Window end (exclusive), in ticks from the start of the run.
    pub until: u64,
}

impl LinkOutage {
    /// Whether the outage covers traffic between `x` and `y` at `at`,
    /// read on a clock of `per_tick` units a tick (simulator events or
    /// wall-clock nanoseconds).
    pub fn covers(&self, x: ProcessorId, y: ProcessorId, at: u64, per_tick: u64) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && within(at, per_tick, self.from, self.until)
    }
}

/// Whether `at`, on a clock of `per_tick` units a tick, falls in the
/// tick window `[from, until)`.
fn within(at: u64, per_tick: u64, from: u64, until: u64) -> bool {
    at >= from.saturating_mul(per_tick) && at < until.saturating_mul(per_tick)
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
    /// Window start, in ticks from the start of the run.
    pub from: u64,
    /// Window end (the heal, exclusive), in ticks from the start of the
    /// run.
    pub until: u64,
}

impl NetPartition {
    /// Whether traffic between `x` and `y` at `at`, read on a clock of
    /// `per_tick` units a tick, crosses the partition while it is
    /// active.
    pub fn covers(&self, x: ProcessorId, y: ProcessorId, at: u64, per_tick: u64) -> bool {
        within(at, per_tick, self.from, self.until)
            && match (self.groups.get(x.index()), self.groups.get(y.index())) {
                (Some(gx), Some(gy)) => gx != gy,
                _ => false,
            }
    }
}

/// A scripted restart: at tick `at` of the run, a crashed processor is
/// brought back — either from the snapshot captured at its crash
/// (modelling stable storage surviving the fault) or from its initial
/// state (an amnesiac rejoin, safe only because decisions are caught up
/// from peers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartAt {
    /// The processor to revive; it must have a scripted crash.
    pub victim: ProcessorId,
    /// When it comes back, in ticks from the start of the run.
    pub at: u64,
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
    /// A victim or an outage endpoint is outside the population `0..n`.
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

/// The full fault plan for one run, its times in ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// a second copy is held with its own sampled hold, so the receiver
    /// may see the payload twice and in either order. Automata must be idempotent against this.
    pub duplicate_permille: u32,
    /// Probability (in thousandths) that a sent message is held for an
    /// extra one-to-three ticks, letting later traffic overtake it —
    /// the reordering fault of every substrate
    /// ([`FaultPlan::reorder_ticks`]).
    pub reorder_permille: u32,
    /// Probability (in thousandths) that a link connection is torn down
    /// after carrying a message, forcing the sender through its
    /// reconnect/backoff path. Only the socket substrate (`rtc-net`)
    /// has connections to reset; the simulator and the channel-based
    /// runtime ignore this knob (their links cannot fail independently
    /// of the process).
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

    /// Adds a scripted crash that loses only the crashing step's own
    /// sends ([`CrashAt::drop_final_sends`] unset).
    #[must_use]
    pub fn with_crash(mut self, victim: ProcessorId, at_step: u64) -> FaultPlan {
        self.crashes.push(CrashAt {
            victim,
            at_step,
            drop_final_sends: false,
        });
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayModel) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// Adds a link outage between `a` and `b` over ticks `[from, until)`.
    #[must_use]
    pub fn with_link_outage(
        mut self,
        a: ProcessorId,
        b: ProcessorId,
        from: u64,
        until: u64,
    ) -> FaultPlan {
        self.outages.push(LinkOutage { a, b, from, until });
        self
    }

    /// Adds a scripted restart of a crashed processor at tick `at`.
    #[must_use]
    pub fn with_restart(mut self, victim: ProcessorId, at: u64, from_snapshot: bool) -> FaultPlan {
        self.restarts.push(RestartAt {
            victim,
            at,
            from_snapshot,
        });
        self
    }

    /// Adds a multi-way partition with group assignment `groups` over
    /// ticks `[from, until)`.
    #[must_use]
    pub fn with_partition(mut self, groups: Vec<u32>, from: u64, until: u64) -> FaultPlan {
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
        let mut named = self
            .crashes
            .iter()
            .map(|c| c.victim)
            .chain(self.restarts.iter().map(|r| r.victim))
            .chain(self.outages.iter().flat_map(|o| [o.a, o.b]));
        if let Some(p) = named.find(|p| p.index() >= n) {
            return Err(FaultPlanError::UnknownProcessor(p));
        }
        let mut crash_victims = std::collections::BTreeSet::new();
        for c in &self.crashes {
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
    /// sent at offset `at` from the start of the run, at `tick` a tick:
    /// `(hold, duplicate_hold, reset)`. [`FaultRouter::route`] is the
    /// one caller, for both wall-clock substrates, so the draw order —
    /// delay, reorder, duplicate, reset — is fixed here.
    ///
    /// * `hold`: the sampled delay, stretched to the end of any outage
    ///   or partition window covering the pair (the cut buffers, it
    ///   never drops), plus the reorder hold
    ///   ([`FaultPlan::reorder_ticks`]).
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
        let mut hold = self.delay.sample(tick, rng);
        if let Some(until) = self.cut_until(from, to, nanos(at), nanos(tick)) {
            hold = hold.max(wall(tick, until).saturating_sub(at));
        }
        hold += tick * self.reorder_ticks(rng);
        let duplicate_hold =
            hit(self.duplicate_permille, rng).then(|| hold + tick * rng.gen_range(1..=3u32));
        (hold, duplicate_hold, hit(self.reset_permille, rng))
    }

    /// The reorder dice for one message: 0, or, when the
    /// [`FaultPlan::reorder_permille`] die hits, one to three ticks of
    /// extra hold, so younger traffic overtakes the message. A reorder
    /// is this hold on every substrate: [`FaultPlan::roll`] adds it on
    /// the wall clock, and `rtc-chaos`'s `ChaosAdversary` adds it as
    /// `n` events a tick on the simulator.
    pub fn reorder_ticks(&self, rng: &mut SmallRng) -> u32 {
        if hit(self.reorder_permille, rng) {
            rng.gen_range(1..=3u32)
        } else {
            0
        }
    }

    /// If traffic between `x` and `y` at `at`, read on a clock of
    /// `per_tick` units a tick (simulator events or wall-clock
    /// nanoseconds), is cut by an outage or a partition, returns the
    /// tick at which the last covering window ends.
    pub fn cut_until(&self, x: ProcessorId, y: ProcessorId, at: u64, per_tick: u64) -> Option<u64> {
        let outages = self.outages.iter().filter(|o| o.covers(x, y, at, per_tick));
        let partitions = self
            .partitions
            .iter()
            .filter(|p| p.covers(x, y, at, per_tick));
        outages
            .map(|o| o.until)
            .chain(partitions.map(|p| p.until))
            .max()
    }
}

/// Whether a die that hits `permille` times in a thousand hits; a die
/// that never hits is not rolled.
fn hit(permille: u32, rng: &mut SmallRng) -> bool {
    permille > 0 && rng.gen_range(0..1000u32) < permille
}

/// A run's network faults at work, the same on both wall-clock
/// substrates: [`FaultRouter::route`] rolls [`FaultPlan::roll`] for one
/// envelope and tells the caller when it is due. The channel substrate
/// routes each message as it is sent and passes it, with its due
/// instant, to the receiver's inbox; the socket substrate routes each
/// frame where it lands, in the receiving node's tick. Either way a
/// held envelope waits in its receiver's own hold queue: there is no
/// thread for it.
#[derive(Debug)]
pub struct FaultRouter {
    plan: FaultPlan,
    start: Instant,
    tick: Duration,
}

impl FaultRouter {
    /// A router for `plan`, its windows read at `tick` a tick from now.
    pub fn new(plan: FaultPlan, tick: Duration) -> FaultRouter {
        FaultRouter {
            plan,
            start: Instant::now(),
            tick,
        }
    }

    /// Routes `env`, bound for `to` and sent (or read) at `now`, on
    /// `rng`'s dice: `land` gets the envelope with the instant it is
    /// due — `now` unless the dice hold it — and, when the duplicate die
    /// hits, a second copy, always held. Returns the reset die: tear
    /// down the connection that carried `env` once everything that
    /// arrived with it is routed (only sockets have one; see
    /// [`FaultPlan::reset_permille`]). The plan's windows are read at
    /// `now`'s offset from the router's making. A plan without network
    /// faults lands everything at `now` and draws no dice.
    pub fn route<M: Clone>(
        &self,
        env: Envelope<M>,
        to: ProcessorId,
        now: Instant,
        rng: &mut SmallRng,
        mut land: impl FnMut(Instant, Envelope<M>),
    ) -> bool {
        let at = now.saturating_duration_since(self.start);
        let (hold, duplicate_hold, reset) = self.plan.roll(env.from, to, at, self.tick, rng);
        if let Some(hold) = duplicate_hold {
            land(now + hold, env.clone());
        }
        land(now + hold, env);
        reset
    }
}

/// Something held until `due`. Ordered so a [`BinaryHeap`] pops the
/// earliest `due` first, `seq` (the queue's push counter) breaking ties.
struct Due<T> {
    due: Instant,
    seq: u64,
    item: T,
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

/// One node's held envelopes, due-ordered: what the plan's delays,
/// windows, reorders and duplicates hold for it. The queue belongs to
/// the node's slot, not to one incarnation, so a hold that falls due
/// while the node is down reaches its successor.
pub(crate) struct HoldQueue<T> {
    heap: BinaryHeap<Due<T>>,
    seq: u64,
}

impl<T> Default for HoldQueue<T> {
    fn default() -> HoldQueue<T> {
        HoldQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> HoldQueue<T> {
    /// Holds `item` until `due`.
    pub(crate) fn push(&mut self, due: Instant, item: T) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Due { due, seq, item });
    }

    /// The earliest hold due by `now`, held longest first among equals.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.heap.peek()?.due > now {
            return None;
        }
        self.heap.pop().map(|d| d.item)
    }

    /// How many holds are due after `now`: at teardown, the traffic
    /// whose hold outlived the run, counted rather than silently
    /// dropped.
    pub(crate) fn outliving(&self, now: Instant) -> u64 {
        self.heap.iter().filter(|d| d.due > now).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn none_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let tick = Duration::from_millis(1);
        assert_eq!(DelayModel::None.sample(tick, &mut rng), Duration::ZERO);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(2);
        let tick = Duration::from_millis(1);
        let model = DelayModel::Uniform { min: 1, max: 3 };
        for _ in 0..100 {
            let d = model.sample(tick, &mut rng);
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(3));
        }
    }

    #[test]
    fn spike_rate_is_roughly_honoured() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = DelayModel::Spike {
            permille: 100,
            spike: 50,
        };
        let spikes = (0..10_000)
            .filter(|_| model.sample(Duration::from_millis(1), &mut rng) > Duration::ZERO)
            .count();
        assert!((500..1500).contains(&spikes), "{spikes}");
    }

    #[test]
    fn plan_lookup() {
        let plan = FaultPlan::none().with_crash(ProcessorId::new(2), 7);
        assert_eq!(plan.crash_step(ProcessorId::new(2)), Some(7));
        assert_eq!(plan.crash_step(ProcessorId::new(1)), None);
        assert!(!plan.crashes[0].drop_final_sends);
    }

    #[test]
    fn uniform_saturates_on_huge_spans() {
        let mut rng = SmallRng::seed_from_u64(4);
        let model = DelayModel::Uniform { min: 0, max: 10 };
        // A span whose nanosecond count exceeds u64::MAX; unsaturated it
        // would wrap to a tiny delay.
        let tick = Duration::from_secs(u64::MAX / 1_000_000_000);
        for _ in 0..10 {
            let _ = model.sample(tick, &mut rng);
        }
    }

    #[test]
    fn validate_accepts_admissible_plans() {
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(1), 3)
            .with_crash(ProcessorId::new(2), 5)
            .with_restart(ProcessorId::new(1), 50, true);
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
            from: 10,
            until: 20,
        };
        let (a, b, c) = (
            ProcessorId::new(0),
            ProcessorId::new(1),
            ProcessorId::new(2),
        );
        assert!(part.covers(a, c, 15, 1), "cross-group traffic is cut");
        assert!(part.covers(c, a, 15, 1), "cuts are symmetric");
        assert!(!part.covers(a, b, 15, 1), "same-group traffic flows");
        assert!(!part.covers(a, c, 5, 1), "before window");
        assert!(!part.covers(a, c, 20, 1), "heal is exclusive");
        // On a clock of four units a tick the window is [40, 80).
        assert!(!part.covers(a, c, 39, 4) && part.covers(a, c, 40, 4));
        assert!(part.covers(a, c, 79, 4) && !part.covers(a, c, 80, 4));
    }

    #[test]
    fn cut_until_reports_latest_covering_heal() {
        let plan = FaultPlan::none()
            .with_partition(vec![0, 1, 1], 0, 10)
            .with_partition(vec![0, 1, 0], 5, 30)
            .with_link_outage(ProcessorId::new(0), ProcessorId::new(2), 0, 12);
        let (a, b, c) = (
            ProcessorId::new(0),
            ProcessorId::new(1),
            ProcessorId::new(2),
        );
        assert_eq!(plan.cut_until(a, b, 6, 1), Some(30));
        // p0 and p2 share a side in the second cut, so only the first
        // window (healing at 10) and the outage (ending at 12) apply.
        assert_eq!(plan.cut_until(a, c, 6, 1), Some(12));
        assert_eq!(plan.cut_until(a, c, 11, 1), Some(12));
        assert_eq!(plan.cut_until(a, b, 40, 1), None);
    }

    #[test]
    fn validate_rejects_malformed_hostile_network_settings() {
        let short = FaultPlan::none().with_partition(vec![0, 1], 0, 5);
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
        let stray =
            FaultPlan::none().with_link_outage(ProcessorId::new(0), ProcessorId::new(9), 0, 5);
        assert_eq!(
            stray.validate(5, 2),
            Err(FaultPlanError::UnknownProcessor(ProcessorId::new(9)))
        );
        let ok = FaultPlan::none()
            .with_partition(vec![0, 0, 1, 1, 0], 0, 5)
            .with_link_outage(ProcessorId::new(0), ProcessorId::new(4), 0, 5)
            .with_duplication(50)
            .with_reordering(100)
            .with_resets(80);
        assert_eq!(ok.validate(5, 2), Ok(()));
    }

    #[test]
    fn validate_rejects_restart_inconsistencies() {
        let no_crash = FaultPlan::none().with_restart(ProcessorId::new(3), 1, false);
        assert_eq!(
            no_crash.validate(5, 2),
            Err(FaultPlanError::RestartWithoutCrash(ProcessorId::new(3)))
        );
        let doubled = FaultPlan::none()
            .with_crash(ProcessorId::new(3), 2)
            .with_restart(ProcessorId::new(3), 1, false)
            .with_restart(ProcessorId::new(3), 2, true);
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
        // computed by the socket substrate's former fault proxy before
        // the dice moved here (same plan, rng and tick). A changed
        // draw order or count shifts every later row. The tick is 1 ms,
        // so the plan's windows, in ticks, are the same numbers.
        let ms = Duration::from_millis;
        let p = ProcessorId::new;
        let plan = FaultPlan::none()
            .with_delay(DelayModel::Spike {
                permille: 400,
                spike: 5,
            })
            .with_link_outage(p(0), p(1), 0, 10)
            .with_partition(vec![0, 1, 1], 0, 20)
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
        // (due ms, push order): ties on `due` pop in push order, and
        // nothing pops before it is due.
        let t0 = Instant::now();
        let mut queue = HoldQueue::default();
        for (ms, seq) in [(7, 0), (3, 1), (9, 2), (3, 3), (3, 4)] {
            queue.push(t0 + Duration::from_millis(ms), (ms, seq));
        }
        let at = |ms| t0 + Duration::from_millis(ms);
        assert_eq!(queue.pop_due(at(2)), None);
        let mut popped: Vec<(u64, u64)> = std::iter::from_fn(|| queue.pop_due(at(5))).collect();
        assert_eq!(popped, vec![(3, 1), (3, 3), (3, 4)]);
        popped.extend(std::iter::from_fn(|| queue.pop_due(at(9))));
        assert_eq!(popped, vec![(3, 1), (3, 3), (3, 4), (7, 0), (9, 2)]);
    }

    fn envelope(from: usize) -> Envelope<usize> {
        Envelope {
            from: ProcessorId::new(from),
            instance: 0,
            sent_at_tick: 0,
            sent_event: 0,
            msg: from,
        }
    }

    #[test]
    fn a_node_queue_counts_holds_still_queued_at_teardown() {
        // Three holds due an hour from now, and the run already over:
        // none is delivered, and all three are counted.
        let now = Instant::now();
        let due = now + Duration::from_secs(3600);
        let mut queue = HoldQueue::default();
        for from in 0..3 {
            queue.push(due, envelope(from));
        }
        assert_eq!(queue.outliving(now), 3);
        assert!(queue.pop_due(now).is_none());
        // A hold already due is not one that outlived the run.
        queue.push(now, envelope(3));
        assert_eq!(queue.outliving(now), 3);
    }

    #[test]
    fn a_plan_without_network_faults_routes_everything_now_and_draws_no_dice() {
        // Crashes and restarts are not network faults: every envelope,
        // at any time, lands once and is due the instant it was routed,
        // nothing is held, and the dice stream is where it started.
        let p = ProcessorId::new;
        let plan = FaultPlan::none()
            .with_crash(p(1), 3)
            .with_restart(p(1), 9, true);
        let router = FaultRouter::new(plan, Duration::from_millis(1));
        let mut rng = SmallRng::seed_from_u64(7);
        let untouched = rng.clone();
        for (from, to) in [(0, 1), (1, 0), (2, 2)] {
            for at in [0, 5, 3_600_000].map(Duration::from_millis) {
                let now = router.start + at;
                let mut landed = Vec::new();
                let reset = router.route(envelope(from), p(to), now, &mut rng, |due, env| {
                    landed.push((due, env.msg));
                });
                assert_eq!(landed, vec![(now, from)], "nothing was held");
                assert!(!reset);
            }
        }
        assert_eq!(rng, untouched);
    }
}
