//! Substrate-neutral randomized fault schedules.
//!
//! A [`ChaosSchedule`] describes one commit run and everything that
//! goes wrong in it — crashes, restarts, delay spikes, link flaps — in
//! *abstract step units* so the same schedule can be executed on the
//! discrete-event simulator (steps become scheduler events) and on the
//! threaded runtime (steps become tick multiples). Schedules are
//! generated deterministically from a campaign seed and an index, so a
//! failing schedule can always be regenerated from two integers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtc_core::CommitConfig;
use rtc_model::{ProcessorId, TimingParams, Value};

/// One scripted crash: the victim's thread/automaton fails once its
/// local clock reaches `at_step`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosCrash {
    /// The processor that crashes.
    pub victim: ProcessorId,
    /// Local step count at which the crash fires.
    pub at_step: u64,
    /// Whether the victim's final-step sends are dropped (the classic
    /// failed-mid-broadcast shape). Only the simulator can express
    /// this distinction; the runtime always loses the crashing step's
    /// sends.
    pub drop_final_sends: bool,
}

/// One scripted restart of a crashed processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosRestart {
    /// The crashed processor to revive.
    pub victim: ProcessorId,
    /// How many abstract steps after its crash trigger the processor
    /// comes back.
    pub delay_steps: u64,
    /// Restore from the crash-time snapshot (`true`, the node
    /// persisted its state and resumes as a participant) or from its
    /// initial state (`false`, the node lost everything since boot and
    /// rejoins as a non-participating observer that only catches up on
    /// the decision).
    pub from_snapshot: bool,
}

/// One link flap: traffic between `a` and `b` is held during the
/// half-open step window `[from_step, until_step)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosFlap {
    /// One endpoint.
    pub a: ProcessorId,
    /// The other endpoint.
    pub b: ProcessorId,
    /// Window start, in abstract steps.
    pub from_step: u64,
    /// Window end (exclusive), in abstract steps.
    pub until_step: u64,
}

/// One network partition: the processors in `side` are cut off from
/// everyone else during the half-open step window
/// `[from_step, heal_step)`, after which the network heals and buffered
/// cross-cut traffic flows again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPartition {
    /// The minority side of the cut (nonempty, proper subset).
    pub side: Vec<ProcessorId>,
    /// Window start, in abstract steps.
    pub from_step: u64,
    /// Window end (exclusive), in abstract steps.
    pub heal_step: u64,
}

impl ChaosPartition {
    /// Group-per-processor encoding of the cut (side = 1, rest = 0),
    /// as both substrates' partition primitives expect.
    pub fn groups(&self, n: usize) -> Vec<u32> {
        let mut g = vec![0u32; n];
        for p in &self.side {
            g[p.index()] = 1;
        }
        g
    }
}

/// The network delay regime of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosDelay {
    /// Deliver promptly.
    None,
    /// Every message is held for a uniformly random lag of up to
    /// `max_steps` abstract steps.
    Jitter {
        /// Upper bound on the per-message lag.
        max_steps: u64,
    },
    /// Mostly prompt, but with probability `permille/1000` a message is
    /// held for `steps` — the paper's "usually on time, sometimes
    /// late" behaviour.
    Spike {
        /// Spike probability in thousandths.
        permille: u32,
        /// Spike length in abstract steps.
        steps: u64,
    },
}

/// A complete randomized fault schedule for one commit run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// Seed for the run's coin flips (and, on the runtime, its network
    /// jitter).
    pub seed: u64,
    /// Population size.
    pub n: usize,
    /// Fault bound the protocol is configured for.
    pub t: usize,
    /// Initial votes, one per processor.
    pub votes: Vec<Value>,
    /// Whether Protocol 2's early-abort optimization is enabled.
    pub early_abort: bool,
    /// The delay regime.
    pub delay: ChaosDelay,
    /// Scripted crashes (distinct victims).
    pub crashes: Vec<ChaosCrash>,
    /// Scripted restarts (each victim also appears in `crashes`).
    pub restarts: Vec<ChaosRestart>,
    /// Scripted link flaps.
    pub flaps: Vec<ChaosFlap>,
    /// Scripted healing partitions (at most one active at a time).
    pub partitions: Vec<ChaosPartition>,
    /// Probability, in thousandths, that a message is duplicated in
    /// flight.
    pub duplicate_permille: u32,
    /// Probability, in thousandths, that the connection carrying a
    /// message is reset right after delivering it. Only the socket
    /// substrate can express this fault; the simulator and the
    /// channel-based runtime ignore it.
    pub reset_permille: u32,
    /// Probability, in thousandths, that a message is reordered behind
    /// its queue mates.
    pub reorder_permille: u32,
}

/// Knobs for the schedule generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleParams {
    /// Smallest population to draw (at least 3).
    pub min_population: usize,
    /// Largest population to draw.
    pub max_population: usize,
    /// Permit degraded schedules that crash `t + 1` processors
    /// (Theorem 11 territory). Such schedules are always given enough
    /// snapshot restarts to terminate unless `allow_stall` is set.
    pub allow_degraded: bool,
    /// Permit schedules whose surviving-participant count stays below
    /// the `n - t` quorum — these are *expected* to stall gracefully
    /// rather than decide.
    pub allow_stall: bool,
}

impl Default for ScheduleParams {
    fn default() -> ScheduleParams {
        ScheduleParams {
            min_population: 3,
            max_population: 5,
            allow_degraded: true,
            allow_stall: false,
        }
    }
}

impl ChaosSchedule {
    /// The schedule in which nothing goes wrong: `n` processors voting
    /// `votes` under the largest fault bound `n` tolerates, early abort
    /// on, a prompt network. Hand-written schedules start here and add
    /// their faults.
    ///
    /// # Panics
    ///
    /// Panics unless there is one vote per processor.
    pub fn fault_free(n: usize, seed: u64, votes: Vec<Value>) -> ChaosSchedule {
        assert_eq!(votes.len(), n, "one vote per processor");
        ChaosSchedule {
            seed,
            n,
            t: CommitConfig::max_tolerated(n),
            votes,
            early_abort: true,
            delay: ChaosDelay::None,
            crashes: Vec::new(),
            restarts: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reset_permille: 0,
            reorder_permille: 0,
        }
    }

    /// The protocol configuration the schedule runs under, on every
    /// substrate.
    ///
    /// # Panics
    ///
    /// Panics if the population rejects the fault bound — generated
    /// schedules never do.
    pub fn commit_config(&self) -> CommitConfig {
        CommitConfig::new(self.n, self.t, TimingParams::default())
            .expect("schedule population accepts its fault bound")
            .with_early_abort(self.early_abort)
    }

    /// Deterministically generates the `index`-th schedule of the
    /// campaign identified by `campaign_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `params` describes an empty population range or one
    /// whose smallest population cannot tolerate a fault.
    pub fn generate(params: &ScheduleParams, campaign_seed: u64, index: u64) -> ChaosSchedule {
        assert!(
            3 <= params.min_population && params.min_population <= params.max_population,
            "population range must be within 3..",
        );
        let mut rng = SmallRng::seed_from_u64(
            campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0A7_1986,
        );
        let n = rng.gen_range(params.min_population..=params.max_population);
        let t = CommitConfig::max_tolerated(n);
        assert!(t >= 1, "population {n} tolerates no faults");

        let votes: Vec<Value> = (0..n)
            .map(|_| {
                if rng.gen_range(0..100u32) < 75 {
                    Value::One
                } else {
                    Value::Zero
                }
            })
            .collect();
        let early_abort = rng.gen_range(0..100u32) < 80;

        let delay = match rng.gen_range(0..10u32) {
            0..=3 => ChaosDelay::None,
            4..=6 => ChaosDelay::Jitter {
                max_steps: rng.gen_range(1..=3u64),
            },
            _ => ChaosDelay::Spike {
                permille: rng.gen_range(50..=250u32),
                steps: rng.gen_range(2..=6u64),
            },
        };

        let flaps = (0..rng.gen_range(0..=2u32))
            .map(|_| {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                let from_step = rng.gen_range(0..=12u64);
                ChaosFlap {
                    a: ProcessorId::new(a.min(b)),
                    b: ProcessorId::new(a.max(b)),
                    from_step,
                    until_step: from_step + rng.gen_range(2..=8u64),
                }
            })
            .collect();

        // At most one healing partition per schedule: the simulator
        // keeps a single active cut at a time, and one cut per run is
        // already the interesting case (quorum split, heal, decide).
        let partitions = if rng.gen_range(0..100u32) < 35 {
            let side_size = rng.gen_range(1..n);
            let mut members: Vec<usize> = (0..n).collect();
            for i in 0..side_size {
                let j = rng.gen_range(i..n);
                members.swap(i, j);
            }
            let mut side: Vec<ProcessorId> = members[..side_size]
                .iter()
                .map(|&p| ProcessorId::new(p))
                .collect();
            side.sort();
            let from_step = rng.gen_range(0..=10u64);
            vec![ChaosPartition {
                side,
                from_step,
                heal_step: from_step + rng.gen_range(2..=8u64),
            }]
        } else {
            Vec::new()
        };
        let duplicate_permille = if rng.gen_range(0..100u32) < 40 {
            rng.gen_range(50..=300u32)
        } else {
            0
        };
        let reorder_permille = if rng.gen_range(0..100u32) < 40 {
            rng.gen_range(50..=300u32)
        } else {
            0
        };

        let max_crashes = if params.allow_degraded { t + 1 } else { t };
        let crash_count = rng.gen_range(0..=max_crashes);
        let mut victims: Vec<usize> = (0..n).collect();
        // Fisher–Yates prefix: pick `crash_count` distinct victims.
        for i in 0..crash_count {
            let j = rng.gen_range(i..n);
            victims.swap(i, j);
        }
        let crashes: Vec<ChaosCrash> = victims[..crash_count]
            .iter()
            .map(|&v| ChaosCrash {
                victim: ProcessorId::new(v),
                at_step: rng.gen_range(0..=10u64),
                drop_final_sends: rng.gen_range(0..2u32) == 0,
            })
            .collect();

        let mut restarts: Vec<ChaosRestart> = Vec::new();
        for c in &crashes {
            if rng.gen_range(0..100u32) < 60 {
                restarts.push(ChaosRestart {
                    victim: c.victim,
                    delay_steps: rng.gen_range(5..=20u64),
                    from_snapshot: rng.gen_range(0..2u32) == 0,
                });
            }
        }
        if !params.allow_stall {
            ensure_quorum_recoverable(&crashes, &mut restarts, t, &mut rng);
        }

        let seed = rng.gen_range(0..u64::MAX);
        // Socket-only fault, drawn *after* every pre-existing draw so
        // the schedules of older campaigns stay bit-identical under the
        // same (campaign_seed, index).
        let reset_permille = if rng.gen_range(0..100u32) < 30 {
            rng.gen_range(50..=250u32)
        } else {
            0
        };

        ChaosSchedule {
            seed,
            n,
            t,
            votes,
            early_abort,
            delay,
            crashes,
            restarts,
            flaps,
            partitions,
            duplicate_permille,
            reset_permille,
            reorder_permille,
        }
    }

    /// The flagship Theorem 11 schedule: `t + 1` processors (everyone
    /// but a survivor prefix) crash at their very first step with the
    /// early-abort optimization disabled, so the survivors provably
    /// cannot assemble an `n - t` quorum and the run stalls without a
    /// decision. With `recover` set, every victim is restarted from its
    /// crash-time snapshot, after which termination is owed again.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn theorem11(n: usize, seed: u64, recover: bool) -> ChaosSchedule {
        assert!(n >= 3, "Theorem 11 needs a nontrivial population");
        let t = CommitConfig::max_tolerated(n);
        let crashes: Vec<ChaosCrash> = (1..=t + 1)
            .map(|i| ChaosCrash {
                victim: ProcessorId::new(i),
                at_step: 0,
                drop_final_sends: true,
            })
            .collect();
        let restarts = if recover {
            crashes
                .iter()
                .enumerate()
                .map(|(i, c)| ChaosRestart {
                    victim: c.victim,
                    delay_steps: 40 + 6 * i as u64,
                    from_snapshot: true,
                })
                .collect()
        } else {
            Vec::new()
        };
        ChaosSchedule {
            early_abort: false,
            crashes,
            restarts,
            ..ChaosSchedule::fault_free(n, seed, vec![Value::One; n])
        }
    }

    /// Whether the schedule crashes more than `t` processors.
    pub fn degraded(&self) -> bool {
        self.crashes.len() > self.t
    }

    /// Number of processors that end the schedule effectively failed:
    /// crashed and never restored to participation. An amnesiac
    /// restart rejoins as an observer, so it does not count towards the
    /// participating quorum.
    pub fn effective_crashes(&self) -> usize {
        self.crashes
            .iter()
            .filter(|c| {
                !self
                    .restarts
                    .iter()
                    .any(|r| r.victim == c.victim && r.from_snapshot)
            })
            .count()
    }

    /// Whether enough participants survive (or are restored by
    /// snapshot restarts) for the protocol to owe termination:
    /// `effective_crashes <= t`.
    pub fn quorum_recoverable(&self) -> bool {
        self.effective_crashes() <= self.t
    }

    /// The scripted crash of `p`, if any.
    pub fn crash_of(&self, p: ProcessorId) -> Option<&ChaosCrash> {
        self.crashes.iter().find(|c| c.victim == p)
    }
}

/// Upgrades or adds snapshot restarts until at most `t` crash victims
/// stay out of the participating quorum.
fn ensure_quorum_recoverable(
    crashes: &[ChaosCrash],
    restarts: &mut Vec<ChaosRestart>,
    t: usize,
    rng: &mut SmallRng,
) {
    let effective = |restarts: &[ChaosRestart]| {
        crashes
            .iter()
            .filter(|c| {
                !restarts
                    .iter()
                    .any(|r| r.victim == c.victim && r.from_snapshot)
            })
            .count()
    };
    // First upgrade existing amnesiac restarts, then add restarts for
    // victims that have none.
    let mut i = 0;
    while effective(restarts) > t && i < restarts.len() {
        restarts[i].from_snapshot = true;
        i += 1;
    }
    let mut candidates: Vec<ProcessorId> = crashes
        .iter()
        .map(|c| c.victim)
        .filter(|v| !restarts.iter().any(|r| r.victim == *v))
        .collect();
    while effective(restarts) > t {
        let v = candidates.pop().expect("enough victims to restart");
        restarts.push(ChaosRestart {
            victim: v,
            delay_steps: rng.gen_range(5..=20u64),
            from_snapshot: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed_and_index() {
        let p = ScheduleParams::default();
        let a = ChaosSchedule::generate(&p, 7, 3);
        let b = ChaosSchedule::generate(&p, 7, 3);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(&p, 7, 4);
        assert_ne!(a, c, "different indices should differ");
    }

    #[test]
    fn generated_schedules_are_internally_consistent() {
        let p = ScheduleParams::default();
        for i in 0..200 {
            let s = ChaosSchedule::generate(&p, 42, i);
            assert_eq!(s.votes.len(), s.n);
            assert!(s.crashes.len() <= s.t + 1);
            // Distinct crash victims.
            let mut victims: Vec<_> = s.crashes.iter().map(|c| c.victim).collect();
            victims.sort();
            victims.dedup();
            assert_eq!(victims.len(), s.crashes.len());
            // Every restart has a crash; at most one restart per victim.
            let mut rv: Vec<_> = s.restarts.iter().map(|r| r.victim).collect();
            rv.sort();
            rv.dedup();
            assert_eq!(rv.len(), s.restarts.len());
            for r in &s.restarts {
                assert!(s.crash_of(r.victim).is_some());
            }
            // Default params never generate expected-stall schedules.
            assert!(s.quorum_recoverable(), "schedule {i} cannot recover quorum");
            for f in &s.flaps {
                assert!(f.a != f.b && f.until_step > f.from_step);
            }
            for part in &s.partitions {
                assert!(!part.side.is_empty() && part.side.len() < s.n);
                assert!(part.heal_step > part.from_step);
                let groups = part.groups(s.n);
                assert_eq!(groups.iter().filter(|g| **g == 1).count(), part.side.len());
            }
            assert!(s.duplicate_permille <= 1000 && s.reorder_permille <= 1000);
            assert!(s.reset_permille <= 1000);
        }
    }

    #[test]
    fn generation_exercises_the_hostile_network_vocabulary() {
        let p = ScheduleParams::default();
        let schedules: Vec<_> = (0..200)
            .map(|i| ChaosSchedule::generate(&p, 42, i))
            .collect();
        assert!(
            schedules.iter().any(|s| !s.partitions.is_empty()),
            "campaigns should include partitions"
        );
        assert!(schedules.iter().any(|s| s.duplicate_permille > 0));
        assert!(schedules.iter().any(|s| s.reorder_permille > 0));
        assert!(schedules.iter().any(|s| s.reset_permille > 0));
    }

    #[test]
    fn theorem11_shape() {
        let stall = ChaosSchedule::theorem11(3, 9, false);
        assert_eq!(stall.crashes.len(), stall.t + 1);
        assert!(stall.degraded());
        assert!(!stall.quorum_recoverable());
        assert!(!stall.early_abort);

        let recover = ChaosSchedule::theorem11(3, 9, true);
        assert!(recover.degraded());
        assert!(recover.quorum_recoverable());
        assert_eq!(recover.restarts.len(), recover.crashes.len());
        assert!(recover.restarts.iter().all(|r| r.from_snapshot));
    }
}
