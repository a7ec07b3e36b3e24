//! Randomized fault schedules.
//!
//! A [`ChaosSchedule`] is one commit run — population, votes, seed —
//! and one [`FaultPlan`]: everything that goes wrong in the run, from
//! crashes and restarts to delay regimes, link outages, partitions,
//! duplication, reordering and resets. The plan counts time in ticks,
//! and every substrate reads it in its own unit: the simulator runs a
//! tick as one round-robin rotation of `n` events, the threaded runtime
//! and the sockets as the cluster's `tick` of wall clock. Schedules are
//! generated deterministically from a campaign seed and an index, so a
//! failing schedule can always be regenerated from two integers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtc_core::CommitConfig;
use rtc_model::{ProcessorId, TimingParams, Value};
use rtc_runtime::{CrashAt, DelayModel, FaultPlan, RestartAt};

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
    /// Everything that goes wrong in the run, its times in ticks.
    pub faults: FaultPlan,
}

impl ChaosSchedule {
    /// The schedule in which nothing goes wrong: `n` processors voting
    /// `votes` under the largest fault bound `n` tolerates, early abort
    /// on, [`FaultPlan::none`]. Hand-written schedules start here and
    /// add their faults.
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
            faults: FaultPlan::none(),
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
    /// campaign identified by `campaign_seed`: a population of 3 to 5
    /// under the largest fault bound `t` it tolerates, and up to `t + 1`
    /// crashes. A restart comes back at its victim's crash step plus a
    /// drawn delay, and the plan is [`degraded`](FaultPlan::degraded)
    /// exactly when it crashes `t + 1` processors. Every schedule is
    /// [`quorum_recoverable`](ChaosSchedule::quorum_recoverable): enough
    /// snapshot restarts are added that at most `t` victims stay out of
    /// the quorum, so the protocol owes termination in every one.
    pub fn generate(campaign_seed: u64, index: u64) -> ChaosSchedule {
        let mut rng = SmallRng::seed_from_u64(
            campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0A7_1986,
        );
        let n = rng.gen_range(3..=5usize);
        let t = CommitConfig::max_tolerated(n);

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

        let mut faults = FaultPlan::none().with_delay(match rng.gen_range(0..10u32) {
            0..=3 => DelayModel::None,
            4..=6 => DelayModel::Uniform {
                min: 0,
                max: rng.gen_range(1..=3u64),
            },
            _ => DelayModel::Spike {
                permille: rng.gen_range(50..=250u32),
                spike: rng.gen_range(2..=6u64),
            },
        });

        for _ in 0..rng.gen_range(0..=2u32) {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            let from = rng.gen_range(0..=12u64);
            let until = from + rng.gen_range(2..=8u64);
            let (a, b) = (ProcessorId::new(a.min(b)), ProcessorId::new(a.max(b)));
            faults = faults.with_link_outage(a, b, from, until);
        }

        // At most one healing partition per schedule: one cut per run
        // is already the interesting case (quorum split, heal, decide).
        if rng.gen_range(0..100u32) < 35 {
            let side_size = rng.gen_range(1..n);
            let mut members: Vec<usize> = (0..n).collect();
            for i in 0..side_size {
                let j = rng.gen_range(i..n);
                members.swap(i, j);
            }
            // The side drawn is group 1, everyone else group 0.
            let mut groups = vec![0u32; n];
            for &p in &members[..side_size] {
                groups[p] = 1;
            }
            let from = rng.gen_range(0..=10u64);
            faults = faults.with_partition(groups, from, from + rng.gen_range(2..=8u64));
        }
        if rng.gen_range(0..100u32) < 40 {
            faults.duplicate_permille = rng.gen_range(50..=300u32);
        }
        if rng.gen_range(0..100u32) < 40 {
            faults.reorder_permille = rng.gen_range(50..=300u32);
        }

        let crash_count = rng.gen_range(0..=t + 1);
        let mut victims: Vec<usize> = (0..n).collect();
        // Fisher–Yates prefix: pick `crash_count` distinct victims.
        for i in 0..crash_count {
            let j = rng.gen_range(i..n);
            victims.swap(i, j);
        }
        for &v in &victims[..crash_count] {
            faults.crashes.push(CrashAt {
                victim: ProcessorId::new(v),
                at_step: rng.gen_range(0..=10u64),
                drop_final_sends: rng.gen_range(0..2u32) == 0,
            });
        }
        faults.degraded = crash_count > t;

        for c in &faults.crashes {
            if rng.gen_range(0..100u32) < 60 {
                faults.restarts.push(RestartAt {
                    victim: c.victim,
                    at: c.at_step + rng.gen_range(5..=20u64),
                    from_snapshot: rng.gen_range(0..2u32) == 0,
                });
            }
        }
        ensure_quorum_recoverable(&mut faults, t, &mut rng);

        let seed = rng.gen_range(0..u64::MAX);
        // Socket-only fault, drawn *after* every pre-existing draw so
        // the schedules of older campaigns stay bit-identical under the
        // same (campaign_seed, index).
        if rng.gen_range(0..100u32) < 30 {
            faults.reset_permille = rng.gen_range(50..=250u32);
        }

        ChaosSchedule {
            seed,
            n,
            t,
            votes,
            early_abort,
            faults,
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
        let victims = (1..=t + 1).map(ProcessorId::new);
        let crashes = victims
            .clone()
            .map(|victim| CrashAt {
                victim,
                at_step: 0,
                drop_final_sends: true,
            })
            .collect();
        let restarts = if recover {
            let at = (0..).map(|i| 40 + 6 * i);
            victims
                .zip(at)
                .map(|(victim, at)| RestartAt {
                    victim,
                    at,
                    from_snapshot: true,
                })
                .collect()
        } else {
            Vec::new()
        };
        ChaosSchedule {
            early_abort: false,
            faults: FaultPlan {
                crashes,
                restarts,
                degraded: true,
                ..FaultPlan::none()
            },
            ..ChaosSchedule::fault_free(n, seed, vec![Value::One; n])
        }
    }

    /// Number of processors that end the schedule effectively failed:
    /// crashed and never restored to participation. An amnesiac
    /// restart rejoins as an observer, so it does not count towards the
    /// participating quorum.
    pub fn effective_crashes(&self) -> usize {
        effective_crashes(&self.faults)
    }

    /// Whether enough participants survive (or are restored by
    /// snapshot restarts) for the protocol to owe termination:
    /// `effective_crashes <= t`.
    pub fn quorum_recoverable(&self) -> bool {
        self.effective_crashes() <= self.t
    }
}

/// Crash victims of `faults` with no snapshot restart.
fn effective_crashes(faults: &FaultPlan) -> usize {
    faults
        .crashes
        .iter()
        .filter(|c| {
            !faults
                .restarts
                .iter()
                .any(|r| r.victim == c.victim && r.from_snapshot)
        })
        .count()
}

/// Upgrades or adds snapshot restarts until at most `t` crash victims
/// stay out of the participating quorum.
fn ensure_quorum_recoverable(faults: &mut FaultPlan, t: usize, rng: &mut SmallRng) {
    // First upgrade existing amnesiac restarts, then add restarts for
    // victims that have none.
    let mut i = 0;
    while effective_crashes(faults) > t && i < faults.restarts.len() {
        faults.restarts[i].from_snapshot = true;
        i += 1;
    }
    let mut candidates: Vec<CrashAt> = faults
        .crashes
        .iter()
        .filter(|c| !faults.restarts.iter().any(|r| r.victim == c.victim))
        .copied()
        .collect();
    while effective_crashes(faults) > t {
        let c = candidates.pop().expect("enough victims to restart");
        faults.restarts.push(RestartAt {
            victim: c.victim,
            at: c.at_step + rng.gen_range(5..=20u64),
            from_snapshot: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed_and_index() {
        let a = ChaosSchedule::generate(7, 3);
        let b = ChaosSchedule::generate(7, 3);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(7, 4);
        assert_ne!(a, c, "different indices should differ");
    }

    #[test]
    fn generated_schedules_are_internally_consistent() {
        for i in 0..200 {
            let s = ChaosSchedule::generate(42, i);
            assert_eq!(s.votes.len(), s.n);
            // Distinct victims, one restart at most per crash, whole
            // partitions, permilles in range, over `t` only if degraded.
            let f = &s.faults;
            f.validate(s.n, s.t)
                .unwrap_or_else(|e| panic!("schedule {i} is an invalid plan: {e}"));
            assert!(f.crashes.len() <= s.t + 1);
            assert_eq!(f.degraded, f.crashes.len() > s.t);
            for r in &f.restarts {
                assert!(f.crash_step(r.victim).is_some_and(|at| r.at >= at + 5));
            }
            // The generator never makes an expected-stall schedule.
            assert!(s.quorum_recoverable(), "schedule {i} cannot recover quorum");
            for o in &f.outages {
                assert!(o.a != o.b && o.until > o.from);
            }
            for part in &f.partitions {
                assert!(part.groups.contains(&0) && part.groups.contains(&1));
                assert!(part.until > part.from);
            }
        }
    }

    #[test]
    fn generation_exercises_the_hostile_network_vocabulary() {
        let schedules: Vec<_> = (0..200)
            .map(|i| ChaosSchedule::generate(42, i).faults)
            .collect();
        assert!(
            schedules.iter().any(|f| !f.partitions.is_empty()),
            "campaigns should include partitions"
        );
        assert!(schedules.iter().any(|f| f.duplicate_permille > 0));
        assert!(schedules.iter().any(|f| f.reorder_permille > 0));
        assert!(schedules.iter().any(|f| f.reset_permille > 0));
    }

    /// What the wall-clock substrates draw from 200 generated plans:
    /// [`FaultPlan::roll`] over every ordered pair of processors at
    /// ticks `0..40`, one seeded rng per schedule, folded into an FNV-1a
    /// digest. The digests were taken from the plans the former
    /// step-to-wall-clock compiler built for the same schedules, at the
    /// same two ticks; a unit that slipped between milliseconds and
    /// ticks moves one of them.
    #[test]
    fn generated_plans_roll_the_pinned_digests() {
        let fnv = |h: &mut u64, x: u64| {
            for b in x.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap();
        let pinned = [
            (Duration::from_millis(1), 0x4b35_f6b1_cd45_8fae),
            (Duration::from_micros(300), 0xb742_fa99_70d3_ecd3),
        ];
        for (tick, digest) in pinned {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for i in 0..200 {
                let s = ChaosSchedule::generate(0xC0A7_1986, i);
                let mut rng = SmallRng::seed_from_u64(s.seed);
                let pairs = (0..s.n).flat_map(|a| (0..s.n).map(move |b| (a, b)));
                for (from, to) in pairs.filter(|(a, b)| a != b) {
                    for at in 0..40u32 {
                        let (from, to) = (ProcessorId::new(from), ProcessorId::new(to));
                        let (hold, dup, reset) = s.faults.roll(from, to, tick * at, tick, &mut rng);
                        fnv(&mut h, nanos(hold));
                        fnv(&mut h, dup.map_or(u64::MAX, nanos));
                        fnv(&mut h, u64::from(reset));
                    }
                }
            }
            assert_eq!(h, digest, "tick {tick:?}: {h:#018x}");
        }
    }

    #[test]
    fn theorem11_shape() {
        let stall = ChaosSchedule::theorem11(3, 9, false);
        assert_eq!(stall.faults.crashes.len(), stall.t + 1);
        assert!(stall.faults.degraded);
        assert!(!stall.quorum_recoverable());
        assert!(!stall.early_abort);
        assert_eq!(stall.faults.validate(stall.n, stall.t), Ok(()));

        let recover = ChaosSchedule::theorem11(3, 9, true);
        assert!(recover.faults.degraded);
        assert!(recover.quorum_recoverable());
        assert_eq!(recover.faults.restarts.len(), recover.faults.crashes.len());
        assert!(recover.faults.restarts.iter().all(|r| r.from_snapshot));
        assert_eq!(recover.faults.validate(recover.n, recover.t), Ok(()));
    }
}
