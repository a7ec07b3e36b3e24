//! Supervised socket soak: a localhost cluster under continuous fault
//! injection, checked against the simulator's predictions.
//!
//! Each soak *round* boots one supervised socket cluster and
//! multiplexes several commit instances over its connection mesh while
//! its nodes keep injecting a partition that heals, message
//! duplication, reordering, and connection resets — and, periodically,
//! a scripted node crash the supervisor must heal. Every instance is
//! seeded, so the *same* schedule can be replayed on the discrete-event
//! simulator; the soak compares the two substrates' decisions.
//!
//! What is hard-checked versus merely counted follows the paper's
//! validity conditions. An instance with a `Zero` vote is *forced*:
//! abort validity pins its decision to abort on every substrate, so a
//! simulator/socket disagreement there is a failure. A unanimous-`One`
//! instance under a hostile network is not forced — commit validity is
//! conditional on on-time delivery, which the two substrates realize
//! with different physical timings — so its cross-substrate comparison
//! is recorded (`matched`/`diverged`) but only safety is asserted.

use std::fmt;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtc_core::commit_population;
use rtc_model::{ProcessorId, SeedCollection, TimingParams, Value};
use rtc_net::{run_net_supervised, NetOptions, NetRunStats};
use rtc_runtime::{CrashAt, FaultPlan, SupervisorPolicy};

use crate::outcome::{judge_cluster, ChaosOutcome, Substrate};
use crate::schedule::ChaosSchedule;
use crate::sim_driver::{run_on_sim_with_decision, SIM_EVENT_CAP};

/// Population of every soak round.
const N: usize = 3;
/// Real-time duration of one automaton step.
const TICK: Duration = Duration::from_millis(1);
/// Wall-clock budget per round.
const WALL_TIMEOUT: Duration = Duration::from_secs(20);
/// One node crashes in every `CRASH_EVERY`-th round, round 0 included.
const CRASH_EVERY: u64 = 2;

/// Knobs for one soak run.
///
/// Every round boots a cluster of three nodes at a 1 ms tick with a
/// 20 s wall-clock budget, healed by [`SupervisorPolicy::default`];
/// every second round, round 0 included, crashes one node. Each
/// simulator prediction runs under the chaos event cap of 400 000
/// events.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Supervised socket clusters to boot, one after another.
    pub rounds: u64,
    /// Commit instances multiplexed over each round's connection mesh.
    pub instances: usize,
    /// Master seed; every round's faults, votes, and coin seeds derive
    /// from it, so a soak is reproducible from this one integer.
    pub seed: u64,
}

/// Aggregate result of a soak run.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Total instances executed (rounds × instances per round).
    pub instances: u64,
    /// Instances in which every owed processor decided on the socket
    /// substrate within the round's budget.
    pub decided: u64,
    /// Instances whose socket decision equalled the simulator's
    /// prediction for the same seeded schedule.
    pub matched: u64,
    /// `(round, instance)` pairs whose decisions differed where the
    /// schedule did not force one (unanimous-`One` under lateness):
    /// legitimate, but worth watching. A pair where neither substrate
    /// decided did not differ.
    pub diverged: Vec<(u64, usize)>,
    /// `(round, instance)` pairs that broke a *forced* comparison — a
    /// `Zero`-vote instance whose substrates did not both abort. Always
    /// a failure.
    pub forced_failures: Vec<(u64, usize)>,
    /// Safety violations on either substrate, described. Always a
    /// failure.
    pub violations: Vec<String>,
    /// Socket-layer counters accumulated over every round.
    pub stats: NetRunStats,
    /// Node restarts performed by the supervisor across all rounds.
    pub supervisor_restarts: u64,
}

impl SoakReport {
    /// Whether the soak held everything it asserts: no safety
    /// violation anywhere, no forced-decision mismatch, and every
    /// instance decided.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
            && self.forced_failures.is_empty()
            && self.decided == self.instances
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds / {} instances: {} decided, {} matched sim, {} diverged, \
             {} forced failures, {} violations; {} frames ({} dropped), \
             {} reconnects, {} resets injected, {} late deliveries, \
             {} supervisor restarts",
            self.rounds,
            self.instances,
            self.decided,
            self.matched,
            self.diverged.len(),
            self.forced_failures.len(),
            self.violations.len(),
            self.stats.frames_sent,
            self.stats.frames_dropped,
            self.stats.reconnects,
            self.stats.resets_injected,
            self.stats.late_deliveries,
            self.supervisor_restarts,
        )
    }
}

/// Builds round `round`: one hostile fault plan — a healing partition,
/// duplication, reordering, resets and the periodic crash — shared by
/// every instance, and one schedule per instance with its own votes and
/// coin seed.
fn round_schedules(cfg: &SoakConfig, round: u64) -> (FaultPlan, Vec<ChaosSchedule>) {
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x50A4);
    let mut groups = vec![0u32; N];
    groups[rng.gen_range(0..N)] = 1;
    let mut faults = FaultPlan::none()
        .with_partition(groups, 0, rng.gen_range(2..=3u64))
        .with_duplication(300)
        .with_resets(150)
        .with_reordering(250);
    if round.is_multiple_of(CRASH_EVERY) {
        let victim = ProcessorId::new(usize::try_from(round).unwrap_or(0) % N);
        let at_step = rng.gen_range(1..=3u64);
        faults.crashes.push(CrashAt {
            victim,
            at_step,
            drop_final_sends: true,
        });
        // Mirror the socket side's supervisor in the schedule: a
        // scripted snapshot restart a few ticks after the crash. The
        // simulator honours it (so its prediction is decisive, not a
        // graceful stall), while `run_net_supervised` ignores scripted
        // restarts — there the reactive supervisor does the reviving.
        faults = faults.with_restart(victim, at_step + rng.gen_range(2..=4u64), true);
    }
    let schedules = (0..cfg.instances)
        .map(|_| {
            let votes = if rng.gen_range(0..2u32) == 0 {
                vec![Value::One; N]
            } else {
                let mut v = vec![Value::One; N];
                v[rng.gen_range(0..N)] = Value::Zero;
                v
            };
            ChaosSchedule {
                faults: faults.clone(),
                ..ChaosSchedule::fault_free(N, rng.gen_range(0..u64::MAX), votes)
            }
        })
        .collect();
    (faults, schedules)
}

/// Runs the soak: `cfg.rounds` supervised socket clusters, each
/// multiplexing `cfg.instances` seeded commit instances under
/// continuous fault injection, every instance checked against its
/// simulator prediction.
///
/// # Panics
///
/// Panics if `cfg` asks for zero instances per round.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    assert!(cfg.instances > 0, "a soak round needs instances");
    let timing = TimingParams::default();
    let mut report = SoakReport {
        rounds: cfg.rounds,
        instances: cfg.rounds * cfg.instances as u64,
        ..SoakReport::default()
    };
    let mut opts = NetOptions::derived(TICK, timing);
    opts.wall_timeout = WALL_TIMEOUT;

    for round in 0..cfg.rounds {
        let (plan, schedules) = round_schedules(cfg, round);
        let t = schedules[0].t;
        plan.validate(N, t)
            .expect("soak rounds carry valid fault plans");
        let populations = schedules
            .iter()
            .map(|s| commit_population(s.commit_config(), &s.votes))
            .collect();
        let seeds = schedules
            .iter()
            .map(|s| SeedCollection::new(s.seed))
            .collect();
        let (net, sup) = run_net_supervised(
            populations,
            seeds,
            plan,
            opts,
            t,
            SupervisorPolicy::default(),
        );

        for (k, s) in schedules.iter().enumerate() {
            let instance = &net.instances[k];
            let net_rep = judge_cluster(Substrate::Net, s, instance);
            if let ChaosOutcome::Violation(what) = net_rep.outcome {
                report
                    .violations
                    .push(format!("round {round} instance {k} on net: {what}"));
            }
            if net_rep.verdict.deciding {
                report.decided += 1;
            }
            let net_decision = instance.statuses.iter().find_map(|st| st.value());

            let (sim_rep, sim_decision) = run_on_sim_with_decision(s, SIM_EVENT_CAP);
            if let ChaosOutcome::Violation(what) = sim_rep.outcome {
                report
                    .violations
                    .push(format!("round {round} instance {k} on sim: {what}"));
            }

            let forced = s.votes.contains(&Value::Zero);
            compare(&mut report, (round, k), forced, net_decision, sim_decision);
        }

        report.stats += &net.stats;
        report.supervisor_restarts += u64::from(sup.total_restarts());
    }
    report
}

/// Files one instance's socket and simulator decisions in `report`: a
/// match when both decided the same value; a forced failure when a
/// `Zero` vote forced an abort that did not happen on both; a
/// divergence when nothing forced the decision and the two differ.
fn compare(
    report: &mut SoakReport,
    at: (u64, usize),
    forced: bool,
    net: Option<Value>,
    sim: Option<Value>,
) {
    if net.is_some() && net == sim {
        report.matched += 1;
    }
    if forced {
        if net != Some(Value::Zero) || sim != Some(Value::Zero) {
            report.forced_failures.push(at);
        }
    } else if net != sim {
        report.diverged.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A forced pair is a forced failure or a match, never a
    /// divergence, and a pair where neither substrate decided did not
    /// differ.
    #[test]
    fn only_unforced_pairs_that_differ_diverge() {
        let (one, zero) = (Some(Value::One), Some(Value::Zero));
        let mut report = SoakReport::default();
        compare(&mut report, (0, 0), false, one, one);
        compare(&mut report, (0, 1), false, one, zero);
        compare(&mut report, (0, 2), false, None, one);
        compare(&mut report, (0, 3), false, None, None);
        compare(&mut report, (1, 0), true, zero, zero);
        compare(&mut report, (1, 1), true, zero, one);
        compare(&mut report, (1, 2), true, None, None);
        assert_eq!(report.matched, 2);
        assert_eq!(report.diverged, vec![(0, 1), (0, 2)]);
        assert_eq!(report.forced_failures, vec![(1, 1), (1, 2)]);
    }

    #[test]
    fn short_soak_is_safe_and_matches_forced_predictions() {
        let cfg = SoakConfig {
            rounds: 2,
            instances: 2,
            seed: 77,
        };
        let report = run_soak(&cfg);
        assert!(report.ok(), "{report}\nviolations: {:?}", report.violations);
        assert_eq!(report.instances, 4);
        // The nodes really did inject faults on live traffic.
        assert!(report.stats.resets_injected > 0, "{report}");
        assert!(report.stats.frames_sent > 0);
        assert!(report.stats.writes > 0, "every counter is summed");
        // Round 0 crashes a node; the supervisor must have healed it.
        assert!(report.supervisor_restarts >= 1, "{report}");
    }
}
