//! The seeded chaos campaign: generate many schedules, execute each on
//! both substrates, classify every outcome, and shrink any violation
//! to a minimal reproducer.
//!
//! A campaign is identified by a single seed; schedule `i` of campaign
//! `s` is always the same schedule, so any reported violation can be
//! regenerated from `(s, i)` alone.
//!
//! # Parallel execution and the determinism contract
//!
//! Schedules are embarrassingly parallel: each is generated from
//! `(seed, i)` alone and executed on substrates that share no state.
//! [`run_campaign`] therefore spreads the index space across
//! [`CampaignConfig::workers`] threads with [`rtc_model::sweep::par_map`]
//! — chunks of consecutive indices stolen off a shared cursor, so a
//! worker stuck on one slow schedule cannot strand the rest — and
//! merges the classified outcomes **in index order** afterwards, so the
//! summary — counts, violation list, and shrunk reproducers — is
//! bit-identical to a serial run regardless of worker count or thread
//! interleaving. Every schedule runs on a simulator of its own
//! ([`run_on_sim`]): batching a chunk's schedules through one engine
//! was measured and bought nothing, because a campaign's time is its
//! few event-cap stragglers (DESIGN.md §8).

use std::fmt;
use std::time::Duration;

use rtc_model::sweep::par_map;
use rtc_runtime::{ClusterOptions, SupervisorPolicy};

use crate::net_driver::run_on_net;
use crate::outcome::{ChaosOutcome, Substrate};
use crate::runtime_driver::{run_on_runtime, run_on_supervised};
use crate::schedule::ChaosSchedule;
use crate::shrink::shrink_sim_violation;
use crate::sim_driver::{run_on_sim, SIM_EVENT_CAP};

/// Configuration of one campaign.
///
/// Every schedule runs on the simulator under the chaos event cap of
/// 400 000 events, the supervised and socket substrates restart under
/// [`SupervisorPolicy::default`], and every simulator violation is
/// shrunk to a minimal reproducer.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// How many schedules to generate and run.
    pub schedules: u64,
    /// The campaign seed; schedule `i` is `ChaosSchedule::generate(seed, i)`.
    pub seed: u64,
    /// Pacing and bounds for the runtime substrate.
    pub cluster: ClusterOptions,
    /// Execute schedules on the simulator.
    pub run_sim: bool,
    /// Execute schedules on the threaded runtime.
    pub run_runtime: bool,
    /// Additionally execute schedules on the runtime under the
    /// self-healing supervisor (scripted restarts replaced by reactive
    /// ones).
    pub run_supervised: bool,
    /// Additionally execute schedules over real localhost sockets
    /// (`rtc-net`) under the supervisor, with every network fault —
    /// including the socket-only connection resets — injected by the
    /// nodes' readers on live TCP traffic. Off by default: each socket
    /// run boots listeners, links, and readers, so it is orders of
    /// magnitude slower than a simulator pass.
    pub run_net: bool,
    /// Threads stealing chunks of schedules off the campaign's shared
    /// cursor — the campaign's one level of parallelism. `0` sizes to
    /// the machine (`available_parallelism`), `1` runs everything on
    /// the calling thread; never more threads than schedules. Any value
    /// classifies every schedule identically (see the module docs'
    /// determinism contract).
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            schedules: 200,
            seed: 0xC0A7_1986,
            cluster: ClusterOptions {
                tick: Duration::from_millis(1),
                max_steps: 400,
                wall_timeout: Duration::from_secs(2),
                ..ClusterOptions::default()
            },
            run_sim: true,
            run_runtime: true,
            run_supervised: false,
            run_net: false,
            workers: 0,
        }
    }
}

/// One safety violation found by a campaign.
#[derive(Clone, Debug)]
pub struct CampaignViolation {
    /// Index of the schedule within the campaign.
    pub index: u64,
    /// The substrate that produced the violation.
    pub substrate: Substrate,
    /// Which condition broke.
    pub condition: String,
    /// The full offending schedule.
    pub schedule: ChaosSchedule,
    /// A locally minimal reproducer: the schedule shrunk while it still
    /// violates on the simulator, or the full schedule when the
    /// violation does not reproduce there.
    pub shrunk: ChaosSchedule,
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Schedules generated.
    pub schedules: u64,
    /// Safe runs per substrate, in [`Substrate::ALL`] order: how many
    /// `[decided, stalled gracefully]`.
    tally: [[u64; 2]; Substrate::ALL.len()],
    /// Every safety violation, with reproducers.
    pub violations: Vec<CampaignViolation>,
}

impl CampaignSummary {
    /// Whether the campaign found no safety violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Runs on `substrate` that decided.
    pub fn decided(&self, substrate: Substrate) -> u64 {
        self.tally[substrate as usize][0]
    }

    /// Runs on `substrate` that stalled gracefully.
    pub fn stalled(&self, substrate: Substrate) -> u64 {
        self.tally[substrate as usize][1]
    }

    /// Total substrate runs executed.
    pub fn runs(&self) -> u64 {
        self.tally.iter().flatten().sum::<u64>() + self.violations.len() as u64
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} schedules:", self.schedules)?;
        for substrate in Substrate::ALL {
            let [decided, stalled] = self.tally[substrate as usize];
            write!(f, " {substrate} {decided}/{stalled} decided/stalled,")?;
        }
        write!(f, " {} violations", self.violations.len())
    }
}

fn record(
    summary: &mut CampaignSummary,
    index: u64,
    schedule: &ChaosSchedule,
    substrate: Substrate,
    outcome: ChaosOutcome,
) {
    match outcome {
        ChaosOutcome::Decided => summary.tally[substrate as usize][0] += 1,
        ChaosOutcome::StalledGracefully => summary.tally[substrate as usize][1] += 1,
        ChaosOutcome::Violation(condition) => {
            let shrunk = shrink_sim_violation(schedule, SIM_EVENT_CAP);
            summary.violations.push(CampaignViolation {
                index,
                substrate,
                condition,
                schedule: schedule.clone(),
                shrunk,
            });
        }
    }
}

/// One schedule's classified outcomes, produced by a worker and merged
/// into the summary in index order.
type ScheduleOutcomes = (ChaosSchedule, Vec<(Substrate, ChaosOutcome)>);

/// Generates and executes schedule `i` on every enabled substrate, in
/// [`Substrate::ALL`] order.
fn execute_schedule(cfg: &CampaignConfig, i: u64) -> ScheduleOutcomes {
    let schedule = ChaosSchedule::generate(cfg.seed, i);
    let mut outcomes = Vec::with_capacity(2);
    if cfg.run_sim {
        let rep = run_on_sim(&schedule, SIM_EVENT_CAP);
        outcomes.push((Substrate::Sim, rep.outcome));
    }
    if cfg.run_runtime {
        let (rep, _) = run_on_runtime(&schedule, cfg.cluster);
        outcomes.push((Substrate::Runtime, rep.outcome));
    }
    if cfg.run_supervised {
        let (rep, _, _) = run_on_supervised(&schedule, cfg.cluster, SupervisorPolicy::default());
        outcomes.push((Substrate::Supervised, rep.outcome));
    }
    if cfg.run_net {
        let (rep, _, _) = run_on_net(&schedule, cfg.cluster, SupervisorPolicy::default());
        outcomes.push((Substrate::Net, rep.outcome));
    }
    (schedule, outcomes)
}

/// Runs a full campaign and returns the aggregate summary.
///
/// Outcome classification, violation records, and shrunk reproducers
/// are bit-identical for every worker count: execution is partitioned
/// by schedule index and merged back in index order, and shrinking —
/// itself deterministic — happens at merge time on the single merging
/// thread.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    let results = par_map(cfg.schedules, cfg.workers, |i| execute_schedule(cfg, i));
    let mut summary = CampaignSummary {
        schedules: cfg.schedules,
        ..CampaignSummary::default()
    };
    for (i, (schedule, outcomes)) in (0..).zip(results) {
        for (substrate, outcome) in outcomes {
            record(&mut summary, i, &schedule, substrate, outcome);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_over_both_substrates_is_safe() {
        let cfg = CampaignConfig {
            schedules: 10,
            seed: 4242,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&cfg);
        assert!(summary.ok(), "violations: {:?}", summary.violations);
        assert_eq!(summary.runs(), 20);
        assert!(
            summary.decided(Substrate::Sim) + summary.decided(Substrate::Runtime) > 0,
            "a healthy campaign decides at least sometimes: {summary}"
        );
    }

    /// The determinism contract: every worker count yields the same
    /// classification of every schedule, hence an identical summary —
    /// up to more workers than chunks (5 schedules are 5 chunks).
    #[test]
    fn worker_count_does_not_change_the_summary() {
        for (schedules, workers) in [(12u64, 2usize), (12, 3), (12, 8), (5, 8)] {
            let base = CampaignConfig {
                schedules,
                seed: 0xBEEF,
                run_runtime: false,
                ..CampaignConfig::default()
            };
            let serial = run_campaign(&CampaignConfig { workers: 1, ..base });
            let parallel = run_campaign(&CampaignConfig { workers, ..base });
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "{schedules} schedules: workers = {workers} diverged from serial"
            );
        }
    }

    #[test]
    fn net_campaign_runs_schedules_over_real_sockets() {
        let cfg = CampaignConfig {
            schedules: 2,
            seed: 909,
            run_sim: false,
            run_runtime: false,
            run_net: true,
            cluster: ClusterOptions {
                tick: Duration::from_millis(1),
                max_steps: 400,
                wall_timeout: Duration::from_secs(15),
                ..ClusterOptions::default()
            },
            workers: 1,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&cfg);
        assert!(summary.ok(), "violations: {:?}", summary.violations);
        assert_eq!(
            summary.decided(Substrate::Net) + summary.stalled(Substrate::Net),
            2
        );
    }

    #[test]
    fn more_workers_than_schedules_is_fine() {
        let cfg = CampaignConfig {
            schedules: 3,
            seed: 11,
            run_runtime: false,
            workers: 64,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&cfg);
        assert_eq!(
            summary.decided(Substrate::Sim) + summary.stalled(Substrate::Sim),
            3
        );
    }

    /// A campaign is nothing but its schedules: the summary of a
    /// sim-only campaign is the fold of [`run_on_sim`] over
    /// `ChaosSchedule::generate(seed, 0..n)`, and its `Display`
    /// line names every substrate.
    #[test]
    fn the_summary_is_the_fold_of_run_on_sim_over_the_generated_schedules() {
        let cfg = CampaignConfig {
            schedules: 24,
            seed: 0x0BA7,
            run_runtime: false,
            ..CampaignConfig::default()
        };
        let mut folded = CampaignSummary {
            schedules: cfg.schedules,
            ..CampaignSummary::default()
        };
        for i in 0..cfg.schedules {
            let schedule = ChaosSchedule::generate(cfg.seed, i);
            let outcome = run_on_sim(&schedule, SIM_EVENT_CAP).outcome;
            record(&mut folded, i, &schedule, Substrate::Sim, outcome);
        }
        let summary = run_campaign(&cfg);
        assert_eq!(format!("{summary:?}"), format!("{folded:?}"));
        assert_eq!(summary.runs(), 24);
        let (decided, stalled) = (
            summary.decided(Substrate::Sim),
            summary.stalled(Substrate::Sim),
        );
        assert_eq!(
            summary.to_string(),
            format!(
                "24 schedules: sim {decided}/{stalled} decided/stalled, \
                 runtime 0/0 decided/stalled, supervised 0/0 decided/stalled, \
                 net 0/0 decided/stalled, {} violations",
                summary.violations.len()
            )
        );
    }

    #[test]
    fn sim_only_campaign_counts_every_schedule() {
        let cfg = CampaignConfig {
            schedules: 30,
            seed: 7,
            run_runtime: false,
            ..CampaignConfig::default()
        };
        let summary = run_campaign(&cfg);
        assert!(summary.ok(), "violations: {:?}", summary.violations);
        assert_eq!(
            summary.decided(Substrate::Sim) + summary.stalled(Substrate::Sim),
            30
        );
    }
}
