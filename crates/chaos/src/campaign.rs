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
//! [`CampaignConfig::workers`] threads through a shared work-stealing
//! cursor handing out small *chunks* of consecutive indices — so a
//! worker stuck on one slow schedule cannot strand the rest of a fixed
//! stride — and merges the classified outcomes **in index order**
//! afterwards, so the summary — counts, violation list, and shrunk
//! reproducers — is bit-identical to a serial run regardless of worker
//! count or thread interleaving.

use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use rtc_core::CommitMsg;
use rtc_model::TimingParams;
use rtc_net::NetOptions;
use rtc_runtime::{ClusterOptions, SupervisorPolicy};
use rtc_sim::BatchPool;

use crate::net_driver::run_on_net;
use crate::outcome::{ChaosOutcome, Substrate};
use crate::runtime_driver::{run_on_runtime, run_on_supervised};
use crate::schedule::{ChaosSchedule, ScheduleParams};
use crate::shrink::shrink_sim_violation;
use crate::sim_driver::{run_batch_on_sim, run_on_sim};

/// Configuration of one campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// How many schedules to generate and run.
    pub schedules: u64,
    /// The campaign seed; schedule `i` is `ChaosSchedule::generate(params, seed, i)`.
    pub seed: u64,
    /// Generator knobs.
    pub params: ScheduleParams,
    /// Per-schedule event cap on the simulator.
    pub sim_max_events: u64,
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
    /// fault proxies on live TCP traffic. Off by default: each socket
    /// run boots listeners, links, and proxies, so it is orders of
    /// magnitude slower than a simulator pass.
    pub run_net: bool,
    /// Supervisor tunables for the supervised substrate.
    pub supervisor: SupervisorPolicy,
    /// Execute the simulator substrate in batched mode: each worker
    /// groups its chunk's schedules by population and runs every group
    /// as one [`rtc_sim::BatchSim`] over ONE allocation pool reused
    /// across all of the worker's chunks, instead of schedule-at-a-time.
    /// Classification is identical either way (the engine steps a lane
    /// the same alone or among neighbours, and both paths verify and
    /// lint through one classifier); batching only removes the
    /// per-schedule allocation and setup cost.
    pub batch_sim: bool,
    /// Shrink simulator violations to minimal reproducers.
    pub shrink_violations: bool,
    /// Threads stealing chunks of schedules off the campaign's shared
    /// cursor, each running its chunks on engines of its own — the
    /// campaign's one level of parallelism. `0` sizes to the machine
    /// (`available_parallelism`), `1` runs everything on the calling
    /// thread; never more threads than schedules. Any value classifies
    /// every schedule identically (see the module docs' determinism
    /// contract).
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            schedules: 200,
            seed: 0xC0A7_1986,
            params: ScheduleParams::default(),
            sim_max_events: 400_000,
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
            supervisor: SupervisorPolicy::default(),
            batch_sim: true,
            shrink_violations: true,
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
    /// A shrunk minimal reproducer, when shrinking was enabled and the
    /// violation reproduces on the simulator.
    pub shrunk: Option<ChaosSchedule>,
}

/// Aggregate result of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Schedules generated.
    pub schedules: u64,
    /// Simulator runs that decided.
    pub sim_decided: u64,
    /// Simulator runs that stalled gracefully.
    pub sim_stalled: u64,
    /// Runtime runs that decided.
    pub runtime_decided: u64,
    /// Runtime runs that stalled gracefully.
    pub runtime_stalled: u64,
    /// Supervised runs that decided.
    pub supervised_decided: u64,
    /// Supervised runs that stalled gracefully.
    pub supervised_stalled: u64,
    /// Socket runs that decided.
    pub net_decided: u64,
    /// Socket runs that stalled gracefully.
    pub net_stalled: u64,
    /// Every safety violation, with reproducers.
    pub violations: Vec<CampaignViolation>,
}

impl CampaignSummary {
    /// Whether the campaign found no safety violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total substrate runs executed.
    pub fn runs(&self) -> u64 {
        self.sim_decided
            + self.sim_stalled
            + self.runtime_decided
            + self.runtime_stalled
            + self.supervised_decided
            + self.supervised_stalled
            + self.net_decided
            + self.net_stalled
            + self.violations.len() as u64
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules: sim {}/{} decided/stalled, runtime {}/{} decided/stalled, supervised {}/{} decided/stalled, net {}/{} decided/stalled, {} violations",
            self.schedules,
            self.sim_decided,
            self.sim_stalled,
            self.runtime_decided,
            self.runtime_stalled,
            self.supervised_decided,
            self.supervised_stalled,
            self.net_decided,
            self.net_stalled,
            self.violations.len()
        )
    }
}

fn record(
    summary: &mut CampaignSummary,
    cfg: &CampaignConfig,
    index: u64,
    schedule: &ChaosSchedule,
    substrate: Substrate,
    outcome: ChaosOutcome,
) {
    match (substrate, outcome) {
        (Substrate::Sim, ChaosOutcome::Decided) => summary.sim_decided += 1,
        (Substrate::Sim, ChaosOutcome::StalledGracefully) => summary.sim_stalled += 1,
        (Substrate::Runtime, ChaosOutcome::Decided) => summary.runtime_decided += 1,
        (Substrate::Runtime, ChaosOutcome::StalledGracefully) => summary.runtime_stalled += 1,
        (Substrate::Supervised, ChaosOutcome::Decided) => summary.supervised_decided += 1,
        (Substrate::Supervised, ChaosOutcome::StalledGracefully) => summary.supervised_stalled += 1,
        (Substrate::Net, ChaosOutcome::Decided) => summary.net_decided += 1,
        (Substrate::Net, ChaosOutcome::StalledGracefully) => summary.net_stalled += 1,
        (_, ChaosOutcome::Violation(condition)) => {
            let shrunk = cfg
                .shrink_violations
                .then(|| shrink_sim_violation(schedule, cfg.sim_max_events));
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
type ScheduleOutcomes = (u64, ChaosSchedule, Vec<(Substrate, ChaosOutcome)>);

/// Generates and executes schedule `i`, classifying each substrate run
/// in the same order the serial driver uses (sim, then runtime).
fn execute_schedule(cfg: &CampaignConfig, i: u64) -> ScheduleOutcomes {
    let schedule = ChaosSchedule::generate(&cfg.params, cfg.seed, i);
    let mut outcomes = Vec::with_capacity(2);
    if cfg.run_sim {
        let rep = run_on_sim(&schedule, cfg.sim_max_events);
        outcomes.push((Substrate::Sim, rep.outcome));
    }
    append_other_substrates(cfg, &schedule, &mut outcomes);
    (i, schedule, outcomes)
}

/// The non-simulator substrate runs of one schedule, in the fixed
/// substrate order the summary merge relies on.
fn append_other_substrates(
    cfg: &CampaignConfig,
    schedule: &ChaosSchedule,
    outcomes: &mut Vec<(Substrate, ChaosOutcome)>,
) {
    if cfg.run_runtime {
        let (rep, _) = run_on_runtime(schedule, cfg.cluster);
        outcomes.push((Substrate::Runtime, rep.outcome));
    }
    if cfg.run_supervised {
        let (rep, _, _) = run_on_supervised(schedule, cfg.cluster, cfg.supervisor);
        outcomes.push((Substrate::Supervised, rep.outcome));
    }
    if cfg.run_net {
        let mut opts = NetOptions::derived(cfg.cluster.tick, TimingParams::default());
        opts.max_steps = cfg.cluster.max_steps;
        opts.wall_timeout = cfg.cluster.wall_timeout;
        let (rep, _, _) = run_on_net(schedule, opts, cfg.supervisor);
        outcomes.push((Substrate::Net, rep.outcome));
    }
}

/// Executes the index chunk `lo..hi`, batching the simulator substrate
/// when [`CampaignConfig::batch_sim`] is on: the chunk's schedules are
/// grouped by population (a batch shares one `n`) and each group runs
/// as one [`rtc_sim::BatchSim`] recycling `pool`'s allocations. The
/// pool is the per-worker one, reused across all of a worker's chunks.
fn execute_chunk(
    cfg: &CampaignConfig,
    lo: u64,
    hi: u64,
    pool: &mut BatchPool<CommitMsg>,
) -> Vec<ScheduleOutcomes> {
    if !(cfg.batch_sim && cfg.run_sim) {
        return (lo..hi).map(|i| execute_schedule(cfg, i)).collect();
    }
    let schedules: Vec<ChaosSchedule> = (lo..hi)
        .map(|i| ChaosSchedule::generate(&cfg.params, cfg.seed, i))
        .collect();
    // BTreeMap for a deterministic group order; irrelevant to the
    // classification (each instance is equivalent to its standalone
    // run) but it keeps pool evolution reproducible too.
    let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (j, s) in schedules.iter().enumerate() {
        by_n.entry(s.n).or_default().push(j);
    }
    let mut sim_outcomes: Vec<Option<ChaosOutcome>> = vec![None; schedules.len()];
    for group in by_n.values() {
        let members: Vec<&ChaosSchedule> = group.iter().map(|&j| &schedules[j]).collect();
        let (reports, spent) = run_batch_on_sim(&members, cfg.sim_max_events, mem::take(pool));
        *pool = spent;
        for (&j, (rep, _)) in group.iter().zip(reports) {
            sim_outcomes[j] = Some(rep.outcome);
        }
    }
    schedules
        .into_iter()
        .zip(sim_outcomes)
        .enumerate()
        .map(|(j, (schedule, sim))| {
            let sim = sim.expect("every schedule of the chunk ran on the simulator");
            let mut outcomes = vec![(Substrate::Sim, sim)];
            append_other_substrates(cfg, &schedule, &mut outcomes);
            (lo + j as u64, schedule, outcomes)
        })
        .collect()
}

/// Runs a full campaign and returns the aggregate summary.
///
/// Outcome classification, violation records, and shrunk reproducers
/// are bit-identical for every worker count (including the serial
/// `workers: 1` path): execution is partitioned by schedule index and
/// merged back in index order, and shrinking — itself deterministic —
/// happens at merge time on the single merging thread.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    let mut summary = CampaignSummary {
        schedules: cfg.schedules,
        ..CampaignSummary::default()
    };
    let configured = match cfg.workers {
        0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        workers => workers,
    };
    let workers = configured.min(cfg.schedules.max(1) as usize);
    // Work is handed out in chunks of consecutive indices. In batch-sim
    // mode a chunk is also the unit batched through one `BatchSim`
    // (after grouping by population), so chunks are kept wider there:
    // a population range of a few values needs several schedules per
    // value before the shared plane has anything to amortize.
    let chunk = if cfg.batch_sim && cfg.run_sim {
        (cfg.schedules / (workers as u64 * 2)).clamp(1, 64)
    } else {
        (cfg.schedules / (workers as u64 * 8)).max(1)
    };
    let mut results: Vec<Option<ScheduleOutcomes>> = Vec::new();
    if workers <= 1 {
        let mut pool = BatchPool::new();
        let mut lo = 0;
        while lo < cfg.schedules {
            let hi = lo.saturating_add(chunk).min(cfg.schedules);
            results.extend(execute_chunk(cfg, lo, hi, &mut pool).into_iter().map(Some));
            lo = hi;
        }
    } else {
        results.resize_with(cfg.schedules as usize, || None);
        // Work stealing over small chunks of consecutive indices. A
        // fixed `i % workers` stride pins each index to one worker up
        // front, so a single slow schedule (schedules vary by an order
        // of magnitude) strands the rest of that worker's stride while
        // its siblings sit idle; a shared cursor lets whoever is free
        // take the next chunk. Chunks of a few indices keep cursor
        // contention negligible without recreating the imbalance.
        let next = AtomicU64::new(0);
        let per_worker = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        // ONE allocation pool per worker, recycled
                        // across every chunk it steals.
                        let mut pool = BatchPool::new();
                        let mut out = Vec::new();
                        loop {
                            let lo = next.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= cfg.schedules {
                                break out;
                            }
                            let hi = lo.saturating_add(chunk).min(cfg.schedules);
                            out.extend(execute_chunk(cfg, lo, hi, &mut pool));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect::<Vec<_>>()
        });
        for chunk in per_worker {
            for item in chunk {
                let slot = item.0 as usize;
                results[slot] = Some(item);
            }
        }
    }
    for item in results {
        let (i, schedule, outcomes) = item.expect("every schedule index executed");
        for (substrate, outcome) in outcomes {
            record(&mut summary, cfg, i, &schedule, substrate, outcome);
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
            summary.sim_decided + summary.runtime_decided > 0,
            "a healthy campaign decides at least sometimes: {summary}"
        );
    }

    /// The determinism contract: every worker count yields the same
    /// classification of every schedule, hence an identical summary —
    /// with batching on, so each count also cuts the schedules into
    /// different batches, and up to more workers than chunks (5
    /// schedules are 5 chunks).
    #[test]
    fn worker_count_does_not_change_the_summary() {
        for (schedules, workers) in [(12u64, 2usize), (12, 3), (12, 8), (5, 8)] {
            let base = CampaignConfig {
                schedules,
                seed: 0xBEEF,
                run_runtime: false,
                batch_sim: true,
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
        assert_eq!(summary.net_decided + summary.net_stalled, 2);
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
        assert_eq!(summary.sim_decided + summary.sim_stalled, 3);
    }

    /// The engine's equivalence contract at campaign level: batched and
    /// schedule-at-a-time simulator execution — which verify and lint
    /// the same things — classify every schedule identically, so the
    /// summaries match bit for bit (and, via
    /// `worker_count_does_not_change_the_summary`, for every worker
    /// count).
    #[test]
    fn batched_sim_campaign_matches_schedule_at_a_time() {
        let base = CampaignConfig {
            schedules: 24,
            seed: 0x0BA7,
            run_runtime: false,
            workers: 1,
            ..CampaignConfig::default()
        };
        let serial = run_campaign(&CampaignConfig {
            batch_sim: false,
            ..base
        });
        let batched = run_campaign(&CampaignConfig {
            batch_sim: true,
            ..base
        });
        assert_eq!(
            format!("{serial:?}"),
            format!("{batched:?}"),
            "batched sim campaign diverged from schedule-at-a-time"
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
        assert_eq!(summary.sim_decided + summary.sim_stalled, 30);
    }
}
