//! Executes a [`ChaosSchedule`] on the threaded real-time runtime.
//!
//! The schedule's abstract step units are mapped to wall time through
//! the cluster's tick length: a crash at step `s` becomes a scripted
//! [`rtc_runtime::FaultPlan`] crash at local step `s`, a restart
//! `delay_steps` after the crash becomes a wall-clock offset, delay
//! regimes become the runtime's [`DelayModel`], and link flaps become
//! link outages. The resulting plan always passes
//! [`FaultPlan::validate`].

use std::time::Duration;

use rtc_core::properties::{CommitVerdict, Condition};
use rtc_core::{commit_population, CommitConfig};
use rtc_model::{SeedCollection, TimingParams, Value};
use rtc_runtime::{
    run_cluster_recoverable, run_cluster_supervised, ClusterOptions, ClusterReport, DelayModel,
    FaultPlan, SupervisorPolicy, SupervisorReport,
};

use crate::outcome::{classify_verdict, ChaosReport, Substrate};
use crate::schedule::{ChaosDelay, ChaosSchedule};

/// Maps a schedule onto a runtime fault plan, with one abstract step
/// equal to one `tick`.
pub fn to_fault_plan(schedule: &ChaosSchedule, tick: Duration) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for c in &schedule.crashes {
        plan = plan.with_crash(c.victim, c.at_step);
    }
    for r in &schedule.restarts {
        let crash_step = schedule.crash_of(r.victim).map(|c| c.at_step).unwrap_or(0);
        plan = plan.with_restart(
            r.victim,
            tick * u32::try_from(crash_step + r.delay_steps).unwrap_or(u32::MAX),
            r.from_snapshot,
        );
    }
    plan = plan.with_delay(match schedule.delay {
        ChaosDelay::None => DelayModel::None,
        ChaosDelay::Jitter { max_steps } => DelayModel::Uniform {
            min: Duration::ZERO,
            max: tick * u32::try_from(max_steps).unwrap_or(u32::MAX),
        },
        ChaosDelay::Spike { permille, steps } => DelayModel::Spike {
            permille,
            spike: tick * u32::try_from(steps).unwrap_or(u32::MAX),
        },
    });
    for f in &schedule.flaps {
        plan = plan.with_link_outage(
            f.a,
            f.b,
            tick * u32::try_from(f.from_step).unwrap_or(u32::MAX),
            tick * u32::try_from(f.until_step).unwrap_or(u32::MAX),
        );
    }
    for part in &schedule.partitions {
        plan = plan.with_partition(
            part.groups(schedule.n),
            tick * u32::try_from(part.from_step).unwrap_or(u32::MAX),
            tick * u32::try_from(part.heal_step).unwrap_or(u32::MAX),
        );
    }
    if schedule.duplicate_permille > 0 {
        plan = plan.with_duplication(schedule.duplicate_permille);
    }
    if schedule.reorder_permille > 0 {
        plan = plan.with_reordering(schedule.reorder_permille);
    }
    if schedule.reset_permille > 0 {
        // Channels cannot be reset; only the socket substrate acts on
        // this, every other executor carries it inertly.
        plan = plan.with_resets(schedule.reset_permille);
    }
    if schedule.degraded() {
        plan = plan.degraded();
    }
    plan
}

fn applied(held: bool) -> Condition {
    if held {
        Condition::Held
    } else {
        Condition::Violated
    }
}

/// Evaluates the paper's commit conditions over a finished cluster run.
///
/// The runtime has no event trace, so the commit-validity precondition
/// is approximated conservatively from observables: *failure-free*
/// means the schedule scripted no crashes (and none happened), and
/// *on-time* means every message arrived within `K` receiver ticks of
/// its send and nothing was still held when the run ended.
pub fn classify_cluster(
    schedule: &ChaosSchedule,
    report: &ClusterReport,
    timing: TimingParams,
) -> CommitVerdict {
    let deciding = report.all_nonfaulty_decided();
    let failure_free = schedule.crashes.is_empty() && !report.crashed.iter().any(|c| *c);
    let on_time = report.late_messages(timing.k()) == 0 && report.messages_undelivered == 0;
    let agreement = applied(report.agreement_holds());

    // Decisions of the processors that owe one: never-crashed or
    // crashed-then-restarted.
    let owed: Vec<Value> = report
        .statuses
        .iter()
        .enumerate()
        .filter(|(i, _)| !report.crashed[*i] || report.recovered[*i])
        .filter_map(|(_, s)| s.value())
        .collect();

    let abort_validity = if deciding && schedule.votes.contains(&Value::Zero) {
        applied(owed.iter().all(|v| *v == Value::Zero))
    } else {
        Condition::NotApplicable
    };
    let commit_validity =
        if deciding && failure_free && on_time && schedule.votes.iter().all(|v| *v == Value::One) {
            applied(owed.iter().all(|v| *v == Value::One))
        } else {
            Condition::NotApplicable
        };

    CommitVerdict {
        agreement,
        abort_validity,
        commit_validity,
        deciding,
        failure_free,
        on_time,
    }
}

/// Runs `schedule` on the threaded runtime, classifying the outcome.
/// Also returns the raw cluster report for callers that want the
/// timing detail.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`CommitConfig`], or if the schedule maps to an invalid
/// fault plan — generated schedules never do either.
pub fn run_on_runtime(
    schedule: &ChaosSchedule,
    opts: ClusterOptions,
) -> (ChaosReport, ClusterReport) {
    let cfg = CommitConfig::new(schedule.n, schedule.t, TimingParams::default())
        .expect("schedule population accepts its fault bound")
        .with_early_abort(schedule.early_abort);
    let plan = to_fault_plan(schedule, opts.tick);
    plan.validate(schedule.n, schedule.t)
        .expect("generated schedules map to valid fault plans");
    let report = run_cluster_recoverable(
        commit_population(cfg, &schedule.votes),
        SeedCollection::new(schedule.seed),
        plan,
        opts,
    );
    let verdict = classify_cluster(schedule, &report, cfg.timing());
    let late_messages = report.late_messages(cfg.timing().k()) as u64;
    (
        ChaosReport {
            substrate: Substrate::Runtime,
            outcome: classify_verdict(&verdict),
            verdict,
            late_messages,
        },
        report,
    )
}

/// Runs `schedule` on the threaded runtime under the self-healing
/// supervisor instead of the scripted restart plan: the schedule's
/// crashes (and hostile-network settings) still fire, but recovery is
/// whatever the supervisor decides. Scripted restarts are ignored.
///
/// # Panics
///
/// Panics on the same config/plan inconsistencies as
/// [`run_on_runtime`] — generated schedules never trigger them.
pub fn run_on_supervised(
    schedule: &ChaosSchedule,
    opts: ClusterOptions,
    policy: SupervisorPolicy,
) -> (ChaosReport, ClusterReport, SupervisorReport) {
    let cfg = CommitConfig::new(schedule.n, schedule.t, TimingParams::default())
        .expect("schedule population accepts its fault bound")
        .with_early_abort(schedule.early_abort);
    let plan = to_fault_plan(schedule, opts.tick);
    plan.validate(schedule.n, schedule.t)
        .expect("generated schedules map to valid fault plans");
    let (report, sup) = run_cluster_supervised(
        commit_population(cfg, &schedule.votes),
        SeedCollection::new(schedule.seed),
        plan,
        opts,
        schedule.t,
        policy,
    );
    let verdict = classify_cluster(schedule, &report, cfg.timing());
    let late_messages = report.late_messages(cfg.timing().k()) as u64;
    (
        ChaosReport {
            substrate: Substrate::Supervised,
            outcome: classify_verdict(&verdict),
            verdict,
            late_messages,
        },
        report,
        sup,
    )
}

#[cfg(test)]
mod tests {
    use rtc_model::ProcessorId;

    use super::*;
    use crate::outcome::ChaosOutcome;
    use crate::schedule::{ChaosCrash, ChaosRestart, ScheduleParams};

    fn fast_opts() -> ClusterOptions {
        ClusterOptions {
            tick: Duration::from_millis(1),
            max_steps: 400,
            wall_timeout: Duration::from_secs(2),
            ..ClusterOptions::default()
        }
    }

    #[test]
    fn generated_schedules_map_to_valid_plans() {
        let params = ScheduleParams::default();
        for i in 0..100 {
            let s = ChaosSchedule::generate(&params, 1234, i);
            let plan = to_fault_plan(&s, Duration::from_millis(1));
            plan.validate(s.n, s.t)
                .unwrap_or_else(|e| panic!("schedule {i} maps to an invalid plan: {e}"));
            assert_eq!(plan.degraded, s.degraded());
        }
    }

    #[test]
    fn faultfree_schedule_decides_on_the_runtime() {
        let s = ChaosSchedule {
            seed: 31,
            n: 3,
            t: 1,
            votes: vec![Value::One; 3],
            early_abort: true,
            delay: ChaosDelay::None,
            crashes: Vec::new(),
            restarts: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reset_permille: 0,
            reorder_permille: 0,
        };
        let (rep, cluster) = run_on_runtime(&s, fast_opts());
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{:?}", cluster.statuses);
    }

    #[test]
    fn crash_and_snapshot_restart_rejoins_on_the_runtime() {
        let s = ChaosSchedule {
            seed: 32,
            n: 3,
            t: 1,
            votes: vec![Value::One; 3],
            early_abort: true,
            delay: ChaosDelay::None,
            crashes: vec![ChaosCrash {
                victim: ProcessorId::new(2),
                at_step: 4,
                drop_final_sends: true,
            }],
            restarts: vec![ChaosRestart {
                victim: ProcessorId::new(2),
                delay_steps: 20,
                from_snapshot: true,
            }],
            flaps: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reset_permille: 0,
            reorder_permille: 0,
        };
        let (rep, cluster) = run_on_runtime(&s, fast_opts());
        assert!(rep.outcome.is_safe(), "{}", rep.outcome);
        assert!(cluster.crashed[2] && cluster.recovered[2]);
    }

    #[test]
    fn supervisor_substitutes_for_scripted_restarts() {
        // Same crash as above but no scripted restart at all: the
        // supervisor must notice the crash and bring the node back.
        let s = ChaosSchedule {
            seed: 33,
            n: 3,
            t: 1,
            votes: vec![Value::One; 3],
            early_abort: true,
            delay: ChaosDelay::None,
            crashes: vec![ChaosCrash {
                victim: ProcessorId::new(2),
                at_step: 4,
                drop_final_sends: true,
            }],
            restarts: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reset_permille: 0,
            reorder_permille: 0,
        };
        let mut opts = fast_opts();
        opts.wall_timeout = Duration::from_secs(5);
        let (rep, cluster, sup) = run_on_supervised(&s, opts, SupervisorPolicy::default());
        assert!(rep.outcome.is_decided(), "{} / {sup:?}", rep.outcome);
        assert!(cluster.crashed[2] && cluster.recovered[2], "{cluster:?}");
        assert!(sup.restarts[2] >= 1);
        assert!(sup.total_restarts() >= 1);
    }
}
