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

use rtc_core::{commit_population, CommitAutomaton};
use rtc_model::SeedCollection;
use rtc_runtime::{
    run_cluster_recoverable, run_cluster_supervised, ClusterOptions, ClusterReport, DelayModel,
    FaultPlan, SupervisorPolicy, SupervisorReport,
};

use crate::outcome::{judge_cluster, ChaosReport, Substrate};
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

/// What every wall-clock driver boots from: the schedule's population,
/// its seeds, and its fault plan at one abstract step per `tick`,
/// validated.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`rtc_core::CommitConfig`], or if the schedule maps to
/// an invalid fault plan — generated schedules never do either.
pub(crate) fn boot_inputs(
    schedule: &ChaosSchedule,
    tick: Duration,
) -> (Vec<CommitAutomaton>, SeedCollection, FaultPlan) {
    let plan = to_fault_plan(schedule, tick);
    plan.validate(schedule.n, schedule.t)
        .expect("generated schedules map to valid fault plans");
    (
        commit_population(schedule.commit_config(), &schedule.votes),
        SeedCollection::new(schedule.seed),
        plan,
    )
}

/// Runs `schedule` on the threaded runtime, classifying the outcome.
/// Also returns the raw cluster report for callers that want the
/// timing detail.
///
/// # Panics
///
/// Panics on a schedule no generator produces — see `boot_inputs`.
pub fn run_on_runtime(
    schedule: &ChaosSchedule,
    opts: ClusterOptions,
) -> (ChaosReport, ClusterReport) {
    let (population, seeds, plan) = boot_inputs(schedule, opts.tick);
    let report = run_cluster_recoverable(population, seeds, plan, opts);
    (judge_cluster(Substrate::Runtime, schedule, &report), report)
}

/// Runs `schedule` on the threaded runtime under the self-healing
/// supervisor instead of the scripted restart plan: the schedule's
/// crashes (and hostile-network settings) still fire, but recovery is
/// whatever the supervisor decides. Scripted restarts are ignored.
///
/// # Panics
///
/// Panics on a schedule no generator produces — see `boot_inputs`.
pub fn run_on_supervised(
    schedule: &ChaosSchedule,
    opts: ClusterOptions,
    policy: SupervisorPolicy,
) -> (ChaosReport, ClusterReport, SupervisorReport) {
    let (population, seeds, plan) = boot_inputs(schedule, opts.tick);
    let (report, sup) = run_cluster_supervised(population, seeds, plan, opts, schedule.t, policy);
    (
        judge_cluster(Substrate::Supervised, schedule, &report),
        report,
        sup,
    )
}

#[cfg(test)]
mod tests {
    use rtc_model::{ProcessorId, Value};

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
        let s = ChaosSchedule::fault_free(3, 31, vec![Value::One; 3]);
        let (rep, cluster) = run_on_runtime(&s, fast_opts());
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{:?}", cluster.statuses);
    }

    /// `p2` crashing with its final sends lost. The crash fires after
    /// `p2`'s first step: no processor of any run has decided by then
    /// (a decision takes at least three), so the cluster cannot finish
    /// before the crash however the host schedules the threads — at
    /// `at_step: 4` a victim that decided in three steps halted first,
    /// about once in four runs under load.
    fn early_crash_of_p2(seed: u64) -> ChaosSchedule {
        let mut s = ChaosSchedule::fault_free(3, seed, vec![Value::One; 3]);
        s.crashes.push(ChaosCrash {
            victim: ProcessorId::new(2),
            at_step: 1,
            drop_final_sends: true,
        });
        s
    }

    #[test]
    fn crash_and_snapshot_restart_rejoins_on_the_runtime() {
        let mut s = early_crash_of_p2(32);
        s.restarts.push(ChaosRestart {
            victim: ProcessorId::new(2),
            delay_steps: 20,
            from_snapshot: true,
        });
        let (rep, cluster) = run_on_runtime(&s, fast_opts());
        assert!(rep.outcome.is_safe(), "{}", rep.outcome);
        assert!(cluster.crashed[2] && cluster.recovered[2]);
    }

    #[test]
    fn supervisor_substitutes_for_scripted_restarts() {
        // Same crash but no scripted restart at all: the supervisor
        // must notice the crash and bring the node back.
        let s = early_crash_of_p2(33);
        let mut opts = fast_opts();
        opts.wall_timeout = Duration::from_secs(5);
        let (rep, cluster, sup) = run_on_supervised(&s, opts, SupervisorPolicy::default());
        assert!(rep.outcome.is_decided(), "{} / {sup:?}", rep.outcome);
        assert!(cluster.crashed[2] && cluster.recovered[2], "{cluster:?}");
        assert!(sup.restarts[2] >= 1);
        assert!(sup.total_restarts() >= 1);
    }
}
