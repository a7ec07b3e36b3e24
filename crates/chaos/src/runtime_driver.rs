//! Executes a [`ChaosSchedule`] on the threaded real-time runtime.
//!
//! The schedule's [`FaultPlan`] is what the runtime runs: its crash
//! steps are the nodes' local steps, and the cluster reads its restart
//! times, delays and windows as ticks of `ClusterOptions::tick`.

use rtc_core::{commit_population, CommitAutomaton};
use rtc_model::SeedCollection;
use rtc_runtime::{
    run_cluster, run_cluster_supervised, ClusterOptions, ClusterReport, FaultPlan,
    SupervisorPolicy, SupervisorReport,
};

use crate::outcome::{judge_cluster, ChaosReport, Substrate};
use crate::schedule::ChaosSchedule;

/// What every wall-clock driver boots from: the schedule's population,
/// its seeds, and its fault plan, validated.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`rtc_core::CommitConfig`], or if its fault plan is
/// invalid ([`FaultPlan::validate`]) — generated schedules never do
/// either.
pub(crate) fn boot_inputs(
    schedule: &ChaosSchedule,
) -> (Vec<CommitAutomaton>, SeedCollection, FaultPlan) {
    schedule
        .faults
        .validate(schedule.n, schedule.t)
        .expect("generated schedules carry valid fault plans");
    (
        commit_population(schedule.commit_config(), &schedule.votes),
        SeedCollection::new(schedule.seed),
        schedule.faults.clone(),
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
    let (population, seeds, plan) = boot_inputs(schedule);
    let report = run_cluster(population, seeds, plan, opts);
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
    let (population, seeds, plan) = boot_inputs(schedule);
    let (report, sup) = run_cluster_supervised(population, seeds, plan, opts, schedule.t, policy);
    (
        judge_cluster(Substrate::Supervised, schedule, &report),
        report,
        sup,
    )
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rtc_model::{ProcessorId, Value};
    use rtc_runtime::CrashAt;

    use super::*;
    use crate::outcome::ChaosOutcome;

    fn fast_opts() -> ClusterOptions {
        ClusterOptions {
            tick: Duration::from_millis(1),
            max_steps: 400,
            wall_timeout: Duration::from_secs(2),
            ..ClusterOptions::default()
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
        s.faults.crashes.push(CrashAt {
            victim: ProcessorId::new(2),
            at_step: 1,
            drop_final_sends: true,
        });
        s
    }

    #[test]
    fn crash_and_snapshot_restart_rejoins_on_the_runtime() {
        let mut s = early_crash_of_p2(32);
        s.faults = s.faults.with_restart(ProcessorId::new(2), 21, true);
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
