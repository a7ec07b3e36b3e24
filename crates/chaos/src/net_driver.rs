//! Executes a [`ChaosSchedule`] on the socket substrate (`rtc-net`).
//!
//! The schedule's [`rtc_runtime::FaultPlan`] is the one the threaded
//! runtime runs, its ticks read as `NetOptions::tick` of wall clock,
//! but here the plan's network faults are realized by each node on the
//! real TCP frames it decodes, and its `reset_permille`
//! (inert on every other substrate) injects genuine connection resets
//! that the links must survive through reconnect and replay. Recovery is always the
//! supervisor's job: scripted restarts are ignored, exactly as in
//! [`run_on_supervised`](crate::run_on_supervised), because a socket
//! cluster is the deployment shape and deployments do not get scripted
//! resurrections.

use rtc_net::{run_net_supervised, NetOptions, NetReport};
use rtc_runtime::{SupervisorPolicy, SupervisorReport};

use crate::outcome::{judge_cluster, ChaosReport, Substrate};
use crate::runtime_driver::boot_inputs;
use crate::schedule::ChaosSchedule;

/// Runs `schedule` over real localhost sockets under the self-healing
/// supervisor, classifying the outcome. Scripted restarts are ignored
/// (the supervisor owns recovery); everything else in the schedule —
/// crashes, delay regimes, outages, partitions, duplication, reordering,
/// and the socket-only connection resets — is injected by each node on
/// the live TCP traffic it reads.
///
/// Also returns the raw [`NetReport`] (socket-layer counters, per-node
/// lateness) and the [`SupervisorReport`] for callers that want the
/// operational detail.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`rtc_core::CommitConfig`], or if its fault plan is
/// invalid — generated schedules never do either.
pub fn run_on_net(
    schedule: &ChaosSchedule,
    opts: NetOptions,
    policy: SupervisorPolicy,
) -> (ChaosReport, NetReport, SupervisorReport) {
    let (population, seeds, plan) = boot_inputs(schedule);
    let (report, sup) = run_net_supervised(
        vec![population],
        vec![seeds],
        plan,
        opts,
        schedule.t,
        policy,
    );
    (
        judge_cluster(Substrate::Net, schedule, &report.instances[0]),
        report,
        sup,
    )
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rtc_model::{ProcessorId, TimingParams, Value};
    use rtc_runtime::CrashAt;

    use super::*;
    use crate::outcome::ChaosOutcome;

    fn fast_opts() -> NetOptions {
        let mut opts = NetOptions::derived(Duration::from_millis(1), TimingParams::default());
        opts.wall_timeout = Duration::from_secs(20);
        opts
    }

    #[test]
    fn faultfree_schedule_decides_over_sockets() {
        let s = ChaosSchedule::fault_free(3, 51, vec![Value::One; 3]);
        let (rep, net, _) = run_on_net(&s, fast_opts(), SupervisorPolicy::default());
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{net:?}");
        assert!(net.agreement_holds());
    }

    #[test]
    fn hostile_schedule_with_resets_stays_safe_over_sockets() {
        let mut s = ChaosSchedule::fault_free(3, 52, vec![Value::One, Value::Zero, Value::One]);
        s.faults = s
            .faults
            .with_duplication(300)
            .with_reordering(300)
            .with_resets(200)
            .with_partition(vec![1, 0, 0], 0, 3);
        let (rep, net, _) = run_on_net(&s, fast_opts(), SupervisorPolicy::default());
        assert!(rep.outcome.is_safe(), "{}: {net:?}", rep.outcome);
        // A Zero vote forces every decision to abort, on any substrate.
        for inst in &net.instances {
            for st in &inst.statuses {
                if let Some(v) = st.value() {
                    assert_eq!(v, Value::Zero);
                }
            }
        }
    }

    #[test]
    fn supervisor_heals_a_scripted_crash_over_sockets() {
        let mut s = ChaosSchedule::fault_free(3, 53, vec![Value::One; 3]);
        s.faults.crashes.push(CrashAt {
            victim: ProcessorId::new(1),
            at_step: 3,
            drop_final_sends: true,
        });
        let (rep, net, sup) = run_on_net(&s, fast_opts(), SupervisorPolicy::default());
        assert!(rep.outcome.is_decided(), "{} / {sup:?}", rep.outcome);
        assert!(net.instances[0].crashed[1] && net.instances[0].recovered[1]);
        assert!(sup.restarts[1] >= 1);
    }
}
