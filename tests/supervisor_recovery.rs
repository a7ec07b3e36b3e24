//! The supervisor demo end to end: crash `t` nodes on schedule while a
//! partition splits the cluster, heal the partition, and watch the
//! self-healing supervisor restart the victims (exponential backoff,
//! seeded jitter) and drive every node to a unanimous decision — no
//! scripted restarts anywhere in the fault plan.

use std::time::Duration;

use rtc::prelude::*;
use rtc::runtime::{run_cluster_supervised, ClusterHealth, SupervisorPolicy};

fn opts() -> ClusterOptions {
    ClusterOptions {
        tick: Duration::from_micros(300),
        max_steps: 200_000,
        wall_timeout: Duration::from_secs(30),
        ..ClusterOptions::default()
    }
}

/// `t = 2` crashes plus a healed partition: the supervisor restarts
/// both victims and every node terminates with one unanimous decision.
/// The decision itself is not pinned: with faults in the run, commit
/// validity no longer forces `Commit`, and a load-delayed timeout may
/// legitimately steer the quorum to `Abort` — agreement is the
/// invariant, not the value.
#[test]
fn supervisor_recovers_t_crashes_through_a_healed_partition() {
    let n = 5;
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let faults = FaultPlan::none()
        .with_crash(ProcessorId::new(1), 3)
        .with_crash(ProcessorId::new(4), 5)
        .with_partition(vec![0, 0, 0, 1, 1], 0, 7);
    let (report, sup) = run_cluster_supervised(
        commit_population(cfg, &vec![Value::One; n]),
        SeedCollection::new(1986),
        faults,
        opts(),
        cfg.fault_bound(),
        SupervisorPolicy::default(),
    );
    assert!(report.decided_in_time, "{report:?}\n{sup:?}");
    assert!(report.agreement_holds());
    let decision = report.statuses[0].decision();
    assert!(decision.is_some(), "node 0 never decided: {report:?}");
    for (i, s) in report.statuses.iter().enumerate() {
        assert!(s.is_decided(), "node {i} never decided: {report:?}");
        assert_eq!(s.decision(), decision, "node {i} split from the quorum");
    }
    assert!(
        sup.restarts[1] >= 1 && sup.restarts[4] >= 1,
        "both victims must have been restarted: {sup:?}"
    );
    assert!(!sup.permanent_failures.iter().any(|p| *p));
    assert_eq!(sup.final_health, ClusterHealth::Healthy);
}

/// The health log tells the story in order: the cluster degrades when
/// the victims crash and is healthy again once the supervisor has
/// brought them back.
#[test]
fn health_log_records_the_degradation_and_the_recovery() {
    let n = 5;
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let faults = FaultPlan::none().with_crash(ProcessorId::new(0), 2);
    let (report, sup) = run_cluster_supervised(
        commit_population(cfg, &vec![Value::One; n]),
        SeedCollection::new(1987),
        faults,
        opts(),
        cfg.fault_bound(),
        SupervisorPolicy::default(),
    );
    assert!(report.decided_in_time, "{report:?}\n{sup:?}");
    assert!(
        sup.health_log
            .iter()
            .any(|(_, h)| matches!(h, ClusterHealth::Degraded { .. })),
        "the crash must appear in the health log: {sup:?}"
    );
    assert_eq!(sup.final_health, ClusterHealth::Healthy);
    assert!(!sup.ever_stalled(), "one crash out of t = 2 never stalls");
}
