//! Soak tests for the threaded real-time runtime: the same automata
//! that run on the simulator must behave on OS threads with real clocks
//! and a lossy-ish network.

use std::time::Duration;

use rtc::prelude::*;
use rtc::runtime::ClusterReport;

fn opts() -> ClusterOptions {
    ClusterOptions {
        tick: Duration::from_micros(300),
        max_steps: 100_000,
        wall_timeout: Duration::from_secs(30),
        ..ClusterOptions::default()
    }
}

fn check(report: &ClusterReport) {
    assert!(report.agreement_holds(), "threads disagreed: {report:?}");
}

#[test]
fn repeated_commits_across_seeds() {
    let cfg = CommitConfig::new(4, 1, TimingParams::default()).unwrap();
    for seed in 0..5u64 {
        let report = run_cluster(
            commit_population(cfg, &[Value::One; 4]),
            SeedCollection::new(seed),
            FaultPlan::none(),
            opts(),
        );
        check(&report);
        assert!(report.decided_in_time, "seed {seed} timed out");
        assert!(report
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Commit)));
    }
}

#[test]
fn dissent_aborts_on_threads() {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    let mut votes = vec![Value::One; 5];
    votes[2] = Value::Zero;
    let report = run_cluster(
        commit_population(cfg, &votes),
        SeedCollection::new(9),
        FaultPlan::none(),
        opts(),
    );
    check(&report);
    assert!(report.decided_in_time);
    assert!(report
        .statuses
        .iter()
        .all(|s| s.decision() == Some(Decision::Abort)));
}

#[test]
fn crashes_within_budget_still_decide_on_threads() {
    let cfg = CommitConfig::new(7, 3, TimingParams::default()).unwrap();
    let report = run_cluster(
        commit_population(cfg, &[Value::One; 7]),
        SeedCollection::new(31),
        FaultPlan::none()
            .with_crash(ProcessorId::new(4), 3)
            .with_crash(ProcessorId::new(5), 8)
            .with_crash(ProcessorId::new(6), 15),
        opts(),
    );
    check(&report);
    assert!(report.decided_in_time, "{report:?}");
    assert!(report.all_nonfaulty_decided());
}

#[test]
fn delay_spikes_and_uniform_jitter_stay_safe() {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    for (seed, delay) in [
        (
            1u64,
            DelayModel::Spike {
                permille: 250,
                spike: 13,
            },
        ),
        (2, DelayModel::Uniform { min: 0, max: 7 }),
    ] {
        let report = run_cluster(
            commit_population(cfg, &[Value::One; 5]),
            SeedCollection::new(seed),
            FaultPlan::none().with_delay(delay),
            opts(),
        );
        check(&report);
        assert!(report.decided_in_time, "{report:?}");
    }
}

#[test]
fn coordinator_crash_at_first_step_is_survivable_or_silent() {
    // If the coordinator dies before sending GO, nobody ever learns a
    // transaction started (the paper's excluded degenerate case) — the
    // cluster times out undecided but consistent. If it dies later,
    // survivors finish.
    let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
    let report = run_cluster(
        commit_population(cfg, &[Value::One; 3]),
        SeedCollection::new(5),
        FaultPlan::none().with_crash(ProcessorId::COORDINATOR, 0),
        ClusterOptions {
            tick: Duration::from_micros(200),
            max_steps: 2_000,
            wall_timeout: Duration::from_secs(2),
            ..ClusterOptions::default()
        },
    );
    check(&report);
    assert!(!report.decided_in_time);
    assert!(report.statuses.iter().all(|s| !s.is_decided()));
}

#[test]
fn simulator_and_runtime_agree_on_the_same_scenario() {
    // Same config, same votes: the two substrates must reach the same
    // decision (commit) even though their schedules differ wildly.
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    let votes = [Value::One; 5];

    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(7))
        .fault_budget(2)
        .build(procs)
        .unwrap();
    let mut adv = SynchronousAdversary::new(5);
    let sim_report = sim.run(&mut adv, RunLimits::default()).unwrap();

    let cluster_report = run_cluster(
        commit_population(cfg, &votes),
        SeedCollection::new(7),
        FaultPlan::none(),
        opts(),
    );
    check(&cluster_report);
    assert_eq!(
        sim_report
            .statuses()
            .iter()
            .filter_map(|s| s.decision())
            .next(),
        cluster_report
            .statuses
            .iter()
            .filter_map(|s| s.decision())
            .next(),
    );
}
