//! End-to-end integration tests: full commit runs across the
//! model/sim/core crate boundaries, over a matrix of population sizes,
//! vote patterns, and adversaries.

use rtc::core::properties::{verify_commit, Condition};
use rtc::prelude::*;

fn run_once(
    n: usize,
    votes: &[Value],
    seed: u64,
    adv: &mut dyn Adversary,
) -> (RunReport, rtc::core::CommitConfig, Vec<Value>) {
    let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
        .expect("valid config");
    let procs = commit_population(cfg, votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim.run(adv, RunLimits::default()).expect("model respected");
    let verdict = verify_commit(votes, &report.facts());
    assert!(verdict.ok(), "correctness condition violated: {verdict:?}");
    (report, cfg, votes.to_vec())
}

#[test]
fn unanimous_commit_across_population_sizes() {
    for n in [1usize, 2, 3, 4, 5, 7, 9, 16, 33] {
        let votes = vec![Value::One; n];
        let mut adv = SynchronousAdversary::new(n);
        let (report, _, _) = run_once(n, &votes, 42, &mut adv);
        assert!(report.all_nonfaulty_decided(), "n = {n}");
        assert_eq!(report.decided_values(), vec![Value::One], "n = {n}");
    }
}

#[test]
fn single_dissenter_forces_abort_everywhere() {
    for n in [2usize, 3, 5, 8, 13] {
        for dissenter in 0..n {
            let mut votes = vec![Value::One; n];
            votes[dissenter] = Value::Zero;
            let mut adv = SynchronousAdversary::new(n);
            let (report, _, _) = run_once(n, &votes, 7 + dissenter as u64, &mut adv);
            assert_eq!(
                report.decided_values(),
                vec![Value::Zero],
                "n = {n}, dissenter = {dissenter}"
            );
        }
    }
}

#[test]
fn runs_are_reproducible_functions_of_a_i_f() {
    // The paper defines run(A, I, F) as a deterministic function; the
    // implementation must honour that.
    let n = 5;
    let votes = vec![Value::One, Value::One, Value::Zero, Value::One, Value::One];
    let run = |seed: u64| {
        let cfg = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(2)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(99).deliver_prob(0.5);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        (
            report.events(),
            report.statuses().to_vec(),
            sim.trace().messages().len(),
        )
    };
    assert_eq!(run(3), run(3));
    // Different seeds may differ in shape but must still agree on the
    // decision (abort, because of the dissenter).
    let (_, statuses, _) = run(4);
    assert!(statuses.iter().all(|s| s.value() == Some(Value::Zero)));
}

#[test]
fn late_everything_forces_consistent_abort() {
    // x-slow delivery beyond K: the commit-validity precondition fails,
    // so aborting is both allowed and expected — but it must be
    // unanimous and live.
    for n in [3usize, 5, 9] {
        let votes = vec![Value::One; n];
        let mut adv = SynchronousAdversary::with_lag(8 * n as u64);
        let (report, _, _) = run_once(n, &votes, 21, &mut adv);
        assert!(report.all_nonfaulty_decided(), "n = {n}");
        assert_eq!(report.decided_values(), vec![Value::Zero], "n = {n}");
    }
}

#[test]
fn crashes_within_budget_never_block() {
    for n in [3usize, 5, 7, 11] {
        let t = CommitConfig::max_tolerated(n);
        for crashes in 1..=t {
            let votes = vec![Value::One; n];
            let plans: Vec<CrashPlan> = (0..crashes)
                .map(|i| CrashPlan {
                    at_event: 2 + 5 * i as u64,
                    victim: ProcessorId::new(n - 1 - i),
                    drop: DropPolicy::DropAll,
                })
                .collect();
            let mut adv = CrashAdversary::new(SynchronousAdversary::new(n), plans);
            let (report, _, _) = run_once(n, &votes, 5 + crashes as u64, &mut adv);
            assert!(
                report.all_nonfaulty_decided(),
                "n = {n}, crashes = {crashes} blocked"
            );
            assert!(report.agreement_holds());
        }
    }
}

#[test]
fn commit_validity_verdict_applies_exactly_when_preconditions_hold() {
    let n = 4;
    let cfg = CommitConfig::new(n, 1, TimingParams::default()).unwrap();
    // On-time, failure-free, unanimous: the condition applies and holds.
    let votes = vec![Value::One; n];
    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(1))
        .fault_budget(1)
        .build(procs)
        .unwrap();
    let mut adv = SynchronousAdversary::new(n);
    let report = sim.run(&mut adv, RunLimits::default()).unwrap();
    let verdict = verify_commit(&votes, &report.facts());
    assert_eq!(verdict.commit_validity, Condition::Held);

    // A late run: the condition no longer applies (and the protocol may
    // abort).
    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(2))
        .fault_budget(1)
        .build(procs)
        .unwrap();
    let mut adv = SynchronousAdversary::with_lag(8 * n as u64);
    let report = sim.run(&mut adv, RunLimits::default()).unwrap();
    let verdict = verify_commit(&votes, &report.facts());
    assert!(!verdict.on_time);
    assert_eq!(verdict.commit_validity, Condition::NotApplicable);
}

#[test]
fn early_deciders_halt_and_stragglers_stay_safely_decided() {
    // The paper's pseudocode guarantees every nonfaulty processor
    // *decides*, and a processor *returns* (halts) the second time its
    // decision condition fires. Processors that decide last may never
    // see that second quorum once the early deciders fall silent — they
    // stay in the decided state forever, which is harmless: the
    // transaction's fate is already fixed at every replica.
    let n = 5;
    let cfg = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
    let votes = vec![Value::One; n];
    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(77))
        .fault_budget(2)
        .build(procs)
        .unwrap();
    let mut adv = SynchronousAdversary::new(n);
    let limits = RunLimits {
        max_events: 5_000,
        stop: rtc::sim::StopWhen::AllNonfaultyHalted,
    };
    let report = sim.run(&mut adv, limits).unwrap();
    // Everyone decided commit...
    assert!(report
        .statuses()
        .iter()
        .all(|s| s.value() == Some(Value::One)));
    // ...and a quorum of early deciders actually returned.
    let halted = report
        .statuses()
        .iter()
        .filter(|s| matches!(s, Status::Halted(_)))
        .count();
    assert!(
        halted >= cfg.quorum() - 1,
        "expected most processors to return from Protocol 1, got {halted}"
    );
}
