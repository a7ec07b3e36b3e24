//! Empirical demonstrations of the paper's two lower bounds.
//!
//! * **Theorem 14** (no commit protocol tolerates `n ≤ 2t`): a
//!   permanent half/half partition — two groups of `n/2` processors
//!   that never hear each other — makes termination impossible. Our
//!   protocol, run under that partition, stalls forever while never
//!   producing conflicting decisions.
//! * **Theorem 17** (no protocol decides in a bounded expected number
//!   of clock ticks): for every delay parameter `x` the `x`-slow
//!   adversary forces decision times that grow linearly in `x`, so no
//!   bound `B` can hold for all adversaries. This is exactly why the
//!   paper measures performance in *asynchronous rounds* instead — and
//!   in rounds, the same runs stay constant.
//!
//! Run with: `cargo run --example lower_bounds`

use rtc::lockstep::valency::{classify, ExploreParams, Valency};
use rtc::lockstep::{LockstepSim, PartitionPolicy, UniformDelayPolicy};
use rtc::prelude::*;
use rtc::sim::rounds::RoundAccountant;
use rtc::sim::RunMetrics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    theorem_14_partition()?;
    theorem_17_unbounded_ticks()?;
    lockstep_model_demonstrations()?;
    Ok(())
}

/// The Section 4/5 lower-bound model, executable: lockstep round-robin
/// turns, x-slow schedules, and valency classification.
fn lockstep_model_demonstrations() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== Lockstep model (Sections 4-5): valency and x-slow runs ==\n");
    let cfg = CommitConfig::new(3, 1, TimingParams::new(4)?)?;

    // Lemma 15's pivotal object: the all-ones initial configuration is
    // bivalent — both commit and abort are genuinely reachable by
    // 1-slow F-compatible schedules.
    let sim = LockstepSim::new(
        commit_population(cfg, &[Value::One; 3]),
        SeedCollection::new(7),
    )
    .without_history();
    let v = classify(
        &sim,
        ExploreParams {
            x: 1,
            branch_depth: 12,
            horizon_cycles: 2_000,
        },
    );
    println!("  valency of I_111 over 1-slow schedules ......... {v:?}");
    assert_eq!(v, Valency::Bivalent);

    // With an abort vote in the initial configuration, only 0 is
    // reachable (abort validity), so the explorer reports univalence.
    let sim = LockstepSim::new(
        commit_population(cfg, &[Value::One, Value::Zero, Value::One]),
        SeedCollection::new(7),
    )
    .without_history();
    let v = classify(
        &sim,
        ExploreParams {
            x: 1,
            branch_depth: 10,
            horizon_cycles: 2_000,
        },
    );
    println!("  valency of I_101 over 1-slow schedules ......... {v:?}");
    assert_eq!(v, Valency::Zero);

    // x-slow runs stretch decision cycles linearly (Theorem 17 in the
    // lockstep model), and the half/half partition stalls in lockstep
    // exactly as it does asynchronously (Theorem 14).
    print!("  decision cycles at x = 1, 4, 16 ................ ");
    for x in [1u64, 4, 16] {
        let mut s = LockstepSim::new(
            commit_population(cfg, &[Value::One; 3]),
            SeedCollection::new(1),
        );
        let (_, summary) = s.run_policy(&mut UniformDelayPolicy::new(x), 5_000);
        assert!(summary.all_nonfaulty_decided);
        print!("{} ", summary.cycles);
    }
    println!();

    let cfg4 = CommitConfig::new(4, 1, TimingParams::new(4)?)?;
    let mut s = LockstepSim::new(
        commit_population(cfg4, &[Value::One; 4]),
        SeedCollection::new(2),
    );
    let policy = PartitionPolicy::new(4, &[ProcessorId::new(0), ProcessorId::new(1)]);
    let (_, summary) = s.run_partition(&policy, 400);
    println!(
        "  2+2 partition in lockstep ...................... stalled = {}, safe = {}",
        !summary.all_nonfaulty_decided,
        summary.agreement_holds()
    );
    assert!(!summary.all_nonfaulty_decided && summary.agreement_holds());
    Ok(())
}

fn theorem_14_partition() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Theorem 14: a half/half partition blocks any n <= 2t configuration ==\n");
    for n in [2usize, 4, 8] {
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::new(4)?)?;
        let procs = commit_population(cfg, &vec![Value::One; n]);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(n as u64))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let group_a: Vec<ProcessorId> = ProcessorId::all(n / 2).collect();
        let mut adv = Unfair(SynchronousAdversary::new(n).holding(cut(n, &group_a)));
        let report = sim.run(&mut adv, RunLimits::with_max_events(20_000))?;
        let decided = report.statuses().iter().filter(|s| s.is_decided()).count();
        println!(
            "  n = {n}: partition {}+{} -> stalled = {}, conflicting = {}, {} of {} decided \
             (unilateral aborts only)",
            n / 2,
            n - n / 2,
            report.stalled(),
            !report.agreement_holds(),
            decided,
            n
        );
        assert!(report.stalled(), "the cut-off side can never decide");
        assert!(
            report.agreement_holds(),
            "safety must survive the partition"
        );
    }
    println!(
        "\n  Each side of the cut holds only n/2 processors — short of the n - t quorum —\n  \
         so the protocol (correctly) refuses to terminate rather than guess.\n"
    );
    Ok(())
}

fn theorem_17_unbounded_ticks() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Theorem 17: decision clock ticks grow without bound; rounds do not ==\n");
    let n = 4;
    let cfg = CommitConfig::new(n, 1, TimingParams::new(4)?)?;
    println!(
        "  {:>4} | {:>14} | {:>12} | {:>8}",
        "x", "decision ticks", "DONE round", "outcome"
    );
    for x in [1u64, 2, 4, 8, 16, 32, 64] {
        let procs = commit_population(cfg, &vec![Value::One; n]);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(x))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = SynchronousAdversary::with_lag(x * n as u64);
        let report = sim.run(&mut adv, RunLimits::with_max_events(5_000_000))?;
        assert!(report.all_nonfaulty_decided());
        let metrics = RunMetrics::from_trace(sim.trace());
        let rounds = RoundAccountant::new(sim.trace(), cfg.timing());
        let outcome = report
            .statuses()
            .iter()
            .find_map(|s| s.decision())
            .expect("decided");
        println!(
            "  {:>4} | {:>14} | {:>12} | {:>8}",
            x,
            metrics.worst_nonfaulty_decision_clock.unwrap(),
            rounds
                .done_round(64)
                .map(|r| r.to_string())
                .unwrap_or_else(|| ">64".into()),
            outcome.to_string()
        );
    }
    println!(
        "\n  Ticks scale with x (pick x large enough to beat any bound B), while the\n  \
         asynchronous-round count stays flat — the measure the paper introduces is the\n  \
         one under which the protocol is constant-time."
    );
    Ok(())
}
