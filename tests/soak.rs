//! Long-running soak suites, `#[ignore]`d by default.
//!
//! Run with `cargo test --release -- --ignored` (or a specific test
//! name) for a deep statistical sweep — thousands of adversarial runs
//! checking every correctness condition. CI runs these nightly rather
//! than per-push.

use rtc::core::properties::verify_commit;
use rtc::prelude::*;

fn one_run(n: usize, votes: &[Value], seed: u64, adv: &mut dyn Adversary) -> bool {
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let procs = commit_population(cfg, votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim
        .run(adv, RunLimits::with_max_events(3_000_000))
        .expect("model respected");
    let verdict = verify_commit(votes, &report.facts());
    assert!(verdict.ok(), "seed {seed}: {verdict:?}");
    assert!(report.all_nonfaulty_decided(), "seed {seed} blocked");
    report.agreement_holds()
}

#[test]
#[ignore = "soak: thousands of runs; run with --ignored"]
fn five_thousand_random_adversarial_runs() {
    let mut rng_seed = 0u64;
    for trial in 0..5_000u64 {
        rng_seed = rng_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(trial);
        let n = 3 + (trial % 7) as usize;
        let mut votes = vec![Value::One; n];
        if trial % 4 == 0 {
            votes[(trial as usize / 4) % n] = Value::Zero;
        }
        let mut adv = RandomAdversary::new(rng_seed)
            .deliver_prob(0.3 + (trial % 7) as f64 / 10.0)
            .crash_prob(0.005);
        assert!(one_run(n, &votes, trial, &mut adv));
    }
}

#[test]
#[ignore = "soak: adaptive adversary sweep; run with --ignored"]
fn adaptive_adversary_sweep() {
    for trial in 0..1_000u64 {
        let n = 4 + (trial % 5) as usize;
        let votes = vec![Value::One; n];
        let mut adv = AdaptiveAdversary::new(trial);
        assert!(one_run(n, &votes, trial, &mut adv));
    }
}

#[test]
#[ignore = "soak: threaded runtime endurance; run with --ignored"]
fn threaded_runtime_endurance() {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    for seed in 0..200u64 {
        let mut votes = vec![Value::One; 5];
        if seed % 3 == 0 {
            votes[(seed as usize) % 5] = Value::Zero;
        }
        let faults = if seed % 2 == 0 {
            FaultPlan::none().with_delay(DelayModel::Spike {
                permille: 150,
                spike: 4,
            })
        } else {
            FaultPlan::none().with_crash(ProcessorId::new(4), seed % 20)
        };
        let report = run_cluster(
            commit_population(cfg, &votes),
            SeedCollection::new(seed),
            faults,
            ClusterOptions::default(),
        );
        assert!(report.agreement_holds(), "seed {seed}");
        assert!(report.decided_in_time, "seed {seed} timed out");
    }
}

#[test]
#[ignore = "soak: Ben-Or patience test; run with --ignored"]
fn benor_eventually_decides_under_fair_schedules() {
    for seed in 0..100u64 {
        let inputs = [Value::One, Value::Zero, Value::One, Value::Zero, Value::One];
        let procs = rtc::baselines::benor_population(5, 2, &inputs);
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(2)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(0.8);
        let report = sim
            .run(&mut adv, RunLimits::with_max_events(20_000_000))
            .unwrap();
        assert!(report.agreement_holds(), "seed {seed}");
        assert!(report.all_nonfaulty_decided(), "seed {seed} did not decide");
    }
}
