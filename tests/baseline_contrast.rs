//! Integration tests pinning down the comparisons the paper draws
//! against prior protocols.

use rtc::baselines::cms::anti_leader_stages;
use rtc::baselines::{
    benor_population, cms_population, dealer_coins, precommit_delayer, rabin_population,
    threepc_population, twopc_population, worst_case_stages,
};
use rtc::core::CoinList;
use rtc::prelude::*;

#[test]
fn threepc_splits_but_cl86_survives_the_same_kind_of_lateness() {
    let n = 3;
    let timing = TimingParams::default();

    // 3PC: one late PreCommit produces conflicting decisions.
    let procs = threepc_population(n, timing, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(1))
        .fault_budget(0)
        .build(procs)
        .unwrap();
    let mut adv = precommit_delayer(ProcessorId::new(2), 10_000);
    let report = sim
        .run_content(&mut adv, RunLimits::with_max_events(9_000))
        .unwrap();
    assert!(!report.agreement_holds());

    // CL86 under a slow link to the same victim: consistent and live.
    let cfg = CommitConfig::new(n, 1, timing).unwrap();
    let procs = commit_population(cfg, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(1))
        .fault_budget(1)
        .build(procs)
        .unwrap();
    let victim = ProcessorId::new(2);
    let mut adv = SynchronousAdversary::new(n)
        .holding(move |m, now| m.to == victim && now - m.send_event < 150);
    let report = sim
        .run(&mut adv, RunLimits::with_max_events(50_000))
        .unwrap();
    assert!(report.agreement_holds());
    assert!(report.all_nonfaulty_decided());
}

#[test]
fn twopc_blocks_where_cl86_decides() {
    let n = 3;
    let timing = TimingParams::default();
    let kill_coordinator = |at_event: u64| {
        CrashAdversary::new(
            SynchronousAdversary::new(n),
            vec![CrashPlan {
                at_event,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropTo(vec![ProcessorId::new(2)]),
            }],
        )
    };

    // 2PC: coordinator dies after collecting yes votes — participants
    // block.
    let procs = twopc_population(n, timing, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(2))
        .fault_budget(1)
        .build(procs)
        .unwrap();
    let mut adv = CrashAdversary::new(
        SynchronousAdversary::new(n),
        vec![CrashPlan {
            at_event: 3,
            victim: ProcessorId::COORDINATOR,
            drop: DropPolicy::DropAll,
        }],
    );
    let report = sim
        .run(&mut adv, RunLimits::with_max_events(5_000))
        .unwrap();
    assert!(report.stalled(), "2PC must block");
    assert!(report.agreement_holds());

    // CL86: the same kind of coordinator loss is survivable.
    let cfg = CommitConfig::new(n, 1, timing).unwrap();
    let procs = commit_population(cfg, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(2))
        .fault_budget(1)
        .build(procs)
        .unwrap();
    let mut adv = kill_coordinator(1);
    let report = sim
        .run(&mut adv, RunLimits::with_max_events(50_000))
        .unwrap();
    assert!(report.all_nonfaulty_decided(), "CL86 must not block");
    assert!(report.agreement_holds());
}

#[test]
fn shared_coins_beat_local_coins_by_a_wide_margin() {
    let n = 9;
    let t = 4;
    let cap = 1024;
    let mut benor = 0u64;
    let mut shared = 0u64;
    for seed in 0..12u64 {
        benor += worst_case_stages(n, t, CoinList::from_values(vec![]), seed, cap).stages;
        shared += worst_case_stages(n, t, dealer_coins(64, seed), seed, cap).stages;
    }
    assert!(
        benor >= 5 * shared,
        "expected a wide margin, got Ben-Or {benor} vs shared {shared}"
    );
}

#[test]
fn leader_coin_degrades_with_t_but_shared_coin_does_not() {
    let n = 13;
    let mut leader_low = 0u64;
    let mut leader_high = 0u64;
    let mut shared_high = 0u64;
    for seed in 0..12u64 {
        leader_low += anti_leader_stages(n, 1, seed, 2048).stages;
        leader_high += anti_leader_stages(n, 6, seed, 2048).stages;
        shared_high += worst_case_stages(n, 6, dealer_coins(128, seed), seed, 2048).stages;
    }
    assert!(
        leader_high > 2 * leader_low,
        "leader coin should degrade with t: t=1 {leader_low}, t=6 {leader_high}"
    );
    assert!(
        shared_high < leader_high,
        "shared coin should stay ahead at high t"
    );
}

#[test]
fn rabin_and_cl86_subroutine_agree_on_every_seed() {
    // The Rabin-style dealer population is Protocol 1 with a pre-shared
    // list; it must decide and agree under random schedules.
    for seed in 0..8u64 {
        let inputs = [Value::One, Value::Zero, Value::One, Value::Zero, Value::One];
        let procs = rabin_population(5, 2, &inputs, dealer_coins(64, seed));
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(2)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(0.6);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
    }
}

#[test]
fn cms_baseline_is_safe_even_while_degrading() {
    for seed in 0..8u64 {
        let inputs = [Value::One, Value::Zero, Value::One, Value::Zero, Value::One];
        let procs = cms_population(5, 2, &inputs);
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(2)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed)
            .deliver_prob(0.4)
            .crash_prob(0.01);
        let report = sim
            .run(&mut adv, RunLimits::with_max_events(500_000))
            .unwrap();
        assert!(report.agreement_holds(), "seed {seed}");
    }
}

#[test]
fn benor_decides_eventually_under_fair_random_schedules() {
    for seed in 0..6u64 {
        let inputs = [Value::One, Value::Zero, Value::One];
        let procs = benor_population(3, 1, &inputs);
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(0.8);
        let report = sim
            .run(&mut adv, RunLimits::with_max_events(3_000_000))
            .unwrap();
        assert!(report.all_nonfaulty_decided(), "seed {seed} did not decide");
    }
}
