//! Integration tests for the ablation switches and the recovery
//! scenario (experiments A1–A3).

use rtc::prelude::*;

fn run(
    cfg: CommitConfig,
    votes: &[Value],
    seed: u64,
    adv: &mut dyn Adversary,
    max_events: u64,
) -> (RunReport, Vec<Option<u64>>) {
    let procs = commit_population(cfg, votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim
        .run(adv, RunLimits::with_max_events(max_events))
        .unwrap();
    let clocks = ProcessorId::all(cfg.population())
        .map(|p| sim.trace().decision_of(p).map(|d| d.clock.ticks()))
        .collect();
    (report, clocks)
}

#[test]
fn piggyback_rescues_a_victim_of_a_delayed_go_wave() {
    let n = 5;
    let base = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
    let victim = ProcessorId::new(4);
    let delayed_go_wave = || {
        SynchronousAdversary::new(n).holding(move |m, now| {
            m.to == victim && m.sender_clock.ticks() <= 2 && now - m.send_event < 300
        })
    };

    let mut on_ticks = 0u64;
    let mut off_ticks = 0u64;
    for seed in 0..10u64 {
        let (report, clocks) = run(
            base.with_piggyback(true),
            &[Value::One; 5],
            seed,
            &mut delayed_go_wave(),
            100_000,
        );
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
        on_ticks += clocks[4].unwrap();

        let (report, clocks) = run(
            base.with_piggyback(false),
            &[Value::One; 5],
            seed,
            &mut delayed_go_wave(),
            100_000,
        );
        assert!(
            report.all_nonfaulty_decided(),
            "liveness must survive the ablation"
        );
        assert!(report.agreement_holds());
        off_ticks += clocks[4].unwrap();
    }
    assert!(
        off_ticks > 2 * on_ticks,
        "piggybacking should cut the straggler's latency: on {on_ticks}, off {off_ticks}"
    );
}

#[test]
fn early_abort_cuts_the_aborters_latency_without_changing_outcomes() {
    let n = 5;
    let base = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
    let mut votes = vec![Value::One; n];
    votes[3] = Value::Zero;

    let mut with_rule = 0u64;
    let mut without_rule = 0u64;
    for seed in 0..10u64 {
        let (report, clocks) = run(
            base.with_early_abort(true),
            &votes,
            seed,
            &mut SynchronousAdversary::new(n),
            100_000,
        );
        assert_eq!(report.decided_values(), vec![Value::Zero]);
        with_rule += clocks[3].unwrap();

        let (report, clocks) = run(
            base.with_early_abort(false),
            &votes,
            seed,
            &mut SynchronousAdversary::new(n),
            100_000,
        );
        assert_eq!(report.decided_values(), vec![Value::Zero]);
        without_rule += clocks[3].unwrap();
    }
    assert!(
        with_rule < without_rule,
        "the early abort rule should decide the aborter sooner: {with_rule} vs {without_rule}"
    );
}

#[test]
fn healed_partition_reaches_unanimous_decision() {
    let n = 5;
    let cfg = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
    for heal_at in [40u64, 120, 400] {
        let group_a = [ProcessorId::new(3), ProcessorId::new(4)];
        let cut = cut(n, &group_a);
        let mut adv =
            SynchronousAdversary::new(n).holding(move |m, now| now < heal_at && cut(m, now));
        let (report, _) = run(cfg, &[Value::One; 5], heal_at, &mut adv, 300_000);
        assert!(
            report.all_nonfaulty_decided(),
            "healed partition (heal_at = {heal_at}) must decide"
        );
        assert!(report.agreement_holds());
    }
}

#[test]
fn healing_later_costs_more_ticks_for_the_minority() {
    let n = 5;
    let cfg = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
    let mut last = 0u64;
    for heal_at in [50u64, 500] {
        let group_a = [ProcessorId::new(3), ProcessorId::new(4)];
        let cut = cut(n, &group_a);
        let mut adv =
            SynchronousAdversary::new(n).holding(move |m, now| now < heal_at && cut(m, now));
        let (report, clocks) = run(cfg, &[Value::One; 5], 1, &mut adv, 300_000);
        assert!(report.all_nonfaulty_decided());
        let minority_worst = clocks[3].unwrap().max(clocks[4].unwrap());
        assert!(
            minority_worst > last,
            "heal_at {heal_at}: expected increasing minority latency"
        );
        last = minority_worst;
    }
}

#[test]
fn ablations_never_touch_safety_under_random_schedules() {
    let n = 5;
    for seed in 0..10u64 {
        for (pig, early) in [(false, false), (false, true), (true, false)] {
            let cfg = CommitConfig::new(n, 2, TimingParams::default())
                .unwrap()
                .with_piggyback(pig)
                .with_early_abort(early);
            let mut votes = vec![Value::One; n];
            votes[(seed as usize) % n] = Value::Zero;
            let mut adv = RandomAdversary::new(seed)
                .deliver_prob(0.5)
                .crash_prob(0.01);
            let (report, _) = run(cfg, &votes, seed, &mut adv, 1_000_000);
            assert!(
                report.agreement_holds(),
                "seed {seed}, pig {pig}, early {early}"
            );
            assert!(
                report.all_nonfaulty_decided(),
                "seed {seed}, pig {pig}, early {early}"
            );
            for s in report.statuses() {
                if let Some(v) = s.value() {
                    assert_eq!(v, Value::Zero);
                }
            }
        }
    }
}
