//! Integration tests for the timing machinery: the asynchronous-round
//! accountant, the lateness predicate, and the paper's tick/round
//! bounds on real protocol traces.

use rtc::prelude::*;
use rtc::sim::rounds::RoundAccountant;
use rtc::sim::RunMetrics;

fn commit_run(
    n: usize,
    k: u64,
    seed: u64,
    adv: &mut dyn Adversary,
) -> (RunReport, rtc::sim::Trace, TimingParams) {
    let timing = TimingParams::new(k).unwrap();
    let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), timing).unwrap();
    let procs = commit_population(cfg, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim.run(adv, RunLimits::default()).unwrap();
    (report, sim.trace().clone(), timing)
}

#[test]
fn synchronous_runs_are_on_time_and_within_8k_ticks() {
    for n in [3usize, 5, 9, 17] {
        for k in [1u64, 2, 4, 8] {
            let mut adv = SynchronousAdversary::new(n);
            let (report, trace, timing) = commit_run(n, k, 11, &mut adv);
            assert!(report.all_nonfaulty_decided());
            assert!(report.facts().on_time, "n = {n}, K = {k}");
            let metrics = RunMetrics::from_trace(&trace);
            let worst = metrics.worst_nonfaulty_decision_clock.unwrap();
            assert!(
                worst <= timing.failure_free_decision_bound(),
                "n = {n}, K = {k}: {worst} > 8K = {}",
                timing.failure_free_decision_bound()
            );
        }
    }
}

#[test]
fn delayed_runs_are_late_when_delay_exceeds_k() {
    let n = 4;
    // x = 8 rotations > K = 4: some message must be late.
    let mut adv = SynchronousAdversary::with_lag(8 * n as u64);
    let (report, _, _) = commit_run(n, 4, 5, &mut adv);
    assert!(report.all_nonfaulty_decided());
    assert!(
        !report.facts().on_time,
        "x-slow run must contain late messages"
    );
}

#[test]
fn lagged_synchronous_delivery_at_k_minus_one_stays_on_time() {
    let n = 5;
    let k = 4u64;
    let mut adv = SynchronousAdversary::with_lag((k - 1) * n as u64);
    let (report, _, _) = commit_run(n, k, 9, &mut adv);
    assert!(report.all_nonfaulty_decided());
    assert!(report.facts().on_time);
}

#[test]
fn done_round_stays_within_the_papers_expectation() {
    // Theorem 10 promises 14 expected rounds; benign and moderately
    // adversarial schedules must come in far under that, and even the
    // max over seeds should clear it.
    let mut worst = 0u64;
    for n in [3usize, 5, 9] {
        for seed in 0..20u64 {
            let mut adv = RandomAdversary::new(seed)
                .deliver_prob(0.6)
                .crash_prob(0.005);
            let (report, trace, timing) = commit_run(n, 4, seed, &mut adv);
            assert!(report.all_nonfaulty_decided());
            let round = RoundAccountant::new(&trace, timing)
                .done_round(64)
                .expect("decided within horizon");
            worst = worst.max(round);
        }
    }
    assert!(
        worst <= 14,
        "observed DONE round {worst} exceeds the paper's expectation"
    );
}

#[test]
fn round_boundaries_are_monotone_and_spaced_by_at_least_k() {
    let n = 5;
    let mut adv = RandomAdversary::new(3).deliver_prob(0.5);
    let (_, trace, timing) = commit_run(n, 4, 3, &mut adv);
    let bounds = RoundAccountant::new(&trace, timing).boundaries(16);
    for p in ProcessorId::all(n) {
        let mut prev = 0;
        for r in 1..=16 {
            let end = bounds.end_of(p, r).unwrap();
            assert!(
                end >= prev + timing.k(),
                "round {r} of {p} shorter than K: {prev} -> {end}"
            );
            prev = end;
        }
    }
}

#[test]
fn decision_rounds_match_round_at_lookup() {
    let n = 4;
    let mut adv = SynchronousAdversary::new(n);
    let (_, trace, timing) = commit_run(n, 4, 8, &mut adv);
    let acc = RoundAccountant::new(&trace, timing);
    let bounds = acc.boundaries(32);
    let rounds = acc.decision_rounds(32);
    for p in ProcessorId::all(n) {
        let d = trace.decision_of(p).expect("decided");
        assert_eq!(rounds[p.index()], bounds.round_at(p, d.clock.ticks()));
    }
}

#[test]
fn faster_coin_distribution_roughly_tracks_remark_three() {
    // Remark 3: more coins => slightly fewer stages in the tail. We
    // verify at least that a generous coin budget never *hurts*.
    let n = 9;
    let t = CommitConfig::max_tolerated(n);
    let mut short_total = 0u64;
    let mut long_total = 0u64;
    for seed in 0..40u64 {
        let short = rtc::baselines::worst_case_stages(
            n,
            t,
            rtc::baselines::dealer_coins(1, seed),
            seed,
            512,
        );
        let long = rtc::baselines::worst_case_stages(
            n,
            t,
            rtc::baselines::dealer_coins(512, seed),
            seed,
            512,
        );
        short_total += short.stages;
        long_total += long.stages;
    }
    assert!(
        long_total <= short_total,
        "extra coins made the worst case slower"
    );
}
