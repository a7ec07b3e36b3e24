//! The acceptance gate for the fault-injection subsystem: a seeded
//! chaos campaign of 200+ randomized fault schedules — crashes,
//! restarts (snapshot and amnesiac), delay spikes, link outages, healing
//! partitions, message duplication, and reordering — each executed on
//! **both** substrates (discrete-event simulator and threaded
//! runtime), with zero tolerated safety violations; plus the flagship
//! Theorem 11 scenario: crash `t + 1` processors, observe a graceful
//! stall with no wrong answer, restart them, observe termination.

use std::time::Duration;

use rtc::chaos::{
    run_campaign, run_on_runtime, run_on_sim, run_theorem11, sim_trace_digest, CampaignConfig,
    ChaosOutcome, ChaosSchedule, Substrate,
};
use rtc::prelude::{ClusterOptions, DelayModel, ProcessorId, Value};

fn campaign_cluster() -> ClusterOptions {
    ClusterOptions {
        tick: Duration::from_millis(1),
        max_steps: 400,
        wall_timeout: Duration::from_secs(2),
        ..ClusterOptions::default()
    }
}

/// ≥200 randomized fault schedules on the simulator, zero violations.
/// Fast (discrete-event), so this leg carries the bulk of the count.
#[test]
fn campaign_of_200_schedules_is_safe_on_the_simulator() {
    let cfg = CampaignConfig {
        schedules: 200,
        seed: 0x1986_C0A7,
        run_runtime: false,
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&cfg);
    assert!(summary.ok(), "violations: {:#?}", summary.violations);
    assert_eq!(
        summary.decided(Substrate::Sim) + summary.stalled(Substrate::Sim),
        200
    );
    assert!(
        summary.decided(Substrate::Sim) >= 150,
        "most schedules are recoverable and must decide: {summary}"
    );
}

/// The 200-schedule campaign above is only a hostile-network gate if
/// the generator actually emits the whole fault vocabulary. Pin that:
/// across the same seed and index range, every fault kind — crashes,
/// restarts, delays, link outages, partitions, duplication, and
/// reordering — must appear at least once.
#[test]
fn the_campaign_mixes_every_fault_kind() {
    let cfg = CampaignConfig {
        seed: 0x1986_C0A7,
        ..CampaignConfig::default()
    };
    let (mut crashes, mut restarts, mut delays, mut outages) = (false, false, false, false);
    let (mut partitions, mut duplicates, mut reorders) = (false, false, false);
    for i in 0..200 {
        let f = ChaosSchedule::generate(cfg.seed, i).faults;
        crashes |= !f.crashes.is_empty();
        restarts |= !f.restarts.is_empty();
        delays |= f.delay != DelayModel::None;
        outages |= !f.outages.is_empty();
        partitions |= !f.partitions.is_empty();
        duplicates |= f.duplicate_permille > 0;
        reorders |= f.reorder_permille > 0;
    }
    assert!(crashes, "no schedule crashed a processor");
    assert!(restarts, "no schedule restarted a processor");
    assert!(delays, "no schedule injected a delay");
    assert!(outages, "no schedule cut a link");
    assert!(partitions, "no schedule partitioned the network");
    assert!(duplicates, "no schedule duplicated messages");
    assert!(reorders, "no schedule reordered messages");
}

/// A partition is not an event of the simulator's run but the link
/// outages it implies: splitting `{p0, p1} | {p2, p3, p4}` over a window
/// records the same trace as cutting the six links across the split
/// over that window, with duplication and reordering on.
#[test]
fn a_partition_runs_as_the_outages_it_implies() {
    for seed in 0..40 {
        let mut base = ChaosSchedule::fault_free(5, seed, vec![Value::One; 5]);
        base.faults = base.faults.with_duplication(200).with_reordering(200);
        let mut split = base.clone();
        split.faults = split.faults.with_partition(vec![1, 1, 0, 0, 0], 1, 6);
        let mut cut = base.clone();
        for (a, b) in (0..2).flat_map(|a| (2..5).map(move |b| (a, b))) {
            let (a, b) = (ProcessorId::new(a), ProcessorId::new(b));
            cut.faults = cut.faults.with_link_outage(a, b, 1, 6);
        }
        let digest = sim_trace_digest(&split, 40_000);
        assert_eq!(digest, sim_trace_digest(&cut, 40_000), "seed {seed}");
        assert_ne!(digest, sim_trace_digest(&base, 40_000), "seed {seed}");
    }
}

/// The simulator traces of the schedules `keep` selects among the
/// first 200 of the default campaign seed, at a 20 000-event cap (which
/// keeps the stragglers short), folded into one number: how many, and
/// the fold.
fn fold_of_traces(keep: impl Fn(&ChaosSchedule) -> bool) -> (u32, u64) {
    let (mut fold, mut count) = (0xcbf2_9ce4_8422_2325u64, 0);
    for i in 0..200 {
        let s = ChaosSchedule::generate(0xC0A7_1986, i);
        if keep(&s) {
            fold = (fold ^ sim_trace_digest(&s, 20_000)).wrapping_mul(0x0100_0000_01b3);
            count += 1;
        }
    }
    (count, fold)
}

/// What holding partitions in the adversary must not move: the
/// simulator traces of the schedules that carry no partition — crashes,
/// restarts, delays, outages, duplication and reordering. The fold was
/// captured when a partition was still an engine event
/// (`0x5ecb_7f48_e67f_626f`), and again when a reorder stopped being
/// one, which moved the traces of the partition-free schedules that
/// reorder.
#[test]
fn partition_free_schedules_keep_their_simulator_traces() {
    let fold = fold_of_traces(|s| s.faults.partitions.is_empty());
    assert_eq!(fold, (137, 0x708a_c33d_4824_6eb3));
}

/// What holding reorders in the adversary must not move: the simulator
/// traces of the schedules that do not reorder. The fold was captured
/// when a reorder was still an engine event.
#[test]
fn reorder_free_schedules_keep_their_simulator_traces() {
    let fold = fold_of_traces(|s| s.faults.reorder_permille == 0);
    assert_eq!(fold, (120, 0x2e76_4e4f_7241_510f));
}

/// The generator itself: the `Debug` rendering of the first 2 000
/// schedules of each sweep seed, folded byte by byte (FNV-1a). Unlike
/// the trace folds above, this sees every field and every draw —
/// `reset_permille` too, which the simulator ignores — so a reordered
/// or dropped draw moves it. Captured when the generator still took a
/// parameter struct (populations 3..=5, degraded plans allowed,
/// stalls not).
#[test]
fn the_generator_keeps_its_schedules() {
    for (seed, pinned) in [
        (0xC0A7_1986, 0x04ef_cdde_1873_d8da),
        (0x5EED, 0x69b6_457b_baa7_1549),
    ] {
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..2000 {
            for b in format!("{:?}", ChaosSchedule::generate(seed, i)).bytes() {
                fold = (fold ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(fold, pinned, "seed {seed:#x}: {fold:#018x}");
    }
}

/// The same generator pointed at the threaded runtime: every schedule
/// runs over real threads, channels, and wall-clock restarts. Kept to
/// a smaller count per test run because each run costs real time; the
/// sim leg above plus this leg still exercise every schedule shape on
/// both substrates via the shared generator.
#[test]
fn campaign_is_safe_on_the_threaded_runtime() {
    let cfg = CampaignConfig {
        schedules: 40,
        seed: 0xD15C_0BA1,
        run_sim: true,
        run_runtime: true,
        cluster: campaign_cluster(),
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&cfg);
    assert!(summary.ok(), "violations: {:#?}", summary.violations);
    assert_eq!(summary.runs(), 80, "both substrates ran every schedule");
}

/// The supervised campaign mode: the same schedules run a third time
/// with scripted restarts stripped and the self-healing supervisor
/// restarting crashed nodes reactively. Safety must hold, and because
/// the supervisor restarts every victim (backoff-paced, from
/// snapshot), the large majority of schedules — including the degraded
/// crash-beyond-`t` ones the scripted run can only stall on — must
/// decide. The floor is deliberately below the scripted-decided count:
/// backoff pacing races the wall-clock budget, so an exact comparison
/// would be flaky.
#[test]
fn supervised_campaign_is_safe_and_self_heals() {
    let cfg = CampaignConfig {
        schedules: 25,
        seed: 0x5E1F_4EA1,
        run_sim: false,
        run_runtime: true,
        run_supervised: true,
        cluster: campaign_cluster(),
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&cfg);
    assert!(summary.ok(), "violations: {:#?}", summary.violations);
    assert_eq!(
        summary.runs(),
        50,
        "runtime + supervised ran every schedule"
    );
    assert!(
        summary.decided(Substrate::Supervised) >= 20,
        "the supervisor must self-heal the large majority of schedules: {summary}"
    );
}

/// The CI partition-smoke gate: 100 seeded schedules, every one forced
/// to carry a healing partition plus message duplication and
/// reordering on top of whatever crashes, restarts, delays, and outages
/// the generator drew, each run on **both** substrates. Zero safety
/// violations tolerated, and the lateness monitor must classify every
/// run into the paper's Section 2 dichotomy: on-time runs decide
/// within the bound, late runs may stall — but only gracefully.
#[test]
fn partition_smoke_100_hostile_schedules_on_both_substrates() {
    let opts = campaign_cluster();
    let (mut late_runs, mut on_time_runs) = (0u32, 0u32);
    for i in 0..100u64 {
        let mut s = ChaosSchedule::generate(0x9A27_5A0B, i);
        if s.faults.partitions.is_empty() {
            let mut groups = vec![0; s.n];
            groups[i as usize % s.n] = 1;
            s.faults = s.faults.with_partition(groups, 2, 8);
        }
        let f = &mut s.faults;
        f.duplicate_permille = f.duplicate_permille.max(150);
        f.reorder_permille = f.reorder_permille.max(150);

        let sim = run_on_sim(&s, 60_000);
        assert!(
            !matches!(sim.outcome, ChaosOutcome::Violation(_)),
            "sim schedule {i}: {:?}",
            sim.outcome
        );
        if sim.verdict.on_time {
            on_time_runs += 1;
        } else {
            late_runs += 1;
        }
        if sim.outcome == ChaosOutcome::StalledGracefully {
            assert!(
                sim.verdict.agreement.ok(),
                "schedule {i} stalled but not gracefully"
            );
        }

        let (rt, _) = run_on_runtime(&s, opts);
        assert!(
            !matches!(rt.outcome, ChaosOutcome::Violation(_)),
            "runtime schedule {i}: {:?}",
            rt.outcome
        );
    }
    assert!(
        late_runs > 0 && on_time_runs > 0,
        "the on-time/late dichotomy must be exercised: {late_runs} late, {on_time_runs} on-time"
    );
}

/// The bulk gate: two campaigns of 2 000 schedules, simulator only, no
/// violation and every schedule accounted for. At this size a campaign
/// meets the rare endings a 200-schedule one does not — each of these
/// seeds has one run that aborts on all-commit votes while a cut (an
/// outage at index 1488, a partition at 1689) still holds a message
/// more than K steps old, which a judge that calls such a prefix
/// on-time reports as a commit validity violation. `#[ignore]`d for wall-clock: about 10 s in
/// release on two cores (CI's `chaos-smoke` job runs it).
#[test]
#[ignore = "4 000 simulator schedules; run in release"]
fn sweep_of_two_2000_schedule_campaigns_finds_no_violation() {
    for (seed, decided, stalled) in [(0xC0A7_1986, 1923, 77), (0x5EED, 1926, 74)] {
        let summary = run_campaign(&CampaignConfig {
            schedules: 2000,
            seed,
            run_runtime: false,
            ..CampaignConfig::default()
        });
        assert!(summary.ok(), "seed {seed:#x}: {:#?}", summary.violations);
        assert_eq!(
            (
                summary.decided(Substrate::Sim),
                summary.stalled(Substrate::Sim)
            ),
            (decided, stalled),
            "seed {seed:#x}: {summary}"
        );
    }
}

/// Degraded crash-beyond-t schedules (no restarts) must stall without
/// a wrong answer — on both substrates.
#[test]
fn degraded_schedules_stall_gracefully_without_deciding() {
    for seed in [3u64, 17, 86] {
        let stall = ChaosSchedule::theorem11(3, seed, false);
        let sim = rtc::chaos::run_on_sim(&stall, 60_000);
        assert_eq!(
            sim.outcome,
            ChaosOutcome::StalledGracefully,
            "sim seed {seed}"
        );
        assert!(sim.verdict.agreement.ok());
        assert!(!sim.verdict.deciding, "a stalled run decides nothing");
    }
}

/// The flagship: Theorem 11 end to end on both substrates. Crash
/// `t + 1` processors at step zero — the survivors can never assemble
/// an `n - t` quorum, so the run stalls with no decision and no safety
/// violation ("leaving the opportunity to recover"); then restart the
/// victims from their crash-time snapshots and the protocol terminates.
#[test]
fn theorem11_crash_stall_restart_terminate_end_to_end() {
    let evidence = run_theorem11(3, 1986, campaign_cluster());
    assert_eq!(evidence.stall_sim.outcome, ChaosOutcome::StalledGracefully);
    assert_eq!(
        evidence.stall_runtime.outcome,
        ChaosOutcome::StalledGracefully
    );
    assert_eq!(evidence.recover_sim.outcome, ChaosOutcome::Decided);
    assert_eq!(evidence.recover_runtime.outcome, ChaosOutcome::Decided);
    assert!(evidence.holds());
}
