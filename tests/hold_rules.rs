//! Trace-digest pins for the slowed-down round-robin schedules.
//!
//! The golden corpus (`tests/scheduler_equivalence.rs`) covers the
//! random, adaptive and prompt synchronous schedulers. These four pins
//! cover `SynchronousAdversary` with a lag or a hold rule, one seeded
//! commit run per paper scenario. They were captured from the four
//! dedicated scheduler types that the lag and the rule replaced, so a
//! rule applied to the wrong endpoint, a lag scaled by the wrong `n`, or
//! a step that lists what it should hold moves a digest.

use rtc::prelude::*;

/// Runs one all-commit instance at `n` (tolerating `t`) and returns the
/// trace's `(digest, events, messages)`.
fn run(
    n: usize,
    t: usize,
    seed: u64,
    adv: &mut dyn Adversary,
    max_events: u64,
) -> (u64, u64, usize) {
    let cfg = CommitConfig::new(n, t, TimingParams::default()).unwrap();
    let procs = commit_population(cfg, &vec![Value::One; n]);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    sim.run(adv, RunLimits::with_max_events(max_events))
        .unwrap();
    let trace = sim.trace();
    (
        trace.digest(),
        trace.event_count() as u64,
        trace.messages().len(),
    )
}

#[test]
fn x_slow_run_is_a_lag_of_x_rotations() {
    // Theorem 17's scheduler at n = 4, x = 8 (experiments T6 and F3).
    let (n, x) = (4, 8);
    let mut adv = SynchronousAdversary::with_lag(x * n as u64);
    let run = run(n, CommitConfig::max_tolerated(n), 1, &mut adv, 5_000_000);
    assert_eq!(run, (0x5e9f_1778_d30e_0695, 168, 60));
}

#[test]
fn one_slow_inbound_link_holds_only_the_victims_messages() {
    // Every message to p2 is 150 events late (experiment F4).
    let victim = ProcessorId::new(2);
    let mut adv = SynchronousAdversary::new(3)
        .holding(move |m, now| m.to == victim && now - m.send_event < 150);
    assert_eq!(
        run(3, 1, 1, &mut adv, 50_000),
        (0x4fc1_8f2d_a7f3_ea15, 201, 24)
    );
}

#[test]
fn a_healed_partition_releases_its_backlog() {
    // p3 and p4 are cut off until event 150 (experiment A3).
    let n = 5;
    let cut = cut(n, &[ProcessorId::new(3), ProcessorId::new(4)]);
    let mut adv = SynchronousAdversary::new(n).holding(move |m, now| now < 150 && cut(m, now));
    let run = run(n, CommitConfig::max_tolerated(n), 1, &mut adv, 200_000);
    assert_eq!(run, (0x6409_d0b1_9adb_964c, 160, 76));
}

#[test]
fn a_permanent_partition_stalls_at_the_event_cap() {
    // Theorem 14's half/half cut at n = 4 (experiment T8).
    let n = 4;
    let group_a: Vec<ProcessorId> = ProcessorId::all(n / 2).collect();
    let mut adv = Unfair(SynchronousAdversary::new(n).holding(cut(n, &group_a)));
    let run = run(n, CommitConfig::max_tolerated(n), 1, &mut adv, 20_000);
    assert_eq!(run, (0xd2ed_5039_2e67_b107, 20_000, 18));
}
