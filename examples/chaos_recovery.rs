//! Chaos campaign demo: randomized fault schedules over both
//! substrates, plus the paper's Theorem 11 played end to end.
//!
//! The campaign generates seeded schedules mixing crashes, restarts
//! (from crash-time snapshots or amnesiac), delay spikes, and link
//! outages, runs each on the discrete-event simulator *and* the threaded
//! runtime, and classifies every run as decided, stalled-gracefully,
//! or (never, if the protocol is right) a safety violation.
//!
//! Run with: `cargo run --example chaos_recovery`

use std::time::Duration;

use rtc::chaos::{run_campaign, run_on_runtime, run_on_sim, CampaignConfig, ChaosSchedule};
use rtc::prelude::ClusterOptions;

fn main() {
    let cluster = ClusterOptions {
        tick: Duration::from_millis(1),
        max_steps: 400,
        wall_timeout: Duration::from_secs(2),
        ..ClusterOptions::default()
    };

    // --- Act 1: a bulk campaign over both substrates. ---
    println!("Running a 30-schedule chaos campaign over both substrates...\n");
    let cfg = CampaignConfig {
        schedules: 30,
        seed: 0xC1A05,
        cluster,
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&cfg);
    println!("  {summary}");
    for v in &summary.violations {
        println!(
            "  VIOLATION in schedule {} on {}: {} (shrunk: {:?})",
            v.index, v.substrate, v.condition, v.shrunk
        );
    }
    assert!(summary.ok(), "the protocol never violates safety");

    // --- Act 2: Theorem 11, scene by scene. ---
    println!("\nTheorem 11: crash t+1 processors, stall, restart, terminate.\n");
    let stall = ChaosSchedule::theorem11(3, 1986, false);
    let recover = ChaosSchedule::theorem11(3, 1986, true);

    let s_sim = run_on_sim(&stall, 100_000);
    println!(
        "  crash t+1, no restarts, simulator:        {}",
        s_sim.outcome
    );
    let (s_rt, _) = run_on_runtime(&stall, cluster);
    println!(
        "  crash t+1, no restarts, threaded runtime: {}",
        s_rt.outcome
    );

    let r_sim = run_on_sim(&recover, 400_000);
    println!(
        "  ... with snapshot restarts, simulator:    {}",
        r_sim.outcome
    );
    let (r_rt, report) = run_on_runtime(&recover, cluster);
    println!(
        "  ... with snapshot restarts, runtime:      {}",
        r_rt.outcome
    );
    println!(
        "\n  runtime detail: crashed={:?} recovered={:?} statuses={:?}",
        report.crashed, report.recovered, report.statuses
    );

    println!("\nThe protocol degraded gracefully and recovered: no wrong answer, ever.");
}
