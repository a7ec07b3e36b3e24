//! Self-healing cluster demo: the node supervisor versus a hostile
//! network.
//!
//! A five-node cluster votes to commit while the fault plan crashes
//! `t = 2` nodes on schedule and splits the network with a partition
//! that heals a moment later. Nothing in the plan restarts the
//! victims — that is the supervisor's job: it health-checks the node
//! threads, restarts crashed ones with exponential backoff and seeded
//! jitter, gives up only after a capped retry budget, and reports the
//! cluster's health (healthy / degraded / stalled) over time.
//!
//! Run with: `cargo run --example supervised_cluster`

use std::time::Duration;

use rtc::prelude::*;
use rtc::runtime::{run_cluster_supervised, ClusterHealth, SupervisorPolicy};

fn main() {
    let n = 5;
    let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
        .expect("5 nodes tolerating 2 faults is a valid configuration");

    // Crash two nodes early, and cut {p3, p4} off from the majority
    // side for the first seven ticks (about two milliseconds). No
    // scripted restarts.
    let faults = FaultPlan::none()
        .with_crash(ProcessorId::new(1), 3)
        .with_crash(ProcessorId::new(4), 5)
        .with_partition(vec![0, 0, 0, 1, 1], 0, 7);

    let opts = ClusterOptions {
        tick: Duration::from_micros(300),
        max_steps: 200_000,
        wall_timeout: Duration::from_secs(30),
        ..ClusterOptions::default()
    };
    let policy = SupervisorPolicy::default();

    println!("Supervised run: 5 nodes, 2 scheduled crashes, healing partition.\n");
    let (report, sup) = run_cluster_supervised(
        commit_population(cfg, &vec![Value::One; n]),
        SeedCollection::new(2026),
        faults,
        opts,
        cfg.fault_bound(),
        policy,
    );

    println!("Health timeline:");
    for (at, health) in &sup.health_log {
        let label = match health {
            ClusterHealth::Healthy => "healthy".to_string(),
            ClusterHealth::Degraded { quorum_margin } => {
                format!("degraded (margin {quorum_margin})")
            }
            ClusterHealth::Stalled => "stalled".to_string(),
        };
        println!("  {:>8.2?}  {label}", at);
    }

    println!("\nPer-node outcome:");
    for (i, status) in report.statuses.iter().enumerate() {
        println!(
            "  p{i}: decision {:?}, restarts {}{}",
            status.decision(),
            sup.restarts[i],
            if sup.permanent_failures[i] {
                ", PERMANENTLY FAILED"
            } else {
                ""
            }
        );
    }

    assert!(report.agreement_holds(), "agreement is unconditional");
    assert!(
        report.statuses.iter().all(|s| s.is_decided()),
        "the supervisor brought every victim back, so everyone decides"
    );
    println!(
        "\nTotal supervisor restarts: {}; final health: {:?}.",
        sup.total_restarts(),
        sup.final_health
    );
    println!("Every node reached the same decision despite 2 crashes and a partition.");
}
