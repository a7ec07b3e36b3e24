//! A distributed bank settlement on the threaded real-time runtime.
//!
//! Seven branch servers jointly commit end-of-day settlement batches.
//! Each branch votes to commit a batch only if it passes its local
//! balance check; the Coan–Lundelius protocol then guarantees that the
//! batch is installed at *all* branches or at *none* — even while
//! branches crash and the network hiccups.
//!
//! Run with: `cargo run --example bank_settlement`
#![allow(clippy::inconsistent_digit_grouping)] // cents-style amounts

use rtc::prelude::*;

const BRANCHES: usize = 7;

/// One settlement batch: per-branch net positions (cents). A branch
/// approves the batch iff its own position stays within its liquidity
/// limit.
struct Batch {
    name: &'static str,
    positions: [i64; BRANCHES],
    scenario: Scenario,
}

enum Scenario {
    Calm,
    /// Two branch servers die mid-protocol (within the t = 3 budget).
    Crashes,
    /// The WAN is congested: 15% of messages are held for 8-tick (4 ms) spikes.
    FlakyNetwork,
}

const LIQUIDITY_LIMIT: i64 = 1_000_00;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CommitConfig::new(BRANCHES, 3, TimingParams::new(4)?)?;
    let batches = [
        Batch {
            name: "batch-001 (balanced transfers)",
            positions: [250_00, -120_00, -50_00, 90_00, -170_00, 10_00, -10_00],
            scenario: Scenario::Calm,
        },
        Batch {
            name: "batch-002 (branch 4 over its liquidity limit)",
            positions: [500_00, -80_00, -40_00, 30_00, -1_500_00, 590_00, 500_00],
            scenario: Scenario::Calm,
        },
        Batch {
            name: "batch-003 (two branch servers crash mid-commit)",
            positions: [10_00, -10_00, 20_00, -20_00, 5_00, -5_00, 0],
            scenario: Scenario::Crashes,
        },
        Batch {
            name: "batch-004 (congested WAN, delay spikes)",
            positions: [75_00, -25_00, -25_00, -25_00, 0, 0, 0],
            scenario: Scenario::FlakyNetwork,
        },
    ];

    for (i, batch) in batches.iter().enumerate() {
        // Each branch votes commit iff the batch respects its limit.
        let votes: Vec<Value> = batch
            .positions
            .iter()
            .map(|p| Value::from_bool(p.abs() <= LIQUIDITY_LIMIT))
            .collect();
        let approvals = votes.iter().filter(|v| v.as_bool()).count();

        let faults = match batch.scenario {
            Scenario::Calm => FaultPlan::none(),
            Scenario::Crashes => FaultPlan::none()
                .with_crash(ProcessorId::new(5), 4)
                .with_crash(ProcessorId::new(6), 9),
            Scenario::FlakyNetwork => FaultPlan::none().with_delay(DelayModel::Spike {
                permille: 150,
                spike: 8,
            }),
        };

        let report = run_cluster(
            commit_population(cfg, &votes),
            SeedCollection::new(0xBA2C + i as u64),
            faults,
            ClusterOptions::default(),
        );

        println!("== {} ==", batch.name);
        println!("  approvals: {approvals}/{BRANCHES}");
        assert!(report.agreement_holds(), "branches disagreed on the batch!");
        let outcome = report
            .statuses
            .iter()
            .find_map(|s| s.decision())
            .map(|d| d.to_string())
            .unwrap_or_else(|| "undecided".into());
        for (b, status) in report.statuses.iter().enumerate() {
            let note = if report.crashed[b] { " (crashed)" } else { "" };
            match status.decision() {
                Some(d) => println!("  branch {b}: {d}{note}"),
                None => println!("  branch {b}: no decision{note}"),
            }
        }
        println!(
            "  => batch {} everywhere; {} messages, {:?} wall time\n",
            outcome, report.messages_sent, report.wall
        );
    }
    Ok(())
}
