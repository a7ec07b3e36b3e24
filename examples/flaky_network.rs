//! The paper's motivating scenario: what one late message does to the
//! classic commit protocols, side by side with the paper's protocol.
//!
//! * **3PC** (Skeen, with the standard timeout transitions) *answers
//!   wrongly*: a participant whose PreCommit arrives late aborts by
//!   timeout while its prepared peer commits by timeout.
//! * **2PC** never answers wrongly but *blocks*: a yes-voter that loses
//!   its coordinator can never decide unilaterally.
//! * **CL86** (this repository) treats lateness as a reason to abort
//!   consistently, and a coordinator crash as a reason to carry on:
//!   safe and live in both scenarios.
//!
//! Run with: `cargo run --example flaky_network`

use rtc::baselines::{precommit_delayer, threepc_population, twopc_population};
use rtc::prelude::*;

const N: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let timing = TimingParams::new(4)?;

    println!("Scenario A: every vote is yes, but one PreCommit/decision message is late.\n");

    // --- 3PC with a late PreCommit to p2. ---
    {
        let procs = threepc_population(N, timing, &[Value::One; N]);
        let mut sim = SimBuilder::new(timing, SeedCollection::new(1))
            .fault_budget(0)
            .build(procs)
            .unwrap();
        let mut adv = precommit_delayer(ProcessorId::new(2), 10_000);
        let report = sim.run_content(&mut adv, RunLimits::with_max_events(9_000))?;
        println!("3PC:  {}", describe(report.statuses(), report.stalled()));
        assert!(!report.agreement_holds(), "the late PreCommit splits 3PC");
    }

    // --- 2PC with the coordinator dying after collecting votes. ---
    {
        let procs = twopc_population(N, timing, &[Value::One; N]);
        let mut sim = SimBuilder::new(timing, SeedCollection::new(2))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(N),
            vec![CrashPlan {
                at_event: 3,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropAll,
            }],
        );
        let report = sim.run(&mut adv, RunLimits::with_max_events(5_000))?;
        println!("2PC:  {}", describe(report.statuses(), report.stalled()));
        assert!(report.stalled(), "2PC's yes-voters block forever");
    }

    // --- CL86 under both stresses. ---
    let cfg = CommitConfig::new(N, 1, timing)?;
    {
        // One participant's inbound link is slow past the 2K window.
        let victim = ProcessorId::new(2);
        let procs = commit_population(cfg, &[Value::One; N]);
        let mut sim = SimBuilder::new(timing, SeedCollection::new(3))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = SynchronousAdversary::new(N)
            .holding(move |m, now| m.to == victim && now - m.send_event < 150);
        let report = sim.run(&mut adv, RunLimits::with_max_events(50_000))?;
        println!(
            "CL86 (slow link):          {}",
            describe(report.statuses(), report.stalled())
        );
        assert!(report.agreement_holds() && report.all_nonfaulty_decided());
    }
    {
        // The coordinator dies mid-GO-broadcast.
        let procs = commit_population(cfg, &[Value::One; N]);
        let mut sim = SimBuilder::new(timing, SeedCollection::new(4))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(N),
            vec![CrashPlan {
                at_event: 1,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropTo(vec![ProcessorId::new(2)]),
            }],
        );
        let report = sim.run(&mut adv, RunLimits::with_max_events(50_000))?;
        println!(
            "CL86 (coordinator crash):  {}",
            describe(report.statuses(), report.stalled())
        );
        assert!(report.agreement_holds() && report.all_nonfaulty_decided());
    }

    println!("\nOnly the protocol built for the almost-asynchronous model survives both.");
    Ok(())
}

fn describe(statuses: &[Status], stalled: bool) -> String {
    let cells: Vec<String> = statuses
        .iter()
        .enumerate()
        .map(|(i, s)| match s.decision() {
            Some(d) => format!("p{i}={d}"),
            None => format!("p{i}=?"),
        })
        .collect();
    let mut line = cells.join("  ");
    let decided: Vec<_> = statuses.iter().filter_map(|s| s.decision()).collect();
    let conflicting = decided.windows(2).any(|w| w[0] != w[1]);
    if conflicting {
        line.push_str("   <- CONFLICTING DECISIONS");
    } else if stalled {
        line.push_str("   <- BLOCKED");
    } else {
        line.push_str("   <- consistent");
    }
    line
}
