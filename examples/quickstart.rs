//! Quickstart: commit one transaction across five replicas on the
//! discrete-event simulator and inspect every metric the paper talks
//! about.
//!
//! Run with: `cargo run --example quickstart`

use rtc::prelude::*;
use rtc::sim::rounds::RoundAccountant;
use rtc::sim::RunMetrics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A population of n = 5 processors tolerating t = 2 crash faults
    // (the optimum: Theorem 14 rules out t >= n/2), with the on-time
    // bound K = 4 clock ticks.
    let cfg = CommitConfig::new(5, 2, TimingParams::new(4)?)?;

    // Everyone initially wants to commit.
    let votes = vec![Value::One; 5];
    let procs = commit_population(cfg, &votes);

    // The seed collection F makes the whole run reproducible:
    // run(A, I, F) is a pure function, exactly as in the paper.
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(2026))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();

    // The benign scheduler: round-robin steps, prompt delivery. Swap in
    // anything from rtc::sim::adversaries to stress the protocol.
    let mut adversary = SynchronousAdversary::new(cfg.population());
    let report = sim.run(&mut adversary, RunLimits::default())?;

    println!("== decisions ==");
    for (i, status) in report.statuses().iter().enumerate() {
        println!("  p{i}: {:?}", status.decision().expect("all decide"));
    }
    assert!(report.agreement_holds());

    // The paper's performance story, measured on this run:
    let metrics = RunMetrics::from_trace(sim.trace());
    let rounds = RoundAccountant::new(sim.trace(), cfg.timing());
    println!("\n== performance ==");
    println!("  events executed ......... {}", report.events());
    println!("  messages sent ........... {}", metrics.messages_sent);
    println!(
        "  worst decision clock .... {} ticks (remark 1 bound: {} = 8K)",
        metrics.worst_nonfaulty_decision_clock.unwrap(),
        cfg.timing().failure_free_decision_bound()
    );
    println!(
        "  DONE round .............. {} (Theorem 10: 14 expected)",
        rounds.done_round(64).unwrap()
    );
    println!(
        "  on-time ................. {} (no message later than K = {})",
        report.facts().on_time,
        cfg.timing().k()
    );
    Ok(())
}
