//! Run the commit protocol against the whole adversary zoo and verify
//! the paper's guarantees hold under each: safety always, liveness
//! whenever the adversary is admissible (fewer than n/2 crashes, fair
//! delivery).
//!
//! Run with: `cargo run --example adversary_gauntlet`

use rtc::core::properties::verify_commit;
use rtc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 7;
    let cfg = CommitConfig::new(n, 3, TimingParams::new(4)?)?;
    let trials = 25u64;

    type MakeAdversary = Box<dyn Fn(u64) -> Box<dyn Adversary>>;
    let gauntlet: Vec<(&str, bool, MakeAdversary)> = vec![
        (
            "synchronous (prompt delivery)",
            true,
            Box::new(move |_| Box::new(SynchronousAdversary::new(n))),
        ),
        (
            "synchronous (delay = K)",
            true,
            Box::new(move |_| Box::new(SynchronousAdversary::with_lag(4))),
        ),
        (
            "random scheduling, 50% delivery",
            true,
            Box::new(move |s| Box::new(RandomAdversary::new(s).deliver_prob(0.5))),
        ),
        (
            "random + crashes up to t",
            true,
            Box::new(move |s| Box::new(RandomAdversary::new(s).deliver_prob(0.6).crash_prob(0.01))),
        ),
        (
            "x-slow delivery (x = 6 > K)",
            true,
            Box::new(move |_| Box::new(SynchronousAdversary::with_lag(6 * n as u64))),
        ),
        (
            "coordinator assassination mid-GO",
            true,
            Box::new(move |_| {
                // Drop the GO to everyone except p1: one survivor hears
                // it, which is the paper's admissibility requirement
                // that some nonfaulty processor receives a message.
                let dropped: Vec<ProcessorId> =
                    ProcessorId::all(n).filter(|p| p.index() >= 2).collect();
                Box::new(CrashAdversary::new(
                    SynchronousAdversary::new(n),
                    vec![CrashPlan {
                        at_event: 1,
                        victim: ProcessorId::COORDINATOR,
                        drop: DropPolicy::DropTo(dropped),
                    }],
                ))
            }),
        ),
        (
            "adaptive starve-and-assassinate",
            true,
            Box::new(move |s| Box::new(AdaptiveAdversary::new(s))),
        ),
        (
            "permanent half/half partition (inadmissible)",
            false,
            Box::new(move |_| {
                let group_a: Vec<ProcessorId> = ProcessorId::all(n / 2).collect();
                Box::new(Unfair(
                    SynchronousAdversary::new(n).holding(cut(n, &group_a)),
                ))
            }),
        ),
        (
            "over-budget crash wave (inadmissible)",
            false,
            Box::new(move |_| {
                let plans = (0..5)
                    .map(|i| CrashPlan {
                        at_event: 12 + 3 * i as u64,
                        victim: ProcessorId::new(n - 1 - i),
                        drop: DropPolicy::DropAll,
                    })
                    .collect();
                Box::new(Unfair(CrashAdversary::new(
                    SynchronousAdversary::new(n),
                    plans,
                )))
            }),
        ),
    ];

    println!(
        "{:<46} {:>8} {:>8} {:>10}",
        "adversary", "safe", "live", "verdicts"
    );
    for (label, admissible, make) in &gauntlet {
        let mut safe = 0usize;
        let mut live = 0usize;
        let mut verdicts_ok = 0usize;
        for seed in 0..trials {
            // A mixed but commit-leaning vote pattern.
            let mut votes = vec![Value::One; n];
            if seed % 3 == 0 {
                votes[(seed as usize) % n] = Value::Zero;
            }
            let procs = commit_population(cfg, &votes);
            let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
                .fault_budget(cfg.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = make(seed);
            let report = sim.run(adv.as_mut(), RunLimits::with_max_events(150_000))?;
            let verdict = verify_commit(&votes, &report.facts());
            safe += usize::from(report.agreement_holds());
            live += usize::from(report.all_nonfaulty_decided());
            verdicts_ok += usize::from(verdict.ok());
        }
        println!(
            "{:<46} {:>7}/{} {:>7}/{} {:>8}/{}",
            label, safe, trials, live, trials, verdicts_ok, trials
        );
        assert_eq!(safe as u64, trials, "safety must never fail");
        assert_eq!(
            verdicts_ok as u64, trials,
            "no correctness condition may fail"
        );
        if *admissible {
            assert_eq!(
                live as u64, trials,
                "admissible adversaries cannot block {label}"
            );
        }
    }
    println!("\nSafety held in every run; liveness in every admissible one — Theorem 9/11.");
    Ok(())
}
