//! Run a single commit scenario from the command line.
//!
//! ```bash
//! cargo run -p rtc-experiments --bin scenario -- \
//!     --n 7 --votes 1111101 --adversary random --seed 3
//! cargo run -p rtc-experiments --bin scenario -- \
//!     --n 5 --adversary delay:8
//! cargo run -p rtc-experiments --bin scenario -- \
//!     --n 4 --adversary crash:0@1 --k 4
//! cargo run -p rtc-experiments --bin scenario -- \
//!     --n 6 --adversary partition
//! ```

use std::process::ExitCode;

use rtc_core::{commit_population, properties::verify_commit, CommitConfig};
use rtc_experiments::Table;
use rtc_model::{ProcessorId, SeedCollection, TimingParams, Value};
use rtc_sim::adversaries::{
    cut, CrashAdversary, CrashPlan, DropPolicy, RandomAdversary, SynchronousAdversary, Unfair,
};
use rtc_sim::rounds::RoundAccountant;
use rtc_sim::{Adversary, RunLimits, RunMetrics, SimBuilder};

struct Args {
    diagram: bool,
    n: usize,
    t: Option<usize>,
    k: u64,
    votes: Option<String>,
    adversary: String,
    seed: u64,
    max_events: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        diagram: false,
        n: 5,
        t: None,
        k: 4,
        votes: None,
        adversary: "sync".into(),
        seed: 1,
        max_events: 1_000_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--t" => args.t = Some(value()?.parse().map_err(|e| format!("--t: {e}"))?),
            "--k" => args.k = value()?.parse().map_err(|e| format!("--k: {e}"))?,
            "--votes" => args.votes = Some(value()?),
            "--adversary" => args.adversary = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--max-events" => {
                args.max_events = value()?.parse().map_err(|e| format!("--max-events: {e}"))?;
            }
            "--diagram" => args.diagram = true,
            "--help" | "-h" => {
                return Err("usage: scenario [--n N] [--t T] [--k K] [--votes 10110] \
                    [--adversary sync|sync-lag|random|delay:X|partition|crash:P@E] \
                    [--seed S] [--max-events M] [--diagram]"
                    .into());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn parse_votes(spec: Option<&str>, n: usize) -> Result<Vec<Value>, String> {
    match spec {
        None => Ok(vec![Value::One; n]),
        Some(s) => {
            if s.len() != n {
                return Err(format!("--votes needs exactly {n} digits, got {}", s.len()));
            }
            s.chars()
                .map(|c| match c {
                    '0' => Ok(Value::Zero),
                    '1' => Ok(Value::One),
                    other => Err(format!("--votes digits must be 0 or 1, got {other}")),
                })
                .collect()
        }
    }
}

fn make_adversary(spec: &str, n: usize, seed: u64, k: u64) -> Result<Box<dyn Adversary>, String> {
    if let Some(x) = spec.strip_prefix("delay:") {
        let x: u64 = x.parse().map_err(|e| format!("delay: {e}"))?;
        return Ok(Box::new(SynchronousAdversary::with_lag(x * n as u64)));
    }
    if let Some(rest) = spec.strip_prefix("crash:") {
        let (victim, event) = rest
            .split_once('@')
            .ok_or_else(|| "crash spec is crash:<victim>@<event>".to_string())?;
        let victim: usize = victim.parse().map_err(|e| format!("crash victim: {e}"))?;
        let event: u64 = event.parse().map_err(|e| format!("crash event: {e}"))?;
        return Ok(Box::new(CrashAdversary::new(
            SynchronousAdversary::new(n),
            vec![CrashPlan {
                at_event: event,
                victim: ProcessorId::new(victim),
                drop: DropPolicy::DropAll,
            }],
        )));
    }
    match spec {
        "sync" => Ok(Box::new(SynchronousAdversary::new(n))),
        "sync-lag" => Ok(Box::new(SynchronousAdversary::with_lag(k))),
        "random" => Ok(Box::new(
            RandomAdversary::new(seed)
                .deliver_prob(0.6)
                .crash_prob(0.005),
        )),
        "partition" => {
            let group_a: Vec<ProcessorId> = ProcessorId::all(n / 2).collect();
            Ok(Box::new(Unfair(
                SynchronousAdversary::new(n).holding(cut(n, &group_a)),
            )))
        }
        other => Err(format!("unknown adversary {other} (try --help)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let timing = TimingParams::new(args.k).map_err(|e| e.to_string())?;
    let t = args
        .t
        .unwrap_or_else(|| CommitConfig::max_tolerated(args.n));
    let cfg = CommitConfig::new(args.n, t, timing).map_err(|e| e.to_string())?;
    let votes = parse_votes(args.votes.as_deref(), args.n)?;
    let mut adversary = make_adversary(&args.adversary, args.n, args.seed, args.k)?;

    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(timing, SeedCollection::new(args.seed))
        .fault_budget(t)
        .build(procs)
        .map_err(|e| e.to_string())?;
    let report = sim
        .run(
            adversary.as_mut(),
            RunLimits::with_max_events(args.max_events),
        )
        .map_err(|e| e.to_string())?;

    println!(
        "scenario: n = {}, t = {t}, K = {}, adversary = {}, seed = {}",
        args.n, args.k, args.adversary, args.seed
    );
    let mut table = Table::new(vec!["processor", "initial vote", "decision"]);
    for p in ProcessorId::all(args.n) {
        let status = report.statuses()[p.index()];
        table.row(vec![
            format!(
                "{p}{}",
                if report.is_faulty(p) {
                    " (crashed)"
                } else {
                    ""
                }
            ),
            votes[p.index()].to_string(),
            status
                .decision()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("\n{table}");

    let metrics = RunMetrics::from_trace(sim.trace());
    let verdict = verify_commit(&votes, &report.facts());
    let rounds = RoundAccountant::new(sim.trace(), timing);
    println!(
        "events: {}   messages: {}",
        report.events(),
        metrics.messages_sent
    );
    println!(
        "on-time: {}   late messages: {}",
        report.facts().on_time,
        sim.trace().late_marks().len()
    );
    if let Some(ticks) = metrics.worst_nonfaulty_decision_clock {
        println!(
            "worst decision clock: {ticks} ticks (8K bound: {})",
            8 * args.k
        );
    }
    if let Some(round) = rounds.done_round(64) {
        println!("DONE round: {round} (Theorem 10: 14 expected)");
    }
    if report.stalled() {
        println!("run STALLED at the event cap (expected only for inadmissible adversaries)");
    }
    println!(
        "verdict: agreement {:?}, abort validity {:?}, commit validity {:?}",
        verdict.agreement, verdict.abort_validity, verdict.commit_validity
    );
    if args.diagram {
        println!(
            "\n{}",
            rtc_experiments::render(sim.trace(), rtc_experiments::DiagramOptions::default(),)
        );
    }
    if !verdict.ok() {
        return Err("correctness condition violated".into());
    }
    Ok(())
}
