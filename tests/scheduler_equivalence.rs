//! Scheduler-equivalence golden digests.
//!
//! The simulator promises that `run(A, I, F)` is a pure function of the
//! adversary, initial configuration, and seed collection (Section 2.3 of
//! the paper). This suite pins that promise across *engine rewrites*: it
//! runs a broad corpus of seeded schedules — random, adaptive, and
//! synchronous adversaries at n ∈ {4, 8, 16, 32} — and compares each
//! run's full [`Trace::digest`] (every event, delivery, drop, decision,
//! and crash, in order) against digests captured before the scheduler
//! data-structure overhaul.
//!
//! A digest mismatch means the engine changed *observable scheduling*,
//! not just its internals. That is never acceptable for a performance
//! refactor. If scheduling is changed deliberately (new adversary
//! semantics, fairness rule change), regenerate with:
//!
//! ```bash
//! RTC_REGEN_GOLDEN=1 cargo test --test scheduler_equivalence
//! ```
//!
//! and explain the semantic change in the commit message.

use std::fmt::Write as _;

use rtc::prelude::*;

/// Golden digests captured from the pre-overhaul engine.
const FIXTURE: &str = include_str!("fixtures/scheduler_digests.txt");

/// One seeded schedule in the corpus.
struct Case {
    /// Stable fixture key, e.g. `random/n16/seed07`.
    name: String,
    n: usize,
    seed: u64,
    kind: Kind,
}

enum Kind {
    /// `RandomAdversary` with seed-derived delivery/crash probabilities.
    Random,
    /// `AdaptiveAdversary` (pattern-driven worst-case heuristics).
    Adaptive,
    /// `SynchronousAdversary` (round-robin, full delivery).
    Synchronous,
}

/// The full corpus: 100 random schedules plus adaptive and synchronous
/// probes at every population size.
fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in &[4usize, 8, 16, 32] {
        for seed in 0..25u64 {
            cases.push(Case {
                name: format!("random/n{n:02}/seed{seed:02}"),
                n,
                seed,
                kind: Kind::Random,
            });
        }
        cases.push(Case {
            name: format!("adaptive/n{n:02}"),
            n,
            seed: 0xADA9 + n as u64,
            kind: Kind::Adaptive,
        });
        cases.push(Case {
            name: format!("sync/n{n:02}"),
            n,
            seed: 0x51C + n as u64,
            kind: Kind::Synchronous,
        });
    }
    cases
}

/// Seed-derived vote vector: mixes unanimous-commit and abort-leaning
/// populations so both protocol outcomes are covered.
fn votes(n: usize, seed: u64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::from_bool(seed.rotate_left(i as u32 % 61) & 1 == 0 || seed.is_multiple_of(4))
        })
        .collect()
}

/// Runs one corpus case to completion and returns
/// `(digest, events, messages)`.
fn run_case(case: &Case) -> (u64, u64, usize) {
    let cfg = CommitConfig::new(
        case.n,
        CommitConfig::max_tolerated(case.n),
        TimingParams::default(),
    )
    .unwrap();
    let procs = commit_population(cfg, &votes(case.n, case.seed));
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(case.seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    match case.kind {
        Kind::Random => {
            let deliver = 0.4 + 0.1 * (case.seed % 5) as f64;
            let crash = if case.seed.is_multiple_of(3) {
                0.02
            } else {
                0.0
            };
            let mut adv = RandomAdversary::new(case.seed)
                .deliver_prob(deliver)
                .crash_prob(crash);
            sim.run(&mut adv, RunLimits::default()).unwrap();
        }
        Kind::Adaptive => {
            let mut adv = AdaptiveAdversary::new(case.seed);
            sim.run(&mut adv, RunLimits::default()).unwrap();
        }
        Kind::Synchronous => {
            let mut adv = SynchronousAdversary::new(case.n);
            sim.run(&mut adv, RunLimits::default()).unwrap();
        }
    }
    let trace = sim.trace();
    (
        trace.digest(),
        trace.event_count() as u64,
        trace.messages().len(),
    )
}

fn render(rows: &[(String, u64, u64, usize)]) -> String {
    let mut out = String::new();
    out.push_str("# scheduler-equivalence golden digests (rtc-golden-v1)\n");
    out.push_str("# case digest events msgs — regenerate: RTC_REGEN_GOLDEN=1 cargo test --test scheduler_equivalence\n");
    for (name, digest, events, msgs) in rows {
        let _ = writeln!(out, "{name} {digest:016x} {events} {msgs}");
    }
    out
}

#[test]
fn corpus_matches_golden_digests() {
    let cases = corpus();
    assert!(cases.len() >= 100, "corpus shrank below 100 schedules");
    let rows: Vec<(String, u64, u64, usize)> = cases
        .iter()
        .map(|c| {
            let (digest, events, msgs) = run_case(c);
            (c.name.clone(), digest, events, msgs)
        })
        .collect();
    if std::env::var_os("RTC_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/scheduler_digests.txt"
        );
        std::fs::write(path, render(&rows)).unwrap();
        eprintln!("regenerated {path} with {} cases", rows.len());
        return;
    }
    let mut golden = std::collections::BTreeMap::new();
    for line in FIXTURE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("fixture line: case name");
        let digest = u64::from_str_radix(parts.next().expect("digest"), 16).expect("hex digest");
        golden.insert(name.to_string(), digest);
    }
    assert_eq!(
        golden.len(),
        rows.len(),
        "fixture and corpus disagree on case count; regenerate the fixture"
    );
    let mut mismatches = Vec::new();
    for (name, digest, _, _) in &rows {
        match golden.get(name) {
            None => mismatches.push(format!("{name}: missing from fixture")),
            Some(want) if want != digest => mismatches.push(format!(
                "{name}: digest {digest:016x} != golden {want:016x}"
            )),
            Some(_) => {}
        }
    }
    assert!(
        mismatches.is_empty(),
        "scheduling drifted from golden digests on {} case(s):\n  {}",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

#[test]
fn digests_are_reproducible_within_process() {
    // The digest itself must be a pure function of the run: re-running
    // the same case twice in one process yields identical digests.
    let case = Case {
        name: "probe".to_string(),
        n: 8,
        seed: 17,
        kind: Kind::Random,
    };
    assert_eq!(run_case(&case), run_case(&case));
}
