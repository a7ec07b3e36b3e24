//! Trace conformance: every recorded run lints clean against the
//! executable spec, and the linter catches a corrupted trace.
//!
//! Three corpora feed the linter:
//!
//! * the 108-schedule scheduler-equivalence golden corpus (random,
//!   adaptive, and synchronous adversaries at n ∈ {4, 8, 16, 32}),
//! * the 36 batch-equivalence schedules, each lane's trace linted where
//!   the batch recorded it (`BatchSim::lane_trace`), and
//! * one net-soak-shaped chaos round (partitions, duplication,
//!   reordering, crash/restart), linted through the chaos driver's
//!   spec hook.
//!
//! A clean lint is a strong statement: the spec re-derives every send
//! bundle, message id, clock, delivery, and decision of the run from
//! `(SpecConfig, SeedCollection, votes)` alone — the implementation and
//! the spec agree transition by transition, not just on outcomes. The
//! mutation test closes the loop by showing the linter is not vacuous:
//! corrupting a single recorded event is pinpointed at that event.

use rtc::chaos::{lint_sim_schedule, ChaosSchedule};
use rtc::core::CommitAutomaton;
use rtc::prelude::*;
use rtc::sim::{BatchPool, BatchSimBuilder, EventRecord, Sim};
use rtc::spec::{lint_events, lint_trace, RunSpec, SpecConfig};

/// Mirrors a [`CommitConfig`] into the spec's config vocabulary.
fn spec_config(cfg: &CommitConfig) -> SpecConfig {
    SpecConfig {
        n: cfg.population(),
        t: cfg.fault_bound(),
        k: cfg.timing().k(),
        coin_count: cfg.coin_count(),
        piggyback_go: cfg.piggyback_go(),
        early_abort: cfg.early_abort(),
        decision_broadcast: cfg.decision_broadcast(),
    }
}

/// Seed-derived vote vector — the same mix as the golden corpus.
fn votes(n: usize, seed: u64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::from_bool(seed.rotate_left(i as u32 % 61) & 1 == 0 || seed.is_multiple_of(4))
        })
        .collect()
}

fn config(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

#[derive(Clone, Copy)]
enum Kind {
    Random,
    Adaptive,
    Synchronous,
}

struct Case {
    name: String,
    n: usize,
    seed: u64,
    kind: Kind,
}

/// The scheduler-equivalence golden corpus, reproduced case for case.
fn golden_corpus() -> Vec<Case> {
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

fn adversary(kind: Kind, n: usize, seed: u64) -> Box<dyn Adversary> {
    match kind {
        Kind::Random => {
            let deliver = 0.4 + 0.1 * (seed % 5) as f64;
            let crash = if seed.is_multiple_of(3) { 0.02 } else { 0.0 };
            Box::new(
                RandomAdversary::new(seed)
                    .deliver_prob(deliver)
                    .crash_prob(crash),
            )
        }
        Kind::Adaptive => Box::new(AdaptiveAdversary::new(seed)),
        Kind::Synchronous => Box::new(SynchronousAdversary::new(n)),
    }
}

/// Runs one golden-corpus case and returns the finished simulator plus
/// its run spec (the corpus has no restarts, so no revive hints).
fn run_case(case: &Case) -> (Sim<CommitAutomaton>, RunSpec) {
    let cfg = config(case.n);
    let votes = votes(case.n, case.seed);
    let procs = commit_population(cfg, &votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(case.seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let mut adv = adversary(case.kind, case.n, case.seed);
    sim.run(adv.as_mut(), RunLimits::default()).unwrap();
    let run = RunSpec::new(spec_config(&cfg), SeedCollection::new(case.seed), votes);
    (sim, run)
}

#[test]
fn golden_corpus_lints_clean() {
    let cases = golden_corpus();
    assert!(cases.len() >= 100, "corpus shrank below 100 schedules");
    let mut events = 0usize;
    let mut messages = 0usize;
    for case in &cases {
        let (sim, run) = run_case(case);
        let conf =
            lint_trace(&run, sim.trace(), &[]).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        events += conf.events;
        messages += conf.messages;
    }
    // Sanity: the corpus actually exercised the linter at scale.
    assert!(events > 10_000, "corpus replayed only {events} events");
    assert!(
        messages > 10_000,
        "corpus verified only {messages} messages"
    );
}

#[test]
fn batch_lanes_lint_clean_off_the_shared_recorder() {
    // The batch-equivalence corpus shapes: 36 seeded schedules across
    // three batch groups, mixed adversary kinds, one recycled pool.
    let groups: [(usize, usize, u64); 3] = [
        (4, 16, 0xBA7C_4000),
        (8, 12, 0xBA7C_8000),
        (16, 8, 0xBA7C_1600),
    ];
    let mut pool = BatchPool::new();
    let mut lanes = 0usize;
    for &(n, b, base_seed) in &groups {
        let cfg = config(n);
        let mut builder = BatchSimBuilder::from_pool(pool);
        let mut advs: Vec<Box<dyn Adversary>> = Vec::new();
        let mut runs = Vec::new();
        for i in 0..b {
            let seed = base_seed + i as u64;
            let votes = votes(n, seed);
            builder
                .instance(
                    SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
                        .fault_budget(cfg.fault_bound()),
                    commit_population(cfg, &votes),
                )
                .unwrap();
            advs.push(match i % 4 {
                0 => Box::new(SynchronousAdversary::new(n)),
                1 => Box::new(AdaptiveAdversary::new(seed)),
                _ => adversary(Kind::Random, n, seed),
            });
            runs.push(RunSpec::new(
                spec_config(&cfg),
                SeedCollection::new(seed),
                votes,
            ));
        }
        let mut batch = builder.build();
        batch.run(&mut advs, RunLimits::default()).unwrap();
        for (lane, run) in runs.iter().enumerate() {
            // A clean lint shows a lane stepped among neighbours over a
            // recycled pool conforms to the *spec*, not merely to its
            // standalone run.
            lint_trace(run, batch.lane_trace(lane), &[])
                .unwrap_or_else(|e| panic!("n{n} lane {lane}: {e}"));
            lanes += 1;
        }
        pool = batch.into_pool();
    }
    assert_eq!(lanes, 36);
}

#[test]
fn net_soak_shaped_chaos_round_lints_clean() {
    // One hostile-network round in the shape of the net-soak CI job:
    // a quorum-splitting partition, duplication, and reordering, plus a
    // crash with a snapshot restart — the event kinds the golden corpus
    // never records. The chaos driver's spec hook collects the restart
    // kinds and lints the trace as part of the run.
    use rtc::runtime::CrashAt;
    let mut schedule = ChaosSchedule::fault_free(5, 0x50AC, votes(5, 0x50AC));
    let victim = ProcessorId::new(4);
    schedule.faults = FaultPlan::none()
        .with_partition(vec![1, 1, 0, 0, 0], 1, 6)
        .with_duplication(200)
        .with_reordering(200)
        .with_restart(victim, 13, true);
    schedule.faults.crashes.push(CrashAt {
        victim,
        at_step: 3,
        drop_final_sends: true,
    });
    let conf = lint_sim_schedule(&schedule, 400_000).unwrap_or_else(|e| panic!("{e}"));
    assert!(conf.events > 0);
    assert!(conf.messages > 0);
}

#[test]
fn mutating_one_trace_event_is_pinpointed() {
    // Lint a real trace, then corrupt a single recorded event: the
    // linter must reject the mutated trace *at that event*.
    let case = Case {
        name: "mutation/n08".into(),
        n: 8,
        seed: 21,
        kind: Kind::Random,
    };
    let (sim, run) = run_case(&case);
    let trace = sim.trace();
    let events: Vec<EventRecord> = trace.events().map(|v| v.to_record()).collect();
    lint_events(&run, &events, trace.messages(), trace.decisions(), &[])
        .expect("unmutated trace lints clean");

    // Find a step that delivered something and reroute its first
    // delivery bookkeeping by swapping the stepping processor.
    let (target, mutated) = events
        .iter()
        .enumerate()
        .find_map(|(i, ev)| match ev {
            EventRecord::Step {
                p,
                clock_after,
                delivered,
                sent,
            } if !delivered.is_empty() => Some((
                i,
                EventRecord::Step {
                    p: ProcessorId::new((p.index() + 1) % case.n),
                    clock_after: *clock_after,
                    delivered: delivered.clone(),
                    sent: sent.clone(),
                },
            )),
            _ => None,
        })
        .expect("an eligible step exists in a random schedule");
    let mut corrupted = events;
    corrupted[target] = mutated;
    let err = lint_events(&run, &corrupted, trace.messages(), trace.decisions(), &[])
        .expect_err("corrupted trace must not lint clean");
    assert_eq!(
        err.event,
        Some(target),
        "linter flagged the wrong event: {err}"
    );
}
