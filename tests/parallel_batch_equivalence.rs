//! Parallel-batch determinism: worker sharding must be *unobservable*
//! per lane.
//!
//! `ParBatchSim` runs a batch's lanes across W worker threads, each
//! worker owning a private message-store shard, trace columns, and
//! pool slice. This suite pins the plane's non-negotiable contract:
//! for every seeded schedule and **every worker count**, a lane's
//! report, decisions, and full trace digest are byte-identical to a
//! standalone serial `Sim` run and to the single-threaded `BatchSim`
//! — and the lane→worker assignment is the *only* degree of freedom
//! the parallel plane adds (a deliberately scrambled assignment
//! reproduces the same bytes).
//!
//! The corpus is the 36-schedule mix of `tests/batch_equivalence.rs`:
//! three batch shapes, synchronous/adaptive/random adversaries,
//! seed-dependent crash injection — and the same 36 seeds again under
//! the hostile script of `tests/hostile/mod.rs` (a duplicate of one
//! slot of a live broadcast, a reorder, a partial-drop crash, a revive).

use rtc::core::CommitMsg;
use rtc::prelude::*;
use rtc::sim::{
    worker_of, Adversary, BatchPool, BatchSimBuilder, ParBatchPool, ParBatchSim,
    ParBatchSimBuilder, Sim, StopWhen,
};

mod hostile;
use hostile::Hostile;

/// One seeded schedule of the corpus.
struct Case {
    n: usize,
    seed: u64,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Random,
    Adaptive,
    Synchronous,
}

/// A batch group: B instances of population n, mixed adversary kinds.
fn group(n: usize, b: usize, base_seed: u64) -> Vec<Case> {
    (0..b)
        .map(|i| Case {
            n,
            seed: base_seed + i as u64,
            kind: match i % 4 {
                0 => Kind::Synchronous,
                1 => Kind::Adaptive,
                _ => Kind::Random,
            },
        })
        .collect()
}

/// The corpus: 36 seeded schedules across three batch shapes.
fn corpus() -> Vec<Vec<Case>> {
    let groups = vec![
        group(4, 16, 0xBA7C_4000),
        group(8, 12, 0xBA7C_8000),
        group(16, 8, 0xBA7C_1600),
    ];
    assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 36);
    groups
}

/// Seed-derived vote vector (same mix as the batch-equivalence corpus).
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

/// Sendable adversaries: worker threads take them across the scope.
fn adversary(case: &Case) -> Box<dyn Adversary + Send> {
    match case.kind {
        Kind::Random => {
            let deliver = 0.4 + 0.1 * (case.seed % 5) as f64;
            let crash = if case.seed.is_multiple_of(3) {
                0.02
            } else {
                0.0
            };
            Box::new(
                RandomAdversary::new(case.seed)
                    .deliver_prob(deliver)
                    .crash_prob(crash),
            )
        }
        Kind::Adaptive => Box::new(AdaptiveAdversary::new(case.seed)),
        Kind::Synchronous => Box::new(SynchronousAdversary::new(case.n)),
    }
}

fn sim_builder(case: &Case) -> SimBuilder {
    let cfg = config(case.n);
    SimBuilder::new(cfg.timing(), SeedCollection::new(case.seed)).fault_budget(cfg.fault_bound())
}

fn population(case: &Case) -> Vec<CommitAutomaton> {
    commit_population(config(case.n), &votes(case.n, case.seed))
}

/// One lane's ground truth: statuses, events, stalled flag, decisions,
/// trace digest.
#[derive(Debug, PartialEq)]
struct Outcome {
    statuses: Vec<Status>,
    events: u64,
    stalled: bool,
    decisions: Vec<(ProcessorId, Value)>,
    digest: u64,
}

/// The standalone serial run of one case.
fn serial_outcome(case: &Case) -> Outcome {
    let mut sim: Sim<CommitAutomaton> = sim_builder(case).build(population(case)).unwrap();
    let mut adv = adversary(case);
    let report = sim.run(adv.as_mut(), RunLimits::default()).unwrap();
    Outcome {
        statuses: report.statuses().to_vec(),
        events: report.events(),
        stalled: report.stalled(),
        decisions: sim
            .trace()
            .decisions()
            .iter()
            .map(|d| (d.p, d.value))
            .collect(),
        digest: sim.trace().digest(),
    }
}

/// The single-threaded `BatchSim` run of one group, lane by lane.
fn batch_outcomes(cases: &[Case]) -> Vec<Outcome> {
    let mut builder = BatchSimBuilder::from_pool(BatchPool::new());
    for case in cases {
        builder
            .instance(sim_builder(case), population(case))
            .unwrap();
    }
    let mut batch = builder.build();
    let mut advs: Vec<Box<dyn Adversary + Send>> = cases.iter().map(adversary).collect();
    let reports = batch.run(&mut advs, RunLimits::default()).unwrap();
    reports
        .iter()
        .enumerate()
        .map(|(i, report)| Outcome {
            statuses: report.statuses().to_vec(),
            events: report.events(),
            stalled: report.stalled(),
            decisions: batch.decisions(i).iter().map(|d| (d.p, d.value)).collect(),
            digest: batch.to_trace(i).digest(),
        })
        .collect()
}

/// Runs a group as a `ParBatchSim`, instances placed by `place`
/// (global lane index → worker), and extracts per-lane outcomes.
fn parallel_outcomes(
    cases: &[Case],
    pool: ParBatchPool<CommitMsg>,
    workers: usize,
    place: impl Fn(usize) -> usize,
) -> (Vec<Outcome>, ParBatchPool<CommitMsg>) {
    let mut builder = ParBatchSimBuilder::from_pool(pool, workers);
    for (l, case) in cases.iter().enumerate() {
        builder
            .instance_on(sim_builder(case), population(case), place(l))
            .unwrap();
    }
    let mut batch: ParBatchSim<CommitAutomaton> = builder.build();
    assert_eq!(batch.workers(), workers);
    let mut advs: Vec<Box<dyn Adversary + Send>> = cases.iter().map(adversary).collect();
    let reports = batch.run(&mut advs, RunLimits::default()).unwrap();
    let outcomes = reports
        .iter()
        .enumerate()
        .map(|(i, report)| Outcome {
            statuses: report.statuses().to_vec(),
            events: report.events(),
            stalled: report.stalled(),
            decisions: batch.decisions(i).iter().map(|d| (d.p, d.value)).collect(),
            digest: batch.to_trace(i).digest(),
        })
        .collect();
    (outcomes, batch.into_pool())
}

/// The headline contract: per-lane outcomes at W ∈ {1, 2, 3, 8} are
/// byte-identical to the serial `Sim` *and* the single-threaded
/// `BatchSim`, for all 36 schedules, with one pool threaded through
/// every group and worker count (sharded reuse is invisible too).
#[test]
fn parallel_lanes_are_byte_identical_to_serial_and_batch() {
    for cases in &corpus() {
        let serial: Vec<Outcome> = cases.iter().map(serial_outcome).collect();
        let batch = batch_outcomes(cases);
        assert_eq!(serial, batch, "single-threaded BatchSim diverged from Sim");
        let mut pool = ParBatchPool::new();
        for workers in [1usize, 2, 3, 8] {
            let (parallel, spent) =
                parallel_outcomes(cases, pool, workers, |l| worker_of(l, workers));
            pool = spent;
            for (l, (par, ser)) in parallel.iter().zip(&serial).enumerate() {
                assert_eq!(
                    par, ser,
                    "lane {l} (n{}, seed {:#x}) diverged at W={workers}",
                    cases[l].n, cases[l].seed
                );
            }
        }
    }
}

/// Pooled-rerun stability: the same group twice through the same
/// recycled per-worker pool slices reproduces every digest, and the
/// warm slab capacity is retained (reuse actually amortizes).
#[test]
fn pooled_parallel_rerun_reproduces_digests_exactly() {
    let cases = group(8, 12, 0x9E_1001);
    let workers = 3;
    let (first, pool) = parallel_outcomes(&cases, ParBatchPool::new(), workers, |l| {
        worker_of(l, workers)
    });
    let warm = pool.warm_slots();
    assert!(warm > 0, "a spent pool keeps warm slab capacity");
    let (second, pool) = parallel_outcomes(&cases, pool, workers, |l| worker_of(l, workers));
    assert_eq!(first, second, "pooled rerun changed an outcome");
    assert_eq!(
        pool.warm_slots(),
        warm,
        "rerunning the same shape should not grow the warm slabs"
    );
}

/// Assignment is the only degree of freedom: a deliberately scrambled
/// lane→worker map — reversed round-robin plus a fixed stride, nothing
/// like the pure default — still reproduces every lane's serial bytes.
#[test]
fn scrambled_lane_assignment_changes_nothing() {
    let cases = group(4, 16, 0xBA7C_4000);
    let serial: Vec<Outcome> = cases.iter().map(serial_outcome).collect();
    let workers = 4;
    let scramble = |l: usize| (workers - 1 - (l % workers) + l / 3) % workers;
    // Sanity: the scramble really differs from the default assignment
    // somewhere.
    assert!(
        (0..cases.len()).any(|l| scramble(l) != worker_of(l, workers)),
        "scramble degenerated into the default map"
    );
    let (scrambled, _) = parallel_outcomes(&cases, ParBatchPool::new(), workers, scramble);
    assert_eq!(
        scrambled, serial,
        "a scrambled lane→worker assignment must be unobservable"
    );
}

/// The fixed-W=4 pass the CI `parallel-equivalence` job pins: the
/// whole corpus at the worker count the bench's headline metric uses.
#[test]
fn fixed_w4_corpus_matches_serial() {
    for cases in &corpus() {
        let serial: Vec<Outcome> = cases.iter().map(serial_outcome).collect();
        let (parallel, _) = parallel_outcomes(cases, ParBatchPool::new(), 4, |l| worker_of(l, 4));
        assert_eq!(parallel, serial, "W=4 diverged from serial");
    }
}

fn hostile_adversary(case: &Case) -> Hostile {
    Hostile::new(adversary(case), case.n, case.seed)
}

fn rejoiner(case: &Case, victim: ProcessorId) -> CommitAutomaton {
    hostile::rejoiner(
        config(case.n),
        victim,
        votes(case.n, case.seed)[victim.index()],
    )
}

/// The standalone serial run of one case under the hostile script.
fn hostile_serial_outcome(case: &Case) -> Outcome {
    let mut sim: Sim<CommitAutomaton> = sim_builder(case).build(population(case)).unwrap();
    let mut adv = hostile_adversary(case);
    sim.run_until(&mut adv, hostile::revive_at(case.n), StopWhen::default())
        .unwrap();
    let victim = adv.victim();
    if sim.is_crashed(victim) {
        sim.revive(victim, rejoiner(case, victim)).unwrap();
    }
    let report = sim.run(&mut adv, hostile::LIMITS).unwrap();
    Outcome {
        statuses: report.statuses().to_vec(),
        events: report.events(),
        stalled: report.stalled(),
        decisions: sim
            .trace()
            .decisions()
            .iter()
            .map(|d| (d.p, d.value))
            .collect(),
        digest: sim.trace().digest(),
    }
}

/// The hostile corpus across worker counts: every lane's bytes equal
/// its serial run's, whichever shard's store filed, unfiled and
/// recorded its runs.
#[test]
fn hostile_schedules_are_byte_identical_at_every_worker_count() {
    for cases in &corpus() {
        let serial: Vec<Outcome> = cases.iter().map(hostile_serial_outcome).collect();
        let caps: Vec<u64> = cases.iter().map(|c| hostile::revive_at(c.n)).collect();
        let mut pool = ParBatchPool::new();
        for workers in [1usize, 2, 3] {
            let mut builder = ParBatchSimBuilder::from_pool(pool, workers);
            for (l, case) in cases.iter().enumerate() {
                builder
                    .instance_on(sim_builder(case), population(case), worker_of(l, workers))
                    .unwrap();
            }
            let mut batch: ParBatchSim<CommitAutomaton> = builder.build();
            let mut advs: Vec<Hostile> = cases.iter().map(hostile_adversary).collect();
            batch
                .run_segment(&mut advs, &caps, StopWhen::default())
                .unwrap();
            for (l, case) in cases.iter().enumerate() {
                let victim = advs[l].victim();
                if batch.is_crashed(l, victim) {
                    batch.revive(l, victim, rejoiner(case, victim)).unwrap();
                }
            }
            let reports = batch.run(&mut advs, hostile::LIMITS).unwrap();
            for (l, report) in reports.iter().enumerate() {
                let lane = Outcome {
                    statuses: report.statuses().to_vec(),
                    events: report.events(),
                    stalled: report.stalled(),
                    decisions: batch.decisions(l).iter().map(|d| (d.p, d.value)).collect(),
                    digest: batch.to_trace(l).digest(),
                };
                assert_eq!(
                    lane, serial[l],
                    "hostile lane {l} (n{}, seed {:#x}) diverged at W={workers}",
                    cases[l].n, cases[l].seed
                );
            }
            pool = batch.into_pool();
        }
    }
}
