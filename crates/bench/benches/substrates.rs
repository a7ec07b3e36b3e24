//! Criterion benchmarks for the auxiliary substrates and the ablation
//! experiments (A1–A3): the lockstep engine, the valency explorer, the
//! transaction-manager layer, and the protocol's ablation switches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtc_core::{commit_population, CommitConfig};
use rtc_experiments::run_commit;
use rtc_lockstep::valency::{classify, ExploreParams};
use rtc_lockstep::{LockstepSim, PartitionPolicy, UniformDelayPolicy};
use rtc_model::{ProcessorId, SeedCollection, TimingParams, Value};
use rtc_sim::adversaries::{
    HealingPartitionAdversary, SelectiveDelayAdversary, SynchronousAdversary,
};
use rtc_sim::{RunLimits, SimBuilder};
use rtc_txn::{replica_population, Op, Store, Transaction};

fn cfg(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

/// A1 kernel: the delayed-GO-wave scenario, piggyback on vs off.
fn bench_a1_piggyback(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_piggyback");
    group.sample_size(20);
    for (label, piggyback) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            let config = cfg(5).with_piggyback(piggyback);
            let victim = ProcessorId::new(4);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut adv = SelectiveDelayAdversary::new(5, 300, move |m| {
                    m.to == victim && m.sender_clock.ticks() <= 2
                });
                run_commit(
                    config,
                    &[Value::One; 5],
                    seed,
                    &mut adv,
                    RunLimits::with_max_events(100_000),
                )
            });
        });
    }
    group.finish();
}

/// A2 kernel: one dissenter, early abort on vs off.
fn bench_a2_early_abort(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_early_abort");
    group.sample_size(20);
    for (label, early) in [("on", true), ("off", false)] {
        group.bench_function(label, |b| {
            let config = cfg(5).with_early_abort(early);
            let mut votes = vec![Value::One; 5];
            votes[3] = Value::Zero;
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut adv = SynchronousAdversary::new(5);
                run_commit(config, &votes, seed, &mut adv, RunLimits::default())
            });
        });
    }
    group.finish();
}

/// A3 kernel: healing partition recovery.
fn bench_a3_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_recovery");
    group.sample_size(20);
    for heal_at in [50u64, 300] {
        group.bench_with_input(
            BenchmarkId::from_parameter(heal_at),
            &heal_at,
            |b, &heal| {
                let config = cfg(5);
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let group_a = [ProcessorId::new(3), ProcessorId::new(4)];
                    let mut adv = HealingPartitionAdversary::new(5, &group_a, heal);
                    run_commit(
                        config,
                        &[Value::One; 5],
                        seed,
                        &mut adv,
                        RunLimits::with_max_events(200_000),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Lockstep engine throughput: an x-slow run to decision.
fn bench_lockstep_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("lockstep_engine");
    group.sample_size(20);
    for x in [1u64, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, &x| {
            let config = cfg(4);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut sim = LockstepSim::new(
                    commit_population(config, &[Value::One; 4]),
                    SeedCollection::new(seed),
                )
                .without_history();
                sim.run_policy(&mut UniformDelayPolicy::new(x), 5_000)
            });
        });
    }
    group.finish();
}

/// The valency explorer on the Lemma 15 instance.
fn bench_valency_explorer(c: &mut Criterion) {
    c.bench_function("valency_bivalence_n3_depth12", |b| {
        let config = cfg(3);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let sim = LockstepSim::new(
                commit_population(config, &[Value::One; 3]),
                SeedCollection::new(seed),
            )
            .without_history();
            classify(
                &sim,
                ExploreParams {
                    x: 1,
                    branch_depth: 12,
                    horizon_cycles: 1_000,
                },
            )
        });
    });
}

/// The lockstep partition stall (Theorem 14 mechanism on the stronger
/// model).
fn bench_lockstep_partition(c: &mut Criterion) {
    c.bench_function("lockstep_partition_n4", |b| {
        let config = cfg(4);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut sim = LockstepSim::new(
                commit_population(config, &[Value::One; 4]),
                SeedCollection::new(seed),
            )
            .without_history();
            let policy = PartitionPolicy::new(4, &[ProcessorId::new(0), ProcessorId::new(1)]);
            sim.run_partition(&policy, 200)
        });
    });
}

/// Transaction-manager throughput: a batch of transfers to decision,
/// over a store far larger than the batch (the `txn_sim_sync` shape of
/// `benchmark/`). With a two-key store, work that scales with the store
/// instead of the batch is invisible here.
fn bench_txn_batch(c: &mut Criterion) {
    const KEYS: usize = 1024;
    let mut group = c.benchmark_group("txn_batch");
    group.sample_size(20);
    for batch_size in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::from_parameter(batch_size),
            &batch_size,
            |b, &size| {
                let config = cfg(4);
                let account = |k: usize| format!("acct{:04}", k % KEYS);
                let initial = Store::with_entries((0..KEYS).map(|k| (account(k), 1_000)));
                let batch: Vec<Transaction> = (0..size)
                    .map(|i| {
                        Transaction::new(
                            i as u64 + 1,
                            vec![
                                Op::Add {
                                    key: account(i * 61),
                                    delta: -1,
                                    floor: 0,
                                },
                                Op::add(account(i * 61 + 7), 1),
                            ],
                        )
                    })
                    .collect();
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let procs = replica_population(config, &initial, &batch);
                    let mut sim = SimBuilder::new(config.timing(), SeedCollection::new(seed))
                        .fault_budget(config.fault_bound())
                        .build(procs)
                        .unwrap();
                    let mut adv = SynchronousAdversary::new(4);
                    sim.run(&mut adv, RunLimits::default()).unwrap()
                });
            },
        );
    }
    group.finish();
}

/// The bounded model checker's sweep throughput.
fn bench_modelcheck(c: &mut Criterion) {
    use rtc_lockstep::modelcheck::{check, commit_safety, CheckParams};
    c.bench_function("modelcheck_commit_n3_depth5", |b| {
        let votes = vec![Value::One; 3];
        b.iter(|| {
            let inner = votes.clone();
            let make = move || {
                let config = cfg(3);
                LockstepSim::new(commit_population(config, &inner), SeedCollection::new(5))
                    .without_history()
            };
            check(
                make,
                CheckParams {
                    depth: 5,
                    sweep_single_crash: false,
                    horizon_cycles: 500,
                },
                commit_safety(&votes),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_a1_piggyback,
    bench_a2_early_abort,
    bench_a3_recovery,
    bench_lockstep_engine,
    bench_valency_explorer,
    bench_lockstep_partition,
    bench_txn_batch,
    bench_modelcheck,
);
criterion_main!(benches);
