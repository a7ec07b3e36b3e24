//! The message-hot-path suite: exact allocation counts and wall-clock
//! medians for the paths the allocation overhaul targets, persisted to
//! `BENCH_rtc.json` after every run so each PR can regress against the
//! last (`cargo run -p rtc-bench --bin bench_check`).
//!
//! Two kinds of kernels:
//!
//! * **Allocation counts** (deterministic, CI-gated): a counting
//!   `#[global_allocator]` measures exactly how many heap allocations
//!   the coordinator's broadcast step (into a reused outbox, and
//!   through the provided per-destination `step`), a single message
//!   clone, and a full synchronous commit run perform at a fixed seed. These are
//!   exact machine-independent counts.
//! * **Timings** (criterion, informational): ns/msg on the sync-commit
//!   hot path, stage latency vs `n`, and chaos-campaign throughput.
//!   Skipped in `--test` smoke mode.
//!
//! What the same kernels read before each optimization PR is history,
//! not output: docs/PERF.md, "Trajectory".
//!
//! Run with `cargo bench -p rtc-bench --bench hotpath`; the JSON lands
//! at the repo root (override with `BENCH_RTC_PATH`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::Criterion;
use rtc_bench::{BenchReport, Metric};
use rtc_chaos::{run_campaign, CampaignConfig, ChaosAdversary, ChaosDelay, ChaosSchedule};
use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_experiments::run_commit;
use rtc_model::{Automaton, LocalClock, Outbox, ProcessorId, SeedCollection, TimingParams, Value};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{BatchPool, BatchSim, BatchSimBuilder, RunLimits, SimBuilder};

/// `System` wrapped in allocation counting. Counts every `alloc` and
/// `realloc` call; frees are irrelevant to the metric (we count heap
/// traffic, not leaks).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed
// atomic with no further invariants.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Exact number of heap allocations `f` performs (single-threaded
/// kernels only; the counter is process-global).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn cfg(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

fn coordinator_rng(seed: u64) -> rtc_model::StepRng {
    SeedCollection::new(seed).step_rng(ProcessorId::COORDINATOR, LocalClock::new(0))
}

/// Coordinator's first step: flip the coins and broadcast `GO` to all
/// `n - 1` peers — the protocol's defining fan-out. Measured in the
/// shape the engines drive (`step_into` a reused outbox: the message is
/// built once, whatever `n` is) and through the provided `step`, which
/// the lockstep engine and the end-to-end benchmark's probe call
/// and which expands the broadcast into one owned send per peer.
fn measure_fanout(metrics: &mut Vec<Metric>) {
    for n in [8usize, 16, 32] {
        let config = cfg(n);
        let mut out = Outbox::new();
        // Warm up once so lazy one-time allocations (hash seeds, etc.)
        // don't pollute the count.
        {
            let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
            let mut rng = coordinator_rng(41);
            auto.step_into(std::iter::empty(), &mut rng, &mut out);
            out.clear();
        }
        let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
        let mut rng = coordinator_rng(42);
        let (allocs, ()) = count_allocs(|| auto.step_into(std::iter::empty(), &mut rng, &mut out));
        let reached = out.sends(ProcessorId::COORDINATOR, n).count();
        assert_eq!(reached, n - 1, "GO reaches every peer");
        metrics.push(Metric::exact(
            format!("alloc/fanout_step_total/n{n}"),
            allocs as f64,
            "allocs/step",
        ));
        metrics.push(Metric::exact(
            format!("alloc/fanout_allocs_per_send/n{n}"),
            allocs as f64 / (n - 1) as f64,
            "allocs/send",
        ));
        let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
        let mut rng = coordinator_rng(42);
        let (allocs, sends) = count_allocs(|| auto.step(&[], &mut rng));
        assert_eq!(sends.len(), n - 1, "GO reaches every peer");
        metrics.push(Metric::exact(
            format!("alloc/fanout_provided_step_total/n{n}"),
            allocs as f64,
            "allocs/step",
        ));
    }
}

/// Cloning one fan-out message — what a channel or socket send does
/// with a `CommitMsg` per destination (the simulator clones nothing: it
/// stores the broadcast once). Counts allocations only; the two
/// reference-count bumps a clone costs are invisible here.
fn measure_msg_clone(metrics: &mut Vec<Metric>) {
    let config = cfg(16);
    let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
    let mut rng = coordinator_rng(42);
    let sends = auto.step(&[], &mut rng);
    let msg = sends[0].msg.clone();
    const REPS: u64 = 1024;
    // Warm-up clone outside the counted region.
    let warm = msg.clone();
    drop(warm);
    let (allocs, clones) = count_allocs(|| {
        let mut clones = Vec::with_capacity(REPS as usize);
        for _ in 0..REPS {
            clones.push(msg.clone());
        }
        clones
    });
    drop(clones);
    // Subtract the collection vector itself (one allocation).
    let per_clone = allocs.saturating_sub(1) as f64 / REPS as f64;
    metrics.push(Metric::exact(
        "alloc/msg_clone/n16",
        per_clone,
        "allocs/clone",
    ));
}

/// A full synchronous commit run at `n = 16`, allocations divided by
/// messages sent: the whole-path cost including the simulator.
fn measure_sync_commit(metrics: &mut Vec<Metric>) -> usize {
    let config = cfg(16);
    let votes = vec![Value::One; 16];
    // Warm up.
    {
        let mut adv = SynchronousAdversary::new(16);
        let _ = run_commit(config, &votes, 41, &mut adv, RunLimits::default());
    }
    let mut adv = SynchronousAdversary::new(16);
    let (allocs, result) =
        count_allocs(|| run_commit(config, &votes, 42, &mut adv, RunLimits::default()));
    assert!(result.decided, "synchronous run decides");
    metrics.push(Metric::exact(
        "alloc/sync_commit_total/n16",
        allocs as f64,
        "allocs/run",
    ));
    metrics.push(Metric::exact(
        "alloc/sync_commit_allocs_per_msg/n16",
        allocs as f64 / result.messages as f64,
        "allocs/msg",
    ));
    result.messages
}

/// The chaos soak schedule the scheduler overhaul is measured on: a
/// delay-jittered, crash-free run that keeps many messages buffered at
/// once — worst case for per-delivery buffer scans.
fn soak_schedule(n: usize, seed: u64) -> ChaosSchedule {
    ChaosSchedule {
        early_abort: false,
        delay: ChaosDelay::Jitter { max_steps: 3 },
        ..ChaosSchedule::fault_free(n, seed, vec![Value::One; n])
    }
}

/// Raw simulator throughput on the soak schedule: total scheduler
/// events per wall-clock second across several seeded runs. Measured
/// single-shot (no criterion) so the metric exists in `--test` smoke
/// mode too — the CI gate tracks it with a generous noise margin.
fn measure_sim_throughput(metrics: &mut Vec<Metric>) -> f64 {
    let mut n16_rate = 0.0;
    for n in [16usize, 32] {
        let config = cfg(n);
        const REPS: u64 = 24;
        // Warm-up run outside the timed region.
        {
            let schedule = soak_schedule(n, 0x50AC);
            let procs = commit_population(config, &schedule.votes);
            let mut sim = SimBuilder::new(config.timing(), SeedCollection::new(0x50AC))
                .fault_budget(config.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = ChaosAdversary::new(&schedule);
            sim.run(&mut adv, RunLimits::default()).unwrap();
        }
        let mut events = 0u64;
        let start = Instant::now();
        for rep in 0..REPS {
            let schedule = soak_schedule(n, 0xD0_5EED + rep);
            let procs = commit_population(config, &schedule.votes);
            let mut sim = SimBuilder::new(config.timing(), SeedCollection::new(schedule.seed))
                .fault_budget(config.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = ChaosAdversary::new(&schedule);
            let report = sim.run(&mut adv, RunLimits::default()).unwrap();
            events += report.events();
        }
        let secs = start.elapsed().as_secs_f64();
        let rate = events as f64 / secs;
        metrics.push(Metric::throughput(
            format!("time/sim_steps_per_sec/n{n}"),
            rate,
            "steps/sec",
        ));
        metrics.push(Metric::timing(
            format!("time/sim_step/n{n}"),
            secs * 1e9 / events as f64,
            "ns/step",
        ));
        if n == 16 {
            // The serial engine's measured per-instance rate: each rep
            // above builds a fresh `Sim` and drives one soak schedule
            // to completion, so `REPS / secs` is the implied
            // single-instance rate — identically `steps/s ÷
            // steps-per-run` since both come from the same timed loop.
            // The batch plane's decided-instances rate is gated against
            // a multiple of this (docs/PERF.md walks the arithmetic).
            metrics.push(Metric::exact(
                "sim/steps_per_run/n16",
                events as f64 / REPS as f64,
                "steps/run",
            ));
            n16_rate = REPS as f64 / secs;
            metrics.push(Metric::throughput(
                "time/implied_serial_instances_per_sec/n16",
                n16_rate,
                "instances/sec",
            ));
        }
    }
    n16_rate
}

/// One pooled batch of `b` synchronous commit instances at population
/// `n`, seeds disambiguated by `round` so repeated batches exercise
/// distinct runs like a campaign would.
fn build_batch(
    config: CommitConfig,
    b: usize,
    round: u64,
    pool: BatchPool<CommitMsg>,
) -> BatchSim<CommitAutomaton> {
    let votes = vec![Value::One; config.population()];
    let mut builder = BatchSimBuilder::from_pool(pool);
    for i in 0..b {
        builder
            .instance(
                SimBuilder::new(
                    config.timing(),
                    SeedCollection::new(0xBA7C_0000 + round * b as u64 + i as u64),
                )
                .fault_budget(config.fault_bound()),
                commit_population(config, &votes),
            )
            .expect("batch instances share a population");
    }
    builder.build()
}

/// Aggregate decided-instances throughput of the batch engine: B
/// independent synchronous commit instances stepped round-robin over
/// the shared scheduler plane, envelope pool recycled across rounds.
/// Reported best-of-5 (each round times one full batch to decision, on
/// a warm pool), single shot per round so the metrics exist in smoke
/// mode. Also records, for the `n = 16` shape, the exact
/// steps-per-decision of this workload — the divisor that turns the
/// single-instance `sim_steps_per_sec` soak rate into an implied
/// serial decided-instances rate (docs/PERF.md walks the arithmetic) —
/// and the exact stepping-loop allocations per instance on a warm
/// pool.
fn measure_batch_throughput(metrics: &mut Vec<Metric>, implied_serial_n16: f64) {
    const ROUNDS: u64 = 5;
    for (n, b) in [(4usize, 256usize), (16, 64), (32, 16)] {
        let config = cfg(n);
        // Round 0 is the warm-up: first-touch allocations land here and
        // its spent allocations become every later round's pool.
        let mut pool = BatchPool::new();
        let mut best_secs = f64::INFINITY;
        let mut events = 0u64;
        let mut decided = 0u64;
        for round in 0..=ROUNDS {
            let mut advs: Vec<SynchronousAdversary> =
                (0..b).map(|_| SynchronousAdversary::new(n)).collect();
            let mut batch = build_batch(config, b, round, pool);
            let start = Instant::now();
            let reports = batch.run(&mut advs, RunLimits::default()).unwrap();
            let secs = start.elapsed().as_secs_f64();
            for report in &reports {
                assert!(report.all_nonfaulty_decided(), "synchronous batch decides");
            }
            if round > 0 {
                best_secs = best_secs.min(secs);
                events += reports.iter().map(|r| r.events()).sum::<u64>();
                decided += b as u64;
            }
            pool = batch.into_pool();
        }
        metrics.push(Metric::throughput(
            format!("time/decided_instances_per_sec/n{n}_b{b}"),
            b as f64 / best_secs,
            "instances/sec",
        ));
        if n == 16 {
            metrics.push(Metric::throughput(
                "time/batch_events_per_sec/n16_b64",
                (events / ROUNDS) as f64 / best_secs,
                "steps/sec",
            ));
            metrics.push(Metric::exact(
                "batch/steps_per_decision/n16",
                events as f64 / decided as f64,
                "steps/decision",
            ));
            // The acceptance arithmetic: the batch plane's aggregate
            // decided-instances rate over the implied single-instance
            // serial rate (build one `Sim`, run one instance, repeat —
            // measured in `measure_sim_throughput`). Must stay >= 3.
            metrics.push(Metric::throughput(
                "batch/speedup_vs_serial/n16_b64",
                (b as f64 / best_secs) / implied_serial_n16,
                "x",
            ));
            // Stepping-loop allocations per instance on a warm pool:
            // what the per-instance-alloc analysis rule polices, as a
            // number. Building the batch (automata, lanes) is excluded;
            // this is the cost of *running* it.
            let mut advs: Vec<SynchronousAdversary> =
                (0..b).map(|_| SynchronousAdversary::new(n)).collect();
            let mut batch = build_batch(config, b, ROUNDS + 1, pool);
            let (allocs, reports) =
                count_allocs(|| batch.run(&mut advs, RunLimits::default()).unwrap());
            assert_eq!(reports.len(), b);
            pool = batch.into_pool();
            metrics.push(Metric::exact(
                "alloc/batch_step_per_instance/n16",
                allocs as f64 / b as f64,
                "allocs/instance",
            ));
        }
        drop(pool);
    }
}

/// End-to-end campaign throughput: schedules fully validated per
/// second, single worker, single shot (smoke-mode capable like
/// [`measure_sim_throughput`]).
fn measure_campaign_throughput(metrics: &mut Vec<Metric>) {
    let cfg = CampaignConfig {
        workers: 1,
        ..campaign_cfg(40)
    };
    let start = Instant::now();
    let summary = run_campaign(&cfg);
    assert!(summary.ok(), "soak campaign stays green");
    let secs = start.elapsed().as_secs_f64();
    metrics.push(Metric::throughput(
        "time/campaign_throughput/sim40",
        40.0 / secs,
        "schedules/sec",
    ));
}

fn campaign_cfg(schedules: u64) -> CampaignConfig {
    CampaignConfig {
        schedules,
        seed: 0xBE9C_0FFE,
        run_runtime: false,
        shrink_violations: false,
        ..CampaignConfig::default()
    }
}

/// Wall-clock kernels through the vendored criterion driver; their
/// medians are collected via `criterion::take_records`.
fn run_timings(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(20);
    group.bench_function("sync_commit/n16", |b| {
        let config = cfg(16);
        let votes = vec![Value::One; 16];
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut adv = SynchronousAdversary::new(16);
            run_commit(config, &votes, seed, &mut adv, RunLimits::default())
        });
    });
    for n in [4usize, 8, 16, 32] {
        group.bench_function(format!("stage_latency/n{n}"), |b| {
            let config = cfg(n);
            let votes = vec![Value::One; n];
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut adv = SynchronousAdversary::new(n);
                run_commit(config, &votes, seed, &mut adv, RunLimits::default())
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("campaign");
    group.sample_size(3);
    group.bench_function("sim40_serial", |b| {
        let cfg = CampaignConfig {
            workers: 1,
            ..campaign_cfg(40)
        };
        b.iter(|| {
            let summary = run_campaign(&cfg);
            assert!(summary.ok());
            summary
        });
    });
    // Same 40 schedules on the machine-sized worker pool. On a 1-core
    // host this degenerates to the serial path; the per-PR trajectory
    // on multi-core CI records the actual speedup.
    group.bench_function("sim40_parallel", |b| {
        let cfg = campaign_cfg(40);
        b.iter(|| {
            let summary = run_campaign(&cfg);
            assert!(summary.ok());
            summary
        });
    });
    group.finish();
}

/// Converts the criterion records into `time/` metrics. `sync_commit`
/// medians are additionally normalized to ns/msg using the message
/// count of a representative run.
fn timing_metrics(msgs_per_run: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    for rec in criterion::take_records() {
        let ns = rec.median.as_nanos() as f64;
        match rec.label.as_str() {
            "hotpath/sync_commit/n16" => {
                out.push(Metric::timing(
                    "time/sync_commit_ns_per_msg/n16",
                    ns / msgs_per_run as f64,
                    "ns/msg",
                ));
                out.push(Metric::timing("time/sync_commit/n16", ns / 1e3, "us/run"));
            }
            label if label.starts_with("hotpath/stage_latency/") => {
                let n = label.rsplit('/').next().unwrap_or("n0");
                out.push(Metric::timing(
                    format!("time/stage_latency/{n}"),
                    ns / 1e3,
                    "us/run",
                ));
            }
            "campaign/sim40_serial" => {
                out.push(Metric::timing("time/campaign_sim40_serial", ns / 1e6, "ms"));
            }
            "campaign/sim40_parallel" => {
                out.push(Metric::timing(
                    "time/campaign_sim40_parallel",
                    ns / 1e6,
                    "ms",
                ));
            }
            _ => {}
        }
    }
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mut metrics = Vec::new();

    measure_fanout(&mut metrics);
    measure_msg_clone(&mut metrics);
    let msgs_per_run = measure_sync_commit(&mut metrics);
    let implied_serial_n16 = measure_sim_throughput(&mut metrics);
    measure_batch_throughput(&mut metrics, implied_serial_n16);
    measure_campaign_throughput(&mut metrics);

    if !smoke {
        let mut criterion = Criterion::default();
        run_timings(&mut criterion);
        metrics.extend(timing_metrics(msgs_per_run));
    }

    let report = BenchReport {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        metrics,
    };
    for m in &report.metrics {
        println!(
            "{:<44} {:>12} {}{}",
            m.name,
            format!("{:.3}", m.value),
            m.unit,
            if m.deterministic { "  [exact]" } else { "" }
        );
    }

    let path = std::env::var("BENCH_RTC_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rtc.json").to_string()
    });
    std::fs::write(&path, report.to_json()).expect("write BENCH_rtc.json");
    println!("\nwrote {path}");
}
