//! One run: one workload, traced or not, for a stated number of
//! seconds — set-up, timed rounds, metric assembly, output.
//!
//! Load shape: closed loop, one client, one batch in flight, generated
//! by this single driver thread. A run is `rounds` timed rounds of about
//! a second; every rate and latency estimator is the **median across
//! rounds** of the per-round value, so one noisy-neighbour burst does
//! not move it. On CPU-bound workloads each round's figures are first
//! brought to reference speed (see [`crate::reference`]), so a slow
//! minute of the host does not move them either.

use std::fs;
use std::time::{Duration, Instant};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::json::Json;
use crate::ledger::Ledger;
use crate::reference::{self, Gauge};
use crate::stats::{median, percentile, Summary};
use crate::workloads::{self, ratio, LayerMetrics, Workload};

/// Where run files, result files and trace files go (under the
/// benchmark's own directory; ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

/// An untraced run sets the workload up this many times before the
/// timed rounds and this many times after them, and reports the median
/// of all of them: `setup_s` is then a steady number rather than one
/// cold start, and a slow second of the host cannot catch every sample.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;

/// Share of a batch's time no layer span may leave unaccounted for.
const MAX_UNATTRIBUTED: f64 = 0.05;
/// The same where the system under test runs threads of its own, whose
/// hand-offs sit between the driver's spans.
const MAX_UNATTRIBUTED_THREADED: f64 = 0.10;
/// Share of throughput span recording may cost.
const MAX_TRACE_OVERHEAD: f64 = 0.05;
/// With fewer (spans-on, spans-off) round pairs than this the overhead
/// is reported, not gated: a quartile of two or three pairs is noise.
const MIN_PAIRS_TO_GATE_OVERHEAD: usize = 5;

/// What the command line asked for.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
}

/// One timed round. Wall and CPU time exclude the reference kernel's.
struct Round {
    elapsed: Duration,
    cpu: Duration,
    txns: u64,
    latencies_ms: Vec<f64>,
    spans_on: bool,
    /// How slow the host was during the round (1 = reference speed;
    /// fixed at 1 where reference speed does not apply).
    slowness: f64,
}

impl Round {
    /// Transactions per second as the clock saw them.
    fn raw_rate(&self) -> f64 {
        self.txns as f64 / self.elapsed.as_secs_f64()
    }

    /// Transactions per second at reference speed.
    fn rate(&self) -> f64 {
        self.raw_rate() * self.slowness
    }

    /// The `q`-quantile of batch latency at reference speed, in ms.
    fn latency_ms(&self, q: f64) -> Option<f64> {
        percentile(&self.latencies_ms, q).map(|ms| ms / self.slowness)
    }

    /// CPU per transaction at reference speed, in µs.
    fn cpu_us_per_txn(&self) -> Option<f64> {
        (self.txns > 0).then(|| self.cpu.as_secs_f64() * 1e6 / self.txns as f64 / self.slowness)
    }
}

/// A reported metric: name, unit, value and the spread across rounds.
struct Reported {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
    exact: bool,
}

/// What the batches of a run came to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed checks, in words: the first few failed batches, then the
    /// run-level checks. Empty means the run is correct.
    problems: Vec<String>,
}

/// Runs batches back to back for `round_len`, gauging the host between
/// them where reference speed applies.
fn timed_round(
    workload: &mut dyn Workload,
    led: &mut Ledger,
    gauge: Option<&mut Gauge>,
    tally: &mut Tally,
    round_len: Duration,
    spans_on: bool,
) -> Round {
    led.set_spans(spans_on);
    let mut gauge = gauge;
    let (mut txns, mut latencies_ms) = (0, Vec::new());
    let cpu = host::process_cpu();
    let started = Instant::now();
    let mut gauged_at = started;
    while started.elapsed() < round_len {
        if let Some(gauge) = gauge.as_deref_mut() {
            if gauged_at.elapsed() >= reference::EVERY {
                gauge.pass();
                gauged_at = Instant::now();
            }
        }
        tally.attempted += 1;
        match workload.run_batch(led) {
            Ok(batch) => {
                txns += batch.txns;
                latencies_ms.push(batch.latency.as_secs_f64() * 1e3);
                led.count("batches", 1);
                led.count("txns", batch.txns);
            }
            Err(e) => {
                // A failed batch contributes no throughput and no
                // latency sample; the run is reported incorrect.
                tally.failed += 1;
                if tally.failed <= 5 {
                    tally
                        .problems
                        .push(format!("batch {}: {e}", tally.attempted));
                }
            }
        }
    }
    let (slowness, spent) = gauge.map_or((1.0, Duration::ZERO), Gauge::read);
    Round {
        // The kernel's passes are single-threaded and busy: they cost as
        // much CPU time as wall time.
        elapsed: started.elapsed().saturating_sub(spent),
        cpu: host::process_cpu().saturating_sub(cpu + spent),
        txns,
        latencies_ms,
        spans_on,
        slowness,
    }
}

/// Runs `opts` and prints its result; returns whether every output
/// check passed.
///
/// # Errors
///
/// An unknown workload, a failed warm-up, or an unwritable output file.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let host = host::fingerprint();

    // Each set-up is bracketed by reference passes, so that it too can
    // be brought to reference speed.
    let mut gauge = Gauge::new();
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut set_up = |gauge: &mut Gauge| {
        (0..3).for_each(|_| gauge.pass());
        let started = Instant::now();
        let workload = workloads::build(&opts.workload, opts.seed);
        let took = started.elapsed().as_secs_f64();
        (0..3).for_each(|_| gauge.pass());
        setups.push((took, gauge.read().0));
        workload
    };
    let mut workload = set_up(&mut gauge)?;
    if !opts.trace {
        for _ in 1..SETUPS_BEFORE {
            workload = set_up(&mut gauge)?;
        }
    }

    let mut led = Ledger::new(opts.trace);
    let mut tally = Tally::default();
    if opts.trace {
        if let Err(e) = workload.probe(&mut led) {
            tally.problems.push(e);
        }
    }

    // Reference speed applies where the driver thread's CPU sets the
    // pace. A tick-paced, threaded workload's figures do not scale with
    // CPU speed (measured: neither its wall-clock nor its CPU cost
    // follows the kernel), and a busy driver thread would take a core
    // from its node threads.
    let cpu_bound = !workload.threaded();
    let rounds = (opts.seconds.round() as usize).max(2);
    let round_len = Duration::from_secs_f64(opts.seconds / rounds as f64);
    let measured: Vec<Round> = (0..rounds)
        .map(|r| {
            timed_round(
                workload.as_mut(),
                &mut led,
                cpu_bound.then_some(&mut gauge),
                &mut tally,
                round_len,
                // Traced runs record spans on even rounds only; the odd
                // rounds are the same run's own untraced reference.
                opts.trace && r % 2 == 0,
            )
        })
        .collect();
    if tally.failed > 0 {
        tally.problems.push(format!(
            "{} of {} batches failed their output checks",
            tally.failed, tally.attempted
        ));
    }
    let peak_rss_mb = host::peak_rss_mb();
    if !opts.trace {
        for _ in 0..SETUPS_AFTER {
            set_up(&mut gauge)?;
        }
    }

    let reported = if opts.trace {
        per_layer(workload.as_ref(), &led, &measured, &mut tally)
    } else {
        end_to_end(&setups, cpu_bound, &measured, peak_rss_mb)
    };

    println!(
        "# {} seed={} trace={} rounds={}x{:.2}s batches={} failed={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        rounds,
        round_len.as_secs_f64(),
        tally.attempted,
        tally.failed,
    );
    if opts.trace {
        print_ledger(&led);
    }
    for m in &reported {
        println!("{:<34} {:>16.4} {}", m.name, m.summary.median, m.unit);
    }
    for p in &tally.problems {
        eprintln!("FAILED: {p}");
    }
    write_files(opts, host, &tally, &measured, &reported, &led)?;

    // The driver's contract: the last line of stdout is this object.
    let correct = tally.problems.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(reported.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// Writes the run file (every metric with its quartiles, the per-round
/// raw rates and host slowness, the host fingerprint) and, for a traced
/// run, the trace file.
fn write_files(
    opts: &RunOpts,
    host: Json,
    tally: &Tally,
    rounds: &[Round],
    reported: &[Reported],
    led: &Ledger,
) -> Result<(), String> {
    let per_round =
        |f: fn(&Round) -> f64| Json::Arr(rounds.iter().map(|r| Json::Num(f(r))).collect());
    let detail = Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("trace", Json::Bool(opts.trace)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("rounds", Json::Num(rounds.len() as f64)),
        (
            "reference_kernel_us",
            Json::Num(reference::REFERENCE.as_secs_f64() * 1e6),
        ),
        (
            "net_tick_ms",
            Json::Num(workloads::NET_TICK.as_secs_f64() * 1e3),
        ),
        ("host", host),
        ("correct", Json::Bool(tally.problems.is_empty())),
        (
            "problems",
            Json::Arr(tally.problems.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "latency_samples",
            Json::Num((tally.attempted - tally.failed) as f64),
        ),
        ("round_raw_txn_per_s", per_round(Round::raw_rate)),
        ("round_host_slowness", per_round(|r| r.slowness)),
        (
            "metrics",
            Json::obj(reported.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::str(m.unit)),
                        ("q1", Json::Num(m.summary.q1)),
                        ("q3", Json::Num(m.summary.q3)),
                        ("samples", Json::Num(m.summary.samples as f64)),
                        ("exact", Json::Bool(m.exact)),
                    ]),
                )
            })),
        ),
    ]);
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let run_file = format!(
        "{OUT_DIR}/run-{}-t{}-s{}.json",
        opts.workload,
        u8::from(opts.trace),
        opts.seed
    );
    fs::write(&run_file, detail.render() + "\n").map_err(|e| format!("writing {run_file}: {e}"))?;
    if opts.trace {
        let trace_file = format!("{OUT_DIR}/trace-{}.json", opts.workload);
        let trace = Json::obj([
            ("workload", Json::str(&opts.workload)),
            ("seed", Json::Num(opts.seed as f64)),
            ("spans", led.spans_json()),
        ]);
        fs::write(&trace_file, trace.render() + "\n")
            .map_err(|e| format!("writing {trace_file}: {e}"))?;
    }
    Ok(())
}

/// The end-to-end metrics of an untraced run: each the median across
/// rounds (or set-ups) of the per-round figure at reference speed.
fn end_to_end(
    setups: &[(f64, f64)],
    cpu_bound: bool,
    rounds: &[Round],
    peak_rss_mb: f64,
) -> Vec<Reported> {
    let setups: Vec<f64> = setups
        .iter()
        .map(|(took, slowness)| if cpu_bound { took / slowness } else { *took })
        .collect();
    let per_round = |f: &dyn Fn(&Round) -> Option<f64>| {
        Summary::of_rounds(&rounds.iter().filter_map(f).collect::<Vec<f64>>())
    };
    let values = [
        Summary::of_rounds(&setups),
        per_round(&|r| Some(r.rate())),
        per_round(&|r| r.latency_ms(0.5)),
        per_round(&|r| r.latency_ms(0.9)),
        // CPU time comes in 10 ms ticks, about a hundredth of a round:
        // coarse, but the median across rounds shrugs off a slow burst,
        // which a whole-run total would not.
        per_round(&Round::cpu_us_per_txn),
        Summary::single(peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, summary)| Reported {
            name: m.name,
            unit: m.unit,
            summary,
            exact: false,
        })
        .collect()
}

/// The per-layer metrics of a traced run, with the layer-sum and
/// trace-overhead checks.
fn per_layer(
    workload: &dyn Workload,
    led: &Ledger,
    rounds: &[Round],
    tally: &mut Tally,
) -> Vec<Reported> {
    let mut values = LayerMetrics::new();
    workload.layer_metrics(led, &mut values);

    let all_latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    values.insert(
        "driver.commit_latency_p99_ms",
        percentile(&all_latencies, 0.99).unwrap_or(0.0),
    );
    let batches = led.total("batches");
    values.insert(
        "driver.generate_us_per_batch",
        led.ns_per("driver.generate", batches) / 1e3,
    );
    values.insert(
        "driver.verify_us_per_batch",
        led.ns_per("driver.verify", batches) / 1e3,
    );
    values.insert(
        "driver.allocs_per_txn",
        ratio(led.exact("batch.allocs") as f64, led.exact("txns") as f64),
    );
    values.insert(
        "driver.failed_share",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    // Per-layer times are as the clock saw them; this is the factor
    // that brings them to reference speed.
    let slowness: Vec<f64> = rounds.iter().map(|r| r.slowness).collect();
    values.insert("driver.host_slowness", median(&slowness));

    let batch = led.time("batch");
    let unattributed = batch.self_ns as f64 / batch.total_ns.max(1) as f64;
    values.insert("driver.unattributed_share", unattributed);
    let limit = if workload.threaded() {
        MAX_UNATTRIBUTED_THREADED
    } else {
        MAX_UNATTRIBUTED
    };
    if unattributed > limit {
        tally.problems.push(format!(
            "layer-sum check: {unattributed:.3} of batch time is in no layer span (limit {limit})"
        ));
    }

    // Each spans-on round is paired with the spans-off round after
    // it: neighbours share the host's mood, so the ratio inside a pair
    // is far steadier than a ratio of two medians. The gate fires only
    // when the overhead is resolved from host noise — above the limit
    // in at least three quarters of the pairs.
    let overheads: Vec<f64> = rounds
        .chunks_exact(2)
        .filter(|pair| pair[0].spans_on && !pair[1].spans_on && pair[1].txns > 0)
        .map(|pair| 1.0 - pair[0].rate() / pair[1].rate())
        .collect();
    values.insert("driver.trace_overhead_share", median(&overheads));
    let resolved = percentile(&overheads, 0.25).unwrap_or(0.0);
    if overheads.len() >= MIN_PAIRS_TO_GATE_OVERHEAD && resolved > MAX_TRACE_OVERHEAD {
        tally.problems.push(format!(
            "trace overhead above {MAX_TRACE_OVERHEAD} of throughput in three quarters of the round pairs (first quartile {resolved:.3})"
        ));
    }

    PER_LAYER
        .iter()
        .map(|m| Reported {
            name: m.name,
            unit: m.unit,
            summary: Summary::single(values.get(m.name).copied().unwrap_or(0.0)),
            // Real threads reproduce no count.
            exact: m.exact && !workload.threaded(),
        })
        .collect()
}

/// Prints the span ledger: where the time went, name by name, each
/// span's self time also as a share of all batch time.
fn print_ledger(led: &Ledger) {
    let batch = led.time("batch").total_ns.max(1) as f64;
    println!("# span                     total_ms      self_ms      count  self/batch");
    for (name, t) in led.totals() {
        println!(
            "# {:<22} {:>10.3} {:>12.3} {:>10}  {:.4}",
            name,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.count,
            t.self_ns as f64 / batch
        );
    }
}
