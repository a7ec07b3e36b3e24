//! Compares two `BENCH_rtc.json` reports and fails on regressions.
//!
//! ```bash
//! cargo run -p rtc-bench --bin bench_check -- BENCH_rtc.json target/BENCH_current.json
//! ```
//!
//! By default only deterministic metrics (allocation and message
//! counts) gate the result, at 25% tolerance: timings vary by machine
//! and would flake CI. Pass `--all` to gate wall-clock metrics too at
//! the same tolerance, `--tolerance <fraction>` to change the
//! deterministic threshold, and `--timing-tolerance <fraction>` to gate
//! wall-clock metrics (including `higher_is_better` throughput, where a
//! *drop* is the regression) at their own, typically generous, margin.

use std::path::Path;
use std::process::ExitCode;

use rtc_bench::{regressions_split, BenchReport};

const DEFAULT_TOLERANCE: f64 = 0.25;

fn load(path: &str) -> Result<BenchReport, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut baseline = None;
    let mut current = None;
    let mut include_timings = false;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut timing_tolerance = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => include_timings = true,
            "--tolerance" => {
                let v = args.next().and_then(|s| s.parse::<f64>().ok());
                match v {
                    Some(v) if v >= 0.0 => tolerance = v,
                    _ => {
                        eprintln!("--tolerance needs a non-negative fraction, e.g. 0.25");
                        return ExitCode::from(2);
                    }
                }
            }
            "--timing-tolerance" => {
                let v = args.next().and_then(|s| s.parse::<f64>().ok());
                match v {
                    Some(v) if v >= 0.0 => timing_tolerance = Some(v),
                    _ => {
                        eprintln!("--timing-tolerance needs a non-negative fraction, e.g. 3.0");
                        return ExitCode::from(2);
                    }
                }
            }
            _ if baseline.is_none() => baseline = Some(arg),
            _ if current.is_none() => current = Some(arg),
            _ => {
                eprintln!("unexpected argument: {arg}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline, current) else {
        eprintln!(
            "usage: bench_check <baseline.json> <current.json> \
             [--all] [--tolerance F] [--timing-tolerance F]"
        );
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::from(2);
        }
    };
    // `--all` gates timings at the deterministic tolerance unless a
    // dedicated `--timing-tolerance` was given.
    let timing_tolerance = match (timing_tolerance, include_timings) {
        (Some(t), _) => Some(t),
        (None, true) => Some(tolerance),
        (None, false) => None,
    };
    let found = regressions_split(&baseline, &current, tolerance, timing_tolerance);
    if found.is_empty() {
        println!(
            "bench_check: no regressions ({} vs {}, exact tolerance {:.0}%{})",
            baseline_path,
            current_path,
            tolerance * 100.0,
            match timing_tolerance {
                Some(t) => format!(", timings gated at {:.0}%", t * 100.0),
                None => String::new(),
            }
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("bench_check: {} regression(s):", found.len());
    for r in &found {
        eprintln!(
            "  {}: {} -> {} (worse by {:.1}%)",
            r.name,
            r.baseline,
            r.current,
            r.ratio * 100.0
        );
    }
    ExitCode::FAILURE
}
