//! The repo's benchmark: an end-to-end transaction-commit benchmark
//! with a per-layer cost ledger. See `README.md` beside this package
//! for the workload and metric catalogue, and `../BENCHMARK.json` for
//! the contract the driver runs it under.
//!
//! ```text
//! rtc-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! rtc-benchmark suite --seed N [--seconds S | --smoke]          all eight runs
//! rtc-benchmark compare OLD.json NEW.json                       apply the bounds
//! ```

mod alloc;

mod catalog;
mod compare;
mod gen;
mod host;
mod json;
mod ledger;
mod probes;
mod reference;
mod run;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::process::{Command, ExitCode};

use json::Json;
use run::{RunOpts, OUT_DIR};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds of timed rounds per run when the command line names none;
/// equal to `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// `--smoke`: two short rounds per run, the whole suite inside ten
/// seconds, every workload, span and check exercised.
const SMOKE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  rtc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rtc-benchmark suite --seed <n> [--seconds <s> | --smoke]
  rtc-benchmark compare <old.json> <new.json>";

/// `--flag value` pairs and bare flags after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                out.insert("--smoke", "1");
            }
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace") => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                out.insert(flag, value.as_str());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    flag: &str,
) -> Result<Option<T>, String> {
    flags
        .get(flag)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("bad value {v:?} for {flag}"))
        })
        .transpose()
}

fn seconds(flags: &BTreeMap<&str, &str>) -> Result<f64, String> {
    let seconds = if flags.contains_key("--smoke") {
        SMOKE_SECONDS
    } else {
        parse(flags, "--seconds")?.unwrap_or(DEFAULT_SECONDS)
    };
    if seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0..=600"))
    }
}

fn one_run(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let opts = RunOpts {
        workload: flags
            .get("--workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: parse(&flags, "--seed")?.ok_or("--seed is required")?,
        seconds: seconds(&flags)?,
        trace: match flags.get("--trace").copied() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace is 0 or 1, not {other:?}")),
        },
    };
    run::run(&opts)
}

/// Runs all four workloads untraced, then all four traced — each in a
/// process of its own, so peak memory and CPU time are per run — and
/// gathers the eight run files into one result file.
fn suite(args: &[String]) -> Result<bool, String> {
    let flags = flags(args)?;
    let seed: u64 = parse(&flags, "--seed")?.ok_or("--seed is required")?;
    let seconds = seconds(&flags)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for trace in ["0", "1"] {
        for workload in workloads::NAMES {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .status()
                .map_err(|e| format!("starting the {workload} run: {e}"))?;
            all_correct &= status.success();
            let file = format!("{OUT_DIR}/run-{workload}-t{trace}-s{seed}.json");
            let text = fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
            runs.push(Json::parse(&text).map_err(|e| format!("{file}: {e}"))?);
        }
    }
    let result_file = format!("{OUT_DIR}/result-s{seed}.json");
    let result = Json::obj([
        ("schema", Json::str("rtc-benchmark-v1")),
        ("runs", Json::Arr(runs)),
    ]);
    fs::write(&result_file, result.render() + "\n")
        .map_err(|e| format!("writing {result_file}: {e}"))?;
    println!("# result file: {result_file}");
    Ok(all_correct)
}

fn compare_files(args: &[String]) -> Result<u8, String> {
    let [old, new] = args else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare::report(&compare::compare(&load(old)?, &load(new)?)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite(&args[1..]).map(|ok| u8::from(!ok)),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => one_run(&args).map(|ok| u8::from(!ok)),
        None => Err("no arguments".into()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("rtc-benchmark: {e}\n{USAGE}");
            ExitCode::from(64)
        }
    }
}
