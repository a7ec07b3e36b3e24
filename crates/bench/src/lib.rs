//! Benchmark harness support: the `BENCH_rtc.json` perf-trajectory
//! format shared by the `hotpath` bench (writer) and the `bench_check`
//! regression gate (reader/comparator).
//!
//! Run the suite with `cargo bench -p rtc-bench`; the criterion targets
//! live in `benches/` (one per experiment in `EXPERIMENTS.md`, plus the
//! message-hot-path suite in `benches/hotpath.rs`).
//!
//! The format is deliberately tiny — a schema tag, a run mode, and a
//! flat metric list — so it can be written and parsed here without a
//! JSON dependency (the build environment is offline; see
//! `vendor/README` context in the workspace manifest):
//!
//! ```json
//! {
//!   "schema": "rtc-bench-v1",
//!   "mode": "full",
//!   "metrics": [
//!     {"name": "alloc/fanout_allocs_per_send/n16", "value": 1.19,
//!      "unit": "allocs/send", "deterministic": true}
//!   ]
//! }
//! ```
//!
//! Metrics are flagged `deterministic` when they are exact counts that
//! cannot vary across machines (allocation counts for a fixed seed);
//! wall-clock metrics are not, and the comparator only gates on them
//! when explicitly asked (`bench_check --all`), so CI stays immune to
//! runner noise while still catching real allocation regressions.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// The schema tag every `BENCH_rtc.json` starts with.
pub const SCHEMA: &str = "rtc-bench-v1";

/// One benchmark measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Hierarchical name, e.g. `alloc/fanout_allocs_per_send/n16`.
    pub name: String,
    /// The measured value; for every metric in this suite, lower is
    /// better.
    pub value: f64,
    /// Human-readable unit, e.g. `allocs/send`, `ns/msg`, `ms`.
    pub unit: String,
    /// Whether the value is an exact machine-independent count (safe to
    /// gate CI on) rather than a wall-clock sample.
    pub deterministic: bool,
    /// Whether larger values are better (throughput metrics such as
    /// `time/sim_steps_per_sec/*`). Default `false`: most of the suite
    /// measures costs, where lower is better. Absent in older
    /// `BENCH_rtc.json` files, which predate throughput metrics.
    pub higher_is_better: bool,
}

impl Metric {
    /// A deterministic (exact-count) metric.
    pub fn exact(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            deterministic: true,
            higher_is_better: false,
        }
    }

    /// A wall-clock (machine-dependent) metric.
    pub fn timing(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            deterministic: false,
            higher_is_better: false,
        }
    }

    /// A wall-clock throughput metric: machine-dependent, and larger is
    /// better (the comparator flags *drops* beyond tolerance).
    pub fn throughput(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            deterministic: false,
            higher_is_better: true,
        }
    }
}

/// A full benchmark report: what `BENCH_rtc.json` holds.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// `"full"` for a real sampled run, `"smoke"` for a CI `--test`
    /// pass (deterministic metrics only).
    pub mode: String,
    /// The measurements, in emission order.
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            // `higher_is_better` is emitted only when set, so reports
            // without throughput metrics keep the original shape.
            let hib = if m.higher_is_better {
                ", \"higher_is_better\": true"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"deterministic\": {}{hib}}}{comma}",
                m.name,
                fmt_f64(m.value),
                m.unit,
                m.deterministic
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    ///
    /// This is a reader for exactly the subset of JSON the writer
    /// emits (flat string/number/bool fields, no escapes), not a
    /// general JSON parser.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let schema = extract_str_field(text, "schema")
            .ok_or_else(|| "missing \"schema\" field".to_string())?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?}, expected {SCHEMA:?}"
            ));
        }
        let mode =
            extract_str_field(text, "mode").ok_or_else(|| "missing \"mode\" field".to_string())?;
        let mut metrics = Vec::new();
        // Each metric object is emitted on one line; scan for them.
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if !(line.starts_with('{') && line.contains("\"name\"")) {
                continue;
            }
            let name = extract_str_field(line, "name")
                .ok_or_else(|| format!("metric line missing name: {line}"))?;
            let value = extract_raw_field(line, "value")
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("metric {name}: bad value"))?;
            let unit = extract_str_field(line, "unit")
                .ok_or_else(|| format!("metric {name}: missing unit"))?;
            let deterministic = extract_raw_field(line, "deterministic")
                .and_then(|v| v.parse::<bool>().ok())
                .ok_or_else(|| format!("metric {name}: bad deterministic flag"))?;
            let higher_is_better = extract_raw_field(line, "higher_is_better")
                .and_then(|v| v.parse::<bool>().ok())
                .unwrap_or(false);
            metrics.push(Metric {
                name,
                value,
                unit,
                deterministic,
                higher_is_better,
            });
        }
        Ok(BenchReport { mode, metrics })
    }
}

/// Formats a float so the writer↔reader round trip is exact and the
/// file stays diff-friendly (no exponent notation for our ranges).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        let s = format!("{v}");
        if s.contains('e') || s.contains('E') {
            format!("{v:.6}")
        } else {
            s
        }
    }
}

/// Extracts `"key": "value"` from a JSON fragment without escapes.
fn extract_str_field(text: &str, key: &str) -> Option<String> {
    let tagged = format!("\"{key}\":");
    let rest = &text[text.find(&tagged)? + tagged.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the raw token after `"key":` (a number or boolean).
fn extract_raw_field(text: &str, key: &str) -> Option<String> {
    let tagged = format!("\"{key}\":");
    let rest = &text[text.find(&tagged)? + tagged.len()..];
    let token: String = rest
        .trim_start()
        .chars()
        .take_while(|c| !",}] \n".contains(*c))
        .collect();
    (!token.is_empty()).then_some(token)
}

/// One metric that regressed past the tolerance.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The regressed metric's name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The relative increase, e.g. `0.4` for +40%.
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} -> {} (worse by {:.1}%, beyond tolerance)",
            self.name,
            fmt_f64(self.baseline),
            fmt_f64(self.current),
            self.ratio * 100.0
        )
    }
}

/// Compares `current` against `baseline`: any shared metric that got
/// *worse* by more than `tolerance` (relative, e.g. `0.25` for 25%) is
/// a regression. "Worse" follows the metric's direction: growth for
/// cost metrics, shrinkage for `higher_is_better` throughput metrics
/// (direction is taken from the baseline entry).
///
/// Only deterministic metrics gate by default; pass
/// `include_timings = true` to also gate wall-clock metrics (meaningful
/// only when both files come from the same machine). Metrics present
/// in only one file are ignored (adding a new benchmark is not a
/// regression).
pub fn regressions(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
    include_timings: bool,
) -> Vec<Regression> {
    regressions_split(
        baseline,
        current,
        tolerance,
        include_timings.then_some(tolerance),
    )
}

/// Like [`regressions`], but with independent tolerances per metric
/// class: `det_tolerance` for deterministic (exact-count) metrics, and
/// `timing_tolerance` for wall-clock ones (`None` skips them entirely).
/// CI gates counts exactly (`det_tolerance = 0`) while giving noisy
/// throughput samples a generous margin.
pub fn regressions_split(
    baseline: &BenchReport,
    current: &BenchReport,
    det_tolerance: f64,
    timing_tolerance: Option<f64>,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for base in &baseline.metrics {
        let tolerance = if base.deterministic {
            det_tolerance
        } else {
            match timing_tolerance {
                Some(t) => t,
                None => continue,
            }
        };
        let Some(cur) = current.get(&base.name) else {
            continue;
        };
        // Relative worsening, oriented by the metric's direction. A
        // zero baseline can only regress by moving off zero in the
        // wrong direction.
        let (worse, reference) = if base.higher_is_better {
            (base.value - cur.value, base.value)
        } else {
            (cur.value - base.value, base.value)
        };
        let ratio = if reference == 0.0 {
            if worse > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            worse / reference
        };
        if ratio > tolerance {
            out.push(Regression {
                name: base.name.clone(),
                baseline: base.value,
                current: cur.value,
                ratio,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            mode: "full".to_string(),
            metrics: vec![
                Metric::exact("alloc/fanout_allocs_per_send/n16", 1.25, "allocs/send"),
                Metric::timing("time/sync_commit_ns_per_msg/n16", 812.5, "ns/msg"),
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn parser_rejects_wrong_schema() {
        let text = sample().to_json().replace(SCHEMA, "rtc-bench-v0");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn integral_values_round_trip() {
        let report = BenchReport {
            mode: "smoke".to_string(),
            metrics: vec![Metric::exact("a", 3.0, "allocs")],
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.metrics[0].value, 3.0);
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let baseline = sample();
        let mut current = sample();
        current.metrics[0].value = 2.0; // +60% on a deterministic metric
        let regs = regressions(&baseline, &current, 0.25, false);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "alloc/fanout_allocs_per_send/n16");
        assert!(regs[0].ratio > 0.25);
    }

    #[test]
    fn improvements_and_small_noise_pass() {
        let baseline = sample();
        let mut current = sample();
        current.metrics[0].value = 1.0; // improvement
        assert!(regressions(&baseline, &current, 0.25, false).is_empty());
        current.metrics[0].value = 1.5; // +20%, inside tolerance
        assert!(regressions(&baseline, &current, 0.25, false).is_empty());
    }

    #[test]
    fn timings_gate_only_when_asked() {
        let baseline = sample();
        let mut current = sample();
        current.metrics[1].value = 10_000.0;
        assert!(regressions(&baseline, &current, 0.25, false).is_empty());
        assert_eq!(regressions(&baseline, &current, 0.25, true).len(), 1);
    }

    #[test]
    fn throughput_drops_are_regressions_and_gains_are_not() {
        let baseline = BenchReport {
            mode: "full".to_string(),
            metrics: vec![Metric::throughput(
                "time/sim_steps_per_sec/n32",
                1_000_000.0,
                "steps/sec",
            )],
        };
        let mut current = baseline.clone();
        // 5x faster: not a regression even with timings gated.
        current.metrics[0].value = 5_000_000.0;
        assert!(regressions(&baseline, &current, 0.25, true).is_empty());
        // 40% slower: flagged.
        current.metrics[0].value = 600_000.0;
        let regs = regressions(&baseline, &current, 0.25, true);
        assert_eq!(regs.len(), 1);
        assert!((regs[0].ratio - 0.4).abs() < 1e-9);
        // Throughput metrics are wall-clock: never gated without --all.
        assert!(regressions(&baseline, &current, 0.25, false).is_empty());
    }

    #[test]
    fn split_tolerances_gate_each_class_independently() {
        let baseline = BenchReport {
            mode: "full".to_string(),
            metrics: vec![
                Metric::exact("alloc/fanout_step_total/n16", 8.0, "allocs/step"),
                Metric::throughput("time/sim_steps_per_sec/n32", 1_000_000.0, "steps/sec"),
            ],
        };
        let mut current = baseline.clone();
        current.metrics[0].value = 9.0; // +12.5% on an exact count
        current.metrics[1].value = 500_000.0; // -50% throughput
                                              // Exact gate at 0 catches the count; timing margin of 100%
                                              // tolerates the throughput dip.
        let regs = regressions_split(&baseline, &current, 0.0, Some(1.0));
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "alloc/fanout_step_total/n16");
        // Tight timing margin catches the throughput drop too.
        assert_eq!(
            regressions_split(&baseline, &current, 0.0, Some(0.25)).len(),
            2
        );
        // No timing tolerance: timings skipped entirely.
        assert_eq!(regressions_split(&baseline, &current, 0.0, None).len(), 1);
    }

    #[test]
    fn higher_is_better_flag_round_trips() {
        let report = BenchReport {
            mode: "full".to_string(),
            metrics: vec![
                Metric::throughput("time/campaign_throughput/sim40", 218.0, "schedules/sec"),
                Metric::timing("time/sync_commit/n16", 500.0, "us/run"),
            ],
        };
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert!(parsed.metrics[0].higher_is_better);
        assert!(!parsed.metrics[1].higher_is_better);
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let baseline = BenchReport {
            mode: "full".to_string(),
            metrics: vec![Metric::exact("alloc/msg_clone/n16", 0.0, "allocs/clone")],
        };
        let mut current = baseline.clone();
        assert!(regressions(&baseline, &current, 0.25, false).is_empty());
        current.metrics[0].value = 1.0;
        assert_eq!(regressions(&baseline, &current, 0.25, false).len(), 1);
    }
}
