//! `compare OLD NEW`: applies each end-to-end metric's bound to every
//! (metric, workload) pair of two result files, and demands that exact
//! counts of the same seed match bit for bit.

use std::fmt;

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::stats::Summary;

/// The verdict on one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the old value by more than the bound.
    Unchanged,
    /// Worse than the old value by more than the bound.
    Regressed,
    /// The spread either median inherits from its rounds
    /// ([`Summary::spread`]) is wider than the bound, so the pair can
    /// be called neither unchanged nor regressed.
    Unresolved,
    /// An exact count differs.
    Mismatch,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "MISMATCH",
        })
    }
}

/// By how much `new` is worse than `old`, as a share of `old`
/// (negative when it is better).
pub fn worsening(better: Better, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

/// Judges a bounded metric.
pub fn judge(better: Better, bound: f64, old: Summary, new: Summary) -> Verdict {
    if old.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(better, old.median, new.median) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// The runs of a result file (or the one run of a run file).
fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

/// One side of a pair, as a run file states it.
fn side(metric: &Json) -> Option<Summary> {
    let value = metric.get("value")?.as_f64()?;
    let or_value = |key: &str| metric.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Summary {
        median: value,
        q1: or_value("q1"),
        q3: or_value("q3"),
        samples: or_value("samples") as usize,
    })
}

/// One printed row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Widest spread of the two sides (0 for exact counts).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two parsed result files: every end-to-end metric of every
/// workload present in both, then every exact count of runs that share
/// a seed.
pub fn compare(old: &Json, new: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for old_run in runs(old) {
        let key = |run: &Json| {
            (
                run.get("workload")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                run.get("trace").cloned(),
            )
        };
        let Some(new_run) = runs(new).into_iter().find(|r| key(r) == key(old_run)) else {
            continue;
        };
        let workload = key(old_run).0.unwrap_or_default();
        let same_seed = old_run.get("seed") == new_run.get("seed");
        let (Some(old_metrics), Some(new_metrics)) = (
            old_run.get("metrics").and_then(Json::as_obj),
            new_run.get("metrics"),
        ) else {
            continue;
        };
        for (name, old_metric) in old_metrics {
            let (Some(o), Some(n)) = (side(old_metric), new_metrics.get(name).and_then(side))
            else {
                continue;
            };
            let verdict = if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                judge(m.better, m.bound, o, n)
            } else if same_seed && old_metric.get("exact") == Some(&Json::Bool(true)) {
                if o.median.to_bits() == n.median.to_bits() {
                    Verdict::Unchanged
                } else {
                    Verdict::Mismatch
                }
            } else {
                // A measured per-layer metric has no bound: it explains
                // a move, it does not gate one.
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                old: o.median,
                new: n.median,
                spread: o.spread().max(n.spread()),
                verdict,
            });
        }
    }
    rows
}

/// Prints the rows, one per (workload, metric), and returns the exit
/// code: 1 if anything regressed or mismatched, 2 if anything is
/// unresolved, else 0.
pub fn report(rows: &[Row]) -> u8 {
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "old", "new", "change", "spread"
    );
    for r in rows {
        let change = if r.old == 0.0 {
            0.0
        } else {
            (r.new - r.old) / r.old.abs()
        };
        println!(
            "{:<18} {:<28} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}%  {}",
            r.workload,
            r.metric,
            r.old,
            r.new,
            change * 100.0,
            r.spread * 100.0,
            r.verdict
        );
    }
    let any = |v: Verdict| rows.iter().any(|r| r.verdict == v);
    if rows.is_empty() {
        eprintln!("the two files share no (workload, trace) run");
        1
    } else if any(Verdict::Regressed) || any(Verdict::Mismatch) {
        1
    } else if any(Verdict::Unresolved) {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value * 0.99,
            q3: value * 1.01,
            samples: 25,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 12.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn bound_separates_unchanged_from_regressed() {
        let b = 0.10;
        assert_eq!(
            judge(Better::Lower, b, tight(100.0), tight(109.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Lower, b, tight(100.0), tight(111.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, b, tight(100.0), tight(89.0)),
            Verdict::Regressed
        );
        // Getting better is never a regression.
        assert_eq!(
            judge(Better::Higher, b, tight(100.0), tight(150.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // Rounds spread over ±35 %: even a median of 25 of them is not
        // known to within a tenth.
        let noisy = Summary {
            median: 100.0,
            q1: 65.0,
            q3: 135.0,
            samples: 25,
        };
        assert_eq!(
            judge(Better::Lower, 0.10, tight(100.0), noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.10, noisy, tight(200.0)),
            Verdict::Unresolved
        );
    }

    fn run(seed: f64, rate: f64, events: f64) -> Json {
        let metric = |v: f64, exact: bool| {
            Json::obj([
                ("value", Json::Num(v)),
                ("q1", Json::Num(v)),
                ("q3", Json::Num(v)),
                ("exact", Json::Bool(exact)),
            ])
        };
        Json::obj([(
            "runs",
            Json::Arr(vec![
                Json::obj([
                    ("workload", Json::str("w")),
                    ("trace", Json::Bool(false)),
                    ("seed", Json::Num(seed)),
                    ("metrics", Json::obj([("txn_per_s", metric(rate, false))])),
                ]),
                Json::obj([
                    ("workload", Json::str("w")),
                    ("trace", Json::Bool(true)),
                    ("seed", Json::Num(seed)),
                    (
                        "metrics",
                        Json::obj([
                            ("sim.events_per_batch", metric(events, true)),
                            ("sim.serial_run_ns_per_event", metric(rate, false)),
                        ]),
                    ),
                ]),
            ]),
        )])
    }

    #[test]
    fn exact_counts_must_match_for_the_same_seed_only() {
        let rows = compare(&run(1.0, 100.0, 7.5), &run(1.0, 95.0, 7.5));
        assert_eq!(rows.len(), 2, "measured per-layer metrics are not judged");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert_eq!(report(&rows), 0);

        let rows = compare(&run(1.0, 100.0, 7.5), &run(1.0, 80.0, 7.25));
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Mismatch);
        assert_eq!(report(&rows), 1);

        // Another seed is another input: counts may differ.
        let rows = compare(&run(1.0, 100.0, 7.5), &run(2.0, 100.0, 7.25));
        assert_eq!(rows.len(), 1);
    }
}
