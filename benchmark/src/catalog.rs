//! The metric catalogue: every name this benchmark reports, with its
//! unit, direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` states the same catalogue for the driver; a unit
//! test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// As spelled in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, gated by `bound`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer; no bound of its own.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Name, prefixed with the crate it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (stated for `BENCHMARK.json`; nothing gates on it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Whether the value is a count that repeats exactly for a seed on
    /// the simulated workloads (so `compare` demands equality).
    pub exact: bool,
}

use Better::{Higher, Lower};

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "commit_latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "commit_latency_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A measured quantity (a time, or a count real threads produce).
const fn measured(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Lower,
        exact: false,
    }
}

/// A count the simulator reproduces exactly for a seed.
const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Lower,
        exact: true,
    }
}

const fn share(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "share",
        better: Lower,
        exact: false,
    }
}

/// The per-layer metrics, layers named after the crates.
pub const PER_LAYER: [Layer; 44] = [
    measured("txn.validate_us_per_txn", "us"),
    measured("txn.step_ns_per_txn", "ns"),
    measured("txn.apply_us_per_txn", "us"),
    measured("txn.recover_us_per_txn", "us"),
    measured("txn.wal_append_ns_per_record", "ns"),
    measured("txn.wal_encode_ns_per_record", "ns"),
    measured("txn.wal_decode_ns_per_record", "ns"),
    Layer {
        name: "txn.abort_share",
        unit: "share",
        better: Lower,
        exact: true,
    },
    exact("txn.wal_records_per_txn", "count"),
    exact("txn.wal_bytes_per_txn", "bytes"),
    measured("core.step_ns_per_instance", "ns"),
    exact("core.steps_per_instance", "count"),
    exact("core.msgs_per_instance", "count"),
    exact("core.allocs_per_instance", "count"),
    measured("sim.batch_run_ns_per_instance", "ns"),
    measured("sim.batch_self_ns_per_instance", "ns"),
    measured("sim.batch_build_ns_per_instance", "ns"),
    exact("sim.events_per_instance", "count"),
    exact("sim.allocs_per_instance", "count"),
    measured("sim.serial_run_ns_per_event", "ns"),
    measured("sim.serial_self_ns_per_event", "ns"),
    measured("sim.serial_build_us_per_batch", "us"),
    exact("sim.events_per_batch", "count"),
    Layer {
        name: "sim.late_share",
        unit: "share",
        better: Lower,
        exact: true,
    },
    measured("net.boot_ms", "ms"),
    measured("net.decide_ms", "ms"),
    measured("net.finish_ms", "ms"),
    measured("net.ticks_per_round", "count"),
    measured("net.frames_per_txn", "count"),
    measured("net.encode_ns_per_frame", "ns"),
    measured("net.decode_ns_per_frame", "ns"),
    measured("net.bytes_per_frame", "bytes"),
    share("net.late_share"),
    measured("net.reconnects", "count"),
    measured("net.frames_dropped", "count"),
    measured("net.links_given_up", "count"),
    measured("driver.commit_latency_p99_ms", "ms"),
    measured("driver.generate_us_per_batch", "us"),
    measured("driver.verify_us_per_batch", "us"),
    exact("driver.allocs_per_txn", "count"),
    share("driver.unattributed_share"),
    share("driver.trace_overhead_share"),
    share("driver.failed_share"),
    measured("driver.host_slowness", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::NAMES;

    fn spec() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_states_this_catalogue() {
        let spec = spec();
        let e2e = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = spec.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, NAMES);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(NAMES);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
