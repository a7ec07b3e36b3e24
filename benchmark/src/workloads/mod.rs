//! The four workloads. Each is a closed loop of one client with one
//! batch in flight, run by the single driver thread; threads the system
//! under test spawns (`rtc-net`) are the program, not the generator.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::ledger::Ledger;

mod commit_batch;
mod txn_net;
mod txn_sim;

/// What one batch did.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    /// Submit (the driver hands the batch to the system) to outcome
    /// verified on every surviving replica.
    pub latency: Duration,
    /// Transactions decided (commit or abort), durable and applied.
    pub txns: u64,
}

/// Per-layer metric values by catalogue name; a name a workload does
/// not exercise stays absent and is reported as 0.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One workload: its state carried from batch to batch, and how to read
/// its layers out of the ledger.
pub trait Workload {
    /// Generates, submits and verifies one batch.
    ///
    /// # Errors
    ///
    /// A description of the first output check the batch failed
    /// (stall, divergence, validity, WAL invariant, wall timeout).
    fn run_batch(&mut self, led: &mut Ledger) -> Result<Batch, String>;

    /// Runs this workload's engine-less probes (traced runs only,
    /// before the timed rounds; must not disturb the carried state).
    ///
    /// # Errors
    ///
    /// A description of the probe self-check that failed.
    fn probe(&mut self, led: &mut Ledger) -> Result<(), String>;

    /// Derives this workload's per-layer metrics from the ledger.
    fn layer_metrics(&self, led: &Ledger, out: &mut LayerMetrics);

    /// Whether the system under test runs threads of its own, so that
    /// counts do not repeat for a seed and hand-offs sit between spans.
    fn threaded(&self) -> bool {
        false
    }
}

/// `txn_net_tcp`'s tick: the pacing delay injected per protocol step.
/// Stated in every result file, because that workload's latency
/// reflects this delay, not a real network.
pub const NET_TICK: Duration = Duration::from_millis(1);

/// The workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = [
    "txn_sim_sync",
    "txn_sim_chaos",
    "commit_batch_n16",
    "txn_net_tcp",
];

/// Builds workload `name` from `seed` and runs its fixed warm-up (so
/// pools are warm and lazy set-up is done before the first timed
/// round). This whole call is what `setup_s` times.
///
/// # Errors
///
/// An unknown name, or a warm-up batch that failed its checks.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let (mut workload, warmup): (Box<dyn Workload>, u32) = match name {
        "txn_sim_sync" => (Box::new(txn_sim::TxnSim::sync(seed)), 16),
        "txn_sim_chaos" => (Box::new(txn_sim::TxnSim::chaos(seed)), 128),
        "commit_batch_n16" => (Box::new(commit_batch::CommitBatch::new(seed)), 16),
        "txn_net_tcp" => (Box::new(txn_net::TxnNet::new(seed)), 4),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    };
    let mut off = Ledger::new(false);
    for _ in 0..warmup {
        workload.run_batch(&mut off)?;
    }
    Ok(workload)
}

/// `part / whole`, or 0 when the workload never produced `whole`.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
