//! `commit_batch_n16`: the gated `n16_b64` shape — 64 independent
//! all-`One` commit instances at n = 16, t = 7, stepped to decision
//! through one single-threaded `BatchSim`, its pool recycled from batch
//! to batch. One instance is one transaction's decision.
//!
//! No store, no WAL, no sockets: `core` ingest and the `sim` batch
//! plane (store slab, SoA recorder) do all the work. A `txn` or `net`
//! change must not move this workload.

use std::time::Instant;

use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{SeedCollection, TimingParams, Value};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{BatchPool, BatchSim, BatchSimBuilder, RunLimits, SimBuilder};

use super::{ratio, Batch, LayerMetrics, Workload};
use crate::alloc::thread_allocs;
use crate::gen::mix;
use crate::ledger::Ledger;
use crate::probes::lockstep;

const N: usize = 16;
const T: usize = 7;
const LANES: usize = 64;
const PROBE_INSTANCES: u64 = 256;

const STREAM_LANES: u64 = 0;
const STREAM_PROBE: u64 = 1;

pub struct CommitBatch {
    cfg: CommitConfig,
    seed: u64,
    votes: Vec<Value>,
    /// The previous batch's recycled allocations.
    pool: BatchPool<CommitMsg>,
    batch_no: u64,
}

impl CommitBatch {
    pub fn new(seed: u64) -> CommitBatch {
        CommitBatch {
            cfg: CommitConfig::new(N, T, TimingParams::default()).expect("16 > 2·7"),
            seed,
            votes: vec![Value::One; N],
            pool: BatchPool::new(),
            batch_no: 0,
        }
    }

    fn build(&mut self, batch_no: u64) -> Result<BatchSim<CommitAutomaton>, String> {
        let mut builder = BatchSimBuilder::from_pool(std::mem::take(&mut self.pool));
        for lane in 0..LANES as u64 {
            let seeds =
                SeedCollection::new(mix(self.seed, STREAM_LANES, batch_no * LANES as u64 + lane));
            builder
                .instance(
                    SimBuilder::new(self.cfg.timing(), seeds).fault_budget(self.cfg.fault_bound()),
                    commit_population(self.cfg, &self.votes),
                )
                .map_err(|e| format!("adding lane {lane}: {e}"))?;
        }
        Ok(builder.build())
    }

    /// Submit → verified, under the caller's root span.
    fn submit(
        &mut self,
        led: &mut Ledger,
        batch_no: u64,
        adversaries: &mut [SynchronousAdversary],
    ) -> Result<BatchSim<CommitAutomaton>, String> {
        let mut batch = led.span("sim.build", || self.build(batch_no))?;
        let allocs = thread_allocs();
        let reports = led
            .span("sim.run", || batch.run(adversaries, RunLimits::default()))
            .map_err(|e| format!("adversary broke the model: {e}"))?;
        led.count("sim.run_allocs", thread_allocs() - allocs);
        led.count("sim.events", reports.iter().map(|r| r.events()).sum());
        led.span("driver.verify", || check_lanes(&batch, &reports))?;
        Ok(batch)
    }
}

/// All 64 lanes decided `Commit` everywhere, failure-free and on-time.
fn check_lanes(
    batch: &BatchSim<CommitAutomaton>,
    reports: &[rtc_sim::RunReport],
) -> Result<(), String> {
    if reports.len() != LANES {
        return Err(format!("{} reports for {LANES} lanes", reports.len()));
    }
    for (lane, report) in reports.iter().enumerate() {
        if report.stalled() || !report.all_nonfaulty_decided() {
            return Err(format!("lane {lane} stalled"));
        }
        let decisions = batch.decisions(lane);
        if decisions.len() != N || decisions.iter().any(|d| d.value != Value::One) {
            return Err(format!("lane {lane} did not commit at every processor"));
        }
        // The online monitor's verdict: `is_on_time` would re-derive it
        // from the trace at O(messages × n) per lane.
        if !batch.failure_free(lane) || !batch.lateness(lane).on_time() {
            return Err(format!("lane {lane} was not failure-free and on-time"));
        }
    }
    Ok(())
}

impl Workload for CommitBatch {
    fn run_batch(&mut self, led: &mut Ledger) -> Result<Batch, String> {
        let batch_no = self.batch_no;
        self.batch_no += 1;
        led.set_batch(Some(batch_no));
        let generate = led.begin("driver.generate");
        let mut adversaries: Vec<SynchronousAdversary> =
            (0..LANES).map(|_| SynchronousAdversary::new(N)).collect();
        led.end(generate);

        let allocs = thread_allocs();
        let submitted = Instant::now();
        let root = led.begin("batch");
        let result = self.submit(led, batch_no, &mut adversaries);
        led.end(root);
        let latency = submitted.elapsed();
        led.count("batch.allocs", thread_allocs() - allocs);
        led.count("sim.instances", LANES as u64);

        // Teardown into the pool is part of the cycle, not of the
        // latency a client sees: the outcome is already verified. (A
        // failed batch is dropped and the next one starts cold.)
        self.pool = led.span("sim.recycle", || result.map(BatchSim::into_pool))?;
        Ok(Batch {
            latency,
            txns: LANES as u64,
        })
    }

    fn probe(&mut self, led: &mut Ledger) -> Result<(), String> {
        led.set_batch(None);
        for i in 0..PROBE_INSTANCES {
            let mut procs = commit_population(self.cfg, &self.votes);
            let seeds = SeedCollection::new(mix(self.seed, STREAM_PROBE, i));
            let allocs = thread_allocs();
            let run = led.span("probe.core_step", || {
                lockstep(&mut procs, seeds, 100_000, |_, _| {})
            });
            led.count("probe.core.allocs", thread_allocs() - allocs);
            if !run.decided {
                return Err("engine-less n=16 instance did not decide".into());
            }
            led.count("probe.core.instances", 1);
            led.count("probe.core.steps", run.steps);
            led.count("probe.core.msgs", run.sends);
        }
        Ok(())
    }

    fn layer_metrics(&self, led: &Ledger, out: &mut LayerMetrics) {
        let probed = led.exact("probe.core.instances") as f64;
        let core_ns = led.ns_per("probe.core_step", led.total("probe.core.instances"));
        out.insert("core.step_ns_per_instance", core_ns);
        out.insert(
            "core.steps_per_instance",
            ratio(led.exact("probe.core.steps") as f64, probed),
        );
        out.insert(
            "core.msgs_per_instance",
            ratio(led.exact("probe.core.msgs") as f64, probed),
        );
        out.insert(
            "core.allocs_per_instance",
            ratio(led.exact("probe.core.allocs") as f64, probed),
        );

        let instances = led.total("sim.instances");
        let run_ns = led.ns_per("sim.run", instances);
        out.insert("sim.batch_run_ns_per_instance", run_ns);
        // Same automata, same votes, same schedule, same message count
        // with no engine around them: what is left is the batch plane —
        // engine loop, store slab, recorder.
        out.insert("sim.batch_self_ns_per_instance", run_ns - core_ns);
        out.insert(
            "sim.batch_build_ns_per_instance",
            led.ns_per("sim.build", instances),
        );
        let exact_instances = led.exact("sim.instances") as f64;
        out.insert(
            "sim.events_per_instance",
            ratio(led.exact("sim.events") as f64, exact_instances),
        );
        out.insert(
            "sim.allocs_per_instance",
            ratio(led.exact("sim.run_allocs") as f64, exact_instances),
        );
    }
}
