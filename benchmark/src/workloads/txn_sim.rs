//! `txn_sim_sync` and `txn_sim_chaos`: `rtc-txn` epochs on the serial
//! simulator — the loop `EpochRunner::run_epoch` runs, taken apart so
//! that each layer's call can be timed and every output checked.
//!
//! * **sync** — a 1024-key store (working set ≫ the 32-transfer batch),
//!   a tenth of the transfers overdrawing on purpose, the synchronous
//!   adversary. The `txn` layer (vote formation, `Replica`
//!   multiplexing, apply, WAL) does most of the work.
//! * **chaos** — a 64-key hot store whose balances drain (aborts arise
//!   from real conflicts), seeded random delivery plus one crash per
//!   epoch, then one survivor's encoded WAL torn by three bytes and
//!   recovered. The same layers used differently: deferred delivery,
//!   lateness, `2K` timeouts, multi-stage Protocol 1, decode/recover
//!   beside append.

use std::time::Instant;

use rtc_core::CommitConfig;
use rtc_model::{Decision, ProcessorId, SeedCollection, TimingParams};
use rtc_sim::adversaries::{
    CrashAdversary, CrashPlan, DropPolicy, RandomAdversary, SynchronousAdversary,
};
use rtc_sim::{Adversary, RunLimits, Sim, SimBuilder};
use rtc_txn::{replica_population, LogRecord, Replica, Store, Transaction, WalDamage};

use super::{ratio, Batch, LayerMetrics, Workload};
use crate::alloc::thread_allocs;
use crate::gen::{mix, Bank, BankShape, Planned, SplitMix};
use crate::ledger::Ledger;
use crate::probes::{lockstep, wal_probe};

const N: usize = 5;
const T: usize = 2;
const BATCH: usize = 32;
/// Bytes torn off the survivor's encoded log (less than one frame, so
/// exactly the last record is lost).
const TORN_BYTES: usize = 3;
/// The scripted crash lands at a seeded event in `1..=CRASH_WINDOW`. An
/// epoch runs about 75 events, so a third of the crashes come after the
/// decision and never fire: epochs with and without a crash both occur.
const CRASH_WINDOW: u64 = 120;
const PROBE_BATCHES: u64 = 32;
/// Each probe population (6 ms to validate) is cloned and stepped this
/// many times, so the probe's sample is not a handful of runs.
const PROBE_REPS: u64 = 4;

/// Stream tags for [`mix`].
const STREAM_BANK: u64 = 0;
const STREAM_SIM: u64 = 1;
const STREAM_PROBE: u64 = 2;
const STREAM_FAULTS: u64 = 3;

pub struct TxnSim {
    cfg: CommitConfig,
    chaos: bool,
    seed: u64,
    bank: Bank,
    /// The authoritative store, carried from epoch to epoch.
    store: Store,
    batch_no: u64,
}

impl TxnSim {
    fn new(seed: u64, chaos: bool, shape: BankShape) -> TxnSim {
        let bank = Bank::new(shape, mix(seed, STREAM_BANK, 0));
        TxnSim {
            cfg: CommitConfig::new(N, T, TimingParams::default()).expect("5 > 2·2"),
            chaos,
            seed,
            store: bank.opening_store(),
            bank,
            batch_no: 0,
        }
    }

    pub fn sync(seed: u64) -> TxnSim {
        // Balances far above anything the run can move, so only the
        // deliberate overdraws abort.
        TxnSim::new(
            seed,
            false,
            BankShape {
                keys: 1024,
                opening: 1_000_000,
                max_amount: 100,
                overdraw_permille: 100,
            },
        )
    }

    pub fn chaos(seed: u64) -> TxnSim {
        // Transfers of up to a third of the opening balance: accounts
        // run dry within a few epochs and stay contended.
        TxnSim::new(
            seed,
            true,
            BankShape {
                keys: 64,
                opening: 1000,
                max_amount: 300,
                overdraw_permille: 0,
            },
        )
    }

    fn adversary(&self, batch_no: u64) -> Box<dyn Adversary> {
        if !self.chaos {
            return Box::new(SynchronousAdversary::new(N));
        }
        let mut g = SplitMix::new(mix(self.seed, STREAM_FAULTS, batch_no));
        // Never the coordinator: a coordinator that dies before its GO
        // leaves the participants waiting forever, by the paper's own
        // rules, and this benchmark runs no workload on which an
        // operation fails.
        let victim = ProcessorId::new(1 + g.below(N as u64 - 1) as usize);
        let plan = CrashPlan {
            at_event: 1 + g.below(CRASH_WINDOW),
            victim,
            drop: if g.chance(500) {
                DropPolicy::DropAll
            } else {
                DropPolicy::KeepAll
            },
        };
        Box::new(CrashAdversary::new(
            RandomAdversary::new(g.next_u64()).deliver_prob(0.5),
            vec![plan],
        ))
    }

    /// Submit → verified, under the caller's root span. Returns what
    /// the epoch leaves behind (simulator, replica stores, encoded
    /// logs), with the store to carry forward first among the stores.
    fn submit(
        &mut self,
        led: &mut Ledger,
        txs: &[Transaction],
        plan: &[Planned],
        adversary: &mut dyn Adversary,
        sim_seed: u64,
    ) -> Result<Epoch, String> {
        let cfg = self.cfg;
        let procs = led.span("txn.validate", || replica_population(cfg, &self.store, txs));
        let mut sim = led
            .span("sim.build", || {
                SimBuilder::new(cfg.timing(), SeedCollection::new(sim_seed))
                    .fault_budget(cfg.fault_bound())
                    .build(procs)
            })
            .map_err(|e| format!("building the simulator: {e}"))?;
        let report = led
            .span("sim.run", || sim.run(adversary, RunLimits::default()))
            .map_err(|e| format!("adversary broke the model: {e}"))?;
        if !report.all_nonfaulty_decided() {
            return Err("epoch stalled before every surviving replica decided".into());
        }
        let survivors: Vec<ProcessorId> = ProcessorId::all(N)
            .filter(|p| !report.is_faulty(*p))
            .collect();
        let stores: Vec<Store> = led.span("txn.apply", || {
            survivors
                .iter()
                .map(|p| sim.automaton(*p).store())
                .collect()
        });
        // Every replica's log reaches its disk, the crashed one's too.
        let logs: Vec<Vec<u8>> = led.span("txn.wal_encode", || {
            ProcessorId::all(N)
                .map(|p| sim.automaton(p).wal().encode())
                .collect()
        });
        let torn = *survivors.last().expect("at most t < n crash");
        let recovered = self.chaos.then(|| {
            let bytes = &logs[torn.index()];
            led.span("txn.recover", || {
                Replica::recover_from_bytes(
                    cfg,
                    torn,
                    self.store.clone(),
                    txs,
                    &bytes[..bytes.len() - TORN_BYTES],
                )
            })
        });
        let chaos = self.chaos;
        let bank = &mut self.bank;
        led.span("driver.verify", || {
            check_epoch(&sim, &survivors, &stores, txs, plan, !chaos)?;
            let outcomes = sim.automaton(survivors[0]).outcomes();
            bank.settle(plan, txs.iter().map(|tx| outcomes[&tx.id]), &stores[0])?;
            if let Some((replica, damage)) = &recovered {
                check_recovery(sim.automaton(torn), replica, *damage, txs)?;
            }
            Ok::<(), String>(())
        })?;

        let aborted = sim
            .automaton(survivors[0])
            .outcomes()
            .values()
            .filter(|d| **d == Decision::Abort)
            .count();
        led.count("aborted", aborted as u64);
        led.count("sim.events", report.events());
        led.count("sim.delivered", sim.lateness().delivered());
        led.count("sim.late", sim.lateness().late_count());
        led.count("txn.replica_txns", (N * txs.len()) as u64);
        led.count("txn.applied", (survivors.len() * txs.len()) as u64);
        led.count(
            "wal.records",
            ProcessorId::all(N)
                .map(|p| sim.automaton(p).wal().len() as u64)
                .sum(),
        );
        led.count("wal.bytes", logs.iter().map(|l| l.len() as u64).sum());
        if chaos {
            led.count("txn.recovered", txs.len() as u64);
        }
        Ok(Epoch {
            sim,
            stores,
            logs,
            recovered: recovered.map(|(replica, _)| replica),
        })
    }
}

/// What a verified epoch leaves behind. Dropping it frees five replicas
/// and as many stores; that happens after the outcome is verified, so
/// it is timed as `txn.teardown`, outside the latency window.
#[allow(dead_code)] // held only to be dropped inside that span
struct Epoch {
    sim: Sim<Replica>,
    stores: Vec<Store>,
    logs: Vec<Vec<u8>>,
    recovered: Option<Replica>,
}

/// The per-epoch output checks: agreement across survivors, abort for
/// every overdrawing transfer, commit only where every vote was `One`
/// (and, on the failure-free on-time path, commit *wherever* every vote
/// was `One`), identical stores, WAL invariants.
fn check_epoch(
    sim: &Sim<Replica>,
    survivors: &[ProcessorId],
    stores: &[Store],
    txs: &[Transaction],
    plan: &[Planned],
    failure_free: bool,
) -> Result<(), String> {
    let reference = sim.automaton(survivors[0]);
    let outcomes = reference.outcomes();
    if outcomes.len() != txs.len() {
        return Err(format!(
            "{} decided {} of {} transactions",
            survivors[0],
            outcomes.len(),
            txs.len()
        ));
    }
    for (p, store) in survivors.iter().zip(stores).skip(1) {
        if sim.automaton(*p).outcomes() != outcomes {
            return Err(format!("{p} outcomes differ from {}", survivors[0]));
        }
        if *store != stores[0] {
            return Err(format!("{p} store differs from {}", survivors[0]));
        }
    }
    for (tx, planned) in txs.iter().zip(plan) {
        // Every replica validates against the same store, so the votes
        // are unanimous: all `One` iff the model says the debit is
        // funded.
        match (planned.funded, outcomes[&tx.id]) {
            (false, Decision::Commit) => {
                return Err(format!("{} committed an overdrawing transfer", tx.id));
            }
            (true, Decision::Abort) if failure_free => {
                return Err(format!(
                    "{} aborted on the failure-free path though every vote was One",
                    tx.id
                ));
            }
            _ => {}
        }
    }
    for p in survivors {
        sim.automaton(*p)
            .wal()
            .check_invariants()
            .map_err(|e| format!("{p} WAL: {e}"))?;
    }
    Ok(())
}

/// Recovery from the torn log must reproduce the survivor's outcomes —
/// all but the one decision the tear destroyed — and keep every vote.
fn check_recovery(
    original: &Replica,
    recovered: &Replica,
    damage: Option<WalDamage>,
    txs: &[Transaction],
) -> Result<(), String> {
    if !matches!(damage, Some(WalDamage::Torn { .. })) {
        return Err(format!("torn log decoded as {damage:?}"));
    }
    let Some(LogRecord::Decision { tx: lost, .. }) = original.wal().records().last() else {
        return Err("a decided replica's log does not end in a decision".into());
    };
    let mut expected = original.outcomes().clone();
    expected.remove(lost);
    if recovered.outcomes() != &expected {
        return Err("recovery did not reproduce the logged outcomes".into());
    }
    if recovered.wal().len() + 1 != original.wal().len() || !original.wal().extends(recovered.wal())
    {
        return Err("recovered log is not the durable prefix".into());
    }
    for tx in txs {
        if recovered.wal().vote_of(tx.id) != original.wal().vote_of(tx.id) {
            return Err(format!("recovery lost the vote for {}", tx.id));
        }
    }
    recovered
        .wal()
        .check_invariants()
        .map_err(|e| format!("recovered WAL: {e}"))
}

impl Workload for TxnSim {
    fn run_batch(&mut self, led: &mut Ledger) -> Result<Batch, String> {
        let batch_no = self.batch_no;
        self.batch_no += 1;
        led.set_batch(Some(batch_no));
        let generate = led.begin("driver.generate");
        let (txs, plan) = self.bank.next_batch(BATCH);
        let mut adversary = self.adversary(batch_no);
        let sim_seed = mix(self.seed, STREAM_SIM, batch_no);
        led.end(generate);

        let allocs = thread_allocs();
        let submitted = Instant::now();
        let root = led.begin("batch");
        let result = self.submit(led, &txs, &plan, adversary.as_mut(), sim_seed);
        led.end(root);
        let latency = submitted.elapsed();
        led.count("batch.allocs", thread_allocs() - allocs);
        let mut epoch = result?;
        led.span("txn.teardown", || {
            self.store = epoch.stores.swap_remove(0);
            drop(epoch);
        });
        Ok(Batch {
            latency,
            txns: BATCH as u64,
        })
    }

    fn probe(&mut self, led: &mut Ledger) -> Result<(), String> {
        led.set_batch(None);
        // A copy of the generator: the probe's batches never settle, so
        // the carried state is left as it was.
        let mut bank = self.bank.clone();
        for i in 0..PROBE_BATCHES {
            let (txs, _) = bank.next_batch(BATCH);
            let fresh = replica_population(self.cfg, &self.store, &txs);
            let seeds = SeedCollection::new(mix(self.seed, STREAM_PROBE, i));
            for _ in 0..PROBE_REPS {
                let mut procs = fresh.clone();
                let run = led.span("probe.txn_step", || {
                    lockstep(&mut procs, seeds, 100_000, |_, _| {})
                });
                if !run.decided {
                    return Err("lockstep probe did not decide".into());
                }
                led.count("probe.txn.steps", run.steps);
                led.count("probe.txn.replica_txns", (N * BATCH) as u64);
                wal_probe(led, procs[0].wal())?;
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, led: &Ledger, out: &mut LayerMetrics) {
        let replica_txns = led.total("txn.replica_txns");
        out.insert(
            "txn.validate_us_per_txn",
            led.ns_per("txn.validate", replica_txns) / 1e3,
        );
        out.insert(
            "txn.step_ns_per_txn",
            led.ns_per("probe.txn_step", led.total("probe.txn.replica_txns")),
        );
        out.insert(
            "txn.apply_us_per_txn",
            led.ns_per("txn.apply", led.total("txn.applied")) / 1e3,
        );
        out.insert(
            "txn.recover_us_per_txn",
            led.ns_per("txn.recover", led.total("txn.recovered")) / 1e3,
        );
        out.insert(
            "txn.wal_encode_ns_per_record",
            led.ns_per("txn.wal_encode", led.total("wal.records")),
        );
        let probed = led.total("probe.wal.records");
        out.insert(
            "txn.wal_append_ns_per_record",
            led.ns_per("probe.wal_append", probed),
        );
        out.insert(
            "txn.wal_decode_ns_per_record",
            led.ns_per("probe.wal_decode", probed),
        );
        let exact_replica_txns = led.exact("txn.replica_txns") as f64;
        out.insert(
            "txn.abort_share",
            ratio(led.exact("aborted") as f64, led.exact("txns") as f64),
        );
        out.insert(
            "txn.wal_records_per_txn",
            ratio(led.exact("wal.records") as f64, exact_replica_txns),
        );
        out.insert(
            "txn.wal_bytes_per_txn",
            ratio(led.exact("wal.bytes") as f64, exact_replica_txns),
        );

        let run_ns_per_event = led.ns_per("sim.run", led.total("sim.events"));
        out.insert("sim.serial_run_ns_per_event", run_ns_per_event);
        out.insert(
            "sim.serial_build_us_per_batch",
            led.ns_per("sim.build", led.total("batches")) / 1e3,
        );
        out.insert(
            "sim.events_per_batch",
            ratio(led.exact("sim.events") as f64, led.exact("batches") as f64),
        );
        out.insert(
            "sim.late_share",
            ratio(
                led.exact("sim.late") as f64,
                led.exact("sim.delivered") as f64,
            ),
        );
        if !self.chaos {
            // The probe steps the same automata through the same
            // schedule with no engine, so the difference per step is
            // the engine: scheduler, message store, recorder, adversary.
            let step_ns = led.ns_per("probe.txn_step", led.total("probe.txn.steps"));
            out.insert("sim.serial_self_ns_per_event", run_ns_per_event - step_ns);
        }
    }
}
