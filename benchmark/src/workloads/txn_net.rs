//! `txn_net_tcp`: a batch of 32 transactions committed over localhost
//! TCP — `NetClusterCore::boot` → poll `all_owing_decided` → `finish`,
//! which is what `run_net_cluster` does when nothing restarts — at
//! n = 3, t = 1 with one `CommitAutomaton` instance per transaction.
//!
//! The tick is the **injected pacing delay: 1 ms per protocol step**, so
//! latency is floored at ticks × 1 ms and reflects that delay, not a
//! real network. `net` (wire encode/decode, peer links, the cluster
//! loop, boot and teardown) dominates; CPU-side gains in `core`/`txn`
//! must leave this latency unchanged and show only in `cpu_us_per_txn`.
//!
//! Known gap: a `Replica` cannot cross `rtc-net` — its `Vec<TxMsg>`
//! message has no `Wire` impl and the orphan rule keeps this package
//! from adding one — and the thread substrates return statuses, not
//! automata. So vote formation, the WAL and apply run here in the
//! driver, through the same `Store`/`Wal` functions a `Replica` calls.

use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

use rtc_core::{CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{Decision, ProcessorId, SeedCollection, TimingParams, Value};
use rtc_net::{Frame, NetClusterCore, NetOptions, NetReport};
use rtc_runtime::FaultPlan;
use rtc_txn::{LogRecord, Store, Transaction, TxId, Wal};

use super::{ratio, Batch, LayerMetrics, Workload, NET_TICK as TICK};
use crate::gen::{mix, Bank, BankShape, Planned};
use crate::ledger::Ledger;
use crate::probes::{lockstep, wire_probe};

const N: usize = 3;
const T: usize = 1;
const BATCH: usize = 32;
/// A batch that has not decided by then counts as failed.
const WALL_TIMEOUT: Duration = Duration::from_secs(5);
const PROBE_REPS: u64 = 32;

const STREAM_BANK: u64 = 0;
const STREAM_INSTANCES: u64 = 1;
const STREAM_PROBE: u64 = 2;

pub struct TxnNet {
    cfg: CommitConfig,
    opts: NetOptions,
    seed: u64,
    bank: Bank,
    /// One store per replica, each applied from its own decisions.
    stores: Vec<Store>,
    batch_no: u64,
}

impl TxnNet {
    pub fn new(seed: u64) -> TxnNet {
        let timing = TimingParams::default();
        let bank = Bank::new(
            BankShape {
                keys: 64,
                opening: 1_000_000,
                max_amount: 100,
                overdraw_permille: 100,
            },
            mix(seed, STREAM_BANK, 0),
        );
        let mut opts = NetOptions::derived(TICK, timing);
        opts.wall_timeout = WALL_TIMEOUT;
        TxnNet {
            cfg: CommitConfig::new(N, T, timing).expect("3 > 2·1"),
            opts,
            seed,
            stores: vec![bank.opening_store(); N],
            bank,
            batch_no: 0,
        }
    }

    /// One population per transaction, replica `i` voting `votes[i][k]`.
    fn instances(&self, votes: &[Vec<Value>]) -> Vec<Vec<CommitAutomaton>> {
        (0..BATCH)
            .map(|k| {
                ProcessorId::all(N)
                    .map(|p| CommitAutomaton::new(self.cfg, p, votes[p.index()][k]))
                    .collect()
            })
            .collect()
    }

    fn seeds(&self, stream: u64, batch_no: u64) -> Vec<SeedCollection> {
        (0..BATCH as u64)
            .map(|k| SeedCollection::new(mix(self.seed, stream, batch_no * BATCH as u64 + k)))
            .collect()
    }

    /// Submit → verified, under the caller's root span.
    fn submit(
        &mut self,
        led: &mut Ledger,
        txs: &[Transaction],
        plan: &[Planned],
        seeds: Vec<SeedCollection>,
    ) -> Result<(), String> {
        let votes: Vec<Vec<Value>> = led.span("txn.validate", || {
            self.stores
                .iter()
                .map(|store| {
                    txs.iter()
                        .map(|tx| Value::from_bool(store.validates(tx)))
                        .collect()
                })
                .collect()
        });
        // Write-ahead: the vote is logged before it can be sent.
        let mut wals: Vec<Wal> = led.span("txn.wal_append", || {
            votes
                .iter()
                .map(|mine| {
                    let mut wal = Wal::new();
                    for (tx, vote) in txs.iter().zip(mine) {
                        wal.append(LogRecord::Vote {
                            tx: tx.id,
                            vote: *vote,
                        });
                    }
                    wal
                })
                .collect()
        });
        let instances = led.span("core.build", || self.instances(&votes));

        let core = led.span("net.boot", || {
            NetClusterCore::boot(instances, seeds, FaultPlan::none(), &self.opts)
        });
        let decided = led.span("net.decide", || {
            let booted = Instant::now();
            loop {
                if core.all_owing_decided() {
                    break true;
                }
                if booted.elapsed() >= WALL_TIMEOUT {
                    break false;
                }
                thread::sleep(TICK);
            }
        });
        let report = led.span("net.finish", || core.finish(vec![false; N], decided));
        count_net(led, &report);
        if !decided {
            return Err(format!(
                "no decision within the {WALL_TIMEOUT:?} wall timeout"
            ));
        }

        let decisions = decisions_of(&report)?;
        led.span("txn.wal_append", || {
            for (wal, mine) in wals.iter_mut().zip(&decisions) {
                for (tx, decision) in txs.iter().zip(mine) {
                    wal.append(LogRecord::Decision {
                        tx: tx.id,
                        decision: *decision,
                    });
                }
            }
        });
        let logs: Vec<Vec<u8>> =
            led.span("txn.wal_encode", || wals.iter().map(Wal::encode).collect());
        let stores: Vec<Store> = led.span("txn.apply", || {
            self.stores
                .iter()
                .zip(&decisions)
                .map(|(store, mine)| {
                    let committed: BTreeMap<TxId, Transaction> = txs
                        .iter()
                        .zip(mine)
                        .filter(|(_, d)| **d == Decision::Commit)
                        .map(|(tx, _)| (tx.id, tx.clone()))
                        .collect();
                    Store::rebuild(store, &committed)
                })
                .collect()
        });
        let bank = &mut self.bank;
        led.span("driver.verify", || {
            check_round(&report, &decisions, &stores, &wals, txs, plan)?;
            bank.settle(plan, decisions[0].iter().copied(), &stores[0])
        })?;

        let aborted = decisions[0].iter().filter(|d| **d == Decision::Abort);
        led.count("aborted", aborted.count() as u64);
        led.count("txn.replica_txns", (N * BATCH) as u64);
        led.count("wal.records", wals.iter().map(|w| w.len() as u64).sum());
        led.count("wal.bytes", logs.iter().map(|l| l.len() as u64).sum());
        self.stores = stores;
        Ok(())
    }
}

fn count_net(led: &mut Ledger, report: &NetReport) {
    led.count("net.ticks", report.instances[0].steps[0]);
    led.count("net.frames", report.stats.frames_sent);
    led.count("net.deliveries", report.stats.deliveries);
    led.count("net.late", report.stats.late_deliveries);
    led.count("net.reconnects", report.stats.reconnects);
    led.count("net.frames_dropped", report.stats.frames_dropped);
    led.count("net.links_given_up", report.stats.links_given_up);
}

/// `decisions[i][k]`: replica `i`'s decision for transaction `k`.
fn decisions_of(report: &NetReport) -> Result<Vec<Vec<Decision>>, String> {
    (0..N)
        .map(|i| {
            report
                .instances
                .iter()
                .enumerate()
                .map(|(k, instance)| {
                    instance.statuses[i]
                        .decision()
                        .ok_or_else(|| format!("replica {i} left transaction {k} undecided"))
                })
                .collect()
        })
        .collect()
}

/// The per-round output checks: everything decided, agreement, forced
/// aborts honoured (commit only where every vote was `One`), identical
/// stores, WAL invariants.
///
/// The converse — commit *wherever* every vote was `One` — is promised
/// only to failure-free on-time runs, and real threads on shared cores
/// are not on time: a node thread descheduled for `2K` ticks makes its
/// peers time out and abort although no message was late, so not even
/// `NetRunStats::on_time` licenses that check (one batch in 50 000 here).
fn check_round(
    report: &NetReport,
    decisions: &[Vec<Decision>],
    stores: &[Store],
    wals: &[Wal],
    txs: &[Transaction],
    plan: &[Planned],
) -> Result<(), String> {
    if !report.all_decided() {
        return Err("not every instance decided".into());
    }
    if !report.agreement_holds() || decisions.iter().any(|d| *d != decisions[0]) {
        return Err("replicas disagree".into());
    }
    for ((tx, planned), decision) in txs.iter().zip(plan).zip(&decisions[0]) {
        if !planned.funded && *decision == Decision::Commit {
            return Err(format!("{} committed an overdrawing transfer", tx.id));
        }
    }
    if stores.iter().any(|s| *s != stores[0]) {
        return Err("replica stores differ".into());
    }
    for (i, wal) in wals.iter().enumerate() {
        wal.check_invariants()
            .map_err(|e| format!("replica {i} WAL: {e}"))?;
    }
    Ok(())
}

impl Workload for TxnNet {
    fn run_batch(&mut self, led: &mut Ledger) -> Result<Batch, String> {
        let batch_no = self.batch_no;
        self.batch_no += 1;
        led.set_batch(Some(batch_no));
        let generate = led.begin("driver.generate");
        let (txs, plan) = self.bank.next_batch(BATCH);
        let seeds = self.seeds(STREAM_INSTANCES, batch_no);
        led.end(generate);

        let submitted = Instant::now();
        let root = led.begin("batch");
        let result = self.submit(led, &txs, &plan, seeds);
        led.end(root);
        let latency = submitted.elapsed();
        result.map(|()| Batch {
            latency,
            txns: BATCH as u64,
        })
    }

    fn probe(&mut self, led: &mut Ledger) -> Result<(), String> {
        led.set_batch(None);
        // Capture the message mix of one engine-less batch: the frames
        // a round puts on the wire, minus the wire.
        let votes = vec![vec![Value::One; BATCH]; N];
        let seeds = self.seeds(STREAM_PROBE, 0);
        let mut mix: Vec<Frame<CommitMsg>> = Vec::new();
        for (k, (mut procs, seeds)) in self.instances(&votes).into_iter().zip(seeds).enumerate() {
            let run = lockstep(&mut procs, seeds, 100_000, |from, send| {
                mix.push(Frame {
                    from,
                    instance: k as u32,
                    sent_at_tick: mix.len() as u64 / 8,
                    sent_event: mix.len() as u64,
                    msg: send.msg.clone(),
                });
            });
            if !run.decided {
                return Err("engine-less n=3 instance did not decide".into());
            }
        }
        for _ in 0..PROBE_REPS {
            wire_probe(led, &mix)?;
        }
        Ok(())
    }

    fn threaded(&self) -> bool {
        true
    }

    fn layer_metrics(&self, led: &Ledger, out: &mut LayerMetrics) {
        let batches = led.total("batches");
        out.insert(
            "txn.validate_us_per_txn",
            led.ns_per("txn.validate", led.total("txn.replica_txns")) / 1e3,
        );
        out.insert(
            "txn.apply_us_per_txn",
            led.ns_per("txn.apply", led.total("txn.replica_txns")) / 1e3,
        );
        let records = led.total("wal.records");
        out.insert(
            "txn.wal_append_ns_per_record",
            led.ns_per("txn.wal_append", records),
        );
        out.insert(
            "txn.wal_encode_ns_per_record",
            led.ns_per("txn.wal_encode", records),
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

        out.insert("net.boot_ms", led.ns_per("net.boot", batches) / 1e6);
        out.insert("net.decide_ms", led.ns_per("net.decide", batches) / 1e6);
        out.insert("net.finish_ms", led.ns_per("net.finish", batches) / 1e6);
        out.insert(
            "net.ticks_per_round",
            ratio(led.total("net.ticks") as f64, batches as f64),
        );
        out.insert(
            "net.frames_per_txn",
            ratio(led.total("net.frames") as f64, led.total("txns") as f64),
        );
        out.insert(
            "net.late_share",
            ratio(
                led.total("net.late") as f64,
                led.total("net.deliveries") as f64,
            ),
        );
        out.insert("net.reconnects", led.total("net.reconnects") as f64);
        out.insert("net.frames_dropped", led.total("net.frames_dropped") as f64);
        out.insert("net.links_given_up", led.total("net.links_given_up") as f64);
        let frames = led.total("probe.net.frames");
        out.insert(
            "net.encode_ns_per_frame",
            led.ns_per("probe.net_encode", frames),
        );
        out.insert(
            "net.decode_ns_per_frame",
            led.ns_per("probe.net_decode", frames),
        );
        out.insert(
            "net.bytes_per_frame",
            ratio(led.total("probe.net.bytes") as f64, frames as f64),
        );
    }
}
