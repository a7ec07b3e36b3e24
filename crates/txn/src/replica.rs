//! A database replica: one commit-protocol instance per transaction,
//! multiplexed over a single automaton.
//!
//! A replica's message is a bundle of per-transaction protocol
//! messages. Stepping merge-joins the delivered bundles with the batch
//! — both are [`TxId`] ascending, so an instance reads its messages
//! where the substrate stored them, at the front of each bundle, with
//! no lookup and no per-instance inbox — and gathers what the instances
//! broadcast into **one** bundle, broadcast once. Only a destination
//! that some instance addressed directly (a rejoiner owed a ping reply)
//! gets a bundle of its own: the broadcast bundle with those direct
//! messages substituted in, which is what that destination would have
//! received had every instance unrolled its own broadcast.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rtc_core::{CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{Automaton, Decision, Outbox, ProcessorId, Recoverable, Status, StepRng, Value};

use crate::store::{Store, Transaction, TxId};
use crate::wal::{LogRecord, Wal};

/// One transaction's worth of protocol traffic.
pub type TxMsg = (TxId, CommitMsg);

/// Progress summary of a replica's batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxBatchStatus {
    /// Transactions decided commit.
    pub committed: Vec<TxId>,
    /// Transactions decided abort.
    pub aborted: Vec<TxId>,
    /// Transactions still undecided.
    pub pending: Vec<TxId>,
}

/// A replica of the distributed database: validates a batch of
/// transactions against its local store, runs one Coan–Lundelius commit
/// instance per transaction, write-ahead-logs every vote and decision,
/// and applies the committed set in [`TxId`] order.
///
/// The replica is itself an [`Automaton`] (messages are bundles of
/// per-transaction protocol messages), so whole batches run unchanged
/// on the discrete-event simulator or the threaded runtime.
///
/// What an epoch's replicas have in common is held once: the opening
/// store is a copy-on-write [`Store`] handle and the batch, sorted by
/// [`TxId`], is one shared slice. A transaction's *slot* is its rank in
/// that slice; everything per-transaction on the replica, its decision
/// included, is a `Vec` indexed by slot.
#[derive(Clone)]
pub struct Replica {
    id: ProcessorId,
    initial: Store,
    batch: Arc<[Transaction]>,
    slots: Vec<Slot>,
    /// Slots with a decision.
    decided: usize,
    /// Slots decided commit.
    committed: usize,
    /// The decisions keyed by [`TxId`], derived from the slots on first
    /// read; emptied whenever a decision lands.
    outcomes: OnceLock<BTreeMap<TxId, Decision>>,
    wal: Wal,
    cfg: CommitConfig,
    /// Step scratch: what the instance being stepped sent.
    instance_out: Outbox<CommitMsg>,
    /// Step scratch: this step's direct sends, in [`TxId`] order. Empty
    /// between steps.
    directs: Vec<(ProcessorId, TxMsg)>,
}

/// One transaction's state on a replica.
#[derive(Clone)]
struct Slot {
    /// `None` once recovery adopted a logged decision: such a
    /// transaction is not re-run.
    instance: Option<CommitAutomaton>,
    decision: Option<Decision>,
}

/// The batch as every replica of the epoch shares it: sorted by
/// [`TxId`], ids distinct.
fn share_batch(batch: &[Transaction]) -> Arc<[Transaction]> {
    let mut txs = batch.to_vec();
    txs.sort_by_key(|tx| tx.id);
    if let Some(pair) = txs.windows(2).find(|pair| pair[0].id == pair[1].id) {
        panic!("duplicate transaction id {}", pair[0].id);
    }
    txs.into()
}

/// The vote local validation gives.
fn validated_vote(store: &Store, tx: &Transaction) -> Value {
    Value::from_bool(store.validates(tx))
}

/// [`Replica::recover`]'s answer for a transaction the log is silent on.
fn vote_required(_: &Store, tx: &Transaction) -> Value {
    panic!("no logged vote for {}", tx.id)
}

impl Replica {
    /// Creates the replica for processor `id` over `batch`, voting per
    /// local validation against `initial`. Each transaction is
    /// validated on its own against `initial`; votes are logged in
    /// [`TxId`] order.
    ///
    /// # Panics
    ///
    /// Panics if `batch` contains duplicate transaction ids.
    pub fn new(
        cfg: CommitConfig,
        id: ProcessorId,
        initial: Store,
        batch: &[Transaction],
    ) -> Replica {
        Replica::from_log(
            cfg,
            id,
            initial,
            share_batch(batch),
            Wal::new(),
            validated_vote,
        )
    }

    /// Creates the replica with explicit per-transaction votes
    /// (overriding local validation — useful to model replica-local
    /// constraints such as liens or resource reservations the store
    /// does not capture).
    ///
    /// # Panics
    ///
    /// Panics if `batch` contains duplicate transaction ids, or if
    /// `votes` does not cover exactly the batch ids.
    pub fn with_votes(
        cfg: CommitConfig,
        id: ProcessorId,
        initial: Store,
        batch: &[Transaction],
        votes: &BTreeMap<TxId, Value>,
    ) -> Replica {
        let batch = share_batch(batch);
        assert_eq!(
            votes.len(),
            batch.len(),
            "votes must cover exactly the batch"
        );
        Replica::from_log(cfg, id, initial, batch, Wal::new(), |_, tx| {
            *votes.get(&tx.id).expect("one vote per transaction")
        })
    }

    /// Reconstructs a replica from its write-ahead log after a restart.
    ///
    /// Votes are pinned to the logged votes (a restarted replica must
    /// honour what it promised), and logged decisions are adopted
    /// outright — decided transactions are *not* re-run. Protocol
    /// instances are recreated only for transactions that were still
    /// undecided at the crash.
    ///
    /// The recreated instances come up in *rejoining* mode: instead of
    /// re-running the protocol from scratch (whose replayed coin flips
    /// could contradict messages the pre-crash incarnation already
    /// sent), they ping their peers and adopt the decided value from
    /// the `Decided` replies — even already-halted peers answer pings
    /// directly. A replica restarting into a *dead* population simply
    /// stays pending for its undecided transactions, which is the
    /// restart-after-quiescence path (e.g. replaying the log to rebuild
    /// the store).
    ///
    /// # Panics
    ///
    /// Panics if `batch` contains duplicate transaction ids, if the log
    /// lacks a vote for some transaction in `batch`, or if it fails its
    /// invariants.
    pub fn recover(
        cfg: CommitConfig,
        id: ProcessorId,
        initial: Store,
        batch: &[Transaction],
        wal: &Wal,
    ) -> Replica {
        Replica::from_log(
            cfg,
            id,
            initial,
            share_batch(batch),
            wal.clone(),
            vote_required,
        )
    }

    /// Reconstructs a replica from the *encoded* write-ahead log bytes
    /// on stable storage, tolerating a damaged tail.
    ///
    /// The bytes are decoded with [`Wal::decode`], which truncates at
    /// the first torn or corrupt record instead of erroring: the
    /// surviving prefix is exactly what the pre-crash replica durably
    /// promised. Recovery then proceeds as in [`Replica::recover`],
    /// with one addition — a transaction whose *vote* record was lost
    /// to the tear was never promised anything, so the replica is free
    /// to vote afresh by local validation (and logs that vote). A
    /// transaction whose *decision* was torn off rejoins as pending and
    /// catches up from its peers.
    ///
    /// Returns the recovered replica and the damage found, if any.
    ///
    /// # Panics
    ///
    /// Panics if `batch` contains duplicate transaction ids.
    pub fn recover_from_bytes(
        cfg: CommitConfig,
        id: ProcessorId,
        initial: Store,
        batch: &[Transaction],
        bytes: &[u8],
    ) -> (Replica, Option<crate::wal::WalDamage>) {
        let (wal, damage) = Wal::decode(bytes);
        let replica = Replica::from_log(cfg, id, initial, share_batch(batch), wal, validated_vote);
        (replica, damage)
    }

    /// Every constructor: the replica over the shared `batch` that a
    /// process holding `wal` on stable storage comes up as. Per
    /// transaction, by what the log holds:
    ///
    /// * a decision — adopted; no instance;
    /// * a vote only — the WAL pins the vote but not the in-flight
    ///   protocol traffic, so the instance is an amnesiac observer: it
    ///   catches up by pinging instead of replaying (which could
    ///   equivocate);
    /// * nothing — the vote never reached stable storage, so it was
    ///   never sent either (write-ahead ordering): a fresh participant
    ///   voting `first_vote`, logged before anything is sent.
    ///
    /// `first_vote` is asked in slot order. A fresh replica is the
    /// empty-log case, asked once per slot; [`Replica::recover`] is the
    /// case where `first_vote` refuses.
    fn from_log(
        cfg: CommitConfig,
        id: ProcessorId,
        initial: Store,
        batch: Arc<[Transaction]>,
        mut wal: Wal,
        mut first_vote: impl FnMut(&Store, &Transaction) -> Value,
    ) -> Replica {
        let logged = wal.index().expect("recovering from a corrupt WAL");
        let slots: Vec<Slot> = batch
            .iter()
            .map(|tx| match logged.get(&tx.id) {
                Some((_, Some(decision))) => Slot {
                    instance: None,
                    decision: Some(*decision),
                },
                Some((vote, None)) => {
                    let fresh = CommitAutomaton::new(cfg, id, *vote);
                    Slot {
                        instance: Some(CommitAutomaton::restore_amnesiac(&fresh.snapshot())),
                        decision: None,
                    }
                }
                None => {
                    let vote = first_vote(&initial, tx);
                    wal.append(LogRecord::Vote { tx: tx.id, vote });
                    Slot {
                        instance: Some(CommitAutomaton::new(cfg, id, vote)),
                        decision: None,
                    }
                }
            })
            .collect();
        let decided = slots.iter().filter(|slot| slot.decision.is_some()).count();
        let committed = slots
            .iter()
            .filter(|slot| slot.decision == Some(Decision::Commit))
            .count();
        Replica {
            id,
            initial,
            instance_out: Outbox::new(),
            directs: Vec::new(),
            batch,
            slots,
            decided,
            committed,
            outcomes: OnceLock::new(),
            wal,
            cfg,
        }
    }

    /// The decided fate of every transaction so far. Built from the
    /// slots on the first read after a decision lands.
    pub fn outcomes(&self) -> &BTreeMap<TxId, Decision> {
        self.outcomes.get_or_init(|| {
            // In slot order, which is key order: every insert appends.
            let mut outcomes = BTreeMap::new();
            for (tx, slot) in self.batch.iter().zip(&self.slots) {
                if let Some(decision) = slot.decision {
                    outcomes.insert(tx.id, decision);
                }
            }
            outcomes
        })
    }

    /// The replica's write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The committed/aborted/pending breakdown.
    pub fn batch_status(&self) -> TxBatchStatus {
        let mut status = TxBatchStatus {
            committed: Vec::new(),
            aborted: Vec::new(),
            pending: Vec::new(),
        };
        for (tx, slot) in self.batch.iter().zip(&self.slots) {
            match slot.decision {
                Some(Decision::Commit) => status.committed.push(tx.id),
                Some(Decision::Abort) => status.aborted.push(tx.id),
                None => status.pending.push(tx.id),
            }
        }
        status
    }

    /// The store after applying all committed transactions in [`TxId`]
    /// order — the opening image itself while nothing has committed.
    pub fn store(&self) -> Store {
        self.initial.applying(
            self.batch
                .iter()
                .zip(&self.slots)
                .filter(|(_, slot)| slot.decision == Some(Decision::Commit))
                .map(|(tx, _)| tx),
        )
    }
}

impl Automaton for Replica {
    type Msg = Vec<TxMsg>;

    fn id(&self) -> ProcessorId {
        self.id
    }

    fn population(&self) -> usize {
        self.cfg.population()
    }

    /// Steps every live instance once, in [`TxId`] order (each counts
    /// this as one clock tick and draws from `rng` in that order).
    ///
    /// Every destination receives at most one bundle, and inside a
    /// bundle the per-transaction messages are [`TxId`] ascending.
    ///
    /// The same is expected of what arrives — one sender, one message
    /// per instance per step (Section 2.1) — and a delivered bundle is
    /// held to it: an entry reaches its instance only if its id exceeds
    /// every id before it in the bundle. An entry that repeats an id or
    /// steps back below an earlier one, like one for a transaction
    /// outside the batch or one whose instance is gone, is foreign
    /// traffic: dropped, never a panic, and without effect on the
    /// entries around it. (A `Wire` impl for the bundle, ROADMAP item 2,
    /// should reject a non-ascending frame at decode, before it gets
    /// here.)
    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a Vec<TxMsg>)>,
        rng: &mut StepRng,
        out: &mut Outbox<Vec<TxMsg>>,
    ) {
        // Each delivered bundle, cut down to the entries not yet passed.
        // Bundles and batch are both id-ascending, so routing is a merge
        // join: every bundle is read once, front to back, as the slots
        // go by.
        let mut delivered: Vec<(ProcessorId, &[TxMsg])> =
            inbox.map(|(from, bundle)| (from, &bundle[..])).collect();
        let mut broadcasts: Vec<TxMsg> = Vec::new();
        for (tx, slot) in self.batch.iter().zip(&mut self.slots) {
            let Some(instance) = &mut slot.instance else {
                continue;
            };
            // In bundle order: the entry for this transaction at the
            // front of each bundle, once everything below it is dropped.
            let routed = delivered.iter_mut().filter_map(|(from, rest)| {
                let below = rest.iter().take_while(|(id, _)| *id < tx.id).count();
                *rest = &rest[below..];
                let ((id, msg), after) = rest.split_first()?;
                (*id == tx.id).then(|| {
                    *rest = after;
                    (*from, msg)
                })
            });
            instance.step_into(routed, rng, &mut self.instance_out);
            if let Some(msg) = self.instance_out.take_broadcast() {
                if broadcasts.capacity() == 0 {
                    // Sized for every instance having something to say
                    // (the common case), so the bundle never regrows.
                    broadcasts.reserve_exact(self.batch.len());
                }
                broadcasts.push((tx.id, msg));
            }
            for send in self.instance_out.drain_direct() {
                self.directs.push((send.to, (tx.id, send.msg)));
            }
            if slot.decision.is_none() {
                if let Some(decision) = instance.status().decision() {
                    slot.decision = Some(decision);
                    self.decided += 1;
                    self.committed += usize::from(decision == Decision::Commit);
                    self.outcomes.take();
                    self.wal.append(LogRecord::Decision {
                        tx: tx.id,
                        decision,
                    });
                }
            }
        }
        // A destination addressed directly gets its own bundle: per
        // transaction, the direct message if there is one, else the
        // broadcast. Destinations ascending, for the steps that have no
        // broadcast to order them.
        if !self.directs.is_empty() {
            let mut addressed: Vec<ProcessorId> = self.directs.iter().map(|(to, _)| *to).collect();
            addressed.sort_unstable();
            addressed.dedup();
            for to in addressed {
                let mut direct = self
                    .directs
                    .iter()
                    .filter(|(q, _)| *q == to)
                    .map(|(_, m)| m)
                    .peekable();
                let mut bundle = Vec::with_capacity(broadcasts.len() + 1);
                for shared in &broadcasts {
                    while let Some(own) = direct.next_if(|own| own.0 < shared.0) {
                        bundle.push(own.clone());
                    }
                    bundle.push(
                        direct
                            .next_if(|own| own.0 == shared.0)
                            .unwrap_or(shared)
                            .clone(),
                    );
                }
                bundle.extend(direct.cloned());
                out.send(to, bundle);
            }
            self.directs.clear();
        }
        if !broadcasts.is_empty() {
            out.broadcast(broadcasts);
        }
    }

    fn status(&self) -> Status {
        if self.decided == self.slots.len() {
            Status::Decided(Value::from_bool(self.committed > 0))
        } else {
            Status::Undecided
        }
    }
}

/// The durable footprint of a [`Replica`] — what survives a crash on
/// stable storage: deployment config, initial store, the batch, and the
/// write-ahead log. Volatile protocol state (in-flight [`CommitAutomaton`]
/// instances) is deliberately *not* captured; [`Recoverable::restore`]
/// rebuilds it through [`Replica::recover`], exactly as a real restart
/// replays the WAL. The store and the batch are the epoch's shared
/// image, so taking a snapshot copies the log and nothing else.
#[derive(Clone)]
pub struct ReplicaSnapshot {
    cfg: CommitConfig,
    id: ProcessorId,
    initial: Store,
    batch: Arc<[Transaction]>,
    wal: Wal,
}

impl fmt::Debug for ReplicaSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaSnapshot")
            .field("id", &self.id)
            .field("batch", &self.batch.len())
            .field("wal", &self.wal.len())
            .finish()
    }
}

impl Recoverable for Replica {
    type Snapshot = ReplicaSnapshot;

    fn snapshot(&self) -> ReplicaSnapshot {
        ReplicaSnapshot {
            cfg: self.cfg,
            id: self.id,
            initial: self.initial.clone(),
            batch: Arc::clone(&self.batch),
            wal: self.wal.clone(),
        }
    }

    fn restore(snapshot: &ReplicaSnapshot) -> Replica {
        Replica::from_log(
            snapshot.cfg,
            snapshot.id,
            snapshot.initial.clone(),
            Arc::clone(&snapshot.batch),
            snapshot.wal.clone(),
            vote_required,
        )
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("batch", &self.batch.len())
            .field("decided", &self.decided)
            .finish()
    }
}

/// Builds the replica population for a batch, all starting from the
/// same initial store (votes via local validation). The store, the
/// sorted batch and the votes are shared by the whole population, not
/// copied or recomputed per replica: every replica would validate the
/// same transactions against the same image, so the batch is validated
/// once and each replica is handed the votes in slot order. Each still
/// logs its own votes. Replica `p` is [`Replica::new`] for `p`.
///
/// # Panics
///
/// Panics if `batch` contains duplicate transaction ids.
pub fn replica_population(
    cfg: CommitConfig,
    initial: &Store,
    batch: &[Transaction],
) -> Vec<Replica> {
    let batch = share_batch(batch);
    let votes: Vec<Value> = batch.iter().map(|tx| validated_vote(initial, tx)).collect();
    ProcessorId::all(cfg.population())
        .map(|p| {
            let mut by_slot = votes.iter().copied();
            Replica::from_log(
                cfg,
                p,
                initial.clone(),
                Arc::clone(&batch),
                Wal::new(),
                move |_, _| by_slot.next().expect("one vote per slot"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rtc_model::{SeedCollection, TimingParams};
    use rtc_sim::adversaries::{RandomAdversary, SynchronousAdversary};
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;
    use crate::store::Op;

    fn cfg(n: usize) -> CommitConfig {
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
    }

    fn transfer(id: u64, from: &str, to: &str, amount: i64) -> Transaction {
        Transaction::new(
            id,
            vec![
                Op::Add {
                    key: from.into(),
                    delta: -amount,
                    floor: 0,
                },
                Op::add(to, amount),
            ],
        )
    }

    fn run_batch(n: usize, initial: &Store, batch: &[Transaction], seed: u64) -> Vec<Replica> {
        let c = cfg(n);
        let procs = replica_population(c, initial, batch);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = SynchronousAdversary::new(n);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided(), "batch did not finish");
        ProcessorId::all(n)
            .map(|p| sim.automaton(p).clone())
            .collect()
    }

    #[test]
    fn valid_batch_commits_everywhere_and_stores_agree() {
        let initial = Store::with_entries([("alice", 100), ("bob", 50)]);
        let batch = vec![
            transfer(1, "alice", "bob", 30),
            transfer(2, "bob", "alice", 10),
        ];
        let replicas = run_batch(4, &initial, &batch, 5);
        let expected = {
            let mut s = initial;
            s.apply(&batch[0]);
            s.apply(&batch[1]);
            s
        };
        for r in &replicas {
            assert_eq!(r.batch_status().pending, Vec::<TxId>::new());
            assert_eq!(r.store(), expected, "replica {:?} diverged", r.id());
            assert!(r.wal().check_invariants().is_ok());
        }
    }

    #[test]
    fn overdraft_aborts_everywhere_but_other_txs_commit() {
        let initial = Store::with_entries([("alice", 100)]);
        let batch = vec![
            transfer(1, "alice", "bob", 70),
            transfer(2, "alice", "bob", 9_999), // overdraft: aborted
        ];
        let replicas = run_batch(5, &initial, &batch, 6);
        for r in &replicas {
            let status = r.batch_status();
            assert_eq!(status.committed, vec![TxId(1)]);
            assert_eq!(status.aborted, vec![TxId(2)]);
            assert_eq!(r.store().get("alice"), 30);
            assert_eq!(r.store().get("bob"), 70);
        }
    }

    #[test]
    fn atomicity_holds_under_random_schedules() {
        let initial = Store::with_entries([("a", 10), ("b", 10), ("c", 10)]);
        let batch = vec![
            transfer(1, "a", "b", 5),
            transfer(2, "b", "c", 20), // may or may not validate depending on... it reads b=10 < 20: abort vote everywhere
            transfer(3, "c", "a", 10),
        ];
        for seed in 0..10u64 {
            let n = 4;
            let c = cfg(n);
            let procs = replica_population(c, &initial, &batch);
            let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
                .fault_budget(c.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = RandomAdversary::new(seed)
                .deliver_prob(0.6)
                .crash_prob(0.005);
            let report = sim.run(&mut adv, RunLimits::default()).unwrap();
            assert!(report.all_nonfaulty_decided());
            // All surviving replicas agree per transaction and on the
            // final store.
            let survivors: Vec<&Replica> = ProcessorId::all(n)
                .filter(|p| !report.is_faulty(*p))
                .map(|p| sim.automaton(p))
                .collect();
            let reference = survivors[0];
            for r in &survivors[1..] {
                assert_eq!(r.outcomes(), reference.outcomes(), "seed {seed}");
                assert_eq!(r.store(), reference.store(), "seed {seed}");
            }
            for r in &survivors {
                assert!(r.wal().check_invariants().is_ok(), "seed {seed}");
            }
        }
    }

    #[test]
    fn divergent_local_votes_still_converge_globally() {
        // Replica 2 holds a local lien on alice's funds: it votes abort
        // on tx 1 even though the store validates it. One dissent is
        // enough to abort everywhere.
        let n = 3;
        let c = cfg(n);
        let initial = Store::with_entries([("alice", 100)]);
        let batch = vec![transfer(1, "alice", "bob", 50)];
        let procs: Vec<Replica> = ProcessorId::all(n)
            .map(|p| {
                let mut votes = BTreeMap::new();
                votes.insert(TxId(1), Value::from_bool(p != ProcessorId::new(2)));
                Replica::with_votes(c, p, initial.clone(), &batch, &votes)
            })
            .collect();
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(2))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = SynchronousAdversary::new(n);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        for p in ProcessorId::all(n) {
            assert_eq!(sim.automaton(p).outcomes()[&TxId(1)], Decision::Abort);
            assert_eq!(sim.automaton(p).store(), initial);
        }
    }

    #[test]
    fn recovery_replays_the_wal_exactly() {
        let initial = Store::with_entries([("alice", 100)]);
        let batch = vec![
            transfer(1, "alice", "bob", 70),
            transfer(2, "alice", "bob", 9_999),
        ];
        let replicas = run_batch(4, &initial, &batch, 11);
        let original = &replicas[2];
        let recovered =
            Replica::recover(cfg(4), ProcessorId::new(2), initial, &batch, original.wal());
        assert_eq!(recovered.outcomes(), original.outcomes());
        assert_eq!(recovered.store(), original.store());
        assert!(
            recovered.status().is_decided(),
            "fully-decided WAL recovers decided"
        );
    }

    #[test]
    fn recovery_recreates_instances_for_undecided_transactions() {
        use crate::wal::LogRecord;
        let c = cfg(3);
        let batch = vec![transfer(1, "a", "b", 1)];
        let mut wal = crate::wal::Wal::new();
        wal.append(LogRecord::Vote {
            tx: TxId(1),
            vote: Value::One,
        });
        let recovered = Replica::recover(
            c,
            ProcessorId::new(1),
            Store::with_entries([("a", 10)]),
            &batch,
            &wal,
        );
        assert!(!recovered.status().is_decided());
        assert_eq!(recovered.batch_status().pending, vec![TxId(1)]);
    }

    #[test]
    fn snapshot_restore_roundtrips_through_the_wal() {
        let initial = Store::with_entries([("alice", 100)]);
        let batch = vec![
            transfer(1, "alice", "bob", 70),
            transfer(2, "alice", "bob", 9_999),
        ];
        let replicas = run_batch(4, &initial, &batch, 13);
        let original = &replicas[1];
        let restored = Replica::restore(&original.snapshot());
        assert_eq!(restored.outcomes(), original.outcomes());
        assert_eq!(restored.store(), original.store());
        assert!(restored.wal().extends(original.wal()));
        assert!(original.wal().extends(restored.wal()));
    }

    #[test]
    fn torn_decision_record_recovers_the_transaction_as_pending() {
        let initial = Store::with_entries([("alice", 100)]);
        let batch = vec![
            transfer(1, "alice", "bob", 70),
            transfer(2, "alice", "bob", 9_999),
        ];
        let replicas = run_batch(4, &initial, &batch, 21);
        let original = &replicas[0];
        assert_eq!(original.outcomes().len(), 2, "both decided before crash");

        // The crash tears the last frame of the on-disk log in half —
        // a decision record is lost mid-write.
        let bytes = original.wal().encode();
        let torn = &bytes[..bytes.len() - 7];
        let (recovered, damage) =
            Replica::recover_from_bytes(cfg(4), ProcessorId::new(0), initial, &batch, torn);
        assert!(matches!(damage, Some(crate::wal::WalDamage::Torn { .. })));
        // The decided set shrank by exactly the torn decision; the
        // affected transaction is pending again (it will catch up from
        // peers), and every durable vote still binds.
        assert_eq!(recovered.outcomes().len(), 1);
        assert_eq!(recovered.batch_status().pending.len(), 1);
        for tx in &batch {
            assert_eq!(
                recovered.wal().vote_of(tx.id),
                original.wal().vote_of(tx.id)
            );
        }
        assert!(recovered.wal().check_invariants().is_ok());
    }

    #[test]
    fn torn_vote_record_lets_the_replica_vote_afresh() {
        let c = cfg(3);
        let initial = Store::with_entries([("a", 10)]);
        let batch = vec![transfer(1, "a", "b", 5)];
        let fresh = Replica::new(c, ProcessorId::new(1), initial.clone(), &batch);
        // Only half of the single vote record made it to disk.
        let bytes = fresh.wal().encode();
        let (recovered, damage) =
            Replica::recover_from_bytes(c, ProcessorId::new(1), initial, &batch, &bytes[..5]);
        assert!(matches!(
            damage,
            Some(crate::wal::WalDamage::Torn { offset: 0 })
        ));
        // The vote was never durable, so the replica re-validated and
        // re-logged it; the transaction runs as a fresh participant.
        assert_eq!(recovered.wal().vote_of(TxId(1)), Some(Value::One));
        assert_eq!(recovered.batch_status().pending, vec![TxId(1)]);
        assert!(!recovered.status().is_decided());
    }

    #[test]
    #[should_panic(expected = "no logged vote")]
    fn recovery_requires_logged_votes() {
        let c = cfg(3);
        let batch = vec![transfer(1, "a", "b", 1)];
        let wal = crate::wal::Wal::new();
        let _ = Replica::recover(c, ProcessorId::new(0), Store::new(), &batch, &wal);
    }

    /// Two transactions under one id, for the duplicate-id rejections.
    fn clashing_batch() -> Vec<Transaction> {
        vec![
            transfer(2, "a", "b", 1),
            transfer(1, "a", "b", 1),
            transfer(2, "b", "a", 1),
        ]
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id tx2")]
    fn new_rejects_duplicate_ids() {
        let _ = Replica::new(cfg(3), ProcessorId::new(0), Store::new(), &clashing_batch());
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id tx2")]
    fn with_votes_rejects_duplicate_ids() {
        // Two votes for three transactions: before duplicates were
        // rejected this built a replica with two `Vote` records for tx2
        // and one instance.
        let votes = BTreeMap::from([(TxId(1), Value::One), (TxId(2), Value::One)]);
        let _ = Replica::with_votes(
            cfg(3),
            ProcessorId::new(0),
            Store::new(),
            &clashing_batch(),
            &votes,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id tx2")]
    fn recover_rejects_duplicate_ids() {
        let mut wal = Wal::new();
        for tx in [1, 2] {
            wal.append(LogRecord::Vote {
                tx: TxId(tx),
                vote: Value::One,
            });
        }
        let _ = Replica::recover(
            cfg(3),
            ProcessorId::new(0),
            Store::new(),
            &clashing_batch(),
            &wal,
        );
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id tx2")]
    fn recover_from_bytes_rejects_duplicate_ids() {
        let _ = Replica::recover_from_bytes(
            cfg(3),
            ProcessorId::new(0),
            Store::new(),
            &clashing_batch(),
            &[],
        );
    }

    #[test]
    fn batch_order_on_input_does_not_matter() {
        let initial = Store::with_entries([("a", 10), ("b", 10)]);
        let sorted = vec![transfer(1, "a", "b", 5), transfer(2, "b", "a", 50)];
        let reversed: Vec<Transaction> = sorted.iter().rev().cloned().collect();
        let a = Replica::new(cfg(3), ProcessorId::new(1), initial.clone(), &sorted);
        let b = Replica::new(cfg(3), ProcessorId::new(1), initial, &reversed);
        // Votes are logged in id order either way.
        assert_eq!(a.wal().records(), b.wal().records());
        assert_eq!(a.batch_status(), b.batch_status());
    }

    #[test]
    fn a_ping_reply_rides_a_bundle_of_its_own_and_the_rest_share_one() {
        use rtc_core::CommitKind;
        use rtc_model::{Delivery, LocalClock};

        // tx1 overdraws, so every replica votes abort and decides it
        // the moment it broadcasts that vote; tx2 goes the long way.
        let n = 3;
        let c = cfg(n);
        let initial = Store::with_entries([("a", 10)]);
        let batch = vec![transfer(1, "a", "b", 99), transfer(2, "a", "b", 1)];
        let mut replicas = replica_population(c, &initial, &batch);
        let seeds = SeedCollection::new(77);
        let p = ProcessorId::new;
        // Lockstep until p0 has decided tx1: `inboxes[q]` holds what the
        // previous round sent to q.
        let mut inboxes: Vec<Vec<Delivery<Vec<TxMsg>>>> = vec![Vec::new(); n];
        let mut round = 0;
        while replicas[0].outcomes().is_empty() {
            let mut next: Vec<Vec<Delivery<Vec<TxMsg>>>> = vec![Vec::new(); n];
            for (q, replica) in replicas.iter_mut().enumerate() {
                let mut rng = seeds.step_rng(p(q), LocalClock::new(round));
                for send in replica.step(&inboxes[q], &mut rng) {
                    next[send.to.index()].push(Delivery::new(p(q), send.msg));
                }
            }
            inboxes = next;
            round += 1;
            assert!(round < 50, "tx1 never aborted");
        }
        assert_eq!(replicas[0].outcomes().get(&TxId(1)), Some(&Decision::Abort));
        assert_eq!(replicas[0].outcomes().get(&TxId(2)), None);

        // p2 asks about tx1, on top of what it had to say this round
        // anyway — the round's votes, so both of p0's instances have
        // something to broadcast in the step that answers.
        let p2_bundle = &mut inboxes[0].iter_mut().find(|d| d.from == p(2)).unwrap().msg;
        let (tx, said) = &mut p2_bundle[0];
        assert_eq!(*tx, TxId(1));
        said.kinds = said
            .kinds
            .iter()
            .cloned()
            .chain([CommitKind::Ping])
            .collect();
        let mut out = Outbox::new();
        let mut rng = seeds.step_rng(p(0), LocalClock::new(round));
        replicas[0].step_into(
            inboxes[0].iter().map(|d| (d.from, &d.msg)),
            &mut rng,
            &mut out,
        );

        let reached: Vec<(ProcessorId, &Vec<TxMsg>)> = out.sends(p(0), n).collect();
        let [(to_p1, shared), (to_p2, own)] = reached[..] else {
            panic!("p0 reaches both peers: {reached:?}");
        };
        assert_eq!((to_p1, to_p2), (p(1), p(2)));
        // One direct send, to the pinger; everyone else is the
        // broadcast.
        assert_eq!(out.direct().len(), 1);
        assert_eq!(out.direct()[0].to, p(2));
        let txs = |bundle: &Vec<TxMsg>| bundle.iter().map(|(tx, _)| *tx).collect::<Vec<_>>();
        assert_eq!(txs(shared), [TxId(1), TxId(2)]);
        assert_eq!(txs(own), [TxId(1), TxId(2)]);
        // The pinger's bundle is the shared one with tx1's message
        // extended by the decision; tx2's message is the same message.
        let decided = CommitKind::Decided(Value::Zero);
        assert!(!shared[0].1.kinds.contains(&decided));
        let mut extended = shared[0].1.kinds.to_vec();
        extended.push(decided);
        assert_eq!(own[0].1.kinds[..], extended[..]);
        assert_eq!(own[1], shared[1]);
        // And it is, byte for byte, what the per-destination outboxes
        // this replaced sent for the same step (captured there).
        let sends: Vec<rtc_model::Send<Vec<TxMsg>>> = reached
            .iter()
            .map(|(to, bundle)| rtc_model::Send::new(*to, (*bundle).clone()))
            .collect();
        let digest = format!("{sends:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 6_593_700_158_096_183_171);
    }

    #[test]
    fn foreign_entries_are_dropped_and_leave_the_rest_alone() {
        use rtc_core::CommitKind;
        use rtc_model::LocalClock;

        let n = 3;
        let c = cfg(n);
        let p = ProcessorId::new;
        let initial = Store::with_entries([("a", 10)]);
        let batch = vec![
            transfer(2, "a", "b", 1),
            transfer(4, "a", "b", 1),
            transfer(6, "a", "b", 1),
        ];
        let seeds = SeedCollection::new(9);
        let rng = |q: usize| seeds.step_rng(p(q), LocalClock::new(0));
        // The well-formed bundle: the coordinator's opening broadcast.
        let mut coordinator = Replica::new(c, p(0), initial.clone(), &batch);
        let opening = coordinator
            .step(&[], &mut rng(0))
            .into_iter()
            .find(|send| send.to == p(1))
            .expect("the coordinator opens with a broadcast")
            .msg;
        assert_eq!(opening.len(), 3);
        // p1 came back with tx6 already decided: that slot has no
        // instance.
        let mut log = Wal::new();
        log.append(LogRecord::Vote {
            tx: TxId(6),
            vote: Value::Zero,
        });
        log.append(LogRecord::Decision {
            tx: TxId(6),
            decision: Decision::Abort,
        });
        let (p1, damage) = Replica::recover_from_bytes(c, p(1), initial, &batch, &log.encode());
        assert_eq!(damage, None);
        // Whoever ingests this decides abort on the spot.
        let poison = CommitMsg {
            go: None,
            kinds: [CommitKind::Decided(Value::Zero)].into_iter().collect(),
        };
        let fine = opening[1].1.clone();
        let step = |from_p2: Vec<TxMsg>| {
            let mut replica = p1.clone();
            let mut out = Outbox::new();
            replica.step_into(
                [(p(0), &opening), (p(2), &from_p2)].into_iter(),
                &mut rng(1),
                &mut out,
            );
            let sends: Vec<(ProcessorId, Vec<TxMsg>)> = out
                .sends(p(1), n)
                .map(|(to, bundle)| (to, bundle.clone()))
                .collect();
            let log = replica.wal().records().to_vec();
            (sends, replica.outcomes().clone(), log)
        };
        let well_formed = step(vec![(TxId(4), fine.clone())]);
        let malformed = step(vec![
            (TxId(1), poison.clone()), // outside the batch
            (TxId(4), fine),
            (TxId(2), poison.clone()), // steps back below tx4
            (TxId(4), poison.clone()), // repeats tx4
            (TxId(5), poison.clone()), // outside the batch
            (TxId(6), poison.clone()), // in order, but no instance
            (TxId(9), poison.clone()), // outside the batch
        ]);
        assert_eq!(malformed, well_formed);
        let (sends, outcomes, _) = malformed;
        assert!(!sends.is_empty(), "p1 answered the opening");
        assert_eq!(outcomes.keys().copied().collect::<Vec<_>>(), [TxId(6)]);
        // The same message in a well-formed place is not dropped.
        let (_, outcomes, _) = step(vec![(TxId(4), poison)]);
        assert_eq!(outcomes.get(&TxId(4)), Some(&Decision::Abort));
    }

    /// A batch whose overdraft (tx2) decides abort on the first step and
    /// whose transfers (tx1, tx3) take the protocol's long way.
    fn mixed_batch() -> (Store, Vec<Transaction>) {
        let initial = Store::with_entries([("a", 10)]);
        let batch = vec![
            transfer(1, "a", "b", 1),
            transfer(2, "a", "b", 99),
            transfer(3, "a", "b", 2),
        ];
        (initial, batch)
    }

    /// Steps the population in lockstep rounds — every replica once, on
    /// what the previous round sent it (`inboxes`) — until `stop` holds
    /// or every replica has decided its whole batch; returns the next
    /// round.
    fn lockstep_until(
        replicas: &mut [Replica],
        inboxes: &mut Vec<Vec<rtc_model::Delivery<Vec<TxMsg>>>>,
        seeds: &SeedCollection,
        mut round: u64,
        stop: impl Fn(&[Replica]) -> bool,
    ) -> u64 {
        while !stop(replicas) && !replicas.iter().all(|r| r.status().is_decided()) {
            lockstep_round(replicas, inboxes, seeds, round);
            round += 1;
            assert!(round < 200, "the batch never decided");
        }
        round
    }

    /// Runs [`lockstep_until`] to the end of the batch.
    fn never(_: &[Replica]) -> bool {
        false
    }

    /// What `outcomes()` must read: every slot's decision, by id.
    fn decided_by_slot(replica: &Replica) -> BTreeMap<TxId, Decision> {
        let status = replica.batch_status();
        let commits = status.committed.iter().map(|tx| (*tx, Decision::Commit));
        commits
            .chain(status.aborted.iter().map(|tx| (*tx, Decision::Abort)))
            .collect()
    }

    #[test]
    fn outcomes_read_mid_epoch_are_rebuilt_when_more_decisions_land() {
        let (initial, batch) = mixed_batch();
        let c = cfg(3);
        let seeds = SeedCollection::new(31);
        let mut replicas = replica_population(c, &initial, &batch);
        let mut inboxes = vec![Vec::new(); 3];
        let round = lockstep_until(&mut replicas, &mut inboxes, &seeds, 0, |rs| {
            !rs[0].outcomes().is_empty()
        });
        // The first read: only the overdraft has decided.
        assert_eq!(
            replicas[0].outcomes(),
            &BTreeMap::from([(TxId(2), Decision::Abort)])
        );
        // A copy taken now carries the map it was read with.
        let mut copies = replicas.clone();
        lockstep_until(&mut replicas, &mut inboxes.clone(), &seeds, round, never);
        lockstep_until(&mut copies, &mut inboxes, &seeds, round, never);
        for replica in replicas.iter().chain(&copies) {
            assert_eq!(replica.outcomes().len(), 3);
            assert_eq!(replica.outcomes(), &decided_by_slot(replica));
            assert_eq!(replica.outcomes()[&TxId(1)], Decision::Commit);
            assert_eq!(replica.status(), Status::Decided(Value::One));
        }
    }

    #[test]
    fn a_restored_replica_derives_its_outcomes_afresh() {
        let (initial, batch) = mixed_batch();
        let c = cfg(3);
        let seeds = SeedCollection::new(32);
        let mut replicas = replica_population(c, &initial, &batch);
        let mut inboxes = vec![Vec::new(); 3];
        let round = lockstep_until(&mut replicas, &mut inboxes, &seeds, 0, |rs| {
            !rs[1].outcomes().is_empty()
        });
        let before = replicas[1].outcomes().clone();
        assert_eq!(before, BTreeMap::from([(TxId(2), Decision::Abort)]));
        // p1 crashes with its map read and comes back from its log: the
        // logged decision is adopted, the rest rejoin and catch up.
        replicas[1] = Replica::restore(&replicas[1].snapshot());
        assert_eq!(replicas[1].outcomes(), &before);
        assert_eq!(replicas[1].status(), Status::Undecided);
        lockstep_until(&mut replicas, &mut inboxes, &seeds, round, never);
        assert_eq!(replicas[1].outcomes(), &decided_by_slot(&replicas[1]));
        assert_eq!(replicas[1].outcomes(), replicas[0].outcomes());
        assert_eq!(replicas[1].outcomes().len(), 3);
        assert_eq!(replicas[1].store(), replicas[0].store());
    }

    #[test]
    fn an_all_abort_batch_decides_zero_and_a_mixed_one_decides_one() {
        let initial = Store::with_entries([("alice", 100)]);
        let overdrafts = vec![
            transfer(1, "alice", "bob", 101),
            transfer(2, "alice", "bob", 9_999),
            transfer(3, "bob", "alice", 1),
        ];
        for r in &run_batch(4, &initial, &overdrafts, 8) {
            assert_eq!(r.batch_status().aborted.len(), 3);
            assert_eq!(r.status(), Status::Decided(Value::Zero));
        }
        let (initial, mixed) = mixed_batch();
        for r in &run_batch(4, &initial, &mixed, 8) {
            assert_eq!(r.batch_status().aborted, vec![TxId(2)]);
            assert_eq!(r.status(), Status::Decided(Value::One));
        }
    }

    #[test]
    fn empty_batch_is_trivially_decided() {
        let c = cfg(3);
        let r = Replica::new(c, ProcessorId::new(0), Store::new(), &[]);
        assert!(r.status().is_decided());
        assert_eq!(r.batch_status().pending, Vec::<TxId>::new());
    }

    /// A store over keys `k0`–`k5` whose entries may name a key twice
    /// (the later value stands), and a batch of up to twelve
    /// transactions over the same keys, in shuffled id order: adds that
    /// may overdraw their floor, puts, and transactions that touch one
    /// key more than once.
    fn store_and_batch() -> impl Strategy<Value = (Store, Vec<Transaction>)> {
        let op = (any::<bool>(), 0..6u8, -60i64..60, -20i64..10).prop_map(|(put, k, a, b)| {
            let key = format!("k{k}");
            if put {
                Op::Put { key, value: a }
            } else {
                Op::Add {
                    key,
                    delta: a,
                    floor: b,
                }
            }
        });
        let entries = proptest::collection::vec((0..6u8, 0i64..100), 0..8);
        let txs =
            proptest::collection::vec((proptest::collection::vec(op, 1..5), any::<u64>()), 0..12);
        (entries, txs).prop_map(|(entries, txs)| {
            let mut ranked: Vec<(u64, Transaction)> = txs
                .into_iter()
                .zip(1u64..)
                .map(|((ops, rank), id)| (rank, Transaction::new(id, ops)))
                .collect();
            ranked.sort_by_key(|(rank, _)| *rank);
            let store = Store::with_entries(entries.into_iter().map(|(k, v)| (format!("k{k}"), v)));
            (store, ranked.into_iter().map(|(_, tx)| tx).collect())
        })
    }

    /// One lockstep round of a population: every replica steps once on
    /// `inboxes`, which becomes what the round sent. Returns the sends,
    /// by replica.
    fn lockstep_round(
        replicas: &mut [Replica],
        inboxes: &mut Vec<Vec<rtc_model::Delivery<Vec<TxMsg>>>>,
        seeds: &SeedCollection,
        clock: u64,
    ) -> Vec<Vec<rtc_model::Send<Vec<TxMsg>>>> {
        let mut next = vec![Vec::new(); replicas.len()];
        let mut sent = Vec::new();
        for (q, replica) in replicas.iter_mut().enumerate() {
            let from = ProcessorId::new(q);
            let mut rng = seeds.step_rng(from, rtc_model::LocalClock::new(clock));
            let sends = replica.step(&inboxes[q], &mut rng);
            for send in &sends {
                next[send.to.index()].push(rtc_model::Delivery::new(from, send.msg.clone()));
            }
            sent.push(sends);
        }
        *inboxes = next;
        sent
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The population validates the batch once; replica `p` of it is
        /// still `Replica::new` for `p`: the same votes, the same log,
        /// the same batch status, and the same sends on every step of a
        /// lockstep run to the end of the batch.
        #[test]
        fn a_population_is_its_replicas_built_one_by_one(
            case in store_and_batch(),
            n in 1usize..6,
            seed in any::<u64>(),
        ) {
            let (store, batch) = case;
            let c = cfg(n);
            let mut shared = replica_population(c, &store, &batch);
            let mut alone: Vec<Replica> = ProcessorId::all(n)
                .map(|p| Replica::new(c, p, store.clone(), &batch))
                .collect();
            for (p, (a, b)) in shared.iter().zip(&alone).enumerate() {
                for tx in &batch {
                    prop_assert_eq!(a.wal().vote_of(tx.id), b.wal().vote_of(tx.id), "p{}", p);
                    let validated = Value::from_bool(store.validates(tx));
                    prop_assert_eq!(a.wal().vote_of(tx.id), Some(validated));
                }
                prop_assert_eq!(a.wal().records(), b.wal().records(), "p{}", p);
                prop_assert_eq!(a.batch_status(), b.batch_status(), "p{}", p);
            }
            let seeds = SeedCollection::new(seed);
            let (mut inbox_shared, mut inbox_alone) = (vec![Vec::new(); n], vec![Vec::new(); n]);
            for clock in 0..200 {
                if shared.iter().all(|r| r.status().is_decided()) {
                    break;
                }
                let sent = lockstep_round(&mut shared, &mut inbox_shared, &seeds, clock);
                let sent_alone = lockstep_round(&mut alone, &mut inbox_alone, &seeds, clock);
                prop_assert_eq!(sent, sent_alone, "clock {}", clock);
            }
            for (a, b) in shared.iter().zip(&alone) {
                prop_assert!(a.status().is_decided());
                prop_assert_eq!(a.wal().records(), b.wal().records());
                prop_assert_eq!(a.batch_status(), b.batch_status());
            }
        }
    }
}
