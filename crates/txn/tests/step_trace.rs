//! Pinned send-order digests for [`Replica`]'s step.
//!
//! A replica's step promises a send order — destination ascending, and
//! within one destination's bundle [`TxId`](rtc_txn::TxId) ascending —
//! and consumes shared randomness in `TxId` order. The constants below
//! were captured on the commit *before* the replica's multiplexer was
//! made dense (per-slot inboxes, per-destination outboxes), from the
//! `BTreeMap`-routed implementation; any change to what a replica
//! sends, to whom, or in which order moves them.
//!
//! The simulator's own trace digest covers the schedule but not message
//! *content*, so every replica is wrapped in a tap that folds the
//! `Debug` form of each step's deliveries and sends into a hash.

use rtc_core::CommitConfig;
use rtc_model::{
    Automaton, Delivery, Outbox, ProcessorId, SeedCollection, Send, Status, StepRng, TimingParams,
};
use rtc_sim::adversaries::{RandomAdversary, SynchronousAdversary};
use rtc_sim::{Adversary, RunLimits, SimBuilder};
use rtc_txn::{replica_population, Op, Replica, Store, Transaction, TxMsg};

/// FNV-1a, folded over text.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A replica that hashes everything crossing its step boundary.
struct Tap {
    inner: Replica,
    seen: Fnv,
}

impl Automaton for Tap {
    type Msg = Vec<TxMsg>;

    fn id(&self) -> ProcessorId {
        self.inner.id()
    }

    fn population(&self) -> usize {
        self.inner.population()
    }

    /// Hashes the step in the `Delivery`/`Send` form the digests were
    /// captured in — the outbox expanded per destination — and hands
    /// the replica's outbox on untouched.
    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a Vec<TxMsg>)>,
        rng: &mut StepRng,
        out: &mut Outbox<Vec<TxMsg>>,
    ) {
        let delivered: Vec<Delivery<Vec<TxMsg>>> = inbox
            .map(|(from, bundle)| Delivery::new(from, bundle.clone()))
            .collect();
        self.inner
            .step_into(delivered.iter().map(|d| (d.from, &d.msg)), rng, out);
        let sends: Vec<Send<Vec<TxMsg>>> = out
            .sends(self.id(), self.population())
            .map(|(to, bundle)| Send::new(to, bundle.clone()))
            .collect();
        self.seen.write(&format!("{delivered:?} -> {sends:?};"));
    }

    fn status(&self) -> Status {
        self.inner.status()
    }
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

/// Six transactions, handed over out of id order, two of them
/// overdrawing (unanimous abort votes).
fn batch() -> Vec<Transaction> {
    vec![
        transfer(40, "a", "b", 10),
        transfer(7, "b", "c", 9_999),
        transfer(23, "c", "a", 5),
        transfer(3, "a", "c", 1),
        transfer(99, "c", "b", 70_000),
        transfer(12, "b", "a", 20),
    ]
}

/// Runs one epoch and digests the schedule, every step's traffic and
/// the agreed outcomes.
fn epoch_digest(n: usize, seed: u64, adversary: &mut dyn Adversary) -> u64 {
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let initial = Store::with_entries([("a", 100), ("b", 100), ("c", 100)]);
    let procs: Vec<Tap> = replica_population(cfg, &initial, &batch())
        .into_iter()
        .map(|inner| Tap {
            inner,
            seen: Fnv::new(),
        })
        .collect();
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim.run(adversary, RunLimits::default()).unwrap();
    assert!(report.all_nonfaulty_decided());
    let mut all = Fnv::new();
    all.write(&format!("{:016x}", sim.trace().digest()));
    for p in ProcessorId::all(n) {
        let tap = sim.automaton(p);
        all.write(&format!("{:016x}{:?}", tap.seen.0, tap.inner.outcomes()));
    }
    all.0
}

#[test]
fn synchronous_epoch_sends_are_pinned() {
    let mut adv = SynchronousAdversary::new(5);
    assert_eq!(epoch_digest(5, 17, &mut adv), 15_076_698_250_862_569_046);
}

#[test]
fn random_epoch_sends_are_pinned() {
    let mut adv = RandomAdversary::new(29).deliver_prob(0.6).crash_prob(0.01);
    assert_eq!(epoch_digest(4, 29, &mut adv), 6_457_156_722_350_371_062);
}
