//! Property tests for the crash-recovery path of `rtc-txn`.
//!
//! Two families:
//!
//! * **Recovery is idempotent**: recovering from a recovered replica's
//!   WAL changes nothing — outcomes, store, and log are fixed points.
//! * **WAL invariants hold at every crash point**: cut a randomly
//!   scheduled batch run at an arbitrary event, and every replica's
//!   log — and every *record prefix* of it, since a crash can land
//!   between any two appends — still satisfies the WAL invariants, and
//!   recovery from the cut log adopts exactly the logged decisions.
//! * **Shared images never alias writes**: the opening store and the
//!   batch are one copy-on-write image shared by the whole population;
//!   writing through any handle leaves every other holder — the
//!   caller's store, each replica, each snapshot — as it was.

use proptest::prelude::*;
use rtc_core::CommitConfig;
use rtc_model::{Decision, ProcessorId, Recoverable, SeedCollection, TimingParams};
use rtc_sim::adversaries::RandomAdversary;
use rtc_sim::{RunLimits, Sim, SimBuilder};
use rtc_txn::{replica_population, LogRecord, Op, Replica, Store, Transaction, Wal};

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

/// A batch of 1–4 transfers over three accounts; amounts above the
/// account balances produce abort votes.
fn arb_batch() -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec((0usize..3, 0usize..3, 1i64..40), 1..5).prop_map(|specs| {
        let names = ["a", "b", "c"];
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (from, to, amount))| {
                transfer(i as u64 + 1, names[from], names[(to + 1) % 3], amount)
            })
            .collect()
    })
}

fn initial_store() -> Store {
    Store::with_entries([("a", 25), ("b", 25), ("c", 25)])
}

/// Runs a replica batch under a random admissible adversary, cutting
/// the run at `cut` events (an arbitrary mid-batch crash point).
fn run_cut(batch: &[Transaction], seed: u64, cut: u64) -> (Sim<Replica>, usize) {
    run_cut_from(&initial_store(), batch, seed, cut)
}

/// [`run_cut`] over a population built from the caller's `opening`
/// handle.
fn run_cut_from(
    opening: &Store,
    batch: &[Transaction],
    seed: u64,
    cut: u64,
) -> (Sim<Replica>, usize) {
    let n = 4;
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let procs = replica_population(cfg, opening, batch);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let mut adv = RandomAdversary::new(seed ^ 0x7A11).deliver_prob(0.7);
    sim.run(&mut adv, RunLimits::with_max_events(cut)).unwrap();
    (sim, n)
}

fn wal_of_records(records: &[LogRecord]) -> Wal {
    let mut wal = Wal::new();
    for r in records {
        wal.append(*r);
    }
    wal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Replica::recover` is a fixed point: recovering from a recovered
    /// replica's WAL reproduces the same outcomes, store, and log.
    #[test]
    fn recovery_is_idempotent(
        batch in arb_batch(),
        seed in any::<u64>(),
        cut in 50u64..4000,
    ) {
        let (sim, n) = run_cut(&batch, seed, cut);
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
            .unwrap();
        for p in ProcessorId::all(n) {
            let crashed = sim.automaton(p);
            let once = Replica::recover(cfg, p, initial_store(), &batch, crashed.wal());
            let twice = Replica::recover(cfg, p, initial_store(), &batch, once.wal());
            prop_assert_eq!(once.outcomes(), twice.outcomes());
            prop_assert_eq!(once.store(), twice.store());
            prop_assert_eq!(once.wal().records(), twice.wal().records());
            // Recovery never rewrites history.
            prop_assert!(once.wal().extends(crashed.wal()));
            prop_assert_eq!(once.wal().len(), crashed.wal().len());
        }
    }

    /// Every record prefix of every replica's WAL — every state a crash
    /// could leave on disk — satisfies the WAL invariants, and recovery
    /// from any prefix that covers the votes adopts exactly the logged
    /// decisions.
    #[test]
    fn wal_invariants_hold_at_every_crash_point(
        batch in arb_batch(),
        seed in any::<u64>(),
        cut in 0u64..4000,
    ) {
        let (sim, n) = run_cut(&batch, seed, cut);
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
            .unwrap();
        for p in ProcessorId::all(n) {
            let wal = sim.automaton(p).wal();
            prop_assert!(wal.check_invariants().is_ok());
            for k in 0..=wal.len() {
                let prefix = wal_of_records(&wal.records()[..k]);
                prop_assert!(
                    prefix.check_invariants().is_ok(),
                    "prefix of {} records violates invariants", k
                );
                // Votes are logged before any protocol traffic, so any
                // prefix covering the batch supports recovery.
                if k < batch.len() {
                    continue;
                }
                let recovered = Replica::recover(cfg, p, initial_store(), &batch, &prefix);
                for tx in &batch {
                    prop_assert_eq!(
                        recovered.outcomes().get(&tx.id).copied(),
                        prefix.decision_of(tx.id),
                        "recovery must adopt exactly the logged decisions"
                    );
                }
                // The store reflects only logged commits.
                let any_commit = batch.iter().any(|tx| {
                    prefix.decision_of(tx.id) == Some(Decision::Commit)
                });
                if !any_commit {
                    prop_assert_eq!(recovered.store(), initial_store());
                }
            }
        }
    }

    /// Writes through one handle of the shared epoch image reach no
    /// other holder, at any cut of the run, and `snapshot → restore`
    /// (which shares the image too) still reproduces the replica.
    #[test]
    fn shared_image_handles_do_not_alias(
        batch in arb_batch(),
        seed in any::<u64>(),
        cut in 0u64..4000,
    ) {
        let opening = initial_store();
        let (sim, n) = run_cut_from(&opening, &batch, seed, cut);
        let before: Vec<Store> = ProcessorId::all(n).map(|p| sim.automaton(p).store()).collect();
        let scribble = Transaction::new(
            999,
            vec![Op::put("a", -1), Op::put("b", -1), Op::put("zz", 7)],
        );

        // Write through every handle there is: the caller's, each
        // replica's result (the image itself while nothing has
        // committed), each restored replica's.
        let mut mine = opening.clone();
        mine.apply(&scribble);
        prop_assert_eq!(mine.get("zz"), 7);
        for p in ProcessorId::all(n) {
            let replica = sim.automaton(p);
            replica.store().apply(&scribble);
            let restored = Replica::restore(&replica.snapshot());
            prop_assert_eq!(restored.outcomes(), replica.outcomes());
            prop_assert_eq!(restored.wal().records(), replica.wal().records());
            prop_assert_eq!(&restored.store(), &before[p.index()]);
            restored.store().apply(&scribble);
        }

        // A write that leaked into a replica's opening image would show
        // in its store: no transfer overwrites a balance.
        prop_assert_eq!(&opening, &initial_store());
        for p in ProcessorId::all(n) {
            prop_assert_eq!(&sim.automaton(p).store(), &before[p.index()]);
        }
    }
}
