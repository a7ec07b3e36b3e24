//! A replica keeps its decisions by slot and derives everything else
//! from them: the [`TxId`]-keyed outcomes map, the batch breakdown, the
//! store and the batch status. These properties hold every derived view
//! to the formulas the replica used when the outcomes map itself was the
//! record, on the inputs of `recovery_props` (runs cut at an arbitrary
//! event, and the replicas recovered from the cut logs) and of
//! `database_atomicity` (whole runs under random schedules with
//! crashes).

use std::collections::BTreeMap;

use proptest::prelude::*;
use rtc_core::CommitConfig;
use rtc_model::{
    Automaton, Decision, ProcessorId, Recoverable, SeedCollection, Status, TimingParams, Value,
};
use rtc_sim::adversaries::RandomAdversary;
use rtc_sim::{RunLimits, SimBuilder};
use rtc_txn::{replica_population, Op, Replica, Store, Transaction, TxBatchStatus, TxId};

fn transfer(id: u64, from: usize, to: usize, amount: i64) -> Transaction {
    Transaction::new(
        id,
        vec![
            Op::Add {
                key: format!("acct{from}"),
                delta: -amount,
                floor: 0,
            },
            Op::add(format!("acct{to}"), amount),
        ],
    )
}

/// 1–4 transfers over three accounts; amounts past a balance vote abort.
fn arb_batch(max_amount: i64) -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec((0usize..3, 0usize..3, 1i64..max_amount), 1..5).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (from, to, amount))| transfer(i as u64 + 1, from, to, amount))
            .collect()
    })
}

fn opening(balance: i64) -> Store {
    Store::with_entries((0..3).map(|k| (format!("acct{k}"), balance)))
}

/// The batch breakdown, read off the outcomes map.
fn status_by_map(outcomes: &BTreeMap<TxId, Decision>, batch: &[Transaction]) -> TxBatchStatus {
    let mut ids: Vec<TxId> = batch.iter().map(|tx| tx.id).collect();
    ids.sort_unstable();
    let with = |d: Decision| -> Vec<TxId> {
        ids.iter()
            .copied()
            .filter(|id| outcomes.get(id) == Some(&d))
            .collect()
    };
    TxBatchStatus {
        committed: with(Decision::Commit),
        aborted: with(Decision::Abort),
        pending: ids
            .iter()
            .copied()
            .filter(|id| !outcomes.contains_key(id))
            .collect(),
    }
}

/// Every view of `replica` against the map-based formulas.
fn check_views(replica: &Replica, initial: &Store, batch: &[Transaction]) {
    let outcomes = replica.outcomes();
    assert_eq!(replica.batch_status(), status_by_map(outcomes, batch));
    let mut sorted = batch.to_vec();
    sorted.sort_by_key(|tx| tx.id);
    let mut applied = initial.clone();
    for tx in sorted
        .iter()
        .filter(|tx| outcomes.get(&tx.id) == Some(&Decision::Commit))
    {
        applied.apply(tx);
    }
    assert_eq!(replica.store(), applied);
    let status = if outcomes.len() == batch.len() {
        let any_commit = outcomes.values().any(|d| *d == Decision::Commit);
        Status::Decided(Value::from_bool(any_commit))
    } else {
        Status::Undecided
    };
    assert_eq!(replica.status(), status);
    // The map holds exactly the logged decisions.
    for tx in batch {
        assert_eq!(
            outcomes.get(&tx.id).copied(),
            replica.wal().decision_of(tx.id)
        );
    }
}

fn cfg(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `recovery_props`' inputs: a run cut at an arbitrary event, each
    /// replica as the cut left it and as it recovers from its log.
    #[test]
    fn views_match_the_outcomes_map_at_every_cut(
        batch in arb_batch(40),
        seed in any::<u64>(),
        cut in 0u64..4000,
    ) {
        let n = 4;
        let c = cfg(n);
        let initial = opening(25);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
            .fault_budget(c.fault_bound())
            .build(replica_population(c, &initial, &batch))
            .unwrap();
        let mut adv = RandomAdversary::new(seed ^ 0x7A11).deliver_prob(0.7);
        sim.run(&mut adv, RunLimits::with_max_events(cut)).unwrap();
        for p in ProcessorId::all(n) {
            let replica = sim.automaton(p);
            check_views(replica, &initial, &batch);
            let recovered = Replica::restore(&replica.snapshot());
            check_views(&recovered, &initial, &batch);
            prop_assert_eq!(recovered.outcomes(), replica.outcomes());
        }
    }

    /// `database_atomicity`'s inputs: whole runs under random delivery
    /// with crashes.
    #[test]
    fn views_match_the_outcomes_map_on_converged_batches(
        batch in arb_batch(80),
        seed in any::<u64>(),
        deliver in 0.3f64..1.0,
    ) {
        let n = 4;
        let c = cfg(n);
        let initial = opening(60);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
            .fault_budget(c.fault_bound())
            .build(replica_population(c, &initial, &batch))
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(deliver).crash_prob(0.004);
        let report = sim.run(&mut adv, RunLimits::with_max_events(3_000_000)).unwrap();
        prop_assert!(report.all_nonfaulty_decided());
        for p in ProcessorId::all(n) {
            check_views(sim.automaton(p), &initial, &batch);
        }
    }
}
