//! A transaction's cost does not depend on the size of the store.
//!
//! Vote formation reads the store through an overlay of the
//! transaction's own writes, and a replica population shares one
//! copy-on-write store image and one batch, so the heap allocations of
//! both are a function of the batch alone. Allocation counts are exact
//! and machine-independent, which makes "does not scale with the store"
//! testable: the same batch costs the same number of allocations over
//! 16 keys and over 16 384.
//!
//! (Before the epoch image was shared, `Store::validates` deep-copied
//! the store per transaction and `replica_population` copied it per
//! replica: both counts grew by a thousand allocations per thousand
//! keys.)

mod counting;

use counting::count_allocs;
use rtc_core::CommitConfig;
use rtc_model::{SeedCollection, TimingParams};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{RunLimits, SimBuilder};
use rtc_txn::{replica_population, Op, Store, Transaction};

fn store_of(keys: usize) -> Store {
    Store::with_entries((0..keys).map(|k| (format!("acct{k:05}"), 1_000)))
}

/// `count` transfers among the first sixteen accounts (present at every
/// store size), every fourth one overdrawing.
fn transfers(count: u64) -> Vec<Transaction> {
    (0..count)
        .map(|i| {
            let amount = if i % 4 == 3 { 5_000 } else { 10 };
            Transaction::new(
                i + 1,
                vec![
                    Op::Add {
                        key: format!("acct{:05}", i % 16),
                        delta: -amount,
                        floor: 0,
                    },
                    Op::add(format!("acct{:05}", (i * 7 + 3) % 16), amount),
                ],
            )
        })
        .collect()
}

#[test]
fn vote_formation_allocates_the_same_at_any_store_size() {
    let batch = transfers(16);
    let count = |keys: usize| {
        let store = store_of(keys);
        count_allocs(|| {
            batch
                .iter()
                .map(|tx| store.validates(tx))
                .collect::<Vec<_>>()
        })
    };
    let (small_allocs, small_votes) = count(16);
    let (large_allocs, large_votes) = count(16_384);
    assert_eq!(small_votes, large_votes);
    assert!(small_votes.contains(&true) && small_votes.contains(&false));
    assert_eq!(small_allocs, large_allocs);
}

#[test]
fn a_replica_population_allocates_the_same_at_any_store_size() {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    let batch = transfers(16);
    let count = |keys: usize| {
        let store = store_of(keys);
        let (allocs, population) = count_allocs(|| replica_population(cfg, &store, &batch));
        assert_eq!(population.len(), 5);
        allocs
    };
    assert_eq!(count(16), count(16_384));
}

/// What an epoch allocates, population and run together, measured after
/// the replica multiplexer stopped keeping an inbox per transaction:
/// 5 replicas × 32 transactions of those alone would put it 160 higher.
const EPOCH_ALLOCS: u64 = 335;

#[test]
fn an_epoch_allocates_the_same_at_any_store_size_and_keeps_no_inboxes() {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    let batch = transfers(32);
    let count = |keys: usize| {
        let store = store_of(keys);
        let (allocs, decided) = count_allocs(|| {
            let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(1))
                .fault_budget(cfg.fault_bound())
                .build(replica_population(cfg, &store, &batch))
                .unwrap();
            let report = sim
                .run(&mut SynchronousAdversary::new(5), RunLimits::default())
                .unwrap();
            report.all_nonfaulty_decided()
        });
        assert!(decided);
        allocs
    };
    let small = count(16);
    assert_eq!(small, count(16_384));
    assert!(
        small <= EPOCH_ALLOCS,
        "an epoch made {small} allocations, {EPOCH_ALLOCS} when pinned"
    );
}

#[test]
fn opening_a_store_sizes_its_directory_once() {
    let entries: Vec<(String, i64)> = (0..2_000).map(|k| (format!("acct{k:05}"), 1)).collect();
    let (allocs, store) = count_allocs(|| Store::with_entries(entries));
    assert_eq!(store.len(), 2_000);
    // A shared key apiece; the table, the column and their two `Arc`s.
    assert_eq!(allocs, 2_000 + 4);
}
