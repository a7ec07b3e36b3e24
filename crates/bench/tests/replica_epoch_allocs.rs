//! The exact allocations of one replica epoch: five replicas commit a
//! batch of 32 transfers under the synchronous adversary, and every
//! replica's outcomes are then read once. Like `hot_path_counts`, the
//! count is a function of the seed alone, the same on every machine and
//! in debug and release, so it is pinned exactly: a change that moves
//! it, either way, re-pins it in the same commit.
//!
//! The two regions are counted apart because a replica keeps its
//! decisions by slot and derives the [`TxId`]-keyed outcomes map when it
//! is first read: the map's nodes are paid for in the second region,
//! not while the epoch runs. Their sum is the epoch's cost to a caller
//! that reads the outcomes, which is what the benchmark driver does.

mod counting;

use counting::count_allocs;
use rtc_core::CommitConfig;
use rtc_model::{Automaton, ProcessorId, SeedCollection, TimingParams};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{RunLimits, SimBuilder};
use rtc_txn::{replica_population, Op, Replica, Store, Transaction, TxId};

/// 32 transfers among sixteen accounts, every fourth one overdrawing,
/// so the batch decides both ways.
fn transfers() -> Vec<Transaction> {
    (0..32u64)
        .map(|i| {
            let amount = if i % 4 == 3 { 5_000 } else { 10 };
            Transaction::new(
                i + 1,
                vec![
                    Op::Add {
                        key: format!("acct{:02}", i % 16),
                        delta: -amount,
                        floor: 0,
                    },
                    Op::add(format!("acct{:02}", (i * 7 + 3) % 16), amount),
                ],
            )
        })
        .collect()
}

/// The allocations of building and running the epoch, and of then
/// reading each replica's outcomes; the replicas come back for checking.
fn epoch(store: &Store, batch: &[Transaction]) -> (u64, u64, Vec<Replica>) {
    let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
    let (run, sim) = count_allocs(|| {
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(1))
            .fault_budget(cfg.fault_bound())
            .build(replica_population(cfg, store, batch))
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(5), RunLimits::default())
            .unwrap();
        assert!(report.all_nonfaulty_decided());
        sim
    });
    let replicas: Vec<Replica> = ProcessorId::all(5)
        .map(|p| sim.automaton(p).clone())
        .collect();
    let (read, decided) =
        count_allocs(|| replicas.iter().map(|r| r.outcomes().len()).sum::<usize>());
    assert_eq!(decided, 5 * batch.len());
    (run, read, replicas)
}

/// When decisions were kept in a `BTreeMap` probed on every step, the
/// tree grew while the epoch ran: (308, 0). Kept by slot, the run makes
/// 25 fewer and the first read makes those 25 (five maps of 32 entries,
/// five nodes each), so the total stays at 308. Since the population
/// validates the batch once and hands every replica the same votes, the
/// run makes one more: the shared vote vector, (283, 25) before it.
#[test]
fn a_synchronous_replica_epoch_allocates_exactly_its_pin() {
    let store = Store::with_entries((0..16).map(|k| (format!("acct{k:02}"), 1_000)));
    let batch = transfers();
    // Warm-up: lazy one-time set-up stays out of the counted regions.
    let _ = epoch(&store, &batch);
    let (run, read, replicas) = epoch(&store, &batch);
    for replica in &replicas {
        let status = replica.batch_status();
        assert_eq!(status.aborted.len(), 8);
        assert_eq!(status.committed.len(), 24);
        assert!(status.committed.contains(&TxId(1)));
        assert!(replica.status().is_decided());
    }
    assert_eq!((run, read), (284, 25), "(run, outcomes read)");
}
