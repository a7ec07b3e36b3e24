//! A replicated key-value database committing a batch of transfers —
//! the paper's motivating distributed-database scenario, end to end.
//!
//! Four replicas validate a batch of account transfers against their
//! local store, run one Coan–Lundelius commit instance per transaction
//! (multiplexed over a single automaton each), write-ahead-log every
//! vote and decision, and apply the committed set in transaction-id
//! order. The run executes on the threaded real-time runtime with a
//! crash and delay spikes injected; at the end, every surviving replica
//! holds the identical store.
//!
//! Run with: `cargo run --example kv_database`

use rtc::prelude::*;
use rtc::txn::{replica_population, Op, Store, Transaction};

fn transfer(id: u64, from: &str, to: &str, amount: i64) -> Transaction {
    Transaction::new(
        id,
        vec![
            Op::Add {
                key: from.into(),
                delta: -amount,
                floor: 0,
            },
            Op::Add {
                key: to.into(),
                delta: amount,
                floor: 0,
            },
        ],
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CommitConfig::new(4, 1, TimingParams::new(4)?)?;
    let initial = Store::with_entries([("alice", 500), ("bob", 120), ("carol", 75)]);
    let batch = vec![
        transfer(1, "alice", "bob", 200),
        transfer(2, "bob", "carol", 40),
        transfer(3, "carol", "alice", 9_999), // overdraft — must abort
        transfer(4, "alice", "carol", 80),
    ];

    println!("initial store: alice=500 bob=120 carol=75");
    println!("batch: 4 transfers, one of which overdraws carol\n");

    let report = rtc::runtime::run_cluster(
        replica_population(cfg, &initial, &batch),
        SeedCollection::new(404),
        rtc::runtime::FaultPlan::none()
            .with_crash(ProcessorId::new(3), 25)
            .with_delay(rtc::runtime::DelayModel::Spike {
                permille: 120,
                spike: 4,
            }),
        rtc::runtime::ClusterOptions::default(),
    );

    assert!(report.decided_in_time, "batch did not finish: {report:?}");
    assert!(report.agreement_holds());
    println!(
        "cluster finished in {:?} with {} messages (replica 3 crashed mid-run)\n",
        report.wall, report.messages_sent
    );

    // Inspect the replicas through a fresh simulator run of the same
    // scenario (the threaded report carries statuses only). The
    // deterministic substrate lets us read stores and WALs directly.
    let procs = replica_population(cfg, &initial, &batch);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(404))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let mut adv = SynchronousAdversary::new(4);
    sim.run(&mut adv, RunLimits::default())?;

    let reference = sim.automaton(ProcessorId::new(0));
    let status = reference.batch_status();
    println!("committed: {:?}", status.committed);
    println!("aborted:   {:?}", status.aborted);
    let store = reference.store();
    println!(
        "\nfinal store on every replica: alice={} bob={} carol={}",
        store.get("alice"),
        store.get("bob"),
        store.get("carol")
    );
    for p in ProcessorId::all(4) {
        let r = sim.automaton(p);
        assert_eq!(r.store(), store, "replica {p} diverged");
        r.wal()
            .check_invariants()
            .map_err(|e| format!("WAL violation at {p}: {e}"))?;
    }
    println!("WAL invariants hold on all replicas; stores are identical.");
    Ok(())
}
