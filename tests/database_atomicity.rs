//! Cross-crate tests of the transaction-manager layer: atomicity and
//! store convergence across replicas, over random batches and
//! schedules.

use proptest::prelude::*;
use rtc::prelude::*;
use rtc::txn::{replica_population, Op, Replica, Store, Transaction, TxId};

fn transfer(id: u64, from: usize, to: usize, amount: i64) -> Transaction {
    Transaction::new(
        id,
        vec![
            Op::Add {
                key: format!("acct{from}"),
                delta: -amount,
                floor: 0,
            },
            Op::Add {
                key: format!("acct{to}"),
                delta: amount,
                floor: 0,
            },
        ],
    )
}

fn run_batch_with_adversary(
    n: usize,
    initial: &Store,
    batch: &[Transaction],
    seed: u64,
    adv: &mut dyn Adversary,
) -> (rtc::sim::RunReport, Vec<Replica>) {
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let procs = replica_population(cfg, initial, batch);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim.run(adv, RunLimits::with_max_events(3_000_000)).unwrap();
    let replicas = ProcessorId::all(n)
        .map(|p| sim.automaton(p).clone())
        .collect();
    (report, replicas)
}

#[test]
fn a_two_transaction_batch_survives_a_crash() {
    let initial = Store::with_entries([("acct0", 100), ("acct1", 100)]);
    let batch = vec![transfer(1, 0, 1, 60), transfer(2, 1, 0, 30)];
    let mut adv = CrashAdversary::new(
        SynchronousAdversary::new(5),
        vec![CrashPlan {
            at_event: 7,
            victim: ProcessorId::new(4),
            drop: DropPolicy::DropAll,
        }],
    );
    let (report, replicas) = run_batch_with_adversary(5, &initial, &batch, 3, &mut adv);
    assert!(report.all_nonfaulty_decided());
    let reference = replicas
        .iter()
        .find(|r| !report.is_faulty(r.id()))
        .expect("a survivor exists");
    for r in replicas.iter().filter(|r| !report.is_faulty(r.id())) {
        assert_eq!(r.outcomes(), reference.outcomes());
        assert_eq!(r.store(), reference.store());
        assert!(r.wal().check_invariants().is_ok());
    }
}

#[test]
fn all_transactions_decide_under_slow_networks() {
    let initial = Store::with_entries([("acct0", 40), ("acct1", 40)]);
    let batch = vec![
        transfer(1, 0, 1, 10),
        transfer(2, 1, 0, 100),
        transfer(3, 0, 1, 5),
    ];
    let mut adv = SynchronousAdversary::with_lag(6 * 4);
    let (report, replicas) = run_batch_with_adversary(4, &initial, &batch, 9, &mut adv);
    assert!(report.all_nonfaulty_decided());
    // With delivery slower than K, timeouts may abort everything, but
    // outcomes are unanimous and WALs clean.
    let reference = &replicas[0];
    for r in &replicas {
        assert_eq!(r.outcomes(), reference.outcomes());
        assert!(r.wal().check_invariants().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches over random schedules: every surviving replica
    /// agrees on every transaction's fate and on the final store, and
    /// no replica commits a transaction it voted against.
    #[test]
    fn replicas_converge_on_random_batches(
        seed in any::<u64>(),
        amounts in proptest::collection::vec((0usize..3, 0usize..3, 1i64..80), 1..5),
        deliver in 0.3f64..1.0,
    ) {
        let initial = Store::with_entries([("acct0", 60), ("acct1", 60), ("acct2", 60)]);
        let batch: Vec<Transaction> = amounts
            .iter()
            .enumerate()
            .map(|(i, (from, to, amt))| transfer(i as u64 + 1, *from, *to, *amt))
            .collect();
        let mut adv = RandomAdversary::new(seed).deliver_prob(deliver).crash_prob(0.004);
        let (report, replicas) = run_batch_with_adversary(4, &initial, &batch, seed, &mut adv);
        prop_assert!(report.all_nonfaulty_decided());
        let survivors: Vec<&Replica> =
            replicas.iter().filter(|r| !report.is_faulty(r.id())).collect();
        let reference = survivors[0];
        for r in &survivors {
            prop_assert_eq!(r.outcomes(), reference.outcomes());
            prop_assert_eq!(r.store(), reference.store());
            prop_assert!(r.wal().check_invariants().is_ok());
            // Local-vote discipline: never commit against your own vote.
            for (tx, decision) in r.outcomes() {
                if r.wal().vote_of(*tx) == Some(Value::Zero) {
                    prop_assert_eq!(*decision, Decision::Abort);
                }
            }
        }
        // Unanimously-valid transactions must commit when nobody
        // crashed and the schedule was benign enough to stay decided...
        // (guaranteed only for on-time runs; here we just require that
        // *something* was decided for every transaction.)
        for r in &survivors {
            prop_assert_eq!(r.outcomes().len(), batch.len());
        }
        let _ = TxId(0);
    }
}
