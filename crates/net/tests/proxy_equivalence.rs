//! Property: duplication and reordering are *benign* on the socket
//! substrate — a run under them reaches exactly the decisions of a
//! clean run with the same population, votes, and seeds.
//!
//! This is the paper's at-least-once claim made executable over real
//! TCP: the receiving readers duplicate decoded frames and hold frames
//! a few ticks so younger ones overtake, but they never drop or corrupt
//! anything, and the automata are idempotent under redelivery. Both
//! runs therefore commit unanimously on all-`One` votes and abort on
//! any `Zero` vote, node by node.

use std::time::Duration;

use proptest::prelude::*;
use rtc_core::{commit_population, CommitConfig};
use rtc_model::{Decision, SeedCollection, TimingParams, Value};
use rtc_net::{run_net_cluster, NetOptions};
use rtc_runtime::FaultPlan;

fn opts() -> NetOptions {
    // A roomy tick keeps scheduler jitter well inside the 2K timeout,
    // so the property is about the injected faults, not CI load.
    let mut o = NetOptions::derived(Duration::from_millis(2), TimingParams::default());
    o.wall_timeout = Duration::from_secs(20);
    o
}

/// Runs one commit instance over sockets and returns the per-node
/// decisions in processor order.
fn decisions(n: usize, votes: &[Value], seed: u64, plan: FaultPlan) -> Vec<Option<Decision>> {
    let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
        .expect("valid population")
        .with_early_abort(true);
    let report = run_net_cluster(
        vec![commit_population(cfg, votes)],
        vec![SeedCollection::new(seed)],
        plan,
        opts(),
    );
    let inst = &report.instances[0];
    assert!(inst.decided_in_time, "socket run timed out: {report:?}");
    assert!(inst.agreement_holds(), "agreement broke: {report:?}");
    inst.statuses.iter().map(|s| s.decision()).collect()
}

proptest! {
    // Each case boots two real socket clusters; keep the corpus small
    // and let the seeds/votes carry the coverage.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn dup_and_reorder_leave_decisions_identical_to_a_clean_run(
        seed in any::<u64>(),
        // 0..n plants a `Zero` vote at that index; n means unanimous-`One`.
        zero_at in 0usize..=3,
        dup_permille in 150u32..=450,
        reorder_permille in 150u32..=450,
    ) {
        let n = 3;
        let mut votes = vec![Value::One; n];
        if zero_at < n {
            votes[zero_at] = Value::Zero;
        }

        let clean = decisions(n, &votes, seed, FaultPlan::none());
        let faulted = decisions(
            n,
            &votes,
            seed,
            FaultPlan::none()
                .with_duplication(dup_permille)
                .with_reordering(reorder_permille),
        );

        prop_assert_eq!(clean, faulted);
    }
}
