//! Property-based safety tests: the paper's correctness conditions must
//! hold over *randomly generated* vote vectors, adversary parameters,
//! and schedules.

use proptest::prelude::*;
use rtc::core::properties::{verify_agreement, verify_commit};
use rtc::prelude::*;

fn arb_votes(n: usize) -> impl Strategy<Value = Vec<rtc::model::Value>> {
    proptest::collection::vec(any::<bool>().prop_map(rtc::model::Value::from_bool), n)
}

/// Round-robin scheduler with an optional hostile-network mode: every
/// freshly observed message is duplicated exactly once, and each
/// delivery batch is rotated left by one and handed to the automaton in
/// reverse order, so the head of the buffer is ingested first and the
/// rest youngest first. The per-processor step sequence is identical to
/// the clean round-robin run, so any observable difference is a failure
/// of ingest idempotency.
struct HostileRoundRobin {
    n: usize,
    cursor: usize,
    hostile: bool,
    /// Message ids already observed (indexed by dense `MsgId::index`).
    seen: Vec<bool>,
    /// Events at which a `Duplicate` was issued. The copy minted at
    /// such an event must not be duplicated again, or the buffer
    /// doubles without bound. Pushed in increasing event order.
    dup_events: Vec<u64>,
}

impl HostileRoundRobin {
    fn new(n: usize, hostile: bool) -> Self {
        HostileRoundRobin {
            n,
            cursor: 0,
            hostile,
            seen: Vec::new(),
            dup_events: Vec::new(),
        }
    }
}

impl Adversary for HostileRoundRobin {
    fn next(&mut self, view: &rtc::sim::PatternView<'_>) -> rtc::sim::Action {
        use rtc::sim::Action;
        let p = ProcessorId::new(self.cursor % self.n);
        if self.hostile {
            for m in view.pending_iter(p) {
                let idx = m.id.index();
                if idx >= self.seen.len() {
                    self.seen.resize(idx + 1, false);
                }
                if !self.seen[idx] {
                    self.seen[idx] = true;
                    // Copies (send_event == a Duplicate event) are
                    // marked seen but never re-duplicated.
                    if self.dup_events.binary_search(&m.send_event).is_err() {
                        self.dup_events.push(view.event());
                        return Action::Duplicate { id: m.id };
                    }
                }
            }
        }
        self.cursor += 1;
        let mut deliver: Vec<rtc::sim::MsgId> = view.pending_iter(p).map(|m| m.id).collect();
        if self.hostile && !deliver.is_empty() {
            deliver.rotate_left(1);
            deliver.reverse();
        }
        Action::Step { p, deliver }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Agreement + abort/commit validity under randomized scheduling
    /// with random crashes within the budget.
    #[test]
    fn commit_conditions_hold_under_random_adversaries(
        votes in (3usize..9).prop_flat_map(arb_votes),
        seed in any::<u64>(),
        deliver in 0.2f64..1.0,
        crash in 0.0f64..0.02,
    ) {
        let n = votes.len();
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
            .unwrap();
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed ^ 0xABCD)
            .deliver_prob(deliver)
            .crash_prob(crash);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        let verdict = verify_commit(&votes, &report.facts());
        prop_assert!(verdict.ok(), "verdict: {verdict:?}");
        prop_assert!(report.all_nonfaulty_decided(), "admissible run blocked");
    }

    /// Safety survives arbitrary (inadmissible) crash waves: more than
    /// t crashes may block the protocol but never split it.
    #[test]
    fn overload_crashes_never_split_decisions(
        seed in any::<u64>(),
        crash_events in proptest::collection::vec(0u64..120, 4),
    ) {
        let n = 5;
        let cfg = CommitConfig::new(n, 2, TimingParams::default()).unwrap();
        let votes = vec![rtc::model::Value::One; n];
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let plans: Vec<CrashPlan> = crash_events
            .iter()
            .enumerate()
            .map(|(i, &ev)| CrashPlan {
                at_event: ev,
                victim: ProcessorId::new(n - 1 - i),
                drop: DropPolicy::DropAll,
            })
            .collect();
        let mut adv = Unfair(CrashAdversary::new(SynchronousAdversary::new(n), plans));
        let report = sim.run(&mut adv, RunLimits::with_max_events(40_000)).unwrap();
        prop_assert!(report.agreement_holds(), "conflicting decisions after overload");
    }

    /// The agreement subroutine, run standalone with shared coins, is
    /// safe and valid under random schedules.
    #[test]
    fn protocol1_agreement_conditions_hold(
        inputs in (3usize..8).prop_flat_map(arb_votes),
        seed in any::<u64>(),
        deliver in 0.3f64..1.0,
    ) {
        let n = inputs.len();
        let t = CommitConfig::max_tolerated(n);
        let coins = rtc::baselines::dealer_coins(64, seed ^ 0xC0);
        let procs: Vec<_> = (0..n)
            .map(|i| AgreementAutomaton::new(
                ProcessorId::new(i), n, t, inputs[i], coins.clone()))
            .collect();
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(t)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed ^ 0xEE).deliver_prob(deliver);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        let verdict = verify_agreement(&inputs, &report.facts());
        prop_assert!(verdict.ok(), "verdict: {verdict:?}");
        prop_assert!(report.all_nonfaulty_decided());
    }

    /// Partitions (inadmissible) block termination but never safety,
    /// for any cut.
    #[test]
    fn arbitrary_partitions_are_safe(
        seed in any::<u64>(),
        cut in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let n = cut.len();
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
            .unwrap();
        let votes = vec![rtc::model::Value::One; n];
        let group_a: Vec<ProcessorId> = ProcessorId::all(n)
            .filter(|p| cut[p.index()])
            .collect();
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(cfg.fault_bound())
            .build(procs)
            .unwrap();
        let mut adv = Unfair(
            SynchronousAdversary::new(n).holding(rtc::sim::adversaries::cut(n, &group_a)),
        );
        let report = sim.run(&mut adv, RunLimits::with_max_events(25_000)).unwrap();
        prop_assert!(report.agreement_holds());
        // If one side holds a quorum (n - t), the run may even decide;
        // otherwise it stalls. Either is fine — only conflict is not.
    }

    /// Baseline cross-check: Ben-Or (no shared coins) is also safe
    /// under random schedules, just slower.
    #[test]
    fn benor_is_safe_under_random_schedules(
        inputs in (3usize..6).prop_flat_map(arb_votes),
        seed in any::<u64>(),
    ) {
        let n = inputs.len();
        let t = CommitConfig::max_tolerated(n);
        let procs = rtc::baselines::benor_population(n, t, &inputs);
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(t)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed ^ 0xB0).deliver_prob(0.7);
        let report = sim.run(&mut adv, RunLimits::with_max_events(3_000_000)).unwrap();
        prop_assert!(report.agreement_holds());
    }

    /// Hostile-network idempotency: duplicating every message once and
    /// permuting delivery batches changes nothing observable. Decisions are byte-identical to the clean
    /// round-robin run, and the hostile schedule itself replays to the
    /// same trace digest.
    #[test]
    fn duplicated_and_permuted_delivery_is_idempotent(
        votes in (3usize..7).prop_flat_map(arb_votes),
        seed in any::<u64>(),
    ) {
        let n = votes.len();
        let cfg = CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default())
            .unwrap();
        let run = |hostile: bool| {
            let procs = commit_population(cfg, &votes);
            let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
                .fault_budget(cfg.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = HostileRoundRobin::new(n, hostile);
            let report = sim
                .run(&mut adv, RunLimits::with_max_events(200_000))
                .unwrap();
            let verdict = verify_commit(&votes, &report.facts());
            let digest = sim.trace().digest();
            (report, digest, verdict)
        };
        let (clean, _, _) = run(false);
        let (hostile_a, digest_a, verdict) = run(true);
        let (hostile_b, digest_b, _) = run(true);
        prop_assert!(clean.all_nonfaulty_decided(), "clean run blocked");
        prop_assert!(hostile_a.all_nonfaulty_decided(), "hostile run blocked");
        prop_assert_eq!(
            format!("{:?}", clean.statuses()),
            format!("{:?}", hostile_a.statuses()),
            "duplication/reordering changed an outcome"
        );
        prop_assert_eq!(
            digest_a, digest_b,
            "hostile schedule does not replay deterministically"
        );
        prop_assert!(verdict.ok(), "verdict: {verdict:?}");
        let _ = hostile_b;
    }
}
