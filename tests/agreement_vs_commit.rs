//! The paper's Section 1 distinction, made executable: "if one
//! processor begins with 0 and the rest with 1, either 0 or 1 is a
//! correct answer to the agreement problem, whereas in the transaction
//! commit problem, the answer must be 0."

use rtc::baselines::dealer_coins;
use rtc::core::properties::{verify_agreement, verify_commit};
use rtc::prelude::*;

const N: usize = 5;
const T: usize = 2;

fn mixed_inputs() -> Vec<Value> {
    let mut v = vec![Value::One; N];
    v[2] = Value::Zero;
    v
}

#[test]
fn agreement_may_decide_either_value_on_mixed_input() {
    // Sweep seeds until both outcomes have been observed: the agreement
    // problem genuinely permits both, and the protocol exercises that
    // freedom depending on scheduling.
    let inputs = mixed_inputs();
    let mut saw = std::collections::BTreeSet::new();
    for seed in 0..400u64 {
        let procs: Vec<_> = (0..N)
            .map(|i| {
                AgreementAutomaton::new(
                    ProcessorId::new(i),
                    N,
                    T,
                    inputs[i],
                    dealer_coins(64, seed),
                )
            })
            .collect();
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
            .fault_budget(T)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(0.5);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        let verdict = verify_agreement(&inputs, &report.facts());
        assert!(verdict.ok(), "seed {seed}: {verdict:?}");
        assert!(report.all_nonfaulty_decided());
        saw.extend(report.decided_values());
        if saw.len() == 2 {
            break;
        }
    }
    assert_eq!(
        saw.len(),
        2,
        "the agreement problem permits both values on mixed input; observed only {saw:?}"
    );
}

#[test]
fn commit_must_decide_abort_on_the_same_mixed_input() {
    // The very same input vector, fed to the commit protocol, has only
    // one correct answer — and the protocol delivers it on every seed.
    let votes = mixed_inputs();
    for seed in 0..200u64 {
        let cfg = CommitConfig::new(N, T, TimingParams::default()).unwrap();
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(T)
            .build(procs)
            .unwrap();
        let mut adv = RandomAdversary::new(seed).deliver_prob(0.5);
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        let verdict = verify_commit(&votes, &report.facts());
        assert!(verdict.ok(), "seed {seed}: {verdict:?}");
        assert_eq!(
            report.decided_values(),
            vec![Value::Zero],
            "seed {seed}: commit must abort whenever someone voted abort"
        );
    }
}

#[test]
fn commit_forces_abort_even_when_the_aborter_crashes_immediately() {
    // Hardest variant: the lone abort-voter crashes right after its
    // vote broadcast — its dissent must still bind everyone.
    let votes = mixed_inputs();
    let cfg = CommitConfig::new(N, T, TimingParams::default()).unwrap();
    for seed in 0..50u64 {
        let procs = commit_population(cfg, &votes);
        let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
            .fault_budget(T)
            .build(procs)
            .unwrap();
        // Give the vote enough events to leave the aborter's buffer,
        // then kill it keeping its sends (they are guaranteed once a
        // later step happens; KeepAll models prompt delivery).
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(N),
            vec![CrashPlan {
                at_event: 20 + seed % 10,
                victim: ProcessorId::new(2),
                drop: DropPolicy::KeepAll,
            }],
        );
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided(), "seed {seed}");
        for s in report.statuses() {
            if let Some(v) = s.value() {
                assert_eq!(v, Value::Zero, "seed {seed}");
            }
        }
    }
}
