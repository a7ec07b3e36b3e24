//! The Monte-Carlo harness: run one protocol instance under a chosen
//! adversary and extract every metric the experiments need.

use rtc_core::{commit_population, properties, CommitConfig};
use rtc_model::{Decision, ProcessorId, SeedCollection, Value};
use rtc_sim::rounds::RoundAccountant;
use rtc_sim::{Adversary, RunLimits, RunMetrics, Sim, SimBuilder};

/// Everything measured from one commit-protocol run.
#[derive(Clone, Debug)]
pub struct CommitRunResult {
    /// Whether every nonfaulty processor decided.
    pub decided: bool,
    /// Whether the run hit its event cap.
    pub stalled: bool,
    /// Whether at most one value was decided.
    pub agreement: bool,
    /// Whether all applicable correctness conditions held.
    pub verdict_ok: bool,
    /// Per-processor decisions.
    pub decisions: Vec<Option<Decision>>,
    /// The round by which all nonfaulty processors decided (the paper's
    /// `DONE` round), if they all did within the accounting horizon.
    pub done_round: Option<u64>,
    /// The worst nonfaulty decision clock, in local ticks.
    pub worst_ticks: Option<u64>,
    /// Per-processor decision clocks, in local ticks.
    pub decision_clocks: Vec<Option<u64>>,
    /// The largest Protocol 1 decision stage among nonfaulty deciders.
    pub max_stage: Option<u64>,
    /// Messages sent in total.
    pub messages: usize,
    /// Whether the run was on-time at the configured `K`.
    pub on_time: bool,
    /// Number of crashed processors.
    pub crashes: usize,
}

/// Horizon for round accounting; the paper's expectation is 14, so 64
/// rounds of headroom classifies every plausible run.
const ROUND_HORIZON: usize = 64;

/// Runs one commit instance to completion under `adversary`.
///
/// # Panics
///
/// Panics if the adversary violates the model (a bug in the experiment,
/// not in the protocol).
pub fn run_commit(
    cfg: CommitConfig,
    votes: &[Value],
    seed: u64,
    adversary: &mut dyn Adversary,
    limits: RunLimits,
) -> CommitRunResult {
    let procs = commit_population(cfg, votes);
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .expect("valid population");
    let report = sim
        .run(adversary, limits)
        .expect("adversary respects the model");
    summarize(cfg, votes, &sim, &report)
}

fn summarize(
    cfg: CommitConfig,
    votes: &[Value],
    sim: &Sim<rtc_core::CommitAutomaton>,
    report: &rtc_sim::RunReport,
) -> CommitRunResult {
    let trace = sim.trace();
    let facts = report.facts();
    let verdict = properties::verify_commit(votes, &facts);
    let metrics = RunMetrics::from_trace(trace);
    let accountant = RoundAccountant::new(trace, cfg.timing());
    let done_round = if report.all_nonfaulty_decided() {
        accountant.done_round(ROUND_HORIZON)
    } else {
        None
    };
    let max_stage = ProcessorId::all(cfg.population())
        .filter(|p| !report.is_faulty(*p))
        .filter_map(|p| sim.automaton(p).agreement().and_then(|a| a.decision()))
        .map(|(_, stage)| stage)
        .max();
    CommitRunResult {
        decided: report.all_nonfaulty_decided(),
        stalled: report.stalled(),
        agreement: report.agreement_holds(),
        verdict_ok: verdict.ok(),
        decisions: report.statuses().iter().map(|s| s.decision()).collect(),
        done_round,
        worst_ticks: metrics.worst_nonfaulty_decision_clock,
        decision_clocks: metrics.decision_clocks.clone(),
        max_stage,
        messages: metrics.messages_sent,
        on_time: facts.on_time,
        crashes: trace.faulty().len(),
    }
}

/// A standard mixed-vote pattern: all commit except every `stride`-th
/// processor.
pub fn mixed_votes(n: usize, stride: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            if stride > 0 && i % stride == stride - 1 {
                Value::Zero
            } else {
                Value::One
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use rtc_model::TimingParams;
    use rtc_sim::adversaries::SynchronousAdversary;

    use super::*;

    #[test]
    fn harness_extracts_all_metrics() {
        let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
        let votes = vec![Value::One; 5];
        let mut adv = SynchronousAdversary::new(5);
        let r = run_commit(cfg, &votes, 1, &mut adv, RunLimits::default());
        assert!(r.decided && !r.stalled && r.agreement && r.verdict_ok);
        assert!(r.done_round.is_some());
        assert!(r.worst_ticks.is_some());
        assert!(r.max_stage.is_some());
        assert!(r.messages > 0);
        assert!(r.on_time);
        assert_eq!(r.crashes, 0);
        assert!(r.decisions.iter().all(|d| *d == Some(Decision::Commit)));
    }

    #[test]
    fn mixed_votes_places_zeros() {
        assert_eq!(
            mixed_votes(4, 2),
            vec![Value::One, Value::Zero, Value::One, Value::Zero]
        );
        assert_eq!(mixed_votes(3, 0), vec![Value::One; 3]);
    }

    /// A trial derives everything from its seed, so the experiments'
    /// parallel map folds to the serial loop's results.
    #[test]
    fn parallel_map_matches_the_serial_fold_of_run_commit() {
        use rtc_model::sweep::par_map;
        use rtc_sim::adversaries::RandomAdversary;

        let cfg = CommitConfig::new(5, 2, TimingParams::default()).unwrap();
        let votes = vec![Value::One; 5];
        let run = |seed: u64| {
            let mut adv = RandomAdversary::new(seed).deliver_prob(0.6);
            let r = run_commit(cfg, &votes, seed, &mut adv, RunLimits::default());
            (r.decided, r.messages, r.max_stage)
        };
        let serial: Vec<_> = (0..12).map(run).collect();
        assert_eq!(par_map(12, 0, run), serial);
    }
}
