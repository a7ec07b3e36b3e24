//! Mechanical checkers for the paper's correctness conditions
//! (Section 2.4).
//!
//! A protocol is a *transaction commit protocol* iff for every
//! `t`-admissible run:
//!
//! * **Agreement**: every configuration has at most one decision value;
//! * **Abort validity**: if the run is deciding and any processor's
//!   initial value is 0, the nonfaulty processors decide 0;
//! * **Commit validity**: if the run is deciding, all initial values are
//!   1, and the run is failure-free and on-time, the nonfaulty
//!   processors decide 1.
//!
//! The checkers below evaluate these over a finished run's report and
//! trace; tests and experiments call them after every simulation.

use rtc_model::{ProcessorId, Status, TimingParams, Value};
use rtc_sim::{RunReport, Trace};

/// Outcome of one condition: it either did not apply to this run (its
/// precondition was unmet), or it applied and held/failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Condition {
    /// The precondition of the rule was not met by this run.
    NotApplicable,
    /// The rule applied and the run satisfied it.
    Held,
    /// The rule applied and the run violated it.
    Violated,
}

impl Condition {
    /// `true` unless the rule applied and was violated.
    pub fn ok(self) -> bool {
        self != Condition::Violated
    }

    fn applied(held: bool) -> Condition {
        if held {
            Condition::Held
        } else {
            Condition::Violated
        }
    }
}

/// The verdict of checking one commit-protocol run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitVerdict {
    /// The agreement condition.
    pub agreement: Condition,
    /// The abort validity condition.
    pub abort_validity: Condition,
    /// The commit validity condition.
    pub commit_validity: Condition,
    /// Whether the run was deciding (every nonfaulty processor decided).
    pub deciding: bool,
    /// Whether the run was failure-free.
    pub failure_free: bool,
    /// Whether the run was on-time at the configured `K`.
    pub on_time: bool,
}

impl CommitVerdict {
    /// Whether every applicable condition held.
    pub fn ok(&self) -> bool {
        self.agreement.ok() && self.abort_validity.ok() && self.commit_validity.ok()
    }
}

/// What one finished run has to say for itself before Section 2.4 can
/// judge it — the facts every substrate can state, however it observed
/// them (an event trace on the simulator, cluster reports and lateness
/// monitors on the wall-clock substrates).
#[derive(Clone, Debug)]
pub struct RunFacts<'a> {
    /// Final status per processor.
    pub statuses: &'a [Status],
    /// Which processors owe no decision: crashed and not brought back.
    /// A recovered processor is not excused — it owes again.
    pub excused: Vec<bool>,
    /// No processor crashed at any point of the run.
    pub failure_free: bool,
    /// No message of the run is late at the configured `K` — none
    /// delivered late, and none still held that can only arrive late.
    pub on_time: bool,
}

/// The three commit conditions of Section 2.4 over a run's facts — the
/// one place in the workspace that decides them (`rtc-spec`'s checker,
/// independent by design, excepted).
///
/// `initial` is the vector of initial votes (the run's initial
/// configuration `I`).
///
/// # Panics
///
/// Panics unless `initial`, `statuses` and `excused` have one entry per
/// processor.
pub fn verify_commit(initial: &[Value], facts: &RunFacts<'_>) -> CommitVerdict {
    assert_eq!(
        initial.len(),
        facts.statuses.len(),
        "one initial value per processor"
    );
    assert_eq!(facts.excused.len(), facts.statuses.len());
    let owing = || {
        facts
            .statuses
            .iter()
            .zip(&facts.excused)
            .filter(|(_, excused)| !**excused)
            .map(|(s, _)| *s)
    };
    let deciding = owing().all(Status::is_decided);
    // Agreement binds every configuration, so a decision made before a
    // crash counts too.
    let mut decided = facts.statuses.iter().filter_map(|s| s.value());
    let agreement = Condition::applied(match decided.next() {
        Some(first) => decided.all(|v| v == first),
        None => true,
    });
    let owed_all = |want: Value| owing().filter_map(Status::value).all(|v| v == want);

    let abort_validity = if deciding && initial.contains(&Value::Zero) {
        Condition::applied(owed_all(Value::Zero))
    } else {
        Condition::NotApplicable
    };
    let commit_validity = if deciding
        && facts.failure_free
        && facts.on_time
        && initial.iter().all(|v| *v == Value::One)
    {
        Condition::applied(owed_all(Value::One))
    } else {
        Condition::NotApplicable
    };

    CommitVerdict {
        agreement,
        abort_validity,
        commit_validity,
        deciding,
        failure_free: facts.failure_free,
        on_time: facts.on_time,
    }
}

/// Checks the three commit conditions over a finished simulator run:
/// states the run's [`RunFacts`] from its report and trace and hands
/// them to [`verify_commit`]. On-time is judged for the *prefix* the
/// trace records: no delivery was late ([`Trace::is_on_time`]) and no
/// message still held is already overdue
/// ([`Trace::has_overdue_pending`]).
///
/// # Panics
///
/// Panics if `initial.len()` differs from the traced population.
pub fn verify_commit_run(
    initial: &[Value],
    report: &RunReport,
    trace: &Trace,
    timing: TimingParams,
) -> CommitVerdict {
    let k = timing.k();
    verify_commit(
        initial,
        &RunFacts {
            statuses: report.statuses(),
            excused: ProcessorId::all(trace.population())
                .map(|p| report.is_faulty(p))
                .collect(),
            failure_free: trace.faulty().is_empty(),
            on_time: trace.is_on_time(k) && !trace.has_overdue_pending(k),
        },
    )
}

/// The verdict of checking one agreement-problem run (Section 2.4's
/// second problem statement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AgreementVerdict {
    /// The agreement condition.
    pub agreement: Condition,
    /// The validity condition (unanimous input must be the output).
    pub validity: Condition,
    /// Whether the run was deciding.
    pub deciding: bool,
}

impl AgreementVerdict {
    /// Whether every applicable condition held.
    pub fn ok(&self) -> bool {
        self.agreement.ok() && self.validity.ok()
    }
}

/// Checks the agreement-problem conditions over a finished run.
///
/// # Panics
///
/// Panics if `initial.len()` differs from the report's population.
pub fn verify_agreement_run(initial: &[Value], report: &RunReport) -> AgreementVerdict {
    let n = report.statuses().len();
    assert_eq!(initial.len(), n, "one initial value per processor");
    let deciding = report.all_nonfaulty_decided();
    let agreement = Condition::applied(report.agreement_holds());
    let unanimous = initial.windows(2).all(|w| w[0] == w[1]);
    let validity = if deciding && unanimous {
        let expected = initial[0];
        let ok = ProcessorId::all(n)
            .filter(|p| !report.is_faulty(*p))
            .filter_map(|p| report.statuses()[p.index()].value())
            .all(|v| v == expected);
        Condition::applied(ok)
    } else {
        Condition::NotApplicable
    };
    AgreementVerdict {
        agreement,
        validity,
        deciding,
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{SeedCollection, TimingParams};
    use rtc_sim::adversaries::SynchronousAdversary;
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;
    use crate::config::CommitConfig;
    use crate::protocol2::commit_population;

    fn run(votes: &[Value], seed: u64) -> CommitVerdict {
        let n = votes.len();
        let c =
            CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
        let procs = commit_population(c, votes);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(n), RunLimits::default())
            .unwrap();
        verify_commit_run(votes, &report, sim.trace(), c.timing())
    }

    #[test]
    fn clean_commit_run_satisfies_everything() {
        let v = run(&[Value::One; 4], 21);
        assert!(v.ok());
        assert_eq!(v.agreement, Condition::Held);
        assert_eq!(v.commit_validity, Condition::Held);
        assert_eq!(v.abort_validity, Condition::NotApplicable);
        assert!(v.deciding && v.failure_free && v.on_time);
    }

    #[test]
    fn abort_run_satisfies_abort_validity() {
        let v = run(&[Value::One, Value::Zero, Value::One], 22);
        assert!(v.ok());
        assert_eq!(v.abort_validity, Condition::Held);
        assert_eq!(v.commit_validity, Condition::NotApplicable);
    }

    #[test]
    fn condition_ok_logic() {
        assert!(Condition::NotApplicable.ok());
        assert!(Condition::Held.ok());
        assert!(!Condition::Violated.ok());
    }

    #[test]
    fn agreement_problem_checker_on_commit_run() {
        // Use the commit automata as an agreement protocol for unanimous
        // inputs: the verdict's validity clause must hold.
        let n = 3;
        let votes = [Value::One; 3];
        let c = CommitConfig::new(n, 1, TimingParams::default()).unwrap();
        let procs = commit_population(c, &votes);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(8))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(n), RunLimits::default())
            .unwrap();
        let v = verify_agreement_run(&votes, &report);
        assert!(v.ok());
        assert_eq!(v.validity, Condition::Held);
    }
}
