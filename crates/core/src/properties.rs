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
//! The checkers below evaluate these over a finished run's
//! [`RunFacts`], which every substrate's report states for itself
//! (`RunReport::facts` on the simulator, `ClusterReport::facts` on
//! channels and sockets); tests and experiments call them after every
//! run, whatever executed it.

use rtc_model::{RunFacts, Status, Value};

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
    let deciding = owing(facts).all(Status::is_decided);
    // Agreement binds every configuration, so a decision made before a
    // crash counts too.
    let mut decided = facts.statuses.iter().filter_map(|s| s.value());
    let agreement = Condition::applied(match decided.next() {
        Some(first) => decided.all(|v| v == first),
        None => true,
    });

    let abort_validity = if deciding && initial.contains(&Value::Zero) {
        Condition::applied(owed_all(facts, Value::Zero))
    } else {
        Condition::NotApplicable
    };
    let commit_validity = if deciding
        && facts.failure_free
        && facts.on_time
        && initial.iter().all(|v| *v == Value::One)
    {
        Condition::applied(owed_all(facts, Value::One))
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

/// The statuses of the processors that owe a decision.
fn owing<'f>(facts: &'f RunFacts<'_>) -> impl Iterator<Item = Status> + 'f {
    facts
        .statuses
        .iter()
        .zip(&facts.excused)
        .filter(|(_, excused)| !**excused)
        .map(|(s, _)| *s)
}

/// Whether every processor that owes a decision and made one decided
/// `want`.
fn owed_all(facts: &RunFacts<'_>, want: Value) -> bool {
    owing(facts).filter_map(Status::value).all(|v| v == want)
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

/// The agreement-problem conditions over a run's facts: agreement and
/// deciding as for [`verify_commit`], and validity — a unanimous input
/// is the only value a processor that owes a decision may decide.
///
/// # Panics
///
/// As [`verify_commit`].
pub fn verify_agreement(initial: &[Value], facts: &RunFacts<'_>) -> AgreementVerdict {
    let commit = verify_commit(initial, facts);
    let unanimous = initial.windows(2).all(|w| w[0] == w[1]);
    let validity = if commit.deciding && unanimous {
        Condition::applied(owed_all(facts, initial[0]))
    } else {
        Condition::NotApplicable
    };
    AgreementVerdict {
        agreement: commit.agreement,
        validity,
        deciding: commit.deciding,
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
        verify_commit(votes, &report.facts())
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
        let v = verify_agreement(&votes, &report.facts());
        assert!(v.ok());
        assert_eq!(v.validity, Condition::Held);
    }
}
