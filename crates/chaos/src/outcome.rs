//! Outcome classification for chaos runs.
//!
//! Every schedule execution ends in exactly one of three classes:
//! *decided* (termination plus all safety conditions), *stalled
//! gracefully* (no termination — which Theorem 11 permits once more
//! than `t` processors are down — but no safety condition broken), or
//! *violation* (a safety condition broke, which no fault schedule may
//! ever cause).

use std::fmt;

use rtc_core::properties::{verify_commit, CommitVerdict, Condition};
use rtc_runtime::ClusterReport;

use crate::schedule::ChaosSchedule;

/// Which substrate executed the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// The discrete-event simulator (`rtc-sim`).
    Sim,
    /// The threaded real-time runtime (`rtc-runtime`).
    Runtime,
    /// The threaded runtime driven by the self-healing supervisor
    /// instead of the schedule's scripted restarts.
    Supervised,
    /// The socket substrate (`rtc-net`): real localhost TCP with faults
    /// injected where frames land, driven by the supervisor.
    Net,
}

impl Substrate {
    /// Every substrate, in the order a campaign runs and reports them.
    pub const ALL: [Substrate; 4] = [
        Substrate::Sim,
        Substrate::Runtime,
        Substrate::Supervised,
        Substrate::Net,
    ];
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Substrate::Sim => write!(f, "sim"),
            Substrate::Runtime => write!(f, "runtime"),
            Substrate::Supervised => write!(f, "supervised"),
            Substrate::Net => write!(f, "net"),
        }
    }
}

/// How one schedule execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Every processor owing a decision decided and all applicable
    /// safety conditions held.
    Decided,
    /// The run ran out of events or wall time without every owed
    /// decision, but no safety condition was violated — the graceful
    /// degradation the paper's Theorem 11 promises beyond `t` crashes.
    StalledGracefully,
    /// A safety condition broke; the payload names it.
    Violation(String),
}

impl ChaosOutcome {
    /// Whether the run kept all safety conditions (decided or stalled).
    pub fn is_safe(&self) -> bool {
        !matches!(self, ChaosOutcome::Violation(_))
    }

    /// Whether the run terminated with every owed decision.
    pub fn is_decided(&self) -> bool {
        matches!(self, ChaosOutcome::Decided)
    }
}

impl fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosOutcome::Decided => write!(f, "decided"),
            ChaosOutcome::StalledGracefully => write!(f, "stalled gracefully"),
            ChaosOutcome::Violation(what) => write!(f, "VIOLATION: {what}"),
        }
    }
}

/// Folds a checker verdict into an outcome.
pub fn classify_verdict(verdict: &CommitVerdict) -> ChaosOutcome {
    if verdict.agreement == Condition::Violated {
        return ChaosOutcome::Violation("agreement".into());
    }
    if verdict.abort_validity == Condition::Violated {
        return ChaosOutcome::Violation("abort validity".into());
    }
    if verdict.commit_validity == Condition::Violated {
        return ChaosOutcome::Violation("commit validity".into());
    }
    if verdict.deciding {
        ChaosOutcome::Decided
    } else {
        ChaosOutcome::StalledGracefully
    }
}

/// The result of executing one schedule on one substrate.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The substrate that ran the schedule.
    pub substrate: Substrate,
    /// The classified outcome.
    pub outcome: ChaosOutcome,
    /// The full condition verdict the outcome was folded from.
    pub verdict: CommitVerdict,
    /// Deliveries the run's [`rtc_model::LatenessMonitor`] classified as
    /// *late* (arriving after some processor took more than `K` steps
    /// in the send–receive window) — the same online monitor on every
    /// substrate.
    pub late_messages: u64,
}

/// Judges one finished channel or socket instance of `schedule`: the
/// one way a wall-clock run becomes a [`ChaosReport`].
pub(crate) fn judge_cluster(
    substrate: Substrate,
    schedule: &ChaosSchedule,
    report: &ClusterReport,
) -> ChaosReport {
    let verdict = verify_commit(&schedule.votes, &report.facts());
    ChaosReport {
        substrate,
        outcome: classify_verdict(&verdict),
        verdict,
        late_messages: report.late_deliveries,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rtc_core::properties::Condition::{Held, NotApplicable as NA, Violated};
    use rtc_model::Value::{One, Zero};
    use rtc_model::{ProcessorId, Status, Value};
    use rtc_runtime::CrashAt;

    use super::*;
    use crate::sim_driver::run_on_sim;

    fn verdict(agreement: Condition, deciding: bool) -> CommitVerdict {
        CommitVerdict {
            agreement,
            abort_validity: Condition::NotApplicable,
            commit_validity: Condition::NotApplicable,
            deciding,
            failure_free: false,
            on_time: false,
        }
    }

    #[test]
    fn classification_covers_all_three_classes() {
        assert_eq!(
            classify_verdict(&verdict(Condition::Held, true)),
            ChaosOutcome::Decided
        );
        assert_eq!(
            classify_verdict(&verdict(Condition::Held, false)),
            ChaosOutcome::StalledGracefully
        );
        let v = classify_verdict(&verdict(Condition::Violated, true));
        assert!(!v.is_safe());
        assert!(v.to_string().contains("agreement"));
    }

    /// A finished wall-clock instance, hand-built: what each processor
    /// decided, who crashed, who came back, and what the run's three
    /// lateness observers saw (monitor count, tick-ledger count,
    /// messages still held).
    fn cluster(
        decisions: &[Option<Value>],
        crashed: &[usize],
        recovered: &[usize],
        (late, late_by_ticks, held): (u64, u64, u64),
    ) -> ClusterReport {
        let flags = |set: &[usize]| (0..decisions.len()).map(|p| set.contains(&p)).collect();
        ClusterReport {
            statuses: decisions
                .iter()
                .map(|d| d.map_or(Status::Undecided, Status::Decided))
                .collect(),
            steps: vec![9; decisions.len()],
            crashed: flags(crashed),
            recovered: flags(recovered),
            messages_sent: 12,
            messages_undelivered: held,
            wall: Duration::ZERO,
            decided_in_time: true,
            late_by_ticks,
            deliveries: 12,
            late_deliveries: late,
        }
    }

    /// `votes` run fault-free but for `crashes`: `(victim, restart)`,
    /// down from step 0 and back — if at all — from its snapshot or not.
    fn schedule(votes: &[Value], crashes: &[(usize, Option<bool>)]) -> ChaosSchedule {
        let mut s = ChaosSchedule::fault_free(votes.len(), 7, votes.to_vec());
        for (victim, restart) in crashes {
            let victim = ProcessorId::new(*victim);
            s.faults.crashes.push(CrashAt {
                victim,
                at_step: 0,
                drop_final_sends: true,
            });
            if let Some(from_snapshot) = *restart {
                s.faults = s.faults.with_restart(victim, 10, from_snapshot);
            }
        }
        s.faults.degraded = crashes.len() > s.t;
        s
    }

    /// Section 2.4, cell by cell: every condition held, violated and —
    /// for each clause of its precondition — not applicable, with a
    /// crashed processor excused and a recovered one owing again. Each
    /// row is judged from a hand-built `ClusterReport`, and wherever a
    /// correct protocol can produce the run, from the simulator's
    /// `RunReport` + `Trace` as well: one judge, the same verdict
    /// (agreement, abort validity, commit validity; deciding,
    /// failure-free, on-time).
    #[test]
    fn one_judge_gives_every_substrate_the_same_verdict() {
        let ok = (0, 0, 0);
        let all = |v: Value| vec![Some(v); 3];
        let (commit, dissent) = ([One; 3], [One, Zero, One]);
        // Two of three down (early abort off, so nobody decides alone),
        // one back as an observer: it owes a decision it cannot reach,
        // and what waited out its downtime arrives late.
        let mut owing = schedule(&[Zero, One, One], &[(1, None), (2, Some(false))]);
        owing.early_abort = false;
        let mut late = schedule(&[One; 5], &[]);
        late.faults = late.faults.with_partition(vec![1, 1, 0, 0, 0], 1, 6);
        type Verdict = ([Condition; 3], [bool; 3]);
        let rows: Vec<(Option<ChaosSchedule>, ClusterReport, Verdict)> = vec![
            // Commit validity binds and holds; abort validity likewise.
            (
                Some(schedule(&commit, &[])),
                cluster(&all(One), &[], &[], ok),
                ([Held, NA, Held], [true, true, true]),
            ),
            (
                Some(schedule(&dissent, &[])),
                cluster(&all(Zero), &[], &[], ok),
                ([Held, Held, NA], [true, true, true]),
            ),
            // A crashed processor is excused; one that recovered and
            // decided makes the run deciding again; one that has not
            // owes. No crash leaves commit validity binding.
            (
                Some(schedule(&commit, &[(2, None)])),
                cluster(&[Some(Zero), Some(Zero), None], &[2], &[], ok),
                ([Held, NA, NA], [true, false, true]),
            ),
            (
                Some(schedule(&commit, &[(2, Some(true))])),
                cluster(&all(Zero), &[2], &[2], ok),
                ([Held, NA, NA], [true, false, true]),
            ),
            (
                Some(owing),
                cluster(&[None; 3], &[1, 2], &[2], (3, 0, 0)),
                ([Held, NA, NA], [false, false, false]),
            ),
            // Lateness excuses an abort on all-commit votes, whoever
            // saw it: the monitor, the tick ledger, a held message.
            (
                Some(late),
                cluster(&[Some(Zero); 5], &[], &[], (1, 0, 0)),
                ([Held, NA, NA], [true, true, false]),
            ),
            (
                None,
                cluster(&all(Zero), &[], &[], (0, 1, 0)),
                ([Held, NA, NA], [true, true, false]),
            ),
            (
                None,
                cluster(&all(Zero), &[], &[], (0, 0, 1)),
                ([Held, NA, NA], [true, true, false]),
            ),
            // What no correct protocol produces. Agreement binds the
            // excused too: a decision made before a crash counts.
            (
                None,
                cluster(&all(Zero), &[], &[], ok),
                ([Held, NA, Violated], [true, true, true]),
            ),
            (
                None,
                cluster(&all(One), &[], &[], ok),
                ([Held, Violated, NA], [true, true, true]),
            ),
            (
                None,
                cluster(&[Some(Zero), Some(Zero), Some(One)], &[2], &[], ok),
                ([Violated, Held, NA], [true, false, true]),
            ),
            // An undecided survivor: validity does not bind.
            (
                None,
                cluster(&[Some(One), None, Some(One)], &[], &[], ok),
                ([Held, NA, NA], [false, true, true]),
            ),
        ];
        for (row, (on_sim, report, (conditions, facts))) in rows.into_iter().enumerate() {
            // Rows without a simulator run vote `commit`, or `dissent`
            // where abort validity is the condition at stake.
            let votes = match &on_sim {
                Some(schedule) => schedule.votes.clone(),
                None if conditions[1] == NA => commit.to_vec(),
                None => dissent.to_vec(),
            };
            let want = CommitVerdict {
                agreement: conditions[0],
                abort_validity: conditions[1],
                commit_validity: conditions[2],
                deciding: facts[0],
                failure_free: facts[1],
                on_time: facts[2],
            };
            let judged = verify_commit(&votes, &report.facts());
            assert_eq!(judged, want, "row {row}, cluster report");
            if let Some(schedule) = on_sim {
                let sim = run_on_sim(&schedule, 20_000);
                assert_eq!(sim.verdict, want, "row {row}, simulator: {sim:?}");
            }
        }
    }
}
