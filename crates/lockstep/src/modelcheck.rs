//! A bounded exhaustive model checker over lockstep schedule spaces.
//!
//! The Monte-Carlo experiments sample schedules; this module *sweeps*
//! them. For small instances it enumerates every schedule in a coarse
//! but adversarially potent space — per cycle, deliver everything due,
//! deliver nothing, or deliver only within a fixed half of the
//! population (the asymmetry that splits timeout-based protocols) —
//! optionally composed with every single-crash placement within the
//! horizon, finishing each branch deterministically. Every leaf is
//! checked against a caller-supplied safety predicate.
//!
//! Two uses, both exercised in the tests:
//!
//! * **verification** — the commit protocol shows zero violations over
//!   the full swept space at small `n`, for every vote pattern;
//! * **falsification** — the same sweep pointed at three-phase commit
//!   finds the paper's motivating violation (conflicting decisions from
//!   one asymmetrically late message) automatically, and returns the
//!   offending schedule as a replayable witness.

use rtc_model::{Automaton, ProcessorId, Status, Value};

use crate::engine::{LockstepSim, RunSummary};
use crate::policy::{TurnAction, UniformDelayPolicy};
use crate::schedule::Schedule;

/// The per-cycle scheduling choices the checker branches over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleChoice {
    /// Every processor receives everything due.
    DeliverAll,
    /// Nobody receives anything (ages timeouts).
    Silent,
    /// Only the first half of the population receives its due messages
    /// (the asymmetric delivery that splits timeout protocols).
    DeliverFirstHalf,
}

impl CycleChoice {
    /// The full choice set the sweep branches over, in branch order —
    /// exposed so external sweeps (and tests) can enumerate the same
    /// space the checker does.
    pub const ALL: [CycleChoice; 3] = [
        CycleChoice::DeliverAll,
        CycleChoice::Silent,
        CycleChoice::DeliverFirstHalf,
    ];
}

/// Checker parameters.
#[derive(Clone, Copy, Debug)]
pub struct CheckParams {
    /// Cycles of branching (the swept space has `3^depth` schedules per
    /// crash placement).
    pub depth: usize,
    /// Also sweep every single-crash placement: each processor crashing
    /// at each branch cycle (requires a fault budget in the protocol's
    /// own configuration; the checker itself places at most one crash).
    pub sweep_single_crash: bool,
    /// Cycle budget for finishing each branch with prompt delivery.
    pub horizon_cycles: u64,
}

impl Default for CheckParams {
    fn default() -> CheckParams {
        CheckParams {
            depth: 8,
            sweep_single_crash: false,
            horizon_cycles: 2_000,
        }
    }
}

/// A safety violation found by the sweep.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The per-cycle choices of the offending branch prefix.
    pub prefix: Vec<CycleChoice>,
    /// The crash placement, if any: (victim, cycle).
    pub crash: Option<(ProcessorId, usize)>,
    /// Final statuses at the leaf.
    pub statuses: Vec<Status>,
    /// What the predicate reported.
    pub reason: String,
}

/// The checker's verdict.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Leaves explored.
    pub paths: usize,
    /// Violations found (empty = verified over the swept space).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether the swept space is violation-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweeps the schedule space from `make_sim`'s initial configuration,
/// applying `safe` to every leaf's summary. `safe` returns `Err(reason)`
/// to report a violation.
///
/// The checker stops collecting after 8 violations (witnesses, not a
/// census).
pub fn check<A, F, S>(make_sim: F, params: CheckParams, safe: S) -> CheckReport
where
    A: Automaton + Clone,
    A::Msg: Clone,
    F: Fn() -> LockstepSim<A>,
    S: Fn(&RunSummary) -> Result<(), String>,
{
    let mut report = CheckReport {
        paths: 0,
        violations: Vec::new(),
    };
    let template = make_sim();
    let n = template.population();
    // The crash space comes from the shared enumerator so this sweep
    // and the async spec checker (`rtc-spec`) provably cover the same
    // placements.
    let crash_placements: Vec<Option<(ProcessorId, usize)>> = if params.sweep_single_crash {
        rtc_model::sweep::single_crash_placements(n, params.depth)
    } else {
        vec![None]
    };
    for crash in crash_placements {
        let mut prefix = Vec::with_capacity(params.depth);
        explore(&make_sim(), &mut prefix, crash, params, &safe, &mut report);
        if report.violations.len() >= 8 {
            break;
        }
    }
    report
}

fn explore<A, S>(
    sim: &LockstepSim<A>,
    prefix: &mut Vec<CycleChoice>,
    crash: Option<(ProcessorId, usize)>,
    params: CheckParams,
    safe: &S,
    report: &mut CheckReport,
) where
    A: Automaton + Clone,
    A::Msg: Clone,
    S: Fn(&RunSummary) -> Result<(), String>,
{
    if report.violations.len() >= 8 {
        return;
    }
    if prefix.len() == params.depth {
        let mut leaf = sim.clone();
        let (_, summary) = leaf.run_policy(&mut UniformDelayPolicy::new(1), params.horizon_cycles);
        report.paths += 1;
        if let Err(reason) = safe(&summary) {
            report.violations.push(Violation {
                prefix: prefix.clone(),
                crash,
                statuses: summary.statuses,
                reason,
            });
        }
        return;
    }
    let n = sim.population();
    let cycle = prefix.len();
    for choice in CycleChoice::ALL {
        let mut next = sim.clone();
        for turn in 0..n {
            let p = ProcessorId::new(turn);
            let action = if crash == Some((p, cycle)) {
                TurnAction::Fail
            } else {
                match choice {
                    CycleChoice::DeliverAll => TurnAction::DeliverDue,
                    CycleChoice::Silent => TurnAction::Silent,
                    CycleChoice::DeliverFirstHalf => {
                        if turn < n / 2 {
                            TurnAction::DeliverDue
                        } else {
                            TurnAction::Silent
                        }
                    }
                }
            };
            next.step_turn(&action, 1);
        }
        prefix.push(choice);
        explore(&next, prefix, crash, params, safe, report);
        prefix.pop();
        if report.violations.len() >= 8 {
            return;
        }
    }
}

/// The standard safety predicate for commit protocols: at most one
/// decided value, and if any processor started with 0, nobody commits.
///
/// This is a *prefix invariant*, checked on every configuration the
/// explorer reaches — undecided ones included — and it binds crashed
/// processors too. It is deliberately not
/// `rtc_core::properties::verify_commit`, which judges the Section 2.4
/// conditions of a finished *run*: abort validity there binds only
/// deciding runs and only the processors that owe a decision, so
/// checking that instead would let the model checker pass a schedule
/// in which somebody commits against an abort vote and the run then
/// stalls.
pub fn commit_safety(initial: &[Value]) -> impl Fn(&RunSummary) -> Result<(), String> + '_ {
    move |summary: &RunSummary| {
        if !summary.agreement_holds() {
            return Err(format!("conflicting decisions: {:?}", summary.statuses));
        }
        if initial.contains(&Value::Zero) {
            for s in &summary.statuses {
                if s.value() == Some(Value::One) {
                    return Err("committed despite an initial abort vote".into());
                }
            }
        }
        Ok(())
    }
}

/// Greedily minimizes a violation witness: tries to replace each
/// non-default cycle choice with plain [`CycleChoice::DeliverAll`] (and
/// to drop the crash) while the violation persists, yielding a witness
/// with as few scheduling anomalies as possible — usually the clearest
/// demonstration of *which* late message breaks the protocol.
pub fn minimize_witness<A, F, S>(
    make_sim: F,
    params: CheckParams,
    violation: &Violation,
    safe: S,
) -> Violation
where
    A: Automaton + Clone,
    A::Msg: Clone,
    F: Fn() -> LockstepSim<A>,
    S: Fn(&RunSummary) -> Result<(), String>,
{
    let n = make_sim().population();
    let still_violates = |candidate: &Violation| -> Option<String> {
        let schedule = witness_schedule(n, candidate);
        let mut sim = make_sim();
        sim.run_schedule(&schedule, 1);
        let (_, summary) = sim.run_policy(&mut UniformDelayPolicy::new(1), params.horizon_cycles);
        safe(&summary).err()
    };
    let mut best = violation.clone();
    // Try dropping the crash first.
    if best.crash.is_some() {
        let mut candidate = best.clone();
        candidate.crash = None;
        if let Some(reason) = still_violates(&candidate) {
            candidate.reason = reason;
            best = candidate;
        }
    }
    // Then neutralize anomalous cycles one at a time, repeating until a
    // fixed point (later simplifications can enable earlier ones).
    loop {
        let mut improved = false;
        for i in 0..best.prefix.len() {
            if best.prefix[i] == CycleChoice::DeliverAll {
                continue;
            }
            let mut candidate = best.clone();
            candidate.prefix[i] = CycleChoice::DeliverAll;
            if let Some(reason) = still_violates(&candidate) {
                candidate.reason = reason;
                best = candidate;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    best
}

/// Reconstructs the explicit [`Schedule`] of a violation witness so it
/// can be replayed.
pub fn witness_schedule(n: usize, violation: &Violation) -> Schedule {
    let mut turns = Vec::with_capacity(violation.prefix.len() * n);
    for (cycle, choice) in violation.prefix.iter().enumerate() {
        for turn in 0..n {
            let p = ProcessorId::new(turn);
            let action = if violation.crash == Some((p, cycle)) {
                TurnAction::Fail
            } else {
                match choice {
                    CycleChoice::DeliverAll => TurnAction::DeliverDue,
                    CycleChoice::Silent => TurnAction::Silent,
                    CycleChoice::DeliverFirstHalf => {
                        if turn < n / 2 {
                            TurnAction::DeliverDue
                        } else {
                            TurnAction::Silent
                        }
                    }
                }
            };
            turns.push(action);
        }
    }
    Schedule::new(n, turns)
}

#[cfg(test)]
mod tests {
    use rtc_baselines::threepc_population;
    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{SeedCollection, TimingParams};

    use super::*;

    #[test]
    fn commit_protocol_verifies_over_the_swept_space() {
        for votes in [
            vec![Value::One, Value::One, Value::One],
            vec![Value::One, Value::Zero, Value::One],
            vec![Value::Zero, Value::Zero, Value::Zero],
        ] {
            let votes_for_sim = votes.clone();
            let make = move || {
                let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
                LockstepSim::new(
                    commit_population(cfg, &votes_for_sim),
                    SeedCollection::new(5),
                )
                .without_history()
            };
            let report = check(
                make,
                CheckParams {
                    depth: 7,
                    sweep_single_crash: false,
                    horizon_cycles: 1_000,
                },
                commit_safety(&votes),
            );
            assert_eq!(report.paths, 3usize.pow(7));
            assert!(report.ok(), "violations: {:?}", report.violations);
        }
    }

    #[test]
    fn commit_protocol_verifies_with_single_crash_sweep() {
        let votes = vec![Value::One; 3];
        let inner = votes.clone();
        let make = move || {
            let cfg = CommitConfig::new(3, 1, TimingParams::default()).unwrap();
            LockstepSim::new(commit_population(cfg, &inner), SeedCollection::new(7))
                .without_history()
        };
        let report = check(
            make,
            CheckParams {
                depth: 5,
                sweep_single_crash: true,
                horizon_cycles: 1_000,
            },
            commit_safety(&votes),
        );
        // (1 + 3 processors × 5 cycles) crash placements × 3^5 schedules.
        assert_eq!(report.paths, 16 * 3usize.pow(5));
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn checker_rediscovers_the_threepc_violation() {
        // Pointed at 3PC, the same sweep finds the paper's motivating
        // failure: asymmetric delivery around the PreCommit makes one
        // participant abort by the w-timeout while another commits by
        // the p-timeout. No hand-crafted scenario — the checker finds
        // the late message on its own.
        let make = || {
            let procs = threepc_population(3, TimingParams::default(), &[Value::One; 3]);
            LockstepSim::new(procs, SeedCollection::new(3)).without_history()
        };
        let report = check(
            make,
            CheckParams {
                depth: 12,
                sweep_single_crash: false,
                horizon_cycles: 500,
            },
            |summary| {
                if summary.agreement_holds() {
                    Ok(())
                } else {
                    Err("3PC split its decision".into())
                }
            },
        );
        assert!(
            !report.ok(),
            "expected the sweep to find 3PC's inconsistency ({} paths)",
            report.paths
        );
        // The witness replays to the same violation.
        let witness = &report.violations[0];
        let schedule = witness_schedule(3, witness);
        let mut replay = make();
        replay.run_schedule(&schedule, 1);
        let (_, summary) = replay.run_policy(&mut UniformDelayPolicy::new(1), 500);
        assert!(
            !summary.agreement_holds(),
            "witness must reproduce the split"
        );
    }

    #[test]
    fn minimization_shrinks_the_threepc_witness() {
        let make = || {
            let procs = threepc_population(3, TimingParams::default(), &[Value::One; 3]);
            LockstepSim::new(procs, SeedCollection::new(3)).without_history()
        };
        let params = CheckParams {
            depth: 12,
            sweep_single_crash: false,
            horizon_cycles: 500,
        };
        let safe = |summary: &RunSummary| {
            if summary.agreement_holds() {
                Ok(())
            } else {
                Err("split".to_string())
            }
        };
        let report = check(make, params, safe);
        let witness = &report.violations[0];
        let minimal = minimize_witness(make, params, witness, safe);
        let anomalies = |v: &Violation| {
            v.prefix
                .iter()
                .filter(|c| **c != CycleChoice::DeliverAll)
                .count()
        };
        assert!(anomalies(&minimal) <= anomalies(witness));
        assert!(
            anomalies(&minimal) >= 1,
            "3PC needs at least one anomaly to split"
        );
        // The minimal witness still violates.
        let schedule = witness_schedule(3, &minimal);
        let mut replay = make();
        replay.run_schedule(&schedule, 1);
        let (_, summary) = replay.run_policy(&mut UniformDelayPolicy::new(1), 500);
        assert!(!summary.agreement_holds());
    }

    #[test]
    fn witness_schedule_matches_prefix_layout() {
        let v = Violation {
            prefix: vec![CycleChoice::Silent, CycleChoice::DeliverAll],
            crash: Some((ProcessorId::new(1), 0)),
            statuses: vec![],
            reason: String::new(),
        };
        let s = witness_schedule(2, &v);
        assert_eq!(s.len(), 4);
        assert_eq!(s.turns()[0], TurnAction::Silent); // p0, cycle 0
        assert_eq!(s.turns()[1], TurnAction::Fail); // p1 crashes at cycle 0
        assert_eq!(s.turns()[2], TurnAction::DeliverDue);
        assert_eq!(s.turns()[3], TurnAction::DeliverDue);
    }
}
