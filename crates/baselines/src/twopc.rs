//! Two-phase commit: the classic blocking baseline.
//!
//! 2PC is safe in any timing model but *blocking*: a participant that
//! has voted yes and then hears nothing (because the coordinator crashed
//! in its window of vulnerability) can never decide unilaterally — the
//! transaction's fate is unknowable to it. Experiment F4 measures this
//! blocking rate side by side with the paper's protocol, which never
//! blocks while a majority survives.
//!
//! The timeout actions implemented are the standard safe ones: a
//! participant that has not yet voted may abort on timeout; one that has
//! voted yes must wait (block) for the decision.

use std::collections::HashMap;
use std::fmt;

use rtc_model::{Automaton, Decision, Outbox, ProcessorId, Status, StepRng, TimingParams, Value};

/// A two-phase-commit message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoPcMsg {
    /// Coordinator → participants: request votes.
    Prepare,
    /// Participant → coordinator: the vote.
    Vote(Value),
    /// Coordinator → participants: the global decision.
    Global(Decision),
}

/// The wire bundle: all 2PC messages a processor emits at one step,
/// built once and either broadcast or sent to the coordinator.
pub type TwoPcBundle = Vec<TwoPcMsg>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TwoPcState {
    /// Coordinator before broadcasting `Prepare`; participant before
    /// receiving it.
    Init,
    /// Coordinator collecting votes; participant has voted yes and
    /// waits for the global decision (the blocking window).
    Waiting,
    /// A decision has been reached.
    Done,
}

/// One processor of two-phase commit. Processor 0 is the coordinator.
#[derive(Clone)]
pub struct TwoPcAutomaton {
    id: ProcessorId,
    n: usize,
    timeout: u64,
    vote: Value,
    clock: u64,
    state: TwoPcState,
    wait_start: Option<u64>,
    votes: HashMap<ProcessorId, Value>,
    decided: Option<Decision>,
    /// True once this participant has voted yes: from here on it may
    /// not abort unilaterally.
    promised: bool,
}

impl TwoPcAutomaton {
    /// Creates a 2PC processor with initial vote `vote`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `0..n`.
    pub fn new(id: ProcessorId, n: usize, timing: TimingParams, vote: Value) -> TwoPcAutomaton {
        assert!(id.index() < n, "processor id out of range");
        TwoPcAutomaton {
            id,
            n,
            timeout: timing.vote_timeout(),
            vote,
            clock: 0,
            state: TwoPcState::Init,
            wait_start: None,
            votes: HashMap::new(),
            decided: None,
            promised: false,
        }
    }

    /// Whether this participant is stuck in the blocking window: it
    /// promised to commit, has no decision, and its wait has outlived
    /// the timeout.
    pub fn in_blocking_window(&self) -> bool {
        self.promised
            && self.decided.is_none()
            && self
                .wait_start
                .is_some_and(|s| self.clock.saturating_sub(s) > 4 * self.timeout)
    }

    fn decide(&mut self, d: Decision) {
        self.decided.get_or_insert(d);
        self.state = TwoPcState::Done;
    }

    fn timed_out(&self) -> bool {
        self.wait_start
            .is_some_and(|s| self.clock.saturating_sub(s) >= self.timeout)
    }
}

impl Automaton for TwoPcAutomaton {
    type Msg = TwoPcBundle;

    fn id(&self) -> ProcessorId {
        self.id
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a TwoPcBundle)>,
        _rng: &mut StepRng,
        out: &mut Outbox<TwoPcBundle>,
    ) {
        self.clock += 1;
        let mut to_all: Vec<TwoPcMsg> = Vec::new();
        let mut to_coord: Vec<TwoPcMsg> = Vec::new();
        for (from, bundle) in inbox {
            for msg in bundle {
                match msg {
                    TwoPcMsg::Prepare => {
                        if !self.id.is_coordinator() && self.state == TwoPcState::Init {
                            to_coord.push(TwoPcMsg::Vote(self.vote));
                            if self.vote == Value::Zero {
                                // Unilateral abort is always allowed.
                                self.decide(Decision::Abort);
                            } else {
                                self.promised = true;
                                self.state = TwoPcState::Waiting;
                                self.wait_start = Some(self.clock);
                            }
                        }
                    }
                    TwoPcMsg::Vote(v) => {
                        if self.id.is_coordinator() {
                            self.votes.entry(from).or_insert(*v);
                        }
                    }
                    TwoPcMsg::Global(decision) => {
                        if self.decided.is_none() {
                            self.decide(*decision);
                        }
                    }
                }
            }
        }
        if self.id.is_coordinator() {
            match self.state {
                TwoPcState::Init => {
                    to_all.push(TwoPcMsg::Prepare);
                    self.votes.insert(self.id, self.vote);
                    if self.vote == Value::Zero {
                        // Coordinator aborts without asking further.
                        to_all.push(TwoPcMsg::Global(Decision::Abort));
                        self.decide(Decision::Abort);
                    } else {
                        self.state = TwoPcState::Waiting;
                        self.wait_start = Some(self.clock);
                    }
                }
                TwoPcState::Waiting => {
                    let all_in = self.votes.len() == self.n;
                    let any_no = self.votes.values().any(|v| *v == Value::Zero);
                    if any_no || (!all_in && self.timed_out()) {
                        to_all.push(TwoPcMsg::Global(Decision::Abort));
                        self.decide(Decision::Abort);
                    } else if all_in {
                        to_all.push(TwoPcMsg::Global(Decision::Commit));
                        self.decide(Decision::Commit);
                    }
                }
                TwoPcState::Done => {}
            }
        } else if self.state == TwoPcState::Init && self.clock >= 4 * self.timeout {
            // Never even heard Prepare: abort unilaterally (safe — it
            // has not voted).
            self.decide(Decision::Abort);
        }
        // A coordinator only broadcasts; a participant only answers the
        // coordinator.
        debug_assert!(to_all.is_empty() || to_coord.is_empty());
        if !to_all.is_empty() {
            out.broadcast(to_all);
        }
        if !to_coord.is_empty() {
            out.send(ProcessorId::COORDINATOR, to_coord);
        }
    }

    fn status(&self) -> Status {
        match self.decided {
            Some(d) => Status::Decided(Value::from(d)),
            None => Status::Undecided,
        }
    }
}

impl fmt::Debug for TwoPcAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoPcAutomaton")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("decided", &self.decided)
            .field("promised", &self.promised)
            .finish()
    }
}

/// Builds a 2PC population from per-processor votes.
///
/// # Panics
///
/// Panics if `votes.len() != n`.
pub fn twopc_population(n: usize, timing: TimingParams, votes: &[Value]) -> Vec<TwoPcAutomaton> {
    assert_eq!(votes.len(), n, "one vote per processor");
    (0..n)
        .map(|i| TwoPcAutomaton::new(ProcessorId::new(i), n, timing, votes[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use rtc_model::SeedCollection;
    use rtc_sim::adversaries::{CrashAdversary, CrashPlan, DropPolicy, SynchronousAdversary};
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    fn timing() -> TimingParams {
        TimingParams::default()
    }

    #[test]
    fn all_yes_commits() {
        let procs = twopc_population(4, timing(), &[Value::One; 4]);
        let mut sim = SimBuilder::new(timing(), SeedCollection::new(1))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(4), RunLimits::default())
            .unwrap();
        assert!(report.all_nonfaulty_decided());
        assert_eq!(report.decided_values(), vec![Value::One]);
    }

    #[test]
    fn one_no_aborts_everyone() {
        let procs = twopc_population(
            4,
            timing(),
            &[Value::One, Value::One, Value::Zero, Value::One],
        );
        let mut sim = SimBuilder::new(timing(), SeedCollection::new(2))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(4), RunLimits::default())
            .unwrap();
        assert!(report.all_nonfaulty_decided());
        assert_eq!(report.decided_values(), vec![Value::Zero]);
    }

    #[test]
    fn coordinator_crash_after_votes_blocks_participants() {
        let n = 3;
        let procs = twopc_population(n, timing(), &[Value::One; 3]);
        let mut sim = SimBuilder::new(timing(), SeedCollection::new(3))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        // Round-robin timeline: event 0 = coordinator broadcasts Prepare,
        // events 1–2 = participants vote yes. Kill the coordinator at
        // event 3, before it can announce the decision.
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(n),
            vec![CrashPlan {
                at_event: 3,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropAll,
            }],
        );
        let report = sim
            .run(&mut adv, RunLimits::with_max_events(5_000))
            .unwrap();
        // Nobody conflicts, but yes-voters are stuck: the blocking window.
        assert!(report.agreement_holds());
        assert!(report.stalled(), "yes-voters must block forever");
        for p in 1..n {
            assert!(sim.automaton(ProcessorId::new(p)).in_blocking_window());
        }
    }

    #[test]
    fn participant_that_never_hears_prepare_aborts() {
        // Coordinator crashes at its very first opportunity, before
        // stepping at all; participants time out in Init and abort.
        let n = 3;
        let procs = twopc_population(n, timing(), &[Value::One; 3]);
        let mut sim = SimBuilder::new(timing(), SeedCollection::new(4))
            .fault_budget(1)
            .build(procs)
            .unwrap();
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(n),
            vec![CrashPlan {
                at_event: 0,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropAll,
            }],
        );
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        assert_eq!(report.decided_values(), vec![Value::Zero]);
    }
}
