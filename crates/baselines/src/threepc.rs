//! Skeen's three-phase commit with the standard timeout transitions.
//!
//! 3PC removes 2PC's blocking window by inserting a *prepared*
//! (pre-commit) phase: a participant that times out while prepared may
//! safely commit, and one that times out before preparing may safely
//! abort — **provided the timing assumptions hold**. The paper's
//! motivating observation is precisely that this guarantee is brittle:
//! "a single violation of the timing assumptions (i.e., a late message)
//! can cause the protocol to produce the wrong answer."
//!
//! [`precommit_delayer`] packages the canonical failure: one
//! participant's `PreCommit` arrives late, so it aborts by timeout while
//! the prepared participants commit by timeout — two conflicting
//! decisions with **no crashes at all**. Experiment F4 measures how
//! often this costs 3PC consistency while the paper's protocol, run
//! under the very same schedules, merely takes longer.

use std::collections::{HashMap, HashSet};
use std::fmt;

use rtc_model::{Automaton, Decision, Outbox, ProcessorId, Status, StepRng, TimingParams, Value};
use rtc_sim::{Action, ContentAdversary, ContentView, PatternView};

/// A three-phase-commit message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreePcMsg {
    /// Coordinator → participants: request votes.
    CanCommit,
    /// Participant → coordinator: the vote.
    Vote(Value),
    /// Coordinator → participants: everyone voted yes; prepare.
    PreCommit,
    /// Participant → coordinator: prepared.
    Ack,
    /// Coordinator → participants: commit.
    DoCommit,
    /// Coordinator → participants: abort.
    GlobalAbort,
}

/// The wire bundle: all 3PC messages a processor emits at one step,
/// built once and either broadcast or sent to the coordinator.
pub type ThreePcBundle = Vec<ThreePcMsg>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreePcState {
    /// Before `CanCommit` (participant) / before broadcasting it
    /// (coordinator).
    Init,
    /// Participant voted yes, waiting for `PreCommit`; coordinator
    /// collecting votes. Timeout here ⇒ abort.
    Waiting,
    /// Participant acked `PreCommit`, waiting for `DoCommit`;
    /// coordinator collecting acks. Timeout here ⇒ **commit** (the 3PC
    /// prepared-state rule).
    Prepared,
    /// Decision reached.
    Done,
}

/// One processor of three-phase commit. Processor 0 is the coordinator.
#[derive(Clone)]
pub struct ThreePcAutomaton {
    id: ProcessorId,
    n: usize,
    timeout: u64,
    vote: Value,
    clock: u64,
    state: ThreePcState,
    wait_start: Option<u64>,
    votes: HashMap<ProcessorId, Value>,
    acks: HashSet<ProcessorId>,
    decided: Option<Decision>,
}

impl ThreePcAutomaton {
    /// Creates a 3PC processor with initial vote `vote`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside `0..n`.
    pub fn new(id: ProcessorId, n: usize, timing: TimingParams, vote: Value) -> ThreePcAutomaton {
        assert!(id.index() < n, "processor id out of range");
        ThreePcAutomaton {
            id,
            n,
            timeout: timing.vote_timeout(),
            vote,
            clock: 0,
            state: ThreePcState::Init,
            wait_start: None,
            votes: HashMap::new(),
            acks: HashSet::new(),
            decided: None,
        }
    }

    fn decide(&mut self, d: Decision) {
        self.decided.get_or_insert(d);
        self.state = ThreePcState::Done;
    }

    fn rearm(&mut self) {
        self.wait_start = Some(self.clock);
    }

    fn timed_out(&self) -> bool {
        self.wait_start
            .is_some_and(|s| self.clock.saturating_sub(s) >= self.timeout)
    }
}

impl Automaton for ThreePcAutomaton {
    type Msg = ThreePcBundle;

    fn id(&self) -> ProcessorId {
        self.id
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a ThreePcBundle)>,
        _rng: &mut StepRng,
        out: &mut Outbox<ThreePcBundle>,
    ) {
        self.clock += 1;
        let mut to_all: Vec<ThreePcMsg> = Vec::new();
        let mut to_coord: Vec<ThreePcMsg> = Vec::new();
        for (from, bundle) in inbox {
            for msg in bundle {
                match msg {
                    ThreePcMsg::CanCommit => {
                        if !self.id.is_coordinator() && self.state == ThreePcState::Init {
                            to_coord.push(ThreePcMsg::Vote(self.vote));
                            if self.vote == Value::Zero {
                                self.decide(Decision::Abort);
                            } else {
                                self.state = ThreePcState::Waiting;
                                self.rearm();
                            }
                        }
                    }
                    ThreePcMsg::Vote(v) => {
                        if self.id.is_coordinator() {
                            self.votes.entry(from).or_insert(*v);
                        }
                    }
                    ThreePcMsg::PreCommit => {
                        if !self.id.is_coordinator() && self.state == ThreePcState::Waiting {
                            to_coord.push(ThreePcMsg::Ack);
                            self.state = ThreePcState::Prepared;
                            self.rearm();
                        }
                    }
                    ThreePcMsg::Ack => {
                        if self.id.is_coordinator() {
                            self.acks.insert(from);
                        }
                    }
                    ThreePcMsg::DoCommit => {
                        if self.decided.is_none() {
                            self.decide(Decision::Commit);
                        }
                    }
                    ThreePcMsg::GlobalAbort => {
                        if self.decided.is_none() {
                            self.decide(Decision::Abort);
                        }
                    }
                }
            }
        }
        if self.id.is_coordinator() {
            match self.state {
                ThreePcState::Init => {
                    to_all.push(ThreePcMsg::CanCommit);
                    self.votes.insert(self.id, self.vote);
                    if self.vote == Value::Zero {
                        to_all.push(ThreePcMsg::GlobalAbort);
                        self.decide(Decision::Abort);
                    } else {
                        self.state = ThreePcState::Waiting;
                        self.rearm();
                    }
                }
                ThreePcState::Waiting => {
                    let any_no = self.votes.values().any(|v| *v == Value::Zero);
                    let all_in = self.votes.len() == self.n;
                    if any_no || (!all_in && self.timed_out()) {
                        to_all.push(ThreePcMsg::GlobalAbort);
                        self.decide(Decision::Abort);
                    } else if all_in {
                        to_all.push(ThreePcMsg::PreCommit);
                        self.acks.insert(self.id);
                        self.state = ThreePcState::Prepared;
                        self.rearm();
                    }
                }
                ThreePcState::Prepared => {
                    // All participants that will prepare are prepared (or
                    // the timeout says enough waiting): commit. Prepared
                    // participants must commit, so the coordinator never
                    // aborts from here.
                    if self.acks.len() == self.n || self.timed_out() {
                        to_all.push(ThreePcMsg::DoCommit);
                        self.decide(Decision::Commit);
                    }
                }
                ThreePcState::Done => {}
            }
        } else {
            match self.state {
                ThreePcState::Init => {
                    if self.clock >= 4 * self.timeout {
                        // Never heard CanCommit: safe unilateral abort.
                        self.decide(Decision::Abort);
                    }
                }
                ThreePcState::Waiting => {
                    if self.timed_out() {
                        // Not yet prepared: abort (3PC w-state rule).
                        self.decide(Decision::Abort);
                    }
                }
                ThreePcState::Prepared => {
                    if self.timed_out() {
                        // Prepared: commit (3PC p-state rule). This is
                        // the transition a late message weaponizes.
                        self.decide(Decision::Commit);
                    }
                }
                ThreePcState::Done => {}
            }
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

impl fmt::Debug for ThreePcAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreePcAutomaton")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("decided", &self.decided)
            .finish()
    }
}

/// Builds a 3PC population from per-processor votes.
///
/// # Panics
///
/// Panics if `votes.len() != n`.
pub fn threepc_population(
    n: usize,
    timing: TimingParams,
    votes: &[Value],
) -> Vec<ThreePcAutomaton> {
    assert_eq!(votes.len(), n, "one vote per processor");
    (0..n)
        .map(|i| ThreePcAutomaton::new(ProcessorId::new(i), n, timing, votes[i]))
        .collect()
}

/// A fault injector that delays every `PreCommit` addressed to `victim`
/// by `hold_events` global events, scheduling everything else
/// synchronously.
///
/// This is a [`ContentAdversary`] (it matches on payloads) used as a
/// *fault-injection harness*, not as a model adversary: it reproduces
/// the "one late message" scenario deterministically.
#[derive(Debug)]
pub struct PreCommitDelayer {
    cursor: usize,
    victim: ProcessorId,
    hold_events: u64,
}

/// Creates a [`PreCommitDelayer`] for the given victim.
pub fn precommit_delayer(victim: ProcessorId, hold_events: u64) -> PreCommitDelayer {
    PreCommitDelayer {
        cursor: 0,
        victim,
        hold_events,
    }
}

impl ContentAdversary<ThreePcBundle> for PreCommitDelayer {
    fn next(&mut self, view: &ContentView<'_, ThreePcBundle>) -> Action {
        let pattern: &PatternView<'_> = view.pattern();
        let n = pattern.population();
        let mut p = None;
        for _ in 0..n {
            let cand = ProcessorId::new(self.cursor % n);
            self.cursor = (self.cursor + 1) % n;
            if !pattern.is_crashed(cand) {
                p = Some(cand);
                break;
            }
        }
        let p = p.expect("some processor is alive");
        let deliver = view
            .pending_with_payloads(p)
            .into_iter()
            .filter(|(handle, bundle)| {
                let is_precommit_to_victim =
                    p == self.victim && bundle.contains(&ThreePcMsg::PreCommit);
                !is_precommit_to_victim
                    || pattern.event().saturating_sub(handle.send_event) >= self.hold_events
            })
            .map(|(handle, _)| handle.id)
            .collect();
        Action::Step { p, deliver }
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::SeedCollection;
    use rtc_sim::adversaries::SynchronousAdversary;
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    fn timing() -> TimingParams {
        TimingParams::default()
    }

    #[test]
    fn all_yes_commits() {
        let procs = threepc_population(4, timing(), &[Value::One; 4]);
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
        let procs = threepc_population(
            4,
            timing(),
            &[Value::One, Value::Zero, Value::One, Value::One],
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
    fn a_single_late_precommit_splits_the_decision() {
        // All yes; PreCommit to p2 is held past p2's waiting timeout.
        // p2 aborts by the w-state rule while p1 (prepared) commits by
        // the p-state rule: 3PC produces the wrong answer with zero
        // crashes — the paper's motivating scenario.
        let n = 3;
        let procs = threepc_population(n, timing(), &[Value::One; 3]);
        let mut sim = SimBuilder::new(timing(), SeedCollection::new(3))
            .fault_budget(0)
            .build(procs)
            .unwrap();
        let mut adv = precommit_delayer(ProcessorId::new(2), 10_000);
        let report = sim
            .run_content(&mut adv, RunLimits::with_max_events(9_000))
            .unwrap();
        assert!(
            !report.agreement_holds(),
            "expected conflicting decisions, got {:?}",
            report.statuses()
        );
    }
}
