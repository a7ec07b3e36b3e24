//! Record and replay of adversary decisions in the asynchronous model.
//!
//! The lockstep crate treats schedules as first-class data; this module
//! brings the same capability to the asynchronous engine. A
//! [`Recorder`] wraps any adversary and logs the exact [`Action`]
//! sequence it produced (including fairness-envelope overrides are NOT
//! captured — recording happens at the adversary boundary, so replays
//! re-run under the same envelope and reproduce the same run for the
//! same `(I, F)`). A [`Replayer`] feeds a recorded sequence back.
//!
//! Uses: pinning regressions to exact schedules, shrinking failing
//! property-test cases into deterministic unit tests, and sharing
//! interesting schedules between experiments.

use std::fmt;

use crate::adversary::{Action, Adversary, PatternView};

/// Wraps an adversary, recording every action it takes.
pub struct Recorder<A> {
    inner: A,
    log: Vec<Action>,
}

impl<A: Adversary> Recorder<A> {
    /// Starts recording `inner`.
    pub fn new(inner: A) -> Recorder<A> {
        Recorder {
            inner,
            log: Vec::new(),
        }
    }

    /// The actions recorded so far.
    pub fn log(&self) -> &[Action] {
        &self.log
    }

    /// Consumes the recorder, returning the action log.
    pub fn into_log(self) -> Vec<Action> {
        self.log
    }
}

impl<A: Adversary> Adversary for Recorder<A> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        let action = self.inner.next(view);
        self.log.push(action.clone());
        action
    }

    fn admissible(&self) -> bool {
        self.inner.admissible()
    }
}

impl<A: fmt::Debug> fmt::Debug for Recorder<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("inner", &self.inner)
            .field("recorded", &self.log.len())
            .finish()
    }
}

/// Replays a recorded action sequence.
///
/// Once the log is exhausted it falls back to stepping processors
/// round-robin with full delivery (so a replayed prefix can be extended
/// benignly).
#[derive(Debug)]
pub struct Replayer {
    log: Vec<Action>,
    cursor: usize,
    fallback_cursor: usize,
    admissible: bool,
}

impl Replayer {
    /// Replays `log`, claiming admissibility.
    pub fn new(log: Vec<Action>) -> Replayer {
        Replayer {
            log,
            cursor: 0,
            fallback_cursor: 0,
            admissible: true,
        }
    }

    /// Replays `log` without the admissibility promise (for recorded
    /// lower-bound schedules).
    pub fn inadmissible(log: Vec<Action>) -> Replayer {
        Replayer {
            admissible: false,
            ..Replayer::new(log)
        }
    }

    /// How many recorded actions have been replayed.
    pub fn replayed(&self) -> usize {
        self.cursor
    }
}

impl Adversary for Replayer {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        if let Some(action) = self.log.get(self.cursor) {
            self.cursor += 1;
            return action.clone();
        }
        // Benign extension: next alive processor, deliver everything.
        let n = view.population();
        for _ in 0..n {
            let p = rtc_model::ProcessorId::new(self.fallback_cursor % n);
            self.fallback_cursor = (self.fallback_cursor + 1) % n;
            if !view.is_crashed(p) {
                return Action::StepAll { p };
            }
        }
        unreachable!("some processor is alive");
    }

    fn admissible(&self) -> bool {
        self.admissible
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{
        Automaton, Outbox, ProcessorId, SeedCollection, Status, StepRng, TimingParams, Value,
    };

    use super::*;
    use crate::adversaries::RandomAdversary;
    use crate::{RunLimits, SimBuilder};

    /// Ping-pong automaton: replies to everything; decides after 5
    /// exchanges.
    struct PingPong {
        id: ProcessorId,
        n: usize,
        exchanges: usize,
    }

    impl Automaton for PingPong {
        type Msg = u8;
        fn id(&self) -> ProcessorId {
            self.id
        }
        fn population(&self) -> usize {
            self.n
        }
        fn step_into<'a>(
            &mut self,
            mut inbox: impl Iterator<Item = (ProcessorId, &'a u8)>,
            _rng: &mut StepRng,
            out: &mut Outbox<u8>,
        ) {
            let first = inbox.next();
            self.exchanges += first.iter().count() + inbox.count();
            if self.exchanges == 0 && self.id.is_coordinator() {
                out.broadcast(0);
            }
            if let Some((from, _)) = first {
                out.send(from, 1);
            }
        }
        fn status(&self) -> Status {
            if self.exchanges >= 5 {
                Status::Decided(Value::One)
            } else {
                Status::Undecided
            }
        }
    }

    fn population(n: usize) -> Vec<PingPong> {
        ProcessorId::all(n)
            .map(|id| PingPong {
                id,
                n,
                exchanges: 0,
            })
            .collect()
    }

    #[test]
    fn replaying_a_recorded_run_reproduces_it_exactly() {
        let n = 3;
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(9))
            .build(population(n))
            .unwrap();
        let mut recorder = Recorder::new(RandomAdversary::new(5).deliver_prob(0.6));
        let original = sim.run(&mut recorder, RunLimits::default()).unwrap();
        let original_msgs = sim.trace().messages().len();

        let mut replay_sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(9))
            .build(population(n))
            .unwrap();
        let mut replayer = Replayer::new(recorder.into_log());
        let replayed = replay_sim.run(&mut replayer, RunLimits::default()).unwrap();

        assert_eq!(original.events(), replayed.events());
        assert_eq!(original.statuses(), replayed.statuses());
        assert_eq!(original_msgs, replay_sim.trace().messages().len());
    }

    #[test]
    fn replayer_extends_benignly_past_the_log() {
        let n = 2;
        // An empty log: pure fallback must still finish the run.
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(1))
            .build(population(n))
            .unwrap();
        let mut replayer = Replayer::new(Vec::new());
        let report = sim.run(&mut replayer, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        assert_eq!(replayer.replayed(), 0);
    }

    #[test]
    fn recorder_log_matches_event_count_before_forcing() {
        let n = 3;
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(2))
            .build(population(n))
            .unwrap();
        let mut recorder = Recorder::new(RandomAdversary::new(1).deliver_prob(1.0));
        let report = sim.run(&mut recorder, RunLimits::default()).unwrap();
        // With full delivery, the fairness envelope never intervenes, so
        // every event corresponds to one recorded action.
        assert_eq!(report.events() as usize, recorder.log().len());
    }
}
