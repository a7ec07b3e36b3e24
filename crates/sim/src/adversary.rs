//! The adversary interface: Section 2.3 as a trait.
//!
//! The adversary is a scheduler. At every point it sees the *message
//! pattern* of the run so far — who sent messages to whom at which
//! events, who has crashed, and how many steps each processor has taken
//! (deducible from the pattern, since the adversary itself chose the
//! steps) — and picks the next event: step some processor with a chosen
//! set of its buffered messages, or crash a processor. It never sees
//! message contents, local states, or the results of coin flips.

use rtc_model::{LocalClock, ProcessorId};

use crate::bodies::BodySlab;
use crate::envelope::{IdRun, MsgHandle, MsgId};
use crate::store::MsgStore;

/// The next event, as chosen by an adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Step processor `p`, delivering the listed buffered messages.
    Step {
        /// The processor that takes the step.
        p: ProcessorId,
        /// Ids of messages from `p`'s buffer to deliver at this step.
        /// May be empty (the paper's events allow `M = ∅`).
        deliver: Vec<MsgId>,
    },
    /// Step processor `p` with its whole buffer: Section 2.1's
    /// well-behaved event. The same event as a [`Action::Step`] listing
    /// every message [`PatternView::pending`] shows for `p`, in that
    /// order — recorded the same, refused the same — without the list.
    StepAll {
        /// The processor that takes the step.
        p: ProcessorId,
    },
    /// Crash processor `p` (an explicit failure step). Messages sent at
    /// `p`'s final step are not guaranteed; the adversary may name a
    /// subset of them to drop.
    Crash {
        /// The processor to crash.
        p: ProcessorId,
        /// Still-undelivered messages sent at `p`'s last step that
        /// should never be delivered.
        drop: Vec<MsgId>,
    },
    /// Duplicate a buffered message: a copy with a fresh [`MsgId`] (and
    /// the current event as its send event) is enqueued at the tail of
    /// the same destination's buffer. Both copies are guaranteed, so the
    /// destination ingests the same payload twice — which the protocol
    /// automata must tolerate idempotently.
    Duplicate {
        /// The buffered message to duplicate.
        id: MsgId,
    },
}

/// The message pattern of the run so far: everything a Section-2.3
/// adversary is allowed to observe.
#[derive(Debug)]
pub struct PatternView<'a> {
    /// The viewed instance's buffered messages.
    pub(crate) store: &'a MsgStore,
    /// Per-processor run of ids it emitted at its most recent step.
    /// Some may have been delivered since; `last_sends_of` filters
    /// those out through the store.
    pub(crate) last_run: &'a [IdRun],
    pub(crate) clocks: &'a [LocalClock],
    pub(crate) crashed: &'a [bool],
    pub(crate) last_step_event: &'a [Option<u64>],
    pub(crate) event: u64,
    pub(crate) fault_budget: usize,
    pub(crate) crashes_used: usize,
}

impl<'a> PatternView<'a> {
    /// Number of processors.
    pub fn population(&self) -> usize {
        self.clocks.len()
    }

    /// Global index of the event about to be scheduled.
    pub fn event(&self) -> u64 {
        self.event
    }

    /// Processor `p`'s clock (number of steps it has taken).
    pub fn clock_of(&self, p: ProcessorId) -> LocalClock {
        self.clocks[p.index()]
    }

    /// Whether `p` has crashed.
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.crashed[p.index()]
    }

    /// Processors that have not crashed.
    pub fn alive(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        ProcessorId::all(self.population()).filter(|p| !self.is_crashed(*p))
    }

    /// Handles of the messages currently buffered for `p`.
    pub fn pending(&self, p: ProcessorId) -> Vec<MsgHandle> {
        self.pending_iter(p).collect()
    }

    /// Iterates `p`'s buffered messages in insertion (= send-event)
    /// order without allocating — same order as [`PatternView::pending`].
    pub fn pending_iter(&self, p: ProcessorId) -> impl Iterator<Item = MsgHandle> + '_ {
        self.store.iter_dest(p.index())
    }

    /// Number of messages currently buffered for `p`, in O(1).
    pub fn pending_count(&self, p: ProcessorId) -> usize {
        self.store.len_of(p.index())
    }

    /// Handles of all undelivered messages sent by `p` at its most
    /// recent step — the ones a [`Action::Crash`] may drop. Ordered by
    /// destination, ascending.
    pub fn last_sends_of(&self, p: ProcessorId) -> Vec<MsgHandle> {
        let Some(last) = self.last_step_event[p.index()] else {
            return Vec::new();
        };
        let mut sends: Vec<MsgHandle> = self.last_run[p.index()]
            .iter()
            .filter_map(|id| self.store.lookup(id))
            .filter(|m| m.from == p && m.send_event == last)
            .collect();
        // At most one message per destination per step, so the
        // destination is a total order on the run. A broadcast is filed
        // ascending already; direct sends made out of order are not.
        sends.sort_unstable_by_key(|m| m.to.index());
        sends
    }

    /// How many more crashes the fault budget `t` permits.
    pub fn crashes_remaining(&self) -> usize {
        self.fault_budget.saturating_sub(self.crashes_used)
    }
}

/// A Section-2.3 adversary: pattern-only vision.
///
/// Implementations must eventually let the run make progress; the
/// engine's fairness envelope of `64 · n` events enforces this
/// mechanically for admissible adversaries. An adversary used to
/// demonstrate a lower bound may return `false` from
/// [`Adversary::admissible`]; the engine then permits unfair schedules
/// (starvation, permanent partition, more than `t` crashes) and flags
/// the run as inadmissible in its report.
pub trait Adversary {
    /// Chooses the next event.
    fn next(&mut self, view: &PatternView<'_>) -> Action;

    /// Whether this adversary promises `t`-admissible behaviour.
    fn admissible(&self) -> bool {
        true
    }
}

impl<T: Adversary + ?Sized> Adversary for Box<T> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        (**self).next(view)
    }

    fn admissible(&self) -> bool {
        (**self).admissible()
    }
}

impl<T: Adversary + ?Sized> Adversary for &mut T {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        (**self).next(view)
    }

    fn admissible(&self) -> bool {
        (**self).admissible()
    }
}

/// A view that additionally exposes message payloads.
///
/// **This exceeds the paper's adversary model.** It exists for
/// diagnostic experiments only (e.g. exhibiting Ben-Or's exponential
/// worst case in experiment F1, which needs a value-tracking scheduler).
/// Results obtained against a [`ContentAdversary`] are always labelled
/// as such in `EXPERIMENTS.md`.
#[derive(Debug)]
pub struct ContentView<'a, M> {
    pub(crate) pattern: PatternView<'a>,
    /// The message bodies the store's runs name.
    pub(crate) bodies: &'a BodySlab<M>,
}

impl<'a, M> ContentView<'a, M> {
    /// The pattern-visible part of the view.
    pub fn pattern(&self) -> &PatternView<'a> {
        &self.pattern
    }

    /// The payload of a buffered message, if it is still pending.
    pub fn payload(&self, id: MsgId) -> Option<&M> {
        let body = self.pattern.store.body_of(id)?;
        self.bodies.msg(body)
    }

    /// All pending (handle, payload) pairs buffered for `p`.
    pub fn pending_with_payloads(&self, p: ProcessorId) -> Vec<(MsgHandle, &M)> {
        self.pattern
            .store
            .iter_dest_bodies(p.index())
            .filter_map(|(m, body)| Some((m, self.bodies.msg(body)?)))
            .collect()
    }
}

/// A scheduler that may inspect message contents (see [`ContentView`]).
pub trait ContentAdversary<M> {
    /// Chooses the next event.
    fn next(&mut self, view: &ContentView<'_, M>) -> Action;

    /// Whether this adversary promises `t`-admissible behaviour.
    fn admissible(&self) -> bool {
        true
    }
}

/// Every pattern-only adversary is trivially a content adversary that
/// ignores the payloads.
impl<M, T: Adversary + ?Sized> ContentAdversary<M> for T {
    fn next(&mut self, view: &ContentView<'_, M>) -> Action {
        Adversary::next(self, view.pattern())
    }

    fn admissible(&self) -> bool {
        Adversary::admissible(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u64, from: usize, to: usize, send_event: u64) -> MsgHandle {
        MsgHandle {
            id: MsgId(id),
            from: ProcessorId::new(from),
            to: ProcessorId::new(to),
            send_event,
            sender_clock: LocalClock::new(1),
        }
    }

    #[test]
    fn pattern_view_exposes_pending_and_budget() {
        let mut store = MsgStore::new(2);
        store.file_one(meta(0, 1, 0, 5), 0);
        let last_run = vec![IdRun::new(MsgId(0), 0), IdRun::new(MsgId(0), 1)];
        let clocks = vec![LocalClock::new(2), LocalClock::new(3)];
        let crashed = vec![false, false];
        let last = vec![Some(4), Some(5)];
        let view = PatternView {
            store: &store,
            last_run: &last_run,
            clocks: &clocks,
            crashed: &crashed,
            last_step_event: &last,
            event: 6,
            fault_budget: 1,
            crashes_used: 0,
        };
        assert_eq!(view.population(), 2);
        assert_eq!(view.pending(ProcessorId::new(0)).len(), 1);
        assert_eq!(view.pending(ProcessorId::new(1)).len(), 0);
        assert_eq!(view.pending_count(ProcessorId::new(0)), 1);
        assert_eq!(view.crashes_remaining(), 1);
        assert_eq!(view.alive().count(), 2);
        // p1's last step was event 5, and its pending message was sent at
        // event 5, so it is droppable at a crash of p1.
        let sends = view.last_sends_of(ProcessorId::new(1));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].id, MsgId(0));
        // p0's last step was event 4; it has no pending sends from it.
        assert!(view.last_sends_of(ProcessorId::new(0)).is_empty());
    }

    #[test]
    fn last_sends_filters_by_event() {
        let mut store = MsgStore::new(2);
        store.file_one(meta(0, 0, 1, 7), 0);
        store.file_one(meta(1, 0, 1, 9), 0);
        // An id of an earlier step (id 0, sent at event 7) must be
        // filtered out by the send_event check.
        let last_run = vec![IdRun::new(MsgId(0), 2), IdRun::new(MsgId(0), 0)];
        let clocks = vec![LocalClock::new(9), LocalClock::new(0)];
        let crashed = vec![false, false];
        let last = vec![Some(9), None];
        let view = PatternView {
            store: &store,
            last_run: &last_run,
            clocks: &clocks,
            crashed: &crashed,
            last_step_event: &last,
            event: 10,
            fault_budget: 0,
            crashes_used: 0,
        };
        let sends = view.last_sends_of(ProcessorId::new(0));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].id, MsgId(1));
    }

    #[test]
    fn content_view_finds_payload() {
        let mut store = MsgStore::new(1);
        let mut bodies = BodySlab::new();
        let body = bodies.store("hello", 1);
        store.file_one(meta(0, 1, 0, 5), body);
        let last_run = vec![IdRun::new(MsgId(0), 0)];
        let clocks = vec![LocalClock::new(2)];
        let crashed = vec![false];
        let last = vec![None];
        let view = ContentView {
            pattern: PatternView {
                store: &store,
                last_run: &last_run,
                clocks: &clocks,
                crashed: &crashed,
                last_step_event: &last,
                event: 6,
                fault_budget: 0,
                crashes_used: 0,
            },
            bodies: &bodies,
        };
        assert_eq!(view.payload(MsgId(0)), Some(&"hello"));
        assert_eq!(view.payload(MsgId(9)), None);
        assert_eq!(view.pending_with_payloads(ProcessorId::new(0)).len(), 1);
    }
}
