//! Hostile schedules for the batch equivalence corpus: the places
//! where filing a step's sends as one *run* could go wrong.
//!
//! A [`Hostile`] adversary scripts, on top of any benign inner
//! adversary, a `Duplicate` of one slot of a broadcast whose other
//! slots are still buffered and a crash that drops a strict subset of
//! the victim's final broadcast; the driver then
//! revives the victim as an amnesiac rejoiner at [`revive_at`], whose
//! pings draw direct catch-up replies. [`InPlace`] makes a population
//! substitute a direct send in place of a broadcast slot at every
//! opportunity, so that path does not depend on the rejoin timing.
//!
//! Used by `tests/batch_equivalence.rs`.

use rtc::model::{Outbox, Recoverable, StepRng};
use rtc::prelude::*;
use rtc::sim::{Action, EventView, PatternView, Trace};

/// Event bound of a hostile run: generous for the populations of the
/// corpus, small enough that a schedule that stalls still ends quickly.
pub const LIMITS: RunLimits = RunLimits {
    max_events: 30_000,
    stop: rtc::sim::StopWhen::AllNonfaultyDecided,
};

/// The absolute event at which the driver revives the victim (if the
/// crash has fired by then): a few rotations in.
pub fn revive_at(n: usize) -> u64 {
    6 * n as u64
}

/// The amnesiac automaton the driver revives processor `p` with.
pub fn rejoiner(cfg: CommitConfig, p: ProcessorId, vote: Value) -> CommitAutomaton {
    CommitAutomaton::restore_amnesiac(&CommitAutomaton::new(cfg, p, vote).snapshot())
}

/// A benign adversary with one duplicate and one partial-drop crash
/// scripted on top. Each fault fires at the first
/// event at or after its due point at which the pattern allows it.
pub struct Hostile {
    inner: Box<dyn Adversary>,
    victim: ProcessorId,
    duplicate_at: Option<u64>,
    crash_at: Option<u64>,
}

impl Hostile {
    /// Faults over `inner` for a population of `n`, placed by `seed`.
    pub fn new(inner: Box<dyn Adversary>, n: usize, seed: u64) -> Hostile {
        let n = n as u64;
        Hostile {
            inner,
            victim: ProcessorId::new((1 + seed % (n - 1)) as usize),
            duplicate_at: Some(1 + seed % n),
            crash_at: Some(2 * n + seed % n),
        }
    }

    /// The processor this schedule crashes.
    pub fn victim(&self) -> ProcessorId {
        self.victim
    }

    /// A buffered message one of whose run-mates (same sender, same
    /// send event) is still buffered at another destination.
    fn slot_of_a_live_broadcast(view: &PatternView<'_>) -> Option<rtc::sim::MsgId> {
        let n = view.population();
        ProcessorId::all(n).find_map(|q| {
            view.pending_iter(q).find_map(|m| {
                ProcessorId::all(n)
                    .filter(|other| *other != q)
                    .any(|other| {
                        view.pending_iter(other)
                            .any(|o| o.from == m.from && o.send_event == m.send_event)
                    })
                    .then_some(m.id)
            })
        })
    }
}

/// Whether a fault due at `at` is due at `event`.
fn due(at: Option<u64>, event: u64) -> bool {
    at.is_some_and(|at| event >= at)
}

impl Adversary for Hostile {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        let event = view.event();
        if due(self.duplicate_at, event) {
            if let Some(id) = Hostile::slot_of_a_live_broadcast(view) {
                self.duplicate_at = None;
                return Action::Duplicate { id };
            }
        }
        if due(self.crash_at, event)
            && !view.is_crashed(self.victim)
            && view.crashes_remaining() > 0
        {
            let sends = view.last_sends_of(self.victim);
            if sends.len() >= 2 {
                self.crash_at = None;
                // Every other one: some dropped, some kept.
                return Action::Crash {
                    p: self.victim,
                    drop: sends.iter().step_by(2).map(|m| m.id).collect(),
                };
            }
        }
        self.inner.next(view)
    }

    fn admissible(&self) -> bool {
        self.inner.admissible()
    }
}

/// What of the hostile script a trace shows: a duplicate, a crash that
/// dropped some but not all of one step's sends, a revive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Seen {
    pub duplicate: bool,
    pub partial_drop: bool,
    pub revive: bool,
}

impl Seen {
    pub fn in_trace(trace: &Trace) -> Seen {
        let msgs = trace.messages();
        let mut seen = Seen::default();
        for ev in trace.events() {
            match ev {
                EventView::Duplicate { .. } => seen.duplicate = true,
                EventView::Revive { .. } => seen.revive = true,
                EventView::Step { sent, .. } => {
                    let dropped = sent.iter().filter(|id| msgs[id.index()].dropped).count();
                    seen.partial_drop |= 0 < dropped && dropped < sent.len();
                }
                _ => {}
            }
        }
        seen
    }

    pub fn all(self) -> bool {
        self.duplicate && self.partial_drop && self.revive
    }
}

/// A commit automaton that, whenever its step broadcasts and it heard
/// from somebody, also sends that somebody the very same message
/// directly — a direct send substituted in place of the broadcast's
/// slot there (what a pinger's catch-up reply does), with no effect on
/// the protocol.
pub struct InPlace {
    inner: CommitAutomaton,
    said: Outbox<rtc::core::CommitMsg>,
    /// How many direct sends this automaton substituted.
    pub substituted: u32,
}

impl InPlace {
    pub fn new(inner: CommitAutomaton) -> InPlace {
        InPlace {
            inner,
            said: Outbox::new(),
            substituted: 0,
        }
    }
}

impl Automaton for InPlace {
    type Msg = rtc::core::CommitMsg;

    fn id(&self) -> ProcessorId {
        self.inner.id()
    }

    fn population(&self) -> usize {
        self.inner.population()
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a Self::Msg)>,
        rng: &mut StepRng,
        out: &mut Outbox<Self::Msg>,
    ) {
        let mut heard = None;
        let inbox = inbox.inspect(|(from, _)| heard = heard.or(Some(*from)));
        self.inner.step_into(inbox, rng, &mut self.said);
        let me = self.id();
        if let Some(msg) = self.said.take_broadcast() {
            let taken = |q| q == me || self.said.direct().iter().any(|s| s.to == q);
            if let Some(q) = heard.filter(|q| !taken(*q)) {
                out.send(q, msg.clone());
                self.substituted += 1;
            }
            out.broadcast(msg);
        }
        for send in self.said.drain_direct() {
            out.send(send.to, send.msg);
        }
    }

    fn status(&self) -> Status {
        self.inner.status()
    }
}
