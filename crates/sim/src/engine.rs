//! The discrete-event engine: applies adversary-chosen events to a
//! population of automata, enforcing the model's rules.
//!
//! There is one engine. Its state is split by what commit instances may
//! share:
//!
//! * [`Lane`] holds everything *per commit instance*: the automata,
//!   clocks, crash/decision flags, fairness bookkeeping, the lateness
//!   monitor, and the instance's [`MsgStore`] of buffered messages. All
//!   `apply_*` bodies live here, and each writes the instance's own
//!   [`Trace`].
//! * [`Shared`] holds what instances can safely share: the
//!   [`BodySlab`] of message payloads, the engine-owned [`Outbox`]
//!   every step writes into, and the delivery/send scratch buffers.
//!
//! [`crate::BatchSim`] owns B lanes, their B traces and one shared
//! plane, and holds the only stepping loop and the only rotation over
//! lanes. [`Sim`] is its one-lane case (lane base 0 over a store of `n`
//! destinations) behind the single-instance signatures — the golden
//! digests of `tests/scheduler_equivalence.rs` pin its bytes.
//!
//! # A broadcast is filed once and recorded once
//!
//! A step's outgoing messages arrive in the [`Outbox`]: one broadcast
//! slot plus direct sends. They are one thing all the way down — a
//! *send-run*:
//!
//! * **ids** — the run takes the next `count` dense [`MsgId`]s,
//!   destination ascending with direct sends substituted in place (call
//!   order when there is no broadcast), which is the order the automata
//!   used to unroll themselves and therefore the order every recorded
//!   schedule has;
//! * **store** — [`MsgStore::file_broadcast`] pushes one run (sender,
//!   send event, sender clock, first id, body, and a bitset of the
//!   destinations it owes); a run with direct sends lists its
//!   (destination, body) pairs ([`MsgStore::file_listed`]). What
//!   adversaries see of a message is assembled from the run by value;
//! * **payload** — one body the run's messages share (a direct send has
//!   its own); delivery lends the automaton `(sender, &body)`. A
//!   broadcast run holds its body by its whole count until its last
//!   message is taken: once the step has read the bodies,
//!   [`release_holds`] gives back the holds its takes ended, one release
//!   per run it settled (see [`crate::bodies`] for who counts what);
//! * **lateness** — a listed step classifies each delivery. A whole
//!   buffer ([`Action::StepAll`]) arrives oldest first and lateness only
//!   falls with the send event, so its late deliveries are a prefix: the
//!   step classifies up to the first on-time one and counts the rest;
//! * **trace** — one [`Trace::push_step`] row per step says what
//!   was delivered and which run was sent; the per-message
//!   [`MsgRecord`](crate::MsgRecord)s readers get are derived from the
//!   rows on demand (see `MsgTable` in `trace.rs`).

use std::error::Error;
use std::fmt;

use rtc_model::{
    Automaton, LatenessMonitor, LocalClock, ModelError, Outbox, ProcessorId, RunFacts,
    SeedCollection, Status, TimingParams, Value,
};

use crate::adversary::{Action, Adversary, ContentAdversary, PatternView};
use crate::batch::{BatchSim, BatchSimBuilder};
use crate::bodies::BodySlab;
use crate::envelope::{IdRun, MsgId};
use crate::store::{release_holds, MsgStore, RunHeader, Taken};
use crate::trace::{DecisionRecord, Dests, SendRun, Trace};

/// Errors produced when an adversary's action violates the model.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The action names a processor outside `0..n`.
    UnknownProcessor {
        /// The offending processor.
        p: ProcessorId,
    },
    /// A crashed processor cannot take further steps.
    StepOnCrashed {
        /// The crashed processor.
        p: ProcessorId,
    },
    /// A delivery id was not in the stepping processor's buffer.
    DeliverNotBuffered {
        /// The stepping processor.
        p: ProcessorId,
        /// The missing message.
        id: MsgId,
    },
    /// An admissible adversary tried to exceed the fault budget `t`.
    FaultBudgetExceeded {
        /// The fault budget.
        t: usize,
    },
    /// A crash tried to drop a message that is not from the crashing
    /// processor's final step (such messages are *guaranteed*).
    DropNotDroppable {
        /// The crashing processor.
        p: ProcessorId,
        /// The message that may not be dropped.
        id: MsgId,
    },
    /// An automaton emitted two messages for one destination in a single
    /// step, which the model forbids.
    DuplicateDestination {
        /// The sending processor.
        p: ProcessorId,
        /// The destination that received two messages.
        to: ProcessorId,
    },
    /// Only a crashed processor can be revived.
    ReviveNotCrashed {
        /// The processor that is still alive.
        p: ProcessorId,
    },
    /// A duplicate action named a message that is not buffered.
    MsgNotBuffered {
        /// The missing message.
        id: MsgId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownProcessor { p } => write!(f, "unknown processor {p}"),
            SimError::StepOnCrashed { p } => write!(f, "crashed processor {p} cannot step"),
            SimError::DeliverNotBuffered { p, id } => {
                write!(f, "message {id} is not buffered at {p}")
            }
            SimError::FaultBudgetExceeded { t } => {
                write!(f, "admissible adversary exceeded the fault budget t = {t}")
            }
            SimError::DropNotDroppable { p, id } => {
                write!(
                    f,
                    "message {id} was not sent at {p}'s final step and is guaranteed"
                )
            }
            SimError::DuplicateDestination { p, to } => {
                write!(f, "{p} sent two messages to {to} in one step")
            }
            SimError::ReviveNotCrashed { p } => {
                write!(f, "{p} is not crashed and cannot be revived")
            }
            SimError::MsgNotBuffered { id } => {
                write!(f, "message {id} is not buffered anywhere")
            }
        }
    }
}

impl Error for SimError {}

/// Events per processor in the admissibility envelope.
///
/// The paper's `t`-admissibility is a property of infinite runs:
/// guaranteed messages to nonfaulty processors are eventually delivered
/// and nonfaulty processors take infinitely many steps. The engine
/// enforces a finite-prefix version: in a population of `n`, a
/// guaranteed message pending longer than `ENVELOPE_EVENTS_PER_PROC · n`
/// global events is force-delivered, and a processor unscheduled for
/// that long is force-stepped — roomy enough that it never interferes
/// with plausible schedules, tight enough that runs make progress.
/// Applied only to adversaries that claim [`Adversary::admissible`].
const ENVELOPE_EVENTS_PER_PROC: u64 = 64;

/// When a run is considered finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StopWhen {
    /// Every non-crashed processor has decided (the paper's `DONE`).
    #[default]
    AllNonfaultyDecided,
    /// Every non-crashed processor has halted (returned from the
    /// protocol and fallen silent).
    AllNonfaultyHalted,
}

/// Bounds on a single run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLimits {
    /// Hard cap on the number of events; hitting it marks the run
    /// *stalled*.
    pub max_events: u64,
    /// The success condition.
    pub stop: StopWhen,
}

impl Default for RunLimits {
    fn default() -> RunLimits {
        RunLimits {
            max_events: 1_000_000,
            stop: StopWhen::default(),
        }
    }
}

impl RunLimits {
    /// Limits with a custom event cap and the default stop condition.
    pub fn with_max_events(max_events: u64) -> RunLimits {
        RunLimits {
            max_events,
            ..RunLimits::default()
        }
    }
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    statuses: Vec<Status>,
    crashed: Vec<bool>,
    events: u64,
    stalled: bool,
    admissible: bool,
    failure_free: bool,
    on_time: bool,
}

impl RunReport {
    /// Final status of every processor, indexed by processor id.
    pub fn statuses(&self) -> &[Status] {
        &self.statuses
    }

    /// Whether processor `p` crashed during the run.
    pub fn is_faulty(&self, p: ProcessorId) -> bool {
        self.crashed[p.index()]
    }

    /// Total number of events executed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the run hit its event cap before meeting its stop
    /// condition.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Whether the driving adversary claimed admissibility.
    pub fn admissible(&self) -> bool {
        self.admissible
    }

    /// Whether every non-crashed processor decided.
    pub fn all_nonfaulty_decided(&self) -> bool {
        self.statuses
            .iter()
            .zip(&self.crashed)
            .all(|(s, crashed)| *crashed || s.is_decided())
    }

    /// The set of distinct decided values across *all* processors —
    /// the paper's agreement condition requires this to have at most one
    /// element in every configuration of an admissible run.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self.statuses.iter().filter_map(|s| s.value()).collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// Whether the agreement condition holds for the final configuration.
    pub fn agreement_holds(&self) -> bool {
        self.decided_values().len() <= 1
    }

    /// States the run's [`RunFacts`], as the lane recorded them when it
    /// built this report. Failure-free: no processor crashed. On-time,
    /// at the `K` the run was built with and for the *prefix* it ran:
    /// the lane's [`LatenessMonitor`] saw no late delivery, and no
    /// message pending to a live destination was already overdue —
    /// that one is late whenever it arrives.
    pub fn facts(&self) -> RunFacts<'_> {
        RunFacts {
            statuses: &self.statuses,
            excused: self.crashed.clone(),
            failure_free: self.failure_free,
            on_time: self.on_time,
        }
    }
}

/// Builder for [`Sim`].
#[derive(Clone, Copy, Debug)]
pub struct SimBuilder {
    timing: TimingParams,
    seeds: SeedCollection,
    fault_budget: usize,
}

impl SimBuilder {
    /// Starts a builder with the given timing constants and seed
    /// collection `F`.
    pub fn new(timing: TimingParams, seeds: SeedCollection) -> SimBuilder {
        SimBuilder {
            timing,
            seeds,
            fault_budget: 0,
        }
    }

    /// Sets the fault budget `t` (maximum crashes an admissible
    /// adversary may inject).
    pub fn fault_budget(mut self, t: usize) -> SimBuilder {
        self.fault_budget = t;
        self
    }

    /// Builds one instance [`Lane`] over the given automata, its message
    /// store reusing `store`'s buffers, for [`BatchSimBuilder::instance`].
    pub(crate) fn build_lane<A: Automaton>(
        self,
        procs: Vec<A>,
        mut store: MsgStore,
    ) -> Result<Lane<A>, ModelError> {
        let n = procs.len();
        if n == 0 {
            return Err(ModelError::PopulationTooLarge { requested: 0 });
        }
        for (i, a) in procs.iter().enumerate() {
            if a.id() != ProcessorId::new(i) {
                return Err(ModelError::PopulationTooLarge { requested: i });
            }
        }
        let monitor = LatenessMonitor::new(n, self.timing.k());
        store.reset(n);
        Ok(Lane {
            timing: self.timing,
            seeds: self.seeds,
            fault_budget: self.fault_budget,
            envelope: ENVELOPE_EVENTS_PER_PROC * n as u64,
            autos: procs,
            clocks: vec![LocalClock::ZERO; n],
            crashed: vec![false; n],
            decided: vec![false; n],
            store,
            last_run: vec![IdRun::new(MsgId(0), 0); n],
            last_step_event: vec![None; n],
            last_sched_event: vec![0; n],
            event: 0,
            next_msg: 0,
            crashes_used: 0,
            next_forced_at: 0,
            direct_body: vec![NO_DIRECT; n],
            monitor,
            drained_overdue: false,
        })
    }

    /// Builds the engine over one automaton per processor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PopulationTooLarge`] if `procs` is empty or
    /// the automata ids are not exactly `0..n` in order.
    pub fn build<A: Automaton>(self, procs: Vec<A>) -> Result<Sim<A>, ModelError> {
        let mut batch = BatchSimBuilder::new();
        batch.instance(self, procs)?;
        Ok(Sim {
            batch: batch.build(),
        })
    }
}

/// State shared across all instance lanes of one engine: the message
/// bodies and the buffers the stepping path reuses.
pub(crate) struct Shared<M> {
    /// Payloads of in-flight messages, one body per broadcast or direct
    /// send, named by the messages filed over it. Recycled as the
    /// messages leave the lanes' stores — across instances in a batch —
    /// so steady-state runs stop growing it.
    pub(crate) bodies: BodySlab<M>,
    /// Scratch for what the store handed back of the messages lent to
    /// the step in progress (id, sender, body, send event); empty between
    /// steps, so no body is referred to across steps.
    deliv_scratch: Vec<Taken>,
    /// Scratch for the destinations of a run that has to list them,
    /// reused across steps.
    dest_scratch: Vec<ProcessorId>,
    /// What the step in progress sent; empty between steps.
    outbox: Outbox<M>,
}

impl<M> Shared<M> {
    /// An empty shared plane.
    pub(crate) fn new() -> Shared<M> {
        Shared {
            bodies: BodySlab::new(),
            deliv_scratch: Vec::new(),
            dest_scratch: Vec::new(),
            outbox: Outbox::new(),
        }
    }

    /// Empties the plane for reuse, keeping every allocation (bodies,
    /// scratches).
    pub(crate) fn reset(&mut self) {
        self.bodies.reset();
        self.deliv_scratch.clear();
        self.dest_scratch.clear();
        self.outbox.clear();
    }
}

impl<M> fmt::Debug for Shared<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// `Lane::direct_body` entry of a destination no direct send names.
const NO_DIRECT: u32 = u32::MAX;

/// One commit instance's complete per-instance state plus the event
/// application rules. See the module docs for the [`Lane`]/[`Shared`]
/// split.
pub(crate) struct Lane<A: Automaton> {
    timing: TimingParams,
    seeds: SeedCollection,
    fault_budget: usize,
    /// The fairness envelope: how many global events a guaranteed
    /// message may stay buffered, and an alive processor go without a
    /// step, before the engine forces it ([`ENVELOPE_EVENTS_PER_PROC`]).
    envelope: u64,
    autos: Vec<A>,
    clocks: Vec<LocalClock>,
    crashed: Vec<bool>,
    decided: Vec<bool>,
    /// This instance's buffered messages, one run per sending event.
    store: MsgStore,
    /// Per-processor run of ids emitted at its most recent step — the
    /// candidates a crash may drop.
    last_run: Vec<IdRun>,
    last_step_event: Vec<Option<u64>>,
    last_sched_event: Vec<u64>,
    event: u64,
    next_msg: u64,
    crashes_used: usize,
    /// Lower bound on the next event index at which the fairness
    /// envelope could possibly trigger. Scanning for overdue messages
    /// and starved processors is skipped entirely below this bound,
    /// which amortizes the envelope to O(1) per event. The bound is
    /// conservative: min-updated on every send, recomputed exactly
    /// whenever a scan comes up empty, and reset on revive (a revived
    /// processor re-exposes its possibly-overdue backlog).
    next_forced_at: u64,
    /// Scratch, by destination, for a step that sent directly: first
    /// the mark of the one-message-per-destination check, then the body
    /// of the direct send naming that destination. Untouched by steps
    /// that only broadcast.
    direct_body: Vec<u32>,
    /// Online on-time/late classifier for every delivery.
    monitor: LatenessMonitor,
    /// Whether [`Lane::drain`] discarded a message that was already
    /// overdue: the prefix stays not on-time after the store forgot it.
    drained_overdue: bool,
}

impl<A: Automaton> Lane<A> {
    /// Number of processors in this instance.
    pub(crate) fn population(&self) -> usize {
        self.autos.len()
    }

    /// The timing constants of this instance.
    pub(crate) fn timing(&self) -> TimingParams {
        self.timing
    }

    /// The fault budget `t`.
    pub(crate) fn fault_budget(&self) -> usize {
        self.fault_budget
    }

    /// This instance's event counter.
    pub(crate) fn event(&self) -> u64 {
        self.event
    }

    /// Whether processor `i` is currently crashed.
    pub(crate) fn is_crashed_idx(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// The online lateness monitor.
    pub(crate) fn monitor(&self) -> &LatenessMonitor {
        &self.monitor
    }

    /// Immutable access to one automaton.
    pub(crate) fn automaton(&self, i: usize) -> &A {
        &self.autos[i]
    }

    /// Current statuses, indexed by processor.
    pub(crate) fn statuses(&self) -> Vec<Status> {
        self.autos.iter().map(Automaton::status).collect()
    }

    /// Builds a [`RunReport`] for this instance's run so far, stating
    /// its facts from the monitor and the lane's pending messages.
    pub(crate) fn report(&self, stalled: bool, admissible: bool) -> RunReport {
        RunReport {
            statuses: self.statuses(),
            crashed: self.crashed.clone(),
            events: self.event,
            stalled,
            admissible,
            failure_free: self.crashes_used == 0,
            on_time: self.monitor.on_time() && !self.drained_overdue && !self.holds_overdue(),
        }
    }

    /// Whether a message pending to a live destination is already
    /// overdue. None can be until some processor has taken `K + 1`
    /// steps — until then the monitor calls not even a send at event 0
    /// overdue — so the pass over the lane's pending messages is
    /// skipped.
    fn holds_overdue(&self) -> bool {
        self.monitor.overdue(0)
            && (0..self.autos.len()).any(|i| {
                !self.crashed[i]
                    && self
                        .store
                        .iter_dest(i)
                        .any(|m| self.monitor.overdue(m.send_event))
            })
    }

    /// Whether processor `i` currently satisfies the stop condition.
    #[inline]
    pub(crate) fn proc_ok(&self, i: usize, stop: StopWhen) -> bool {
        self.crashed[i]
            || match stop {
                StopWhen::AllNonfaultyDecided => self.autos[i].status().is_decided(),
                StopWhen::AllNonfaultyHalted => matches!(self.autos[i].status(), Status::Halted(_)),
            }
    }

    /// The pattern-only adversary view over this instance.
    #[inline]
    pub(crate) fn pattern_view(&self) -> PatternView<'_> {
        PatternView {
            store: &self.store,
            last_run: &self.last_run,
            clocks: &self.clocks,
            crashed: &self.crashed,
            last_step_event: &self.last_step_event,
            event: self.event,
            fault_budget: self.fault_budget,
            crashes_used: self.crashes_used,
        }
    }

    /// The fairness envelope: returns an overriding action when the
    /// adversary has starved a message or a processor past the limits.
    ///
    /// Cheap in the common case: below the cached `next_forced_at`
    /// bound no trigger is possible and the scan is skipped. When a
    /// scan runs and finds nothing, the exact next trigger is
    /// recomputed from the per-destination head messages (send events
    /// are nondecreasing within a destination, so the head is the
    /// earliest) and the per-processor idle clocks.
    #[inline]
    pub(crate) fn forced_action(&mut self) -> Option<Action> {
        if self.event < self.next_forced_at {
            return None;
        }
        self.forced_scan()
    }

    /// `forced_action`'s scan, run once the cached bound is reached.
    #[cold]
    #[inline(never)]
    fn forced_scan(&mut self) -> Option<Action> {
        let envelope = self.envelope;
        // Overdue messages to alive processors first (every buffered
        // message is guaranteed — a crash's drops leave the store at
        // crash time). Within a destination send events are
        // nondecreasing — a duplicate is filed as sent now — so the
        // overdue messages are exactly a prefix of its pending list.
        // Fairness rescue is the cold path: it only runs when the
        // adversary starved a message past the envelope, never in
        // steady-state stepping.
        for i in 0..self.autos.len() {
            if self.crashed[i] {
                continue;
            }
            let overdue: Vec<MsgId> = self
                .store
                .iter_dest(i)
                .take_while(|m| self.event.saturating_sub(m.send_event) > envelope)
                .map(|m| m.id)
                .collect();
            if !overdue.is_empty() {
                return Some(Action::Step {
                    p: ProcessorId::new(i),
                    deliver: overdue,
                });
            }
        }
        // Then starved processors.
        for i in 0..self.autos.len() {
            if !self.crashed[i] && self.event.saturating_sub(self.last_sched_event[i]) > envelope {
                return Some(Action::Step {
                    p: ProcessorId::new(i),
                    deliver: Vec::new(),
                });
            }
        }
        // Nothing triggered: compute the exact earliest event at which
        // anything could. Heads only move later and idle clocks only
        // reset forward, so the bound stays valid until a send
        // (min-updated there) or a revive (reset there) perturbs it.
        let mut next = u64::MAX;
        for i in 0..self.autos.len() {
            if self.crashed[i] {
                continue;
            }
            if let Some(sent) = self.store.head(i).map(|m| m.send_event) {
                next = next.min(sent.saturating_add(envelope).saturating_add(1));
            }
            next = next.min(
                self.last_sched_event[i]
                    .saturating_add(envelope)
                    .saturating_add(1),
            );
        }
        self.next_forced_at = next;
        None
    }

    /// Applies one adversary-chosen event to this instance.
    #[inline]
    pub(crate) fn apply(
        &mut self,
        action: Action,
        admissible: bool,
        shared: &mut Shared<A::Msg>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        match action {
            Action::Step { p, deliver } => self.apply_step(p, Some(deliver), shared, trace),
            Action::StepAll { p } => self.apply_step(p, None, shared, trace),
            Action::Crash { p, drop } => self.apply_crash(p, drop, admissible, shared, trace),
            Action::Duplicate { id } => self.apply_duplicate(id, shared, trace),
        }
    }

    /// Steps `p` with the listed deliveries, or with its whole buffer
    /// when `deliver` is `None` ([`Action::StepAll`]).
    // rtc-hot-loop(per-instance): the per-event apply path of every
    // lane.
    #[inline(never)]
    fn apply_step(
        &mut self,
        p: ProcessorId,
        deliver: Option<Vec<MsgId>>,
        shared: &mut Shared<A::Msg>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let i = p.index();
        let n = self.autos.len();
        if i >= n {
            return Err(SimError::UnknownProcessor { p });
        }
        if self.crashed[i] {
            return Err(SimError::StepOnCrashed { p });
        }
        // Take the deliveries out of p's buffer, keeping what the store
        // hands back of each: the automaton reads the bodies in place,
        // the lateness monitor the send events, the trace the ids.
        let whole = deliver.is_none();
        let took = self.take_deliveries(p, deliver.as_deref(), &mut shared.deliv_scratch);
        let Shared {
            bodies,
            deliv_scratch,
            dest_scratch,
            outbox,
        } = shared;
        if took.is_ok() {
            // Step the automaton with this step's random number.
            let mut rng = self.seeds.step_rng(p, self.clocks[i]);
            let lent = &*bodies;
            self.autos[i].step_into(
                deliv_scratch
                    .iter()
                    .filter_map(|taken| Some((taken.from, lent.msg(taken.body)?))),
                &mut rng,
                outbox,
            );
        }
        // The bodies are read, or the step is refused: give back the
        // holds its takes ended.
        release_holds(deliv_scratch, bodies);
        if let Err(refused) = took {
            deliv_scratch.clear();
            return Err(refused);
        }
        self.clocks[i] = self.clocks[i].tick();
        let clock_after = self.clocks[i];
        // A broadcast cannot name a destination twice or out of range;
        // only direct sends are checked (and marked, for the routing
        // in `file_sends`).
        if !outbox.direct().is_empty() {
            self.direct_body.fill(NO_DIRECT);
            let marks = &mut self.direct_body;
            let violation = outbox.direct().iter().find_map(|send| {
                let to = send.to;
                match marks.get_mut(to.index()) {
                    None => Some(SimError::UnknownProcessor { p: to }),
                    Some(mark) => (std::mem::replace(mark, 0) != NO_DIRECT)
                        .then_some(SimError::DuplicateDestination { p, to }),
                }
            });
            if let Some(violation) = violation {
                outbox.clear();
                deliv_scratch.clear();
                return Err(violation);
            }
        }
        let sent = self.file_sends(p, clock_after, bodies, outbox, dest_scratch);
        if sent.count > 0 {
            // A fresh message could become overdue before the cached
            // fairness bound; pull the bound in (conservatively).
            self.next_forced_at = self
                .next_forced_at
                .min(self.event.saturating_add(self.envelope).saturating_add(1));
        }
        // p's droppable sends are now exactly this run.
        self.last_run[i] = IdRun::new(sent.first, sent.count);
        // The receiving step itself counts toward the lateness interval,
        // so it is recorded before the deliveries are classified. A whole
        // buffer's late deliveries are a prefix (module docs): past its
        // first on-time delivery the rest are counted, not classified.
        self.monitor.note_step(i, self.event);
        let mut unclassified = deliv_scratch.iter();
        for taken in unclassified.by_ref() {
            if self.monitor.classify_delivery(taken.send_event) {
                trace.mark_late(taken.id);
            } else if whole {
                break;
            }
        }
        self.monitor.count_on_time(unclassified.len() as u64);
        trace.push_step(p, clock_after, deliv_scratch.iter().map(|t| t.id), sent);
        deliv_scratch.clear();
        // Decision bookkeeping.
        if !self.decided[i] {
            if let Some(value) = self.autos[i].status().value() {
                self.decided[i] = true;
                trace.push_decision(DecisionRecord {
                    p,
                    value,
                    clock: clock_after,
                    event: self.event,
                });
            }
        }
        self.last_step_event[i] = Some(self.event);
        self.last_sched_event[i] = self.event;
        self.event += 1;
        Ok(())
    }

    /// Moves what `p`'s step delivers out of its buffer into `lent`: the
    /// listed ids one by one, each checked, or — for `None` — the whole
    /// buffer in one scan.
    fn take_deliveries(
        &mut self,
        p: ProcessorId,
        deliver: Option<&[MsgId]>,
        lent: &mut Vec<Taken>,
    ) -> Result<(), SimError> {
        let i = p.index();
        let Some(deliver) = deliver else {
            self.store.take_all(i, |taken| lent.push(taken));
            return Ok(());
        };
        for id in deliver {
            let Some(taken) = self.store.take_for(*id, i) else {
                return Err(SimError::DeliverNotBuffered { p, id: *id });
            };
            lent.push(taken);
        }
        Ok(())
    }

    /// Files what the step in progress put in `outbox` as one send-run
    /// — the next dense ids, one run in the store, in the order the
    /// module docs give — and returns the run as the recorder wants it
    /// (listing the destinations in `dests` when they are not the
    /// broadcast pattern).
    // rtc-hot-loop(per-instance): runs once per step of every instance.
    fn file_sends<'d>(
        &mut self,
        p: ProcessorId,
        clock_after: LocalClock,
        bodies: &mut BodySlab<A::Msg>,
        outbox: &mut Outbox<A::Msg>,
        dests: &'d mut Vec<ProcessorId>,
    ) -> SendRun<'d> {
        let n = self.autos.len();
        let first = MsgId(self.next_msg);
        let header = RunHeader {
            from: p,
            send_event: self.event,
            sender_clock: clock_after,
            first,
        };
        let store = &mut self.store;
        dests.clear();
        let (count, listed) = match outbox.take_broadcast() {
            // A silent step: nothing to file.
            None if outbox.direct().is_empty() => (0, true),
            // Direct sends only: call order, each its own body.
            None => {
                let sends = outbox.drain_direct().map(|send| {
                    dests.push(send.to);
                    (send.to, bodies.store(send.msg, 1))
                });
                (store.file_listed(header, sends), true)
            }
            // The common case: one body, everybody else's list.
            Some(msg) if outbox.direct().is_empty() => {
                let peers = n as u32 - 1;
                if peers > 0 {
                    store.file_broadcast(header, bodies.store(msg, peers));
                }
                (peers, false)
            }
            // A broadcast with direct sends substituted in place (and
            // the sender skipped unless it addressed itself).
            Some(msg) => {
                let mut direct = 0;
                let mut to_self = false;
                for send in outbox.drain_direct() {
                    direct += 1;
                    to_self |= send.to == p;
                    self.direct_body[send.to.index()] = bodies.store(send.msg, 1);
                }
                // Nobody left to tell when every peer was addressed
                // directly.
                let told = n as u32 - 1 - (direct - u32::from(to_self));
                let broadcast = match told {
                    0 => NO_DIRECT,
                    told => bodies.store(msg, told),
                };
                let direct_body = &self.direct_body;
                let sends = ProcessorId::all(n).filter_map(|q| match direct_body[q.index()] {
                    NO_DIRECT if q == p => None,
                    NO_DIRECT => Some((q, broadcast)),
                    body => Some((q, body)),
                });
                let count = store.file_listed(header, sends);
                if to_self {
                    dests.extend(ProcessorId::all(n));
                }
                (count, to_self)
            }
        };
        self.next_msg += u64::from(count);
        SendRun {
            first,
            count,
            dests: match listed {
                true => Dests::Explicit(dests),
                false => Dests::Broadcast,
            },
        }
    }

    #[cold]
    #[inline(never)]
    fn apply_crash(
        &mut self,
        p: ProcessorId,
        drop: Vec<MsgId>,
        admissible: bool,
        shared: &mut Shared<A::Msg>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let i = p.index();
        if i >= self.autos.len() {
            return Err(SimError::UnknownProcessor { p });
        }
        if self.crashed[i] {
            return Err(SimError::StepOnCrashed { p });
        }
        if admissible && self.crashes_used >= self.fault_budget {
            return Err(SimError::FaultBudgetExceeded {
                t: self.fault_budget,
            });
        }
        // Only messages from p's final step may be dropped.
        let last = self.last_step_event[i];
        for id in &drop {
            match (self.store.lookup(*id), last) {
                (Some(m), Some(last_ev)) if m.from == p && m.send_event == last_ev => {}
                _ => return Err(SimError::DropNotDroppable { p, id: *id }),
            }
        }
        for id in &drop {
            self.store.take(*id, &mut shared.bodies);
            trace.note_drop(*id);
        }
        self.crashed[i] = true;
        self.crashes_used += 1;
        trace.push_crash(p);
        self.event += 1;
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn apply_duplicate(
        &mut self,
        id: MsgId,
        shared: &mut Shared<A::Msg>,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let (Some(orig), Some(body)) = (self.store.lookup(id), self.store.body_of(id)) else {
            return Err(SimError::MsgNotBuffered { id });
        };
        // The copy is a first-class message: fresh dense id, sent "now"
        // (so tail insertion keeps per-destination send order), same
        // endpoints and logical send clock as the original, and
        // guaranteed — the network may duplicate, never forge or drop.
        // It is a run of one that says what the original says: one more
        // message on its body.
        let copy = MsgId(self.next_msg);
        self.next_msg += 1;
        let header = RunHeader {
            from: orig.from,
            send_event: self.event,
            sender_clock: orig.sender_clock,
            first: copy,
        };
        shared.bodies.retain(body);
        self.store
            .file_listed(header, std::iter::once((orig.to, body)));
        trace.push_duplicate(orig.from, id, copy);
        // The copy could become overdue before the cached fairness
        // bound; pull the bound in, exactly as a fresh send does.
        self.next_forced_at = self
            .next_forced_at
            .min(self.event.saturating_add(self.envelope).saturating_add(1));
        self.event += 1;
        Ok(())
    }

    /// Revives a crashed processor with a replacement automaton. See
    /// [`Sim::revive`] for the semantics.
    pub(crate) fn revive(
        &mut self,
        p: ProcessorId,
        auto: A,
        trace: &mut Trace,
    ) -> Result<(), SimError> {
        let i = p.index();
        if i >= self.autos.len() {
            return Err(SimError::UnknownProcessor { p });
        }
        if !self.crashed[i] {
            return Err(SimError::ReviveNotCrashed { p });
        }
        self.crashed[i] = false;
        // Decision records stay monotone: a decision already in the
        // trace is never re-recorded, and a snapshot restored past its
        // decision point must not produce a late duplicate record.
        self.decided[i] = self.decided[i] || auto.status().value().is_some();
        self.autos[i] = auto;
        // Restart the fairness clock so the scheduler is not forced to
        // schedule the revived processor immediately.
        self.last_sched_event[i] = self.event;
        // The revived processor's buffered backlog re-enters the
        // fairness scan and may already be overdue; the cached bound no
        // longer covers it, so force a rescan.
        self.next_forced_at = 0;
        trace.push_revive(p);
        self.event += 1;
        Ok(())
    }

    /// Removes every message still buffered for this instance, handing
    /// the bodies nothing refers to any more back to the shared slab.
    /// Called by the batch engine once an instance meets its stop
    /// condition, so later-finishing instances recycle its payloads.
    /// Whether one of the messages was overdue is kept for the report.
    pub(crate) fn drain(&mut self, shared: &mut Shared<A::Msg>) {
        // The same judgement as `holds_overdue`, made in the one pass
        // that empties the store.
        let judge = self.monitor.overdue(0);
        let (crashed, monitor) = (&self.crashed, &self.monitor);
        let overdue = &mut self.drained_overdue;
        self.store.drain(&mut shared.bodies, |to, taken| {
            *overdue |= judge && !crashed[to.index()] && monitor.overdue(taken.send_event);
        });
    }

    /// Hands this instance's store back for pool recycling.
    pub(crate) fn into_store(self) -> MsgStore {
        self.store
    }
}

impl<A: Automaton> fmt::Debug for Lane<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("population", &self.autos.len())
            .field("event", &self.event)
            .field("crashes_used", &self.crashes_used)
            .finish()
    }
}

/// The discrete-event simulation engine (see the crate docs for the
/// model it implements): the one-lane [`BatchSim`] behind
/// single-instance signatures.
pub struct Sim<A: Automaton> {
    batch: BatchSim<A>,
}

impl<A: Automaton> fmt::Debug for Sim<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lane = self.batch.lane(0);
        f.debug_struct("Sim")
            .field("population", &lane.population())
            .field("event", &lane.event)
            .field("crashes_used", &lane.crashes_used)
            .finish()
    }
}

impl<A: Automaton> Sim<A> {
    /// Number of processors.
    pub fn population(&self) -> usize {
        self.batch.population()
    }

    /// The timing constants of this run.
    pub fn timing(&self) -> TimingParams {
        self.batch.lane(0).timing()
    }

    /// The fault budget `t`.
    pub fn fault_budget(&self) -> usize {
        self.batch.lane(0).fault_budget()
    }

    /// Current statuses, indexed by processor id.
    pub fn statuses(&self) -> Vec<Status> {
        self.batch.statuses(0)
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        self.batch.lane_trace(0)
    }

    /// Immutable access to one automaton (e.g. to read protocol-specific
    /// state in tests).
    pub fn automaton(&self, p: ProcessorId) -> &A {
        self.batch.automaton(0, p)
    }

    /// Runs the engine under a pattern-only adversary until the stop
    /// condition or the event cap.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] when the adversary violates the model.
    pub fn run(
        &mut self,
        mut adversary: &mut dyn Adversary,
        limits: RunLimits,
    ) -> Result<RunReport, SimError> {
        // A pattern-only adversary is a content adversary that is never
        // handed a payload.
        self.run_content(&mut adversary, limits)
    }

    /// Runs the engine under a content-inspecting adversary (see
    /// [`ContentAdversary`] for the caveat).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] when the adversary violates the model.
    pub fn run_content(
        &mut self,
        adversary: &mut dyn ContentAdversary<A::Msg>,
        limits: RunLimits,
    ) -> Result<RunReport, SimError> {
        let admissible = adversary.admissible();
        let met = self.run_core(adversary, limits.max_events, limits.stop)?;
        Ok(self.report(!met, admissible))
    }

    /// Drives a whole scheduler quantum: runs until the stop condition
    /// is met or the **global** event counter reaches `until_event`
    /// (an absolute bound, like [`RunLimits::max_events`]), and returns
    /// whether the stop condition was met.
    ///
    /// Unlike [`Sim::run`] this does not build a [`RunReport`] per
    /// segment, so drivers that alternate between running and external
    /// intervention (restarts, probes) can re-enter the loop cheaply;
    /// call [`Sim::report`] once at the end.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] when the adversary violates the model.
    pub fn run_until(
        &mut self,
        mut adversary: &mut dyn Adversary,
        until_event: u64,
        stop: StopWhen,
    ) -> Result<bool, SimError> {
        self.run_core(&mut adversary, until_event, stop)
    }

    /// The one lane's turn of the engine's rotation, behind
    /// [`Sim::run`], [`Sim::run_content`] and [`Sim::run_until`].
    /// Returns `Ok(true)` when the stop condition was met, `Ok(false)`
    /// when the event bound was reached first.
    fn run_core(
        &mut self,
        adversary: &mut dyn ContentAdversary<A::Msg>,
        until_event: u64,
        stop: StopWhen,
    ) -> Result<bool, SimError> {
        let met = self
            .batch
            .rotate(&mut [adversary], |_| until_event, stop, false)?;
        Ok(met[0])
    }

    /// Builds a [`RunReport`] for the run so far. Drivers using
    /// [`Sim::run_until`] call this once after their last segment;
    /// `stalled` and `admissible` are the caller's verdicts on the run.
    pub fn report(&self, stalled: bool, admissible: bool) -> RunReport {
        self.batch.report(0, stalled, admissible)
    }

    /// Number of events executed so far (the global event counter).
    pub fn events_executed(&self) -> u64 {
        self.batch.events_executed(0)
    }

    /// Whether processor `p` is currently crashed.
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.batch.is_crashed(0, p)
    }

    /// The online lateness classifier for this run: per-delivery
    /// on-time/late verdicts against the timing constant `K`.
    pub fn lateness(&self) -> &LatenessMonitor {
        self.batch.lateness(0)
    }

    /// Revives a crashed processor with a replacement automaton — the
    /// environment-level restart the paper's Theorem 11 leaves open
    /// ("leaving the opportunity to recover").
    ///
    /// The caller chooses the restart semantics by choosing `auto`: a
    /// [`rtc_model::Recoverable::restore`]d snapshot models stable
    /// storage, a fresh automaton models an amnesiac reboot. Messages
    /// buffered for `p` survive the crash and are deliverable to the
    /// replacement; the crash still counts against the fault budget
    /// (the processor *was* faulty in the run's pattern).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownProcessor`] if `p` is out of range, and
    /// [`SimError::ReviveNotCrashed`] if `p` is currently alive.
    pub fn revive(&mut self, p: ProcessorId, auto: A) -> Result<(), SimError> {
        self.batch.revive(0, p, auto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::assert_holds;
    use rtc_model::StepRng;

    /// Echoes every received message back to its sender; decides One
    /// after receiving `target` messages.
    struct Echo {
        id: ProcessorId,
        n: usize,
        received: usize,
        target: usize,
    }

    impl Echo {
        fn new(id: ProcessorId, n: usize, target: usize) -> Echo {
            Echo {
                id,
                n,
                received: 0,
                target,
            }
        }
    }

    impl Automaton for Echo {
        type Msg = u32;

        fn id(&self) -> ProcessorId {
            self.id
        }

        fn population(&self) -> usize {
            self.n
        }

        fn step_into<'a>(
            &mut self,
            inbox: impl Iterator<Item = (ProcessorId, &'a u32)>,
            _rng: &mut StepRng,
            out: &mut Outbox<u32>,
        ) {
            // One reply per distinct sender: a batch may deliver several
            // messages from one processor (duplicates, backlog after a
            // heal), and the model forbids two sends to one destination
            // in a single step.
            let mut seen = vec![false; self.n];
            for (from, _) in inbox {
                self.received += 1;
                if !std::mem::replace(&mut seen[from.index()], true) {
                    out.send(from, 1);
                }
            }
            if self.received == 0 && self.id.is_coordinator() {
                // Kick off: the coordinator broadcasts until it hears
                // back.
                out.broadcast(1);
            }
        }

        fn status(&self) -> Status {
            if self.received >= self.target {
                Status::Decided(Value::One)
            } else {
                Status::Undecided
            }
        }
    }

    fn sim(n: usize, target: usize) -> Sim<Echo> {
        let procs: Vec<Echo> = ProcessorId::all(n)
            .map(|p| Echo::new(p, n, target))
            .collect();
        SimBuilder::new(TimingParams::default(), SeedCollection::new(11))
            .fault_budget((n - 1) / 2)
            .build(procs)
            .unwrap()
    }

    #[test]
    fn synchronous_run_decides() {
        let mut s = sim(3, 2);
        let mut adv = crate::adversaries::SynchronousAdversary::new(3);
        let report = s.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        assert!(!report.stalled());
        assert!(report.agreement_holds());
    }

    #[test]
    fn fairness_rescues_a_starving_adversary() {
        /// An adversary that only ever steps p0 with no deliveries.
        struct Starver;
        impl Adversary for Starver {
            fn next(&mut self, _: &PatternView<'_>) -> Action {
                Action::Step {
                    p: ProcessorId::new(0),
                    deliver: vec![],
                }
            }
        }
        let mut s = sim(2, 1);
        let report = s
            .run(&mut Starver, RunLimits::with_max_events(100_000))
            .unwrap();
        // The envelope must eventually deliver the coordinator's kick-off
        // message to p1 and step p1, letting everyone decide.
        assert!(report.all_nonfaulty_decided());
    }

    #[test]
    fn step_on_crashed_is_rejected() {
        struct CrashThenStep(u32);
        impl Adversary for CrashThenStep {
            fn next(&mut self, _: &PatternView<'_>) -> Action {
                self.0 += 1;
                if self.0 == 1 {
                    Action::Crash {
                        p: ProcessorId::new(1),
                        drop: vec![],
                    }
                } else {
                    Action::Step {
                        p: ProcessorId::new(1),
                        deliver: vec![],
                    }
                }
            }
        }
        let mut s = sim(3, 2);
        let err = s
            .run(&mut CrashThenStep(0), RunLimits::default())
            .unwrap_err();
        assert_eq!(
            err,
            SimError::StepOnCrashed {
                p: ProcessorId::new(1)
            }
        );
    }

    #[test]
    fn fault_budget_is_enforced_for_admissible_adversaries() {
        struct CrashAll(usize);
        impl Adversary for CrashAll {
            fn next(&mut self, _: &PatternView<'_>) -> Action {
                let p = ProcessorId::new(self.0);
                self.0 += 1;
                Action::Crash { p, drop: vec![] }
            }
        }
        let mut s = sim(3, 2); // budget = 1
        let err = s.run(&mut CrashAll(0), RunLimits::default()).unwrap_err();
        assert_eq!(err, SimError::FaultBudgetExceeded { t: 1 });
    }

    #[test]
    fn inadmissible_adversary_may_exceed_budget_and_stall() {
        struct CrashMost(usize);
        impl Adversary for CrashMost {
            fn next(&mut self, view: &PatternView<'_>) -> Action {
                if self.0 + 1 < view.population() {
                    let p = ProcessorId::new(self.0);
                    self.0 += 1;
                    Action::Crash { p, drop: vec![] }
                } else {
                    Action::Step {
                        p: ProcessorId::new(self.0),
                        deliver: vec![],
                    }
                }
            }
            fn admissible(&self) -> bool {
                false
            }
        }
        let mut s = sim(3, 2);
        let report = s
            .run(&mut CrashMost(0), RunLimits::with_max_events(500))
            .unwrap();
        assert!(report.stalled());
        assert!(!report.admissible());
        // Safety: nobody decided anything conflicting.
        assert!(report.agreement_holds());
    }

    #[test]
    fn drop_is_limited_to_final_step_sends() {
        struct DropEarly;
        impl Adversary for DropEarly {
            fn next(&mut self, view: &PatternView<'_>) -> Action {
                // Step p0 twice so its first sends are no longer "last
                // step" sends, then try to drop one of them.
                let p0 = ProcessorId::new(0);
                if view.clock_of(p0).ticks() < 2 {
                    return Action::Step {
                        p: p0,
                        deliver: vec![],
                    };
                }
                let pending = view.pending(ProcessorId::new(1));
                Action::Crash {
                    p: p0,
                    drop: vec![pending[0].id],
                }
            }
        }
        let mut s = sim(3, 2);
        let err = s.run(&mut DropEarly, RunLimits::default()).unwrap_err();
        assert!(matches!(err, SimError::DropNotDroppable { .. }));
    }

    #[test]
    fn revive_rejoins_a_crashed_processor() {
        // Crash p1 mid-run, then revive it and let the run finish: the
        // replacement must inherit p1's buffered inbox and decide.
        struct CrashOnce(bool);
        impl Adversary for CrashOnce {
            fn next(&mut self, view: &PatternView<'_>) -> Action {
                let p1 = ProcessorId::new(1);
                if !self.0 && !view.is_crashed(p1) {
                    self.0 = true;
                    return Action::Crash {
                        p: p1,
                        drop: vec![],
                    };
                }
                // Round-robin over alive processors, delivering everything.
                for p in ProcessorId::all(view.population()) {
                    if !view.is_crashed(p) && !view.pending(p).is_empty() {
                        let deliver = view.pending(p).iter().map(|m| m.id).collect();
                        return Action::Step { p, deliver };
                    }
                }
                let p = ProcessorId::all(view.population())
                    .find(|p| !view.is_crashed(*p))
                    .unwrap();
                Action::Step { p, deliver: vec![] }
            }
        }
        let mut s = sim(3, 2);
        let p1 = ProcessorId::new(1);
        // Reviving an alive processor is rejected.
        let err = s.revive(p1, Echo::new(p1, 3, 2)).unwrap_err();
        assert_eq!(err, SimError::ReviveNotCrashed { p: p1 });
        // Run a short segment in which p1 crashes before deciding.
        let report = s
            .run(&mut CrashOnce(false), RunLimits::with_max_events(40))
            .unwrap();
        assert!(report.is_faulty(p1));
        // Revive with a fresh (amnesiac) Echo: buffered messages for p1
        // survived the crash, so it can still reach its target.
        s.revive(p1, Echo::new(p1, 3, 2)).unwrap();
        let report = s
            .run(&mut CrashOnce(true), RunLimits::with_max_events(10_000))
            .unwrap();
        assert!(!report.is_faulty(p1));
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
        // The trace still shows the crash (the processor was faulty in
        // the pattern) plus the revive event.
        assert_eq!(s.trace().faulty(), &[p1]);
        assert!(s
            .trace()
            .events()
            .any(|e| matches!(e, crate::EventView::Revive { p } if p == p1)));
    }

    #[test]
    fn duplicated_messages_are_delivered_twice() {
        struct Duper(u32);
        impl Adversary for Duper {
            fn next(&mut self, view: &PatternView<'_>) -> Action {
                self.0 += 1;
                match self.0 {
                    1 => Action::Step {
                        p: ProcessorId::new(0),
                        deliver: vec![],
                    },
                    2 => Action::Duplicate {
                        id: view.pending(ProcessorId::new(1))[0].id,
                    },
                    _ => {
                        // Deliver one message at a time to whoever has
                        // something pending (Echo replies per delivery,
                        // so batching would fan out twice to one
                        // destination).
                        for p in ProcessorId::all(view.population()) {
                            let pend = view.pending(p);
                            if !pend.is_empty() {
                                return Action::Step {
                                    p,
                                    deliver: vec![pend[0].id],
                                };
                            }
                        }
                        Action::Step {
                            p: ProcessorId::new(0),
                            deliver: vec![],
                        }
                    }
                }
            }
        }
        let mut s = sim(2, 2);
        let mut adv = Duper(0);
        // Stop after the broadcast and the duplication: the copy is a
        // second message on the original's body, not a second body.
        s.run_until(&mut adv, 2, StopWhen::default()).unwrap();
        let (lane, shared, _) = s.batch.parts_mut(0);
        let pending = lane.pattern_view().pending(ProcessorId::new(1));
        let bodies: Vec<u32> = pending
            .iter()
            .map(|m| lane.store.body_of(m.id).unwrap())
            .collect();
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0], bodies[1]);
        assert_eq!((shared.bodies.live(), shared.bodies.references()), (1, 2));
        assert_eq!(lane.store.run_references(), 2);
        assert_holds(&shared.bodies, [&lane.store]);
        let report = s.run(&mut adv, RunLimits::with_max_events(500)).unwrap();
        // p1 needed two receipts and the coordinator broadcast only one
        // message: only the duplicated copy can account for the second,
        // and the one body served both deliveries before it was freed.
        assert!(report.statuses()[1].is_decided());
        let (lane, shared, _) = s.batch.parts_mut(0);
        assert_holds(&shared.bodies, [&lane.store]);
        assert_eq!(lane.store.run_references(), lane.store.len());
        let dup = s.trace().events().find_map(|e| match e {
            crate::EventView::Duplicate { original, copy, .. } => Some((original, copy)),
            _ => None,
        });
        let (original, copy) = dup.expect("duplicate event recorded");
        let msgs = s.trace().messages();
        assert_eq!(msgs[original.index()].from, msgs[copy.index()].from);
        assert_eq!(msgs[original.index()].to, msgs[copy.index()].to);
        assert!(msgs[copy.index()].delivered());
    }

    /// Section 2's lateness, word for word, read off the recorded events
    /// and message records: a message is late when some processor takes
    /// more than `k` steps after its sending event and at or before its
    /// receiving event. Returns the late deliveries in id order, and
    /// whether a message pending to a live destination already is —
    /// late whenever it arrives.
    fn by_definition(trace: &Trace, k: u64) -> (Vec<MsgId>, bool) {
        let n = trace.population();
        let (mut steps, mut down) = (vec![Vec::new(); n], vec![false; n]);
        for (event, ev) in trace.events().enumerate() {
            match ev {
                crate::EventView::Step { p, .. } => steps[p.index()].push(event as u64),
                crate::EventView::Crash { p } => down[p.index()] = true,
                crate::EventView::Revive { p } => down[p.index()] = false,
                _ => {}
            }
        }
        let exceeded = |sent: u64, until: u64| {
            steps.iter().any(|s: &Vec<u64>| {
                let upto = |e: u64| s.partition_point(|step| *step <= e);
                (upto(until) - upto(sent)) as u64 > k
            })
        };
        let end = trace.event_count() as u64;
        let msgs = trace.messages();
        let late = msgs
            .iter()
            .filter(|m| {
                m.recv_event
                    .is_some_and(|recv| exceeded(m.send_event, recv))
            })
            .map(|m| m.id)
            .collect();
        let overdue = msgs.iter().any(|m| {
            !m.delivered() && !m.dropped && !down[m.to.index()] && exceeded(m.send_event, end)
        });
        (late, overdue)
    }

    /// Whether `s`'s run so far is on time, as its report states it —
    /// checked against [`by_definition`].
    fn on_time_as_defined<A: Automaton>(s: &Sim<A>) -> bool {
        let on_time = s.report(false, false).facts().on_time;
        let (late, overdue) = by_definition(s.trace(), s.timing().k());
        assert_eq!(on_time, late.is_empty() && !overdue, "{:?}", s.trace());
        on_time
    }

    #[test]
    fn online_lateness_matches_the_posthoc_trace_analysis() {
        let mut any_late = false;
        for seed in 0..10u64 {
            let mut s = sim(3, 4);
            let mut adv = crate::adversaries::RandomAdversary::new(seed).deliver_prob(0.3);
            let _ = s.run(&mut adv, RunLimits::with_max_events(2_000)).unwrap();
            let (late, _) = by_definition(s.trace(), s.timing().k());
            let mut marked = s.trace().late_marks().to_vec();
            marked.sort_unstable();
            assert_eq!(marked, late, "seed {seed}");
            assert_eq!(s.lateness().late_count(), late.len() as u64, "seed {seed}");
            on_time_as_defined(&s);
            any_late |= !late.is_empty();
        }
        assert!(any_late, "sparse schedules should produce late deliveries");
    }

    /// Plays its script; claims no admissibility, so neither the fault
    /// budget nor the fairness envelope steps in.
    struct Script(std::vec::IntoIter<Action>);

    impl Adversary for Script {
        fn next(&mut self, _: &PatternView<'_>) -> Action {
            self.0.next().expect("the run stops where its script ends")
        }

        fn admissible(&self) -> bool {
            false
        }
    }

    /// The overdue-pending rule, on the lane's report: p0's one message
    /// m0 to p1, held while p2 steps.
    #[test]
    fn a_held_message_is_overdue_from_k_plus_one_steps_on() {
        let k = 3;
        let p = ProcessorId::new;
        let scripted = |id: ProcessorId| Scripted {
            id,
            n: 3,
            broadcast: false,
            direct: if id.index() == 0 { vec![1] } else { vec![] },
        };
        let step = |i: usize, deliver: &[u64]| Action::Step {
            p: p(i),
            deliver: deliver.iter().map(|id| MsgId(*id)).collect(),
        };
        // p0 sends m0 at event 0, then p2 takes `held` steps, then the
        // rest of the script plays.
        let run = |held: u64, then: Vec<Action>| {
            let mut script = vec![step(0, &[])];
            script.extend((0..held).map(|_| step(2, &[])));
            script.extend(then);
            let events = script.len() as u64;
            let mut s = SimBuilder::new(TimingParams::new(k).unwrap(), SeedCollection::new(5))
                .build(ProcessorId::all(3).map(scripted).collect())
                .unwrap();
            s.run_until(&mut Script(script.into_iter()), events, StopWhen::default())
                .unwrap();
            s
        };
        // Exactly K steps old: it can still arrive on time.
        assert!(on_time_as_defined(&run(k, vec![])));
        // K + 1: late whenever it arrives, though nothing late was
        // delivered.
        let overdue = run(k + 1, vec![]);
        assert!(!on_time_as_defined(&overdue) && overdue.lateness().on_time());

        // A message nobody is up to receive is owed to nobody ...
        let crash = |victim: usize, drop: &[u64]| Action::Crash {
            p: p(victim),
            drop: drop.iter().map(|id| MsgId(*id)).collect(),
        };
        let mut down = run(k + 1, vec![crash(1, &[])]);
        assert!(on_time_as_defined(&down));
        // ... until its destination is back.
        down.revive(p(1), scripted(p(1))).unwrap();
        assert!(!on_time_as_defined(&down));

        // Dropped at its sender's crash: never owed.
        assert!(on_time_as_defined(&run(k + 1, vec![crash(0, &[0])])));

        // A network copy is a message of its own, sent when it is made:
        // m1 copies m0 after K - 1 steps, m0 arrives on time, and m1 is
        // overdue only once p2 is K + 1 steps past the copy — not once
        // it is past m0's send.
        let copy = |held_after: u64| {
            let mut then = vec![Action::Duplicate { id: MsgId(0) }, step(1, &[0])];
            then.extend((0..held_after).map(|_| step(2, &[])));
            run(k - 1, then)
        };
        assert!(on_time_as_defined(&copy(k)));
        assert!(!on_time_as_defined(&copy(k + 1)));
    }

    /// Sends what it is told to, every step.
    struct Scripted {
        id: ProcessorId,
        n: usize,
        broadcast: bool,
        direct: Vec<usize>,
    }

    impl Automaton for Scripted {
        type Msg = u32;

        fn id(&self) -> ProcessorId {
            self.id
        }

        fn population(&self) -> usize {
            self.n
        }

        fn step_into<'a>(
            &mut self,
            _inbox: impl Iterator<Item = (ProcessorId, &'a u32)>,
            _rng: &mut StepRng,
            out: &mut Outbox<u32>,
        ) {
            if self.broadcast {
                out.broadcast(0);
            }
            for (k, to) in self.direct.iter().enumerate() {
                out.send(ProcessorId::new(*to), 1 + k as u32);
            }
        }

        fn status(&self) -> Status {
            Status::Undecided
        }
    }

    /// One step of p1 in a population of 4 sending as given; the
    /// destinations its messages were filed for, in id order, or the
    /// model violation.
    fn filed_by(broadcast: bool, direct: &[usize]) -> Result<Vec<usize>, SimError> {
        let n = 4;
        let procs = ProcessorId::all(n)
            .map(|id| Scripted {
                id,
                n,
                broadcast,
                direct: direct.to_vec(),
            })
            .collect();
        let mut s = SimBuilder::new(TimingParams::default(), SeedCollection::new(3))
            .build(procs)
            .unwrap();
        let step = Action::Step {
            p: ProcessorId::new(1),
            deliver: Vec::new(),
        };
        let (lane, shared, trace) = s.batch.parts_mut(0);
        lane.apply(step, true, shared, trace)?;
        assert_holds(&shared.bodies, [&lane.store]);
        assert_eq!(lane.store.run_references(), lane.store.len());
        Ok(trace.messages().iter().map(|m| m.to.index()).collect())
    }

    #[test]
    fn sends_are_filed_ascending_with_direct_sends_in_place() {
        // A broadcast skips the sender; a direct send takes the
        // broadcast's place at its destination (and may address the
        // sender); with no broadcast, call order stands.
        assert_eq!(filed_by(true, &[]).unwrap(), [0, 2, 3]);
        assert_eq!(filed_by(true, &[3, 0]).unwrap(), [0, 2, 3]);
        assert_eq!(filed_by(true, &[1]).unwrap(), [0, 1, 2, 3]);
        assert_eq!(filed_by(false, &[3, 0]).unwrap(), [3, 0]);
        assert_eq!(filed_by(false, &[]).unwrap(), [0usize; 0]);
    }

    #[test]
    fn only_direct_sends_can_break_one_message_per_destination() {
        let p = ProcessorId::new;
        assert_eq!(
            filed_by(true, &[2, 0, 2]).unwrap_err(),
            SimError::DuplicateDestination { p: p(1), to: p(2) }
        );
        assert_eq!(
            filed_by(false, &[4]).unwrap_err(),
            SimError::UnknownProcessor { p: p(4) }
        );
    }

    /// A population of 4 in which only p0 sends: one broadcast a step,
    /// so the others' steps file nothing and recycle no body.
    fn lone_broadcaster() -> Sim<Scripted> {
        let n = 4;
        let procs = ProcessorId::all(n)
            .map(|id| Scripted {
                id,
                n,
                broadcast: id.index() == 0,
                direct: Vec::new(),
            })
            .collect();
        SimBuilder::new(TimingParams::default(), SeedCollection::new(5))
            .build(procs)
            .unwrap()
    }

    /// Applies `action` to the one lane of `s`, not admissibly, checks
    /// the body accounting, and returns the live bodies with the
    /// holds on `body` and its payload.
    fn apply_held(s: &mut Sim<Scripted>, action: Action, body: u32) -> (usize, u32, Option<u32>) {
        let (lane, shared, trace) = s.batch.parts_mut(0);
        lane.apply(action, false, shared, trace).unwrap();
        assert_holds(&shared.bodies, [&lane.store]);
        let slab = &shared.bodies;
        let held = slab.msg(body).map_or(0, |_| slab.remaining(body));
        (slab.live(), held, slab.msg(body).copied())
    }

    #[test]
    fn duplicate_bodies_outlive_the_original_run() {
        let p = ProcessorId::new;
        let mut s = lone_broadcaster();
        let step = |q: usize, deliver: Vec<MsgId>| Action::Step { p: p(q), deliver };
        // p0's broadcast is ids 0..3 to p1..p3 on one body; the copy of
        // id 0 is a run of one on that body.
        assert_eq!(apply_held(&mut s, step(0, Vec::new()), 0), (1, 3, Some(0)));
        let dup = Action::Duplicate { id: MsgId(0) };
        assert_eq!(apply_held(&mut s, dup, 0), (1, 4, Some(0)));
        // Every destination takes its original: the last take settles the
        // broadcast run, which gives back its three; the copy keeps one.
        assert_eq!(
            apply_held(&mut s, step(1, vec![MsgId(0)]), 0),
            (1, 4, Some(0))
        );
        assert_eq!(
            apply_held(&mut s, step(2, vec![MsgId(1)]), 0),
            (1, 4, Some(0))
        );
        assert_eq!(
            apply_held(&mut s, Action::StepAll { p: p(3) }, 0),
            (1, 1, Some(0))
        );
        assert_eq!(
            s.batch.parts_mut(0).0.store.held(),
            1,
            "only the copy holds the body"
        );
        // Delivering the copy ends its hold, and the body goes.
        assert_eq!(
            apply_held(&mut s, Action::StepAll { p: p(1) }, 0),
            (0, 0, None)
        );
        assert_eq!(s.batch.parts_mut(0).0.store.held(), 0);
    }

    #[test]
    fn crash_dropped_bodies_leave_with_their_run() {
        let p = ProcessorId::new;
        let mut s = lone_broadcaster();
        assert_eq!(
            apply_held(&mut s, Action::StepAll { p: p(0) }, 0),
            (1, 3, Some(0))
        );
        // The crash drops p0's message to p3. Its run still owes p1 and
        // p2, so the body stays held for all three of its messages.
        let crash = Action::Crash {
            p: p(0),
            drop: vec![MsgId(2)],
        };
        assert_eq!(apply_held(&mut s, crash, 0), (1, 3, Some(0)));
        assert_eq!(s.batch.parts_mut(0).0.store.len(), 2);
        assert_eq!(
            apply_held(&mut s, Action::StepAll { p: p(1) }, 0),
            (1, 3, Some(0))
        );
        // The last delivery settles the run: its hold, the dropped
        // message's included, goes back and the body is freed.
        assert_eq!(
            apply_held(&mut s, Action::StepAll { p: p(2) }, 0),
            (0, 0, None)
        );
    }

    #[test]
    fn trace_records_decisions_and_messages() {
        let mut s = sim(3, 2);
        let mut adv = crate::adversaries::SynchronousAdversary::new(3);
        s.run(&mut adv, RunLimits::default()).unwrap();
        let trace = s.trace();
        assert_eq!(trace.decisions().len(), 3);
        assert!(!trace.messages().is_empty());
        // Every delivered message's receive event is after its send event.
        for m in trace.messages() {
            if let Some(recv) = m.recv_event {
                assert!(recv > m.send_event);
            }
        }
    }
}
