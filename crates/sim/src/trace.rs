//! Run traces: the raw material for round accounting and metrics.
//!
//! A [`Trace`] is the executable counterpart of the paper's *run*: the
//! sequence of events together with enough metadata to reconstruct the
//! message pattern and compute asynchronous rounds (Section 2.2), plus
//! the deliveries the lane's lateness monitor marked late as they
//! happened.

use std::fmt;
use std::sync::OnceLock;

use rtc_model::{LocalClock, ProcessorId, Value};

use crate::envelope::{IdRun, MsgId};

/// The lifetime of one message, as read from a trace.
///
/// A value type: the recorder keeps one row per *event* and derives
/// these records when [`Trace::messages`] is first asked for them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// The message's run-unique id.
    pub id: MsgId,
    /// Sender.
    pub from: ProcessorId,
    /// Destination.
    pub to: ProcessorId,
    /// Global index of the sending event.
    pub send_event: u64,
    /// Sender's clock immediately after the sending step.
    pub sender_clock: LocalClock,
    /// Global index of the receiving event, if the message was delivered.
    pub recv_event: Option<u64>,
    /// Receiver's clock immediately after the receiving step, if
    /// delivered.
    pub recv_clock: Option<LocalClock>,
    /// Whether the message was dropped at a crash (only possible for
    /// messages sent at the sender's final step — they are not
    /// *guaranteed* in the paper's sense).
    pub dropped: bool,
}

impl MsgRecord {
    /// Whether the message was delivered during the traced prefix.
    pub fn delivered(&self) -> bool {
        self.recv_event.is_some()
    }
}

/// One event of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventRecord {
    /// Processor `p` took a step, receiving the listed messages.
    Step {
        /// The stepping processor.
        p: ProcessorId,
        /// `p`'s clock after the step.
        clock_after: LocalClock,
        /// Messages delivered at this event.
        delivered: Vec<MsgId>,
        /// Messages sent at this event.
        sent: Vec<MsgId>,
    },
    /// Processor `p` crashed (an explicit failure step).
    Crash {
        /// The crashing processor.
        p: ProcessorId,
    },
    /// Processor `p` was revived (restarted) after a crash. This is an
    /// environment event outside the paper's fail-stop pattern; the
    /// pattern extraction treats it as a messageless step.
    Revive {
        /// The revived processor.
        p: ProcessorId,
    },
    /// A buffered message was duplicated by the network.
    Duplicate {
        /// The nominal sender (the original message's sender).
        p: ProcessorId,
        /// The message that was duplicated.
        original: MsgId,
        /// The fresh id assigned to the copy.
        copy: MsgId,
    },
}

impl EventRecord {
    /// The processor involved in this event.
    pub fn processor(&self) -> ProcessorId {
        match self {
            EventRecord::Step { p, .. }
            | EventRecord::Crash { p }
            | EventRecord::Revive { p }
            | EventRecord::Duplicate { p, .. } => *p,
        }
    }
}

/// A borrowed view of one recorded event.
///
/// The trace stores events column-wise (structure-of-arrays) with the
/// delivered id lists packed into a shared pool, so recording a step
/// never allocates per event. `EventView` is the zero-copy reading lens
/// over that layout: `delivered` borrows directly from the pool and
/// `sent` is the contiguous id range the event minted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventView<'a> {
    /// Processor `p` took a step, receiving the listed messages.
    Step {
        /// The stepping processor.
        p: ProcessorId,
        /// `p`'s clock after the step.
        clock_after: LocalClock,
        /// Messages delivered at this event.
        delivered: &'a [MsgId],
        /// Messages sent at this event.
        sent: IdRun,
    },
    /// Processor `p` crashed (an explicit failure step).
    Crash {
        /// The crashing processor.
        p: ProcessorId,
    },
    /// Processor `p` was revived (restarted) after a crash.
    Revive {
        /// The revived processor.
        p: ProcessorId,
    },
    /// A buffered message was duplicated by the network.
    Duplicate {
        /// The nominal sender (the original message's sender).
        p: ProcessorId,
        /// The message that was duplicated.
        original: MsgId,
        /// The fresh id assigned to the copy.
        copy: MsgId,
    },
}

impl EventView<'_> {
    /// The processor involved in this event.
    pub fn processor(&self) -> ProcessorId {
        match self {
            EventView::Step { p, .. }
            | EventView::Crash { p }
            | EventView::Revive { p }
            | EventView::Duplicate { p, .. } => *p,
        }
    }

    /// An owned [`EventRecord`] with the same content.
    pub fn to_record(&self) -> EventRecord {
        match *self {
            EventView::Step {
                p,
                clock_after,
                delivered,
                sent,
            } => EventRecord::Step {
                p,
                clock_after,
                delivered: delivered.to_vec(),
                sent: sent.to_vec(),
            },
            EventView::Crash { p } => EventRecord::Crash { p },
            EventView::Revive { p } => EventRecord::Revive { p },
            EventView::Duplicate { p, original, copy } => {
                EventRecord::Duplicate { p, original, copy }
            }
        }
    }
}

/// A decision observed during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The deciding processor.
    pub p: ProcessorId,
    /// The decided value.
    pub value: Value,
    /// The processor's clock when it decided.
    pub clock: LocalClock,
    /// Global index of the deciding event.
    pub event: u64,
}

/// Event-kind tags in the column-wise trace. These values are also the
/// digest tags, so they must never change; new kinds are only ever
/// appended (runs that use none of the newer kinds keep byte-identical
/// digests across engine revisions), and a retired kind's tag is not
/// reused (3 was a network partition's, 5 a network reorder's).
const KIND_STEP: u8 = 0;
const KIND_CRASH: u8 = 1;
const KIND_REVIVE: u8 = 2;
const KIND_DUPLICATE: u8 = 4;

/// Where one send-run's messages went.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dests<'a> {
    /// The broadcast pattern: every processor but the sender, ascending.
    Broadcast,
    /// These destinations, in id order.
    Explicit(&'a [ProcessorId]),
}

/// What one step sent, as the engine hands it to the recorder: `count`
/// messages with contiguous ids from `first`, addressed per `dests`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendRun<'a> {
    pub first: MsgId,
    pub count: u32,
    pub dests: Dests<'a>,
}

/// One row of the event columns, as the readers see it.
#[derive(Clone, Copy, Debug)]
struct Row<'a> {
    kind: u8,
    p: u32,
    /// The clock after a step; the id a duplicate copied; 0 otherwise.
    clock: u64,
    delivered: &'a [MsgId],
    /// Ids the run had minted once this event was applied.
    sent_end: u32,
}

/// A [`Trace`]'s event columns.
///
/// One entry per event in `kind` / `p` / `clock`, with each step's
/// delivered ids appended to the shared `deliv_pool` and addressed by a
/// prefix-end offset (`deliv_end[i]` is the pool length *after* row
/// `i`, so row `i`'s slice starts at `deliv_end[i - 1]`). What a row
/// *sent* is one number: ids are dense in send order, so `sent_end[i]`
/// — how many ids the run had minted after the event — bounds the row's
/// id range from above and the previous row bounds it from below.
/// Recording an event is therefore a handful of `Vec::push`es into
/// already-grown columns, whatever the population.
#[derive(Clone, Debug, Default)]
struct EventCols {
    kind: Vec<u8>,
    p: Vec<u32>,
    clock: Vec<u64>,
    deliv_end: Vec<u32>,
    sent_end: Vec<u32>,
    deliv_pool: Vec<MsgId>,
}

impl EventCols {
    fn clear(&mut self) {
        self.kind.clear();
        self.p.clear();
        self.clock.clear();
        self.deliv_end.clear();
        self.sent_end.clear();
        self.deliv_pool.clear();
    }

    fn len(&self) -> usize {
        self.kind.len()
    }

    /// Appends a row that delivers nothing.
    fn push(&mut self, kind: u8, p: u32, clock: u64, sent_end: u32) {
        self.kind.push(kind);
        self.p.push(p);
        self.clock.push(clock);
        self.deliv_end.push(self.deliv_pool.len() as u32);
        self.sent_end.push(sent_end);
    }

    /// Appends a step row; the delivered ids are copied straight into
    /// the shared pool.
    fn push_step(
        &mut self,
        p: u32,
        clock: u64,
        delivered: impl IntoIterator<Item = MsgId>,
        sent_end: u32,
    ) {
        self.deliv_pool.extend(delivered);
        self.push(KIND_STEP, p, clock, sent_end);
    }

    /// Row `idx` (panics if out of range, like slice indexing).
    fn row(&self, idx: usize) -> Row<'_> {
        let start = match idx {
            0 => 0,
            _ => self.deliv_end[idx - 1] as usize,
        };
        Row {
            kind: self.kind[idx],
            p: self.p[idx],
            clock: self.clock[idx],
            delivered: &self.deliv_pool[start..self.deliv_end[idx] as usize],
            sent_end: self.sent_end[idx],
        }
    }
}

/// What a [`Trace`] keeps about its messages besides its event rows.
///
/// A step's sends are a *run*: contiguous ids, one sender, one send
/// event, one sender clock — all of which the step's own event row
/// already says. What the row does not say is where the run went, and
/// that is the broadcast pattern (everybody but the sender, ascending)
/// unless the step sent directly without a broadcast or addressed
/// itself; only those runs list their destinations here. A delivery is
/// the step row that lists the id; a network duplicate's row names its
/// original. So the table is three short lists, and the
/// [`MsgRecord`]s readers get are derived from it and the event rows
/// by [`MsgTable::derive_into`].
#[derive(Clone, Debug, Default)]
struct MsgTable {
    /// `(first id, start in dest_pool)` of every run that lists its
    /// destinations, ascending.
    explicit: Vec<(u32, u32)>,
    dest_pool: Vec<ProcessorId>,
    /// Messages dropped at a crash, in drop order.
    dropped: Vec<MsgId>,
    /// Ids minted so far — the `sent_end` of the latest row.
    sent: u32,
}

impl MsgTable {
    fn clear(&mut self) {
        self.explicit.clear();
        self.dest_pool.clear();
        self.dropped.clear();
        self.sent = 0;
    }

    /// Ids minted so far.
    fn sent(&self) -> u32 {
        self.sent
    }

    /// Records what one step sent; returns the new id count (the step
    /// row's `sent_end`).
    fn push_run(&mut self, run: SendRun<'_>) -> u32 {
        debug_assert_eq!(run.first.index(), self.sent as usize, "ids are dense");
        if let Dests::Explicit(dests) = run.dests {
            debug_assert_eq!(dests.len(), run.count as usize);
            if !dests.is_empty() {
                self.explicit.push((self.sent, self.dest_pool.len() as u32));
                self.dest_pool.extend_from_slice(dests);
            }
        }
        self.sent += run.count;
        self.sent
    }

    /// Records that a network duplicate minted `copy`; returns the new
    /// id count.
    fn push_copy(&mut self, copy: MsgId) -> u32 {
        debug_assert_eq!(copy.index(), self.sent as usize, "ids are dense");
        self.sent += 1;
        self.sent
    }

    /// Marks message `id` as dropped at a crash.
    fn note_drop(&mut self, id: MsgId) {
        self.dropped.push(id);
    }

    /// Derives the message records, dense by id, from the event `rows`
    /// (in order) into `out`.
    fn derive_into<'a>(
        &self,
        population: usize,
        rows: impl Iterator<Item = Row<'a>>,
        out: &mut Vec<MsgRecord>,
    ) {
        out.clear();
        out.reserve(self.sent as usize);
        let mut explicit = self.explicit.iter().peekable();
        for (event, row) in rows.enumerate() {
            let event = event as u64;
            let first = out.len() as u32;
            let record = |id: usize, from, to, sender_clock| MsgRecord {
                id: MsgId(id as u64),
                from,
                to,
                send_event: event,
                sender_clock,
                recv_event: None,
                recv_clock: None,
                dropped: false,
            };
            match row.kind {
                KIND_STEP => {
                    let from = ProcessorId::new(row.p as usize);
                    let clock = LocalClock::new(row.clock);
                    let count = (row.sent_end - first) as usize;
                    if count == 0 {
                        // Sent nothing.
                    } else if let Some((_, start)) = explicit.next_if(|(run, _)| *run == first) {
                        for to in &self.dest_pool[*start as usize..][..count] {
                            out.push(record(out.len(), from, *to, clock));
                        }
                    } else {
                        debug_assert_eq!(count, population - 1);
                        for to in ProcessorId::all(population).filter(|to| *to != from) {
                            out.push(record(out.len(), from, to, clock));
                        }
                    }
                    for id in row.delivered {
                        let m = &mut out[id.index()];
                        m.recv_event = Some(event);
                        m.recv_clock = Some(clock);
                    }
                }
                // The copy is the original sent again, now.
                KIND_DUPLICATE => {
                    let original = &out[row.clock as usize];
                    out.push(record(
                        out.len(),
                        original.from,
                        original.to,
                        original.sender_clock,
                    ));
                }
                _ => {}
            }
            debug_assert_eq!(out.len(), row.sent_end as usize);
        }
        for id in &self.dropped {
            out[id.index()].dropped = true;
        }
    }
}

/// A full record of one run: events, messages, crashes, decisions.
///
/// Events are stored column-wise, one row per event; the message table
/// ([`Trace::messages`]) is derived from the rows (plus the short lists
/// of runs with listed destinations and of crash-time drops) on first
/// read and cached until the next event is recorded.
#[derive(Clone, Default)]
pub struct Trace {
    cols: EventCols,
    table: MsgTable,
    /// The derived message records; empty while events are being
    /// recorded.
    msgs: OnceLock<Vec<MsgRecord>>,
    crashed: Vec<ProcessorId>,
    decisions: Vec<DecisionRecord>,
    /// Number of processors in the traced run.
    n: usize,
    /// Messages the engine's lateness monitor classified as late at
    /// delivery time, in delivery order. A side annotation: not part of
    /// the digest (legacy digests must stay stable).
    late_marks: Vec<MsgId>,
}

impl Trace {
    pub(crate) fn new(n: usize) -> Trace {
        Trace {
            n,
            ..Trace::default()
        }
    }

    /// Empties the trace for a population of `n`, keeping every
    /// column's capacity — the batch engine recycles its lanes' traces
    /// from batch to batch this way.
    pub(crate) fn reset(&mut self, n: usize) {
        self.cols.clear();
        self.table.clear();
        self.msgs.take();
        self.crashed.clear();
        self.decisions.clear();
        self.n = n;
        self.late_marks.clear();
    }

    fn push_messageless(&mut self, kind: u8, p: ProcessorId) {
        self.msgs.take();
        self.cols.push(kind, p.index() as u32, 0, self.table.sent());
    }

    /// Records an owned [`EventRecord`] that sends nothing new to
    /// describe: a step's `sent` must be the broadcast pattern (tests
    /// with other sends call [`Trace::push_step`] with their run).
    #[cfg(test)]
    pub(crate) fn push_event(&mut self, ev: EventRecord) {
        match ev {
            EventRecord::Step {
                p,
                clock_after,
                delivered,
                sent,
            } => {
                let first = sent
                    .first()
                    .copied()
                    .unwrap_or(MsgId(self.table.sent() as u64));
                assert!(sent.is_empty() || sent.len() == self.population() - 1);
                let run = SendRun {
                    first,
                    count: sent.len() as u32,
                    dests: match sent.len() {
                        0 => Dests::Explicit(&[]),
                        _ => Dests::Broadcast,
                    },
                };
                self.push_step(p, clock_after, delivered, run);
            }
            EventRecord::Crash { p } => self.push_crash(p),
            EventRecord::Revive { p } => self.push_revive(p),
            EventRecord::Duplicate { p, original, copy } => self.push_duplicate(p, original, copy),
        }
    }

    /// Number of processors in the traced run.
    pub fn population(&self) -> usize {
        self.n
    }

    /// The id range event `idx` minted.
    fn sent(&self, idx: usize) -> IdRun {
        let start = match idx {
            0 => 0,
            _ => self.cols.sent_end[idx - 1],
        };
        IdRun::new(MsgId(u64::from(start)), self.cols.sent_end[idx] - start)
    }

    /// A borrowed view of event `idx` (panics if out of range, like
    /// slice indexing).
    pub fn event(&self, idx: usize) -> EventView<'_> {
        let row = self.cols.row(idx);
        let p = ProcessorId::new(row.p as usize);
        match row.kind {
            KIND_STEP => EventView::Step {
                p,
                clock_after: LocalClock::new(row.clock),
                delivered: row.delivered,
                sent: self.sent(idx),
            },
            KIND_CRASH => EventView::Crash { p },
            KIND_DUPLICATE => EventView::Duplicate {
                p,
                original: MsgId(row.clock),
                copy: MsgId(u64::from(row.sent_end) - 1),
            },
            _ => EventView::Revive { p },
        }
    }

    /// The events of the run, in order, as zero-copy [`EventView`]s.
    pub fn events(&self) -> EventsIter<'_> {
        EventsIter {
            trace: self,
            front: 0,
            back: self.cols.len(),
        }
    }

    /// All messages sent during the run, indexed by [`MsgId`]. Derived
    /// from the events on first use after recording.
    pub fn messages(&self) -> &[MsgRecord] {
        self.msgs.get_or_init(|| {
            let mut msgs = Vec::new();
            let rows = (0..self.cols.len()).map(|idx| self.cols.row(idx));
            self.table.derive_into(self.population(), rows, &mut msgs);
            msgs
        })
    }

    /// Processors that crashed during the run (the faulty set of this
    /// finite prefix).
    pub fn faulty(&self) -> &[ProcessorId] {
        &self.crashed
    }

    /// Decisions in the order they occurred.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Messages the lane's [`rtc_model::LatenessMonitor`] flagged as
    /// late at delivery time, at the run's `K`, in delivery order.
    pub fn late_marks(&self) -> &[MsgId] {
        &self.late_marks
    }

    /// The decision record of processor `p`, if it decided.
    pub fn decision_of(&self, p: ProcessorId) -> Option<DecisionRecord> {
        self.decisions.iter().find(|d| d.p == p).copied()
    }

    /// Number of events in the traced prefix.
    pub fn event_count(&self) -> usize {
        self.cols.len()
    }

    /// A 64-bit FNV-1a digest over the full canonical content of the
    /// trace: every event (kind, processor, clock, delivered and sent
    /// message ids in order), every message record, every decision, and
    /// the faulty set.
    ///
    /// Two traces have equal digests exactly when an adversary run
    /// produced byte-identical schedules, so this is the currency of
    /// the scheduler-equivalence suite (`tests/scheduler_equivalence.rs`):
    /// golden digests captured from one engine revision must be
    /// reproduced bit-for-bit by the next.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.population() as u64);
        h.write_u64(self.cols.len() as u64);
        for idx in 0..self.cols.len() {
            let row = self.cols.row(idx);
            h.write_u8(row.kind);
            h.write_u64(u64::from(row.p));
            let write_sent = |h: &mut Fnv| {
                let sent = self.sent(idx);
                h.write_u64(sent.len() as u64);
                for id in sent.iter() {
                    h.write_u64(id.index() as u64);
                }
            };
            match row.kind {
                KIND_STEP => {
                    h.write_u64(row.clock);
                    h.write_u64(row.delivered.len() as u64);
                    for id in row.delivered {
                        h.write_u64(id.index() as u64);
                    }
                    write_sent(&mut h);
                }
                // Runs without a network duplicate contain only kinds
                // 0..=2, so the byte sequence — and therefore every
                // legacy golden digest — is unchanged by this arm.
                KIND_DUPLICATE => {
                    h.write_u64(row.clock);
                    write_sent(&mut h);
                }
                _ => {}
            }
        }
        let msgs = self.messages();
        h.write_u64(msgs.len() as u64);
        for m in msgs {
            h.write_u64(m.id.index() as u64);
            h.write_u64(m.from.index() as u64);
            h.write_u64(m.to.index() as u64);
            h.write_u64(m.send_event);
            h.write_u64(m.sender_clock.ticks());
            h.write_opt_u64(m.recv_event);
            h.write_opt_u64(m.recv_clock.map(LocalClock::ticks));
            h.write_u8(m.dropped as u8);
        }
        h.write_u64(self.decisions.len() as u64);
        for d in &self.decisions {
            h.write_u64(d.p.index() as u64);
            h.write_u8(d.value.as_u8());
            h.write_u64(d.clock.ticks());
            h.write_u64(d.event);
        }
        h.write_u64(self.crashed.len() as u64);
        for p in &self.crashed {
            h.write_u64(p.index() as u64);
        }
        h.finish()
    }
}

/// Recording: everything the event-application code
/// ([`crate::engine::Lane`]) writes while executing a run.
impl Trace {
    /// Records a step event: what it delivered, in delivery order, and
    /// the one run it sent.
    #[inline(never)]
    pub(crate) fn push_step(
        &mut self,
        p: ProcessorId,
        clock_after: LocalClock,
        delivered: impl IntoIterator<Item = MsgId>,
        sent: SendRun<'_>,
    ) {
        self.msgs.take();
        let sent_end = self.table.push_run(sent);
        self.cols
            .push_step(p.index() as u32, clock_after.ticks(), delivered, sent_end);
    }

    /// Records a crash event and adds `p` to the faulty set.
    pub(crate) fn push_crash(&mut self, p: ProcessorId) {
        self.crashed.push(p);
        self.push_messageless(KIND_CRASH, p);
    }

    /// Records a revive event.
    pub(crate) fn push_revive(&mut self, p: ProcessorId) {
        self.push_messageless(KIND_REVIVE, p);
    }

    /// Records a duplication event: a run of one, `copy`, that says
    /// what `original` says to the same destination.
    pub(crate) fn push_duplicate(&mut self, from: ProcessorId, original: MsgId, copy: MsgId) {
        self.msgs.take();
        let sent_end = self.table.push_copy(copy);
        self.cols.push(
            KIND_DUPLICATE,
            from.index() as u32,
            original.index() as u64,
            sent_end,
        );
    }

    /// Marks message `id` as dropped at a crash.
    pub(crate) fn note_drop(&mut self, id: MsgId) {
        self.msgs.take();
        self.table.note_drop(id);
    }

    /// Marks message `id` as late (a side annotation, not digested).
    pub(crate) fn mark_late(&mut self, id: MsgId) {
        self.late_marks.push(id);
    }

    /// Records a decision.
    pub(crate) fn push_decision(&mut self, d: DecisionRecord) {
        self.decisions.push(d);
    }
}

/// Double-ended, exact-size iterator over a trace's events as
/// [`EventView`]s.
#[derive(Clone, Debug)]
pub struct EventsIter<'a> {
    trace: &'a Trace,
    front: usize,
    back: usize,
}

impl<'a> Iterator for EventsIter<'a> {
    type Item = EventView<'a>;

    fn next(&mut self) -> Option<EventView<'a>> {
        if self.front >= self.back {
            return None;
        }
        let ev = self.trace.event(self.front);
        self.front += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.back - self.front;
        (len, Some(len))
    }
}

impl ExactSizeIterator for EventsIter<'_> {}

impl<'a> DoubleEndedIterator for EventsIter<'a> {
    fn next_back(&mut self) -> Option<EventView<'a>> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.trace.event(self.back))
    }
}

/// FNV-1a, 64-bit. Hand-rolled so the digest is stable across Rust
/// releases and independent of `std::hash` internals.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u8(0),
            Some(v) => {
                self.write_u8(1);
                self.write_u64(v);
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.cols.len())
            .field("messages", &self.table.sent())
            .field("crashed", &self.crashed)
            .field("decisions", &self.decisions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    fn step(p: usize, clock: u64) -> EventRecord {
        EventRecord::Step {
            p: pid(p),
            clock_after: LocalClock::new(clock),
            delivered: vec![],
            sent: vec![],
        }
    }

    /// A step of `p` at `clock` delivering `delivered` and sending one
    /// message, `first`, to each of `to`.
    fn sending_step(
        t: &mut Trace,
        p: usize,
        clock: u64,
        delivered: &[u64],
        first: u64,
        to: &[usize],
    ) {
        let delivered: Vec<MsgId> = delivered.iter().map(|id| MsgId(*id)).collect();
        let dests: Vec<ProcessorId> = to.iter().map(|q| pid(*q)).collect();
        let run = SendRun {
            first: MsgId(first),
            count: dests.len() as u32,
            dests: Dests::Explicit(&dests),
        };
        t.push_step(pid(p), LocalClock::new(clock), delivered, run);
    }

    #[test]
    fn crash_records_faulty_set() {
        let mut t = Trace::new(3);
        t.push_event(EventRecord::Crash { p: pid(2) });
        assert_eq!(t.faulty(), &[pid(2)]);
        assert_eq!(t.event(0).processor(), pid(2));
    }

    #[test]
    fn digest_is_content_sensitive() {
        let mut a = Trace::new(2);
        sending_step(&mut a, 0, 1, &[], 0, &[1]);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        // One more event — the delivery — and the digests must diverge,
        // also through a message table that was already derived.
        sending_step(&mut b, 1, 1, &[0], 1, &[]);
        assert_ne!(a.digest(), b.digest());
        assert!(b.messages()[0].delivered() && !a.messages()[0].delivered());
        // A drop is content too.
        let mut c = a.clone();
        c.note_drop(MsgId(0));
        assert_ne!(a.digest(), c.digest());
        // Event order matters.
        let mut c = Trace::new(2);
        c.push_event(step(1, 1));
        c.push_event(step(0, 1));
        let mut d = Trace::new(2);
        d.push_event(step(0, 1));
        d.push_event(step(1, 1));
        assert_ne!(c.digest(), d.digest());
        assert_eq!(c.event_count(), 2);
    }

    #[test]
    fn soa_views_round_trip_event_records() {
        let mut t = Trace::new(3);
        let records = vec![
            EventRecord::Step {
                p: pid(0),
                clock_after: LocalClock::new(1),
                delivered: vec![],
                sent: vec![MsgId(0), MsgId(1)],
            },
            EventRecord::Crash { p: pid(2) },
            EventRecord::Step {
                p: pid(1),
                clock_after: LocalClock::new(1),
                delivered: vec![MsgId(1)],
                sent: vec![],
            },
            EventRecord::Revive { p: pid(2) },
            EventRecord::Step {
                p: pid(1),
                clock_after: LocalClock::new(2),
                delivered: vec![MsgId(0)],
                sent: vec![MsgId(2), MsgId(3)],
            },
            EventRecord::Duplicate {
                p: pid(1),
                original: MsgId(2),
                copy: MsgId(4),
            },
        ];
        for r in &records {
            t.push_event(r.clone());
        }
        // Columnar storage must reproduce every owned record exactly,
        // in order, through both random access and iteration.
        let via_iter: Vec<EventRecord> = t.events().map(|v| v.to_record()).collect();
        assert_eq!(via_iter, records);
        for (idx, want) in records.iter().enumerate() {
            assert_eq!(&t.event(idx).to_record(), want);
        }
        assert_eq!(t.events().len(), records.len());
        let back: Vec<EventRecord> = t.events().rev().map(|v| v.to_record()).collect();
        assert_eq!(back.len(), records.len());
        assert_eq!(&back[0], &records[records.len() - 1]);
    }

    /// The message table and digest a trace with every event kind must
    /// derive, against hand-built expectations: a broadcast, a run with
    /// listed destinations (call order, the sender addressing itself),
    /// deliveries, a duplicate of one message of the broadcast, a crash
    /// dropping part of the last run, a revive.
    #[test]
    fn every_event_kind_derives_the_hand_built_message_table() {
        let n = 3;
        let mut t = Trace::new(n);
        // 0: p0 broadcasts m0 → p1, m1 → p2.
        t.push_step(
            pid(0),
            LocalClock::new(1),
            [],
            SendRun {
                first: MsgId(0),
                count: 2,
                dests: Dests::Broadcast,
            },
        );
        // 1: the network duplicates m1 as m2.
        t.push_duplicate(pid(0), MsgId(1), MsgId(2));
        // 2: p2 steps, silent (right before a run that lists its
        //    destinations: the two must not be confused).
        sending_step(&mut t, 2, 1, &[], 3, &[]);
        // 3: p1 receives m0 and sends m3 → p2, m4 → p1, m5 → p0, in
        //    call order.
        sending_step(&mut t, 1, 1, &[0], 3, &[2, 1, 0]);
        // 4: p2 receives the copy and the broadcast, sends nothing.
        sending_step(&mut t, 2, 2, &[2, 1], 6, &[]);
        // 5: p1 crashes; m3 and m5 of its last step are dropped.
        t.note_drop(MsgId(3));
        t.note_drop(MsgId(5));
        t.push_crash(pid(1));
        // 6: p1 is revived; 7: and receives what it sent itself.
        t.push_revive(pid(1));
        sending_step(&mut t, 1, 2, &[4], 6, &[]);
        t.push_decision(DecisionRecord {
            p: pid(2),
            value: Value::One,
            clock: LocalClock::new(2),
            event: 4,
        });

        let rec =
            |id, from, to, send_event, sender_clock, recv: Option<(u64, u64)>, dropped| MsgRecord {
                id: MsgId(id),
                from: pid(from),
                to: pid(to),
                send_event,
                sender_clock: LocalClock::new(sender_clock),
                recv_event: recv.map(|(event, _)| event),
                recv_clock: recv.map(|(_, clock)| LocalClock::new(clock)),
                dropped,
            };
        let want = vec![
            rec(0, 0, 1, 0, 1, Some((3, 1)), false),
            rec(1, 0, 2, 0, 1, Some((4, 2)), false),
            // The copy: sent "now" (event 1), the original's endpoints
            // and sender clock.
            rec(2, 0, 2, 1, 1, Some((4, 2)), false),
            rec(3, 1, 2, 3, 1, None, true),
            rec(4, 1, 1, 3, 1, Some((7, 2)), false),
            rec(5, 1, 0, 3, 1, None, true),
        ];
        assert_eq!(t.messages(), want.as_slice());
        let sent: Vec<Vec<MsgId>> = t
            .events()
            .map(|ev| match ev {
                EventView::Step { sent, .. } => sent.to_vec(),
                EventView::Duplicate { copy, .. } => vec![copy],
                _ => Vec::new(),
            })
            .collect();
        let ids = |ids: &[u64]| ids.iter().map(|id| MsgId(*id)).collect::<Vec<_>>();
        assert_eq!(
            sent,
            [
                ids(&[0, 1]),
                ids(&[2]),
                ids(&[]),
                ids(&[3, 4, 5]),
                ids(&[]),
                ids(&[]),
                ids(&[]),
                ids(&[])
            ]
        );

        // The digest, spelled out byte for byte the way every engine
        // revision since the golden corpus has hashed it.
        let mut h = Fnv::new();
        let u = |h: &mut Fnv, vals: &[u64]| vals.iter().for_each(|v| h.write_u64(*v));
        u(&mut h, &[n as u64, 8]);
        // (kind, processor, then the kind's payload)
        h.write_u8(KIND_STEP);
        u(&mut h, &[0, 1, 0, 2, 0, 1]);
        h.write_u8(KIND_DUPLICATE);
        u(&mut h, &[0, 1, 1, 2]);
        h.write_u8(KIND_STEP);
        u(&mut h, &[2, 1, 0, 0]);
        h.write_u8(KIND_STEP);
        u(&mut h, &[1, 1, 1, 0, 3, 3, 4, 5]);
        h.write_u8(KIND_STEP);
        u(&mut h, &[2, 2, 2, 2, 1, 0]);
        h.write_u8(KIND_CRASH);
        u(&mut h, &[1]);
        h.write_u8(KIND_REVIVE);
        u(&mut h, &[1]);
        h.write_u8(KIND_STEP);
        u(&mut h, &[1, 2, 1, 4, 0]);
        u(&mut h, &[want.len() as u64]);
        for m in &want {
            u(
                &mut h,
                &[
                    m.id.index() as u64,
                    m.from.index() as u64,
                    m.to.index() as u64,
                    m.send_event,
                    m.sender_clock.ticks(),
                ],
            );
            h.write_opt_u64(m.recv_event);
            h.write_opt_u64(m.recv_clock.map(LocalClock::ticks));
            h.write_u8(m.dropped as u8);
        }
        u(&mut h, &[1, 2]);
        h.write_u8(Value::One.as_u8());
        u(&mut h, &[2, 4]);
        u(&mut h, &[1, 1]);
        assert_eq!(t.digest(), h.finish());
    }

    #[test]
    fn hostile_network_events_are_digest_sensitive_but_legacy_digests_stable() {
        let mut base = Trace::new(2);
        base.push_event(step(0, 1));
        base.push_event(step(1, 1));
        sending_step(&mut base, 0, 2, &[], 0, &[1]);
        let legacy = base.digest();
        // Appending a network duplicate changes the digest.
        let mut dup = base.clone();
        dup.push_duplicate(pid(0), MsgId(0), MsgId(1));
        assert_ne!(legacy, dup.digest());
        // Lateness marks are annotations, not digested content.
        let mut marked = base.clone();
        marked.mark_late(MsgId(0));
        assert_eq!(base.digest(), marked.digest());
        assert_eq!(marked.late_marks(), &[MsgId(0)]);
    }

    #[test]
    fn decision_lookup() {
        let mut t = Trace::new(2);
        t.push_decision(DecisionRecord {
            p: pid(1),
            value: Value::One,
            clock: LocalClock::new(9),
            event: 17,
        });
        assert_eq!(t.decision_of(pid(1)).unwrap().value, Value::One);
        assert!(t.decision_of(pid(0)).is_none());
    }
}
