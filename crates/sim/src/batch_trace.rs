//! The shared structure-of-arrays trace recorder of the batch engine.
//!
//! All B instances of a [`crate::BatchSim`] record into ONE set of
//! event columns ([`EventCols`], the very type a single-instance
//! [`Trace`] owns), interleaved in global execution order; each lane
//! additionally keeps a row-index list (its *segment view*) plus its
//! own message table ([`MsgTable`], again `Trace`'s type) and decision
//! list. Because the delivery-pool offsets are prefix *ends*, they
//! address correctly even when rows of different lanes interleave — a
//! row's slice starts at the previous row's end regardless of which
//! lane wrote it — and what a row sent is a lane-local id count, so it
//! does not care about its neighbours at all.
//!
//! The recording handle is [`ActiveCols`]: one flat struct holding the
//! shared columns *and* the currently recording lane's tables, which
//! [`BatchTrace::begin_lane`] swaps in (and [`BatchTrace::end_lane`]
//! swaps back out) at fairness-slice granularity. The per-event push
//! path therefore addresses every column at a fixed offset from a
//! single base pointer — byte-for-byte the cost profile of the serial
//! engine's `&mut Trace` — while the swap itself is a few pointer-size
//! moves amortized over a whole slice.
//!
//! [`BatchTrace::to_trace`] materializes one lane's view as an
//! ordinary [`Trace`]: the lane's rows copied in lane order, its
//! message table, decisions and late marks alongside. The message
//! records and the digest are then derived by the same code that
//! serves a serial run, which is what keeps per-lane digests
//! byte-identical to a serial run's.

use rtc_model::{LocalClock, ProcessorId};

use crate::envelope::MsgId;
use crate::trace::{
    steps_between, DecisionRecord, EventCols, MsgTable, Row, SendRun, Trace, TraceSink, KIND_CRASH,
    KIND_DUPLICATE, KIND_REORDER, KIND_REVIVE,
};

/// One lane's private tables, grouped so [`BatchTrace::begin_lane`]
/// can move them in and out of the recording handle with one swap.
#[derive(Clone, Debug, Default)]
struct LaneTables {
    /// The lane's segment view: the global row indices of its events,
    /// in order.
    ev_index: Vec<u32>,
    /// The lane's message table.
    table: MsgTable,
    /// The lane's decisions, in decision order.
    decisions: Vec<DecisionRecord>,
    /// The lane's late marks, in delivery order.
    late_marks: Vec<MsgId>,
    /// Per-processor step-event ordinals — the lane's counterpart of
    /// `Trace`'s `step_events` table, in *lane-local* row indices
    /// (positions in `ev_index`, which equal the row indices of the
    /// lane's replayed `Trace`). Powers the no-replay
    /// [`BatchTrace::is_on_time`] the campaign's batched verifier uses.
    step_events: Vec<Vec<u64>>,
    /// Crash-event count (the size the lane's replayed
    /// `Trace::faulty` slice would have).
    crash_count: u32,
}

impl LaneTables {
    fn reset(&mut self, population: usize) {
        self.ev_index.clear();
        self.table.clear();
        self.decisions.clear();
        self.late_marks.clear();
        self.step_events.truncate(population);
        self.step_events.iter_mut().for_each(Vec::clear);
        self.step_events.resize_with(population, Vec::new);
        self.crash_count = 0;
    }
}

/// The batch's recording handle: the shared event columns plus the
/// tables of the lane currently being stepped (swapped in by
/// [`BatchTrace::begin_lane`]). Implements [`TraceSink`] with every
/// column at a fixed offset from `&mut self` — the same addressing
/// depth as the single-instance `Trace`.
#[derive(Clone, Debug, Default)]
pub(crate) struct ActiveCols {
    /// Shared columns, interleaved across lanes in execution order —
    /// one row per event of any lane.
    cols: EventCols,
    /// The recording lane's own tables while a slice is active;
    /// an empty stash otherwise.
    cur: LaneTables,
}

impl ActiveCols {
    /// Notes the row about to be pushed in the recording lane's segment
    /// view.
    fn index_row(&mut self) {
        self.cur.ev_index.push(self.cols.len() as u32);
    }

    /// Appends one row that neither delivers nor sends.
    fn push_row(&mut self, kind: u8, p: u32, clock: u64) {
        self.index_row();
        self.cols.push(kind, p, clock, self.cur.table.sent());
    }
}

impl TraceSink for ActiveCols {
    fn push_step(
        &mut self,
        p: ProcessorId,
        clock_after: LocalClock,
        delivered: &[MsgId],
        sent: SendRun<'_>,
    ) {
        // The lane-local ordinal of the row about to be pushed — the
        // index this event gets in the lane's replayed `Trace`, which
        // is the coordinate system message send/recv events use.
        let ordinal = self.cur.ev_index.len() as u64;
        self.cur.step_events[p.index()].push(ordinal);
        self.index_row();
        let sent_end = self.cur.table.push_run(sent);
        self.cols
            .push_step(p.index() as u32, clock_after.ticks(), delivered, sent_end);
    }

    fn push_crash(&mut self, p: ProcessorId) {
        self.cur.crash_count += 1;
        self.push_row(KIND_CRASH, p.index() as u32, 0);
    }

    fn push_revive(&mut self, p: ProcessorId) {
        self.push_row(KIND_REVIVE, p.index() as u32, 0);
    }

    fn push_partition(&mut self, groups: &[u32], heal_at: u64) {
        self.index_row();
        self.cols
            .push_partition(groups, heal_at, self.cur.table.sent());
    }

    fn push_duplicate(&mut self, from: ProcessorId, original: MsgId, copy: MsgId) {
        self.index_row();
        let sent_end = self.cur.table.push_copy(copy);
        self.cols.push(
            KIND_DUPLICATE,
            from.index() as u32,
            original.index() as u64,
            sent_end,
        );
    }

    fn push_reorder(&mut self, dest: ProcessorId, id: MsgId) {
        self.push_row(KIND_REORDER, dest.index() as u32, id.index() as u64);
    }

    fn note_drop(&mut self, id: MsgId) {
        self.cur.table.note_drop(id);
    }

    fn mark_late(&mut self, id: MsgId) {
        self.cur.late_marks.push(id);
    }

    fn push_decision(&mut self, d: DecisionRecord) {
        self.cur.decisions.push(d);
    }
}

/// One shared event recorder serving every lane of a batch. See the
/// module docs for the layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchTrace {
    /// Per-instance population (all lanes of a batch share one `n`).
    population: usize,
    /// The shared columns plus the active lane's swapped-in tables.
    active: ActiveCols,
    /// Per-lane tables; an inactive lane's live here, the active
    /// lane's slot holds the stash until [`BatchTrace::end_lane`].
    lanes: Vec<LaneTables>,
}

impl BatchTrace {
    pub(crate) fn new() -> BatchTrace {
        BatchTrace::default()
    }

    /// Per-lane table count the recorder currently holds — the warm
    /// recorder capacity a pooled reuse keeps per worker shard.
    pub(crate) fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Empties the recorder for a batch of `lanes` instances of
    /// `population` processors each, keeping every allocation (the
    /// shared columns and as many per-lane tables as were ever used).
    pub(crate) fn reset(&mut self, lanes: usize, population: usize) {
        self.population = population;
        self.active.cols.clear();
        self.active.cur.reset(population);
        self.lanes.truncate(lanes);
        for lane in &mut self.lanes {
            lane.reset(population);
        }
        self.lanes.resize_with(lanes, || {
            let mut t = LaneTables::default();
            t.reset(population);
            t
        });
    }

    /// Swaps `lane`'s tables into the recording handle. Callers pair
    /// this with [`BatchTrace::end_lane`] around a fairness slice (or
    /// any other bounded recording span) and must not leave a lane
    /// active across calls that read per-lane state.
    pub(crate) fn begin_lane(&mut self, lane: u32) {
        std::mem::swap(&mut self.active.cur, &mut self.lanes[lane as usize]);
    }

    /// Swaps the recording handle's tables back into `lane`'s slot.
    pub(crate) fn end_lane(&mut self, lane: u32) {
        std::mem::swap(&mut self.active.cur, &mut self.lanes[lane as usize]);
    }

    /// The recording handle (valid between [`BatchTrace::begin_lane`]
    /// and [`BatchTrace::end_lane`]).
    pub(crate) fn active_mut(&mut self) -> &mut ActiveCols {
        &mut self.active
    }

    /// Decisions recorded for `lane`, in decision order.
    pub(crate) fn decisions_of(&self, lane: usize) -> &[DecisionRecord] {
        &self.lanes[lane].decisions
    }

    /// Whether `lane`'s run recorded no crash events — equal to
    /// `self.to_trace(lane).faulty().is_empty()` without the replay.
    pub(crate) fn failure_free(&self, lane: usize) -> bool {
        self.lanes[lane].crash_count == 0
    }

    /// `lane`'s event rows, in lane order.
    fn rows(&self, lane: usize) -> impl Iterator<Item = Row<'_>> {
        self.lanes[lane]
            .ev_index
            .iter()
            .map(|row| self.active.cols.row(*row as usize))
    }

    /// Whether `lane`'s traced prefix is on-time at window `k` — equal
    /// to `self.to_trace(lane).is_on_time(k)` without the replay. A
    /// message's send event is the lane-local ordinal of the row that
    /// minted its id, its receive event the ordinal of the step row
    /// that lists it, so one pass over the lane's rows sees both.
    pub(crate) fn is_on_time(&self, lane: usize, k: u64) -> bool {
        let tables = &self.lanes[lane];
        let mut send_event = Vec::with_capacity(tables.table.sent() as usize);
        self.rows(lane).enumerate().all(|(event, row)| {
            let event = event as u64;
            send_event.resize(row.sent_end as usize, event);
            row.delivered.iter().all(|id| {
                let sent = send_event[id.index()];
                tables
                    .step_events
                    .iter()
                    .all(|steps| steps_between(steps, sent, event) <= k)
            })
        })
    }

    /// Materializes `lane`'s segment view as a standalone [`Trace`]:
    /// its rows in lane order, its message table, decisions and late
    /// marks. Everything a reader then derives — message records,
    /// digest — comes from the code a serial run's `Trace` uses, over
    /// the content a serial run would have recorded.
    pub(crate) fn to_trace(&self, lane: usize) -> Trace {
        let mut t = Trace::new(self.population);
        self.to_trace_into(lane, &mut t);
        t
    }

    /// [`BatchTrace::to_trace`] into a caller-provided scratch `Trace`,
    /// reusing its buffers — the copy itself is allocation-free once
    /// the scratch has seen a lane at least as large.
    pub(crate) fn to_trace_into(&self, lane: usize, t: &mut Trace) {
        t.reset(self.population);
        let tables = &self.lanes[lane];
        for row in self.rows(lane) {
            t.copy_row(row, &self.active.cols);
        }
        t.copy_table(&tables.table);
        for d in &tables.decisions {
            t.push_decision(*d);
        }
        for id in &tables.late_marks {
            t.mark_late(*id);
        }
    }
}
