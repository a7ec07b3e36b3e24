//! The trace conformance linter.
//!
//! Replays a recorded run trace event by event against the spec's
//! transition relation: every `Step` re-derives the stepping processor's
//! full send bundle from the seed collection and the spec state machine
//! ([`crate::commit::SpecProc`]), every network/fault event is checked
//! against the engine's admissibility rules, and every recorded message
//! and decision record is cross-checked against the prediction. The
//! first non-conforming event aborts the lint with a [`ConformanceError`]
//! carrying the offending event index and the [`RunSpec`] — together
//! with the trace these are a replayable witness: linting the same
//! trace again deterministically reproduces the report.
//!
//! The linter checks everything derivable from `(RunSpec, Trace)`:
//! message ids (dense, in prediction order), endpoints, send/receive
//! events and clocks, crash-time drop eligibility, and decision records
//! in both directions. What it cannot check is
//! fault-budget admissibility — the budget lives in the driver, not the
//! trace — so an over-budget run lints clean if each event is locally
//! legal.

use std::collections::BTreeMap;
use std::fmt;

use rtc_model::{LocalClock, SeedCollection, Value};
use rtc_sim::{DecisionRecord, EventRecord, MsgRecord, Trace};

use crate::commit::{SpecConfig, SpecProc};
use crate::msg::{SpecDelivery, SpecMsg};
use crate::oracle::ReplayOracle;

/// Everything needed to re-derive a run from its trace: the protocol
/// configuration, the seed collection `F`, and the initial votes.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The protocol configuration the run used.
    pub cfg: SpecConfig,
    /// The seed collection the engine derived per-step randomness from.
    pub seeds: SeedCollection,
    /// Initial vote per processor, indexed by processor id.
    pub votes: Vec<Value>,
}

impl RunSpec {
    /// Bundles a run description; `votes` must cover the population.
    pub fn new(cfg: SpecConfig, seeds: SeedCollection, votes: Vec<Value>) -> RunSpec {
        assert_eq!(votes.len(), cfg.n, "one initial vote per processor");
        RunSpec { cfg, seeds, votes }
    }
}

/// How a revived processor restarted — recorded by the driver at each
/// revive, since the trace's `Revive` event does not carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReviveKind {
    /// Restarted from a crash-time snapshot (stable storage).
    Snapshot,
    /// Restarted amnesiac: fresh state, rejoining as an observer.
    Amnesiac,
}

/// Summary of a clean lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conformance {
    /// Events replayed.
    pub events: usize,
    /// Messages whose full lifetime was verified.
    pub messages: usize,
    /// Decision records cross-checked.
    pub decisions: usize,
}

/// The first non-conforming event of a trace, with enough context to
/// replay the lint.
#[derive(Clone, Debug)]
pub struct ConformanceError {
    /// Index of the offending event, or `None` for an end-of-trace
    /// (bookkeeping) violation.
    pub event: Option<usize>,
    /// What the spec expected versus what the trace recorded.
    pub detail: String,
    /// The run description — with the trace, a replayable witness.
    pub run: RunSpec,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            Some(ev) => write!(
                f,
                "trace does not conform to the spec at event {ev}: {} \
                 (replay: n = {}, master seed = {})",
                self.detail,
                self.run.cfg.n,
                self.run.seeds.master()
            ),
            None => write!(
                f,
                "trace does not conform to the spec at end of trace: {} \
                 (replay: n = {}, master seed = {})",
                self.detail,
                self.run.cfg.n,
                self.run.seeds.master()
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// A message in flight, as the spec predicts it.
#[derive(Clone, Debug)]
struct BufMsg {
    from: usize,
    to: usize,
    msg: SpecMsg,
}

/// Lints a recorded [`Trace`] against the spec. `revives` gives the
/// restart kind of each `Revive` event, in trace order (empty for runs
/// without restarts).
///
/// # Errors
///
/// The first non-conforming event, as a [`ConformanceError`].
pub fn lint_trace(
    run: &RunSpec,
    trace: &Trace,
    revives: &[ReviveKind],
) -> Result<Conformance, ConformanceError> {
    let events: Vec<EventRecord> = trace.events().map(|v| v.to_record()).collect();
    lint_events(run, &events, trace.messages(), trace.decisions(), revives)
}

/// Lints owned record slices — the same check as [`lint_trace`], for
/// callers that assemble (or mutate) records outside a live [`Trace`].
///
/// # Errors
///
/// The first non-conforming event, as a [`ConformanceError`].
pub fn lint_events(
    run: &RunSpec,
    events: &[EventRecord],
    msgs: &[MsgRecord],
    decisions: &[DecisionRecord],
    revives: &[ReviveKind],
) -> Result<Conformance, ConformanceError> {
    Linter::new(run, msgs, decisions, revives)?.lint(events)
}

struct Linter<'a> {
    run: &'a RunSpec,
    msgs: &'a [MsgRecord],
    decisions: &'a [DecisionRecord],
    revives: &'a [ReviveKind],
    procs: Vec<SpecProc>,
    /// Lane clocks: the engine's per-processor step counters, which
    /// drive rng derivation and the recorded `clock_after`. They track
    /// the processors' internal clocks except across an amnesiac
    /// restart, where the internal clock restarts at zero and the lane
    /// clock keeps counting.
    lane_clocks: Vec<u64>,
    crashed: Vec<bool>,
    decided: Vec<bool>,
    last_step_event: Vec<Option<u64>>,
    buffered: BTreeMap<u64, BufMsg>,
    next_msg: u64,
    revive_cursor: usize,
    decision_cursor: usize,
    dropped_consumed: usize,
}

impl<'a> Linter<'a> {
    fn new(
        run: &'a RunSpec,
        msgs: &'a [MsgRecord],
        decisions: &'a [DecisionRecord],
        revives: &'a [ReviveKind],
    ) -> Result<Linter<'a>, ConformanceError> {
        let n = run.cfg.n;
        let fail = |detail: String| ConformanceError {
            event: None,
            detail,
            run: run.clone(),
        };
        if run.votes.len() != n {
            return Err(fail(format!(
                "run spec carries {} votes for a population of {n}",
                run.votes.len()
            )));
        }
        // Message records must be dense by id and internally consistent.
        for (i, m) in msgs.iter().enumerate() {
            if m.id.index() != i {
                return Err(fail(format!(
                    "message record {i} carries id {}, expected dense ids",
                    m.id.index()
                )));
            }
            if m.dropped && m.recv_event.is_some() {
                return Err(fail(format!(
                    "message {i} is flagged both dropped and delivered"
                )));
            }
        }
        let procs = (0..n)
            .map(|i| SpecProc::new(run.cfg, rtc_model::ProcessorId::new(i), run.votes[i]))
            .collect();
        Ok(Linter {
            run,
            msgs,
            decisions,
            revives,
            procs,
            lane_clocks: vec![0; n],
            crashed: vec![false; n],
            decided: vec![false; n],
            last_step_event: vec![None; n],
            buffered: BTreeMap::new(),
            next_msg: 0,
            revive_cursor: 0,
            decision_cursor: 0,
            dropped_consumed: 0,
        })
    }

    fn fail<T>(&self, event: Option<usize>, detail: String) -> Result<T, ConformanceError> {
        Err(ConformanceError {
            event,
            detail,
            run: self.run.clone(),
        })
    }

    fn lint(mut self, events: &[EventRecord]) -> Result<Conformance, ConformanceError> {
        for (idx, ev) in events.iter().enumerate() {
            match ev {
                EventRecord::Step {
                    p,
                    clock_after,
                    delivered,
                    sent,
                } => self.lint_step(idx, p.index(), *clock_after, delivered, sent)?,
                EventRecord::Crash { p } => self.lint_crash(idx, p.index())?,
                EventRecord::Revive { p } => self.lint_revive(idx, p.index())?,
                EventRecord::Duplicate { p, original, copy } => {
                    self.lint_duplicate(idx, p.index(), original.index(), copy.index())?;
                }
            }
        }
        self.finish(events.len())
    }

    fn lint_step(
        &mut self,
        idx: usize,
        p: usize,
        clock_after: LocalClock,
        delivered: &[rtc_sim::MsgId],
        sent: &[rtc_sim::MsgId],
    ) -> Result<(), ConformanceError> {
        if self.crashed[p] {
            return self.fail(Some(idx), format!("processor {p} stepped while crashed"));
        }
        // Extract the recorded deliveries from the in-flight buffer.
        let mut deliveries = Vec::with_capacity(delivered.len());
        for id in delivered {
            let raw = id.index() as u64;
            let Some(buf) = self.buffered.get(&raw) else {
                return self.fail(
                    Some(idx),
                    format!("delivery of message {raw}, which is not in flight"),
                );
            };
            if buf.to != p {
                return self.fail(
                    Some(idx),
                    format!(
                        "processor {p} received message {raw}, which is addressed to {}",
                        buf.to
                    ),
                );
            }
            let buf = self.buffered.remove(&raw).expect("checked above");
            deliveries.push(SpecDelivery {
                from: rtc_model::ProcessorId::new(buf.from),
                msg: buf.msg,
            });
        }
        // Re-derive the step: the rng comes from the pre-tick lane
        // clock; the recorded clock is the post-tick value.
        let pid = rtc_model::ProcessorId::new(p);
        let rng = self
            .run
            .seeds
            .step_rng(pid, LocalClock::new(self.lane_clocks[p]));
        let mut oracle = ReplayOracle::new(rng, self.run.cfg.vote_timeout());
        let predicted = self.procs[p].step(&deliveries, &mut oracle);
        self.lane_clocks[p] += 1;
        if clock_after.ticks() != self.lane_clocks[p] {
            return self.fail(
                Some(idx),
                format!(
                    "processor {p} records clock {} after its step, spec expects {}",
                    clock_after.ticks(),
                    self.lane_clocks[p]
                ),
            );
        }
        // The send bundle: same count, dense ids in prediction order,
        // matching message records.
        if sent.len() != predicted.len() {
            return self.fail(
                Some(idx),
                format!(
                    "processor {p} recorded {} sends, spec predicts {} ({:?})",
                    sent.len(),
                    predicted.len(),
                    predicted.iter().map(|s| s.to.index()).collect::<Vec<_>>()
                ),
            );
        }
        for (offset, (id, send)) in sent.iter().zip(predicted).enumerate() {
            let raw = id.index() as u64;
            if raw != self.next_msg + offset as u64 {
                return self.fail(
                    Some(idx),
                    format!(
                        "send {offset} of processor {p} has id {raw}, expected the next \
                         dense id {}",
                        self.next_msg + offset as u64
                    ),
                );
            }
            let Some(rec) = self.msgs.get(raw as usize) else {
                return self.fail(
                    Some(idx),
                    format!("sent message {raw} has no message record"),
                );
            };
            if rec.from != pid
                || rec.to != send.to
                || rec.send_event != idx as u64
                || rec.sender_clock != clock_after
            {
                return self.fail(
                    Some(idx),
                    format!(
                        "message {raw} recorded as {} -> {} at event {} clock {}, spec \
                         expects {p} -> {} at event {idx} clock {}",
                        rec.from.index(),
                        rec.to.index(),
                        rec.send_event,
                        rec.sender_clock.ticks(),
                        send.to.index(),
                        clock_after.ticks()
                    ),
                );
            }
            self.buffered.insert(
                raw,
                BufMsg {
                    from: p,
                    to: send.to.index(),
                    msg: send.msg,
                },
            );
        }
        self.next_msg += sent.len() as u64;
        // Receive bookkeeping on the delivered records.
        for id in delivered {
            let rec = &self.msgs[id.index()];
            if rec.recv_event != Some(idx as u64) || rec.recv_clock != Some(clock_after) {
                return self.fail(
                    Some(idx),
                    format!(
                        "message {} delivered at event {idx} clock {}, but its record says \
                         event {:?} clock {:?}",
                        id.index(),
                        clock_after.ticks(),
                        rec.recv_event,
                        rec.recv_clock.map(LocalClock::ticks)
                    ),
                );
            }
        }
        // Decisions, in both directions: a spec-side decision must have
        // a matching record here, and the next recorded decision must
        // not claim this event unless the spec decided.
        let newly_decided = !self.decided[p] && self.procs[p].status().value().is_some();
        if newly_decided {
            self.decided[p] = true;
            let value = self.procs[p].status().value().expect("just checked");
            let Some(rec) = self.decisions.get(self.decision_cursor) else {
                return self.fail(
                    Some(idx),
                    format!(
                        "processor {p} decides {value:?} here, but the trace records no \
                         further decisions"
                    ),
                );
            };
            if rec.p != pid
                || rec.value != value
                || rec.event != idx as u64
                || rec.clock != clock_after
            {
                return self.fail(
                    Some(idx),
                    format!(
                        "processor {p} decides {value:?} at event {idx} clock {}, but \
                         decision record {} says processor {} decided {:?} at event {} \
                         clock {}",
                        clock_after.ticks(),
                        self.decision_cursor,
                        rec.p.index(),
                        rec.value,
                        rec.event,
                        rec.clock.ticks()
                    ),
                );
            }
            self.decision_cursor += 1;
        } else if let Some(rec) = self.decisions.get(self.decision_cursor) {
            if rec.event == idx as u64 {
                return self.fail(
                    Some(idx),
                    format!(
                        "decision record {} claims processor {} decided {:?} at this \
                         event, but the spec predicts no decision",
                        self.decision_cursor,
                        rec.p.index(),
                        rec.value
                    ),
                );
            }
        }
        self.last_step_event[p] = Some(idx as u64);
        Ok(())
    }

    fn lint_crash(&mut self, idx: usize, p: usize) -> Result<(), ConformanceError> {
        if self.crashed[p] {
            return self.fail(Some(idx), format!("processor {p} crashed twice"));
        }
        // Dropped messages are consumed here: only sends from the
        // crashing processor's final step are droppable.
        let dropped: Vec<u64> = self
            .buffered
            .iter()
            .filter(|(raw, _)| self.msgs[**raw as usize].dropped)
            .map(|(raw, _)| *raw)
            .collect();
        for raw in dropped {
            let rec = &self.msgs[raw as usize];
            if rec.from.index() == p && Some(rec.send_event) == self.last_step_event[p] {
                self.buffered.remove(&raw);
                self.dropped_consumed += 1;
            }
        }
        self.crashed[p] = true;
        Ok(())
    }

    fn lint_revive(&mut self, idx: usize, p: usize) -> Result<(), ConformanceError> {
        if !self.crashed[p] {
            return self.fail(
                Some(idx),
                format!("processor {p} revived without being crashed"),
            );
        }
        let Some(kind) = self.revives.get(self.revive_cursor).copied() else {
            return self.fail(
                Some(idx),
                format!(
                    "revive of processor {p} has no restart-kind hint (got {} hints)",
                    self.revives.len()
                ),
            );
        };
        self.revive_cursor += 1;
        // No steps happen while crashed, so the state at the crash is
        // the state now; a snapshot restart resumes from it. An
        // amnesiac restart rejoins fresh, as an observer. Lane clocks
        // keep counting in both cases.
        self.procs[p] = match kind {
            ReviveKind::Snapshot => self.procs[p].restore_snapshot(),
            ReviveKind::Amnesiac => SpecProc::restore_amnesiac(SpecProc::new(
                self.run.cfg,
                rtc_model::ProcessorId::new(p),
                self.run.votes[p],
            )),
        };
        self.crashed[p] = false;
        // The engine never re-records a decision across a restart.
        self.decided[p] = self.decided[p] || self.procs[p].status().value().is_some();
        Ok(())
    }

    fn lint_duplicate(
        &mut self,
        idx: usize,
        p: usize,
        original: usize,
        copy: usize,
    ) -> Result<(), ConformanceError> {
        let Some(orig) = self.buffered.get(&(original as u64)) else {
            return self.fail(
                Some(idx),
                format!("duplicate of message {original}, which is not in flight"),
            );
        };
        if orig.from != p {
            return self.fail(
                Some(idx),
                format!(
                    "duplicate event names sender {p}, message {original} is from {}",
                    orig.from
                ),
            );
        }
        if copy as u64 != self.next_msg {
            return self.fail(
                Some(idx),
                format!(
                    "duplicate copy has id {copy}, expected the next dense id {}",
                    self.next_msg
                ),
            );
        }
        let orig_rec = &self.msgs[original];
        let Some(rec) = self.msgs.get(copy) else {
            return self.fail(Some(idx), format!("copy {copy} has no message record"));
        };
        if rec.from != orig_rec.from
            || rec.to != orig_rec.to
            || rec.send_event != idx as u64
            || rec.sender_clock != orig_rec.sender_clock
        {
            return self.fail(
                Some(idx),
                format!(
                    "copy {copy} recorded as {} -> {} at event {} clock {}, expected the \
                     original's endpoints {} -> {} at event {idx} clock {}",
                    rec.from.index(),
                    rec.to.index(),
                    rec.send_event,
                    rec.sender_clock.ticks(),
                    orig_rec.from.index(),
                    orig_rec.to.index(),
                    orig_rec.sender_clock.ticks()
                ),
            );
        }
        let dup = BufMsg {
            from: orig.from,
            to: orig.to,
            msg: orig.msg.clone(),
        };
        self.buffered.insert(copy as u64, dup);
        self.next_msg += 1;
        Ok(())
    }

    fn finish(self, events: usize) -> Result<Conformance, ConformanceError> {
        if self.next_msg as usize != self.msgs.len() {
            return self.fail(
                None,
                format!(
                    "trace records {} messages, spec predicted {}",
                    self.msgs.len(),
                    self.next_msg
                ),
            );
        }
        if self.decision_cursor != self.decisions.len() {
            return self.fail(
                None,
                format!(
                    "trace records {} decisions, spec predicted {}",
                    self.decisions.len(),
                    self.decision_cursor
                ),
            );
        }
        let dropped_total = self.msgs.iter().filter(|m| m.dropped).count();
        if self.dropped_consumed != dropped_total {
            return self.fail(
                None,
                format!(
                    "{} messages are flagged dropped, but only {} were droppable at a \
                     crash of their sender's final step",
                    dropped_total, self.dropped_consumed
                ),
            );
        }
        if self.revive_cursor != self.revives.len() {
            return self.fail(
                None,
                format!(
                    "{} restart-kind hints supplied, {} revive events replayed",
                    self.revives.len(),
                    self.revive_cursor
                ),
            );
        }
        Ok(Conformance {
            events,
            messages: self.msgs.len(),
            decisions: self.decisions.len(),
        })
    }
}
