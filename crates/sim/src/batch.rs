//! The lane engine: B independent commit instances stepped over shared
//! scheduler infrastructure.
//!
//! A [`BatchSim`] drives B independent instances (same population `n`,
//! independent seeds and adversaries) over ONE shared plane — the
//! message bodies, the outbox and the stepping scratch — with
//! per-instance amortized fairness scans. Each instance is a
//! [`crate::engine::Lane`] with a message store of its own, recording
//! into its own [`Trace`]; stores, traces and bodies are recycled from
//! batch to batch, so a campaign's steady state stops allocating.
//! [`crate::Sim`] is this engine with B = 1. The per-event
//! sequence (forced action or the adversary's choice, applied, stop
//! count updated) is [`BatchSim::step_slice`] and nothing else, and the
//! only loop over lanes is [`BatchSim::rotate`], so a lane's bytes
//! cannot depend on how many neighbours it has
//! (`tests/batch_equivalence.rs` pins decisions and trace digests of
//! batched lanes against one-lane runs).
//!
//! Scheduling is a sliced rotation: each still-running instance
//! executes up to [`FAIR_SLICE`] events per turn, keeping its working
//! set cache-hot across the slice while bounding how far any instance
//! can lead. Because an adversary only observes its own instance's
//! pattern (per-instance dense message ids, per-instance clocks and
//! event counters), the interleaving is unobservable and equivalence
//! holds by construction.
//!
//! The engine is single-threaded on purpose. Instances are independent,
//! so the way to use more cores is to run more engines — the chaos
//! campaign gives each of its chunk threads its own `BatchSim` and
//! [`BatchPool`] — not to put threads inside one (DESIGN.md §8 has the
//! measurement).

use std::fmt;

use rtc_model::{Automaton, LatenessMonitor, ModelError, ProcessorId, Status};

use crate::adversary::{Action, Adversary, ContentAdversary, ContentView};
use crate::engine::{Lane, RunLimits, RunReport, Shared, SimBuilder, SimError, StopWhen};
use crate::store::MsgStore;
use crate::trace::{DecisionRecord, Trace};

/// Events one lane executes per rotation turn before yielding to the
/// next still-running lane. Large enough that a lane's working set
/// stays cache-hot across the slice, small enough that no lane leads
/// another by more than a fraction of a typical commit run.
const FAIR_SLICE: u64 = 128;

/// Recycled allocations of a finished [`BatchSim`]: the body slab,
/// scratch buffers, and the per-instance message stores and traces, all
/// emptied but with their capacity kept. Feed it to
/// [`BatchSimBuilder::from_pool`] to run the next batch without
/// reallocating — the chaos campaign driver does this across its
/// work-stealing chunks.
pub struct BatchPool<M> {
    shared: Shared<M>,
    spare_stores: Vec<MsgStore>,
    spare_traces: Vec<Trace>,
}

impl<M> BatchPool<M> {
    /// An empty pool (equivalent to building without one).
    pub fn new() -> BatchPool<M> {
        BatchPool {
            shared: Shared::new(),
            spare_stores: Vec::new(),
            spare_traces: Vec::new(),
        }
    }
}

impl<M> Default for BatchPool<M> {
    fn default() -> BatchPool<M> {
        BatchPool::new()
    }
}

impl<M> fmt::Debug for BatchPool<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchPool")
            .field("spare_stores", &self.spare_stores.len())
            .field("shared", &self.shared)
            .finish()
    }
}

/// Builder for [`BatchSim`]: add one instance at a time, then build.
pub struct BatchSimBuilder<A: Automaton> {
    lanes: Vec<Lane<A>>,
    traces: Vec<Trace>,
    pool: BatchPool<A::Msg>,
    population: usize,
}

impl<A: Automaton> fmt::Debug for BatchSimBuilder<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchSimBuilder")
            .field("instances", &self.lanes.len())
            .field("population", &self.population)
            .finish()
    }
}

impl<A: Automaton> BatchSimBuilder<A> {
    /// Starts an empty batch.
    pub fn new() -> BatchSimBuilder<A> {
        BatchSimBuilder::from_pool(BatchPool::new())
    }

    /// Starts an empty batch reusing a previous batch's allocations
    /// (see [`BatchSim::into_pool`]).
    pub fn from_pool(pool: BatchPool<A::Msg>) -> BatchSimBuilder<A> {
        BatchSimBuilder {
            lanes: Vec::new(),
            traces: Vec::new(),
            pool,
            population: 0,
        }
    }

    /// Instances added so far.
    pub fn instances(&self) -> usize {
        self.lanes.len()
    }

    /// Adds one instance: its engine configuration (timing, seeds,
    /// fault budget, fairness — the same builder [`crate::Sim`] uses) and its
    /// automata.
    ///
    /// # Errors
    ///
    /// [`ModelError::PopulationTooLarge`] if `procs` is empty, its ids
    /// are not exactly `0..n` in order, or its population differs from
    /// the batch's (all instances of a batch share one `n`).
    pub fn instance(&mut self, cfg: SimBuilder, procs: Vec<A>) -> Result<(), ModelError> {
        if self.lanes.is_empty() {
            self.population = procs.len();
        } else if procs.len() != self.population {
            return Err(ModelError::PopulationTooLarge {
                requested: procs.len(),
            });
        }
        let store = self.pool.spare_stores.pop().unwrap_or_default();
        let lane = cfg.build_lane(procs, store)?;
        let trace = match self.pool.spare_traces.pop() {
            Some(mut trace) => {
                trace.reset(self.population);
                trace
            }
            None => Trace::new(self.population),
        };
        self.lanes.push(lane);
        self.traces.push(trace);
        Ok(())
    }

    /// Finishes the batch.
    pub fn build(mut self) -> BatchSim<A> {
        self.pool.shared.reset();
        BatchSim {
            lanes: self.lanes,
            traces: self.traces,
            shared: self.pool.shared,
            spare_stores: self.pool.spare_stores,
            spare_traces: self.pool.spare_traces,
            population: self.population,
        }
    }
}

impl<A: Automaton> Default for BatchSimBuilder<A> {
    fn default() -> BatchSimBuilder<A> {
        BatchSimBuilder::new()
    }
}

/// B independent commit instances over one shared scheduler plane. See
/// the module docs; build with [`BatchSimBuilder`].
pub struct BatchSim<A: Automaton> {
    lanes: Vec<Lane<A>>,
    /// `traces[l]` is what lane `l` recorded.
    traces: Vec<Trace>,
    shared: Shared<A::Msg>,
    /// Stores and traces recycled from a previous batch but not used by
    /// this one (this batch had fewer instances); carried so
    /// `into_pool` returns them.
    spare_stores: Vec<MsgStore>,
    spare_traces: Vec<Trace>,
    population: usize,
}

impl<A: Automaton> fmt::Debug for BatchSim<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchSim")
            .field("instances", &self.lanes.len())
            .field("population", &self.population)
            .finish()
    }
}

impl<A: Automaton> BatchSim<A> {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the batch holds no instances.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The per-instance population `n` (shared by all instances).
    pub fn population(&self) -> usize {
        self.population
    }

    /// Instance `lane`'s state, for [`crate::Sim`]'s accessors.
    pub(crate) fn lane(&self, lane: usize) -> &Lane<A> {
        &self.lanes[lane]
    }

    /// Instance `lane`, the shared plane and the instance's trace, for
    /// unit tests that apply single events or audit the store.
    #[cfg(test)]
    pub(crate) fn parts_mut(
        &mut self,
        lane: usize,
    ) -> (&mut Lane<A>, &mut Shared<A::Msg>, &mut Trace) {
        (
            &mut self.lanes[lane],
            &mut self.shared,
            &mut self.traces[lane],
        )
    }

    /// Runs every instance to completion under its own adversary
    /// (`advs[i]` drives instance `i`) in the sliced rotation of
    /// [`BatchSim::run_segment`], every instance capped at
    /// `limits.max_events`. Each instance observes exactly the schedule
    /// a [`crate::Sim::run`] with the same adversary and limits would
    /// produce. An instance that meets the stop condition drains its
    /// buffered messages, handing their bodies back to the shared slab
    /// for the still-running instances to recycle.
    ///
    /// # Panics
    ///
    /// Panics if `advs.len() != self.len()`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any instance's adversary
    /// provokes, aborting the whole batch (model violations are driver
    /// bugs).
    pub fn run<Ad: Adversary>(
        &mut self,
        advs: &mut [Ad],
        limits: RunLimits,
    ) -> Result<Vec<RunReport>, SimError> {
        let met = self.rotate(
            &mut as_content(advs),
            |_| limits.max_events,
            limits.stop,
            true,
        )?;
        Ok((self.lanes.iter().zip(met).zip(advs.iter()))
            .map(|((lane, met), adv)| lane.report(!met, adv.admissible()))
            .collect())
    }

    /// Runs a bounded segment of every still-unfinished instance:
    /// instance `i` executes until it meets `stop` or its event counter
    /// reaches the **absolute** bound `caps[i]` (an instance whose
    /// counter is already past its cap executes nothing), in a sliced
    /// rotation: 128 events per still-running instance per turn.
    /// Returns, per instance, whether the stop condition is now met.
    /// Unlike [`BatchSim::run`] this neither drains finished instances
    /// nor builds reports, so a driver can interleave segments with
    /// revives ([`BatchSim::revive`]) and re-enter — the batched
    /// counterpart of [`crate::Sim::run_until`].
    ///
    /// # Panics
    ///
    /// Panics if `advs` or `caps` are not exactly one entry per
    /// instance.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any instance provokes.
    pub fn run_segment<Ad: Adversary>(
        &mut self,
        advs: &mut [Ad],
        caps: &[u64],
        stop: StopWhen,
    ) -> Result<Vec<bool>, SimError> {
        assert_eq!(
            caps.len(),
            self.lanes.len(),
            "one event cap per batch instance"
        );
        self.rotate(&mut as_content(advs), |l| caps[l], stop, false)
    }

    /// The engine's one loop over lanes, behind [`BatchSim::run`],
    /// [`BatchSim::run_segment`] and [`crate::Sim`]'s `run*`: lane `l`
    /// runs under `advs[l]` until it meets `stop` or its event counter
    /// reaches `cap_of(l)`; returns, per lane, whether `stop` is met.
    /// With `drain`, a lane that meets `stop` gives its leftover
    /// buffered messages back on the spot.
    ///
    /// Amortized-fairness rotation over still-running lanes only: each
    /// turn a lane executes up to [`FAIR_SLICE`] events, so its working
    /// set (automata, store, trace, RNG) stays cache-hot across
    /// the slice while no lane can lead another by more than one slice.
    /// Finished lanes are swap-removed so each rotation is O(active) —
    /// iterating the full lane list every round would cost
    /// `rounds × B` skip checks against the longest-running lane.
    /// Neither the slice width nor the rotation order is
    /// adversary-observable (an adversary sees only its own instance's
    /// pattern), so every lane runs as it would alone.
    pub(crate) fn rotate(
        &mut self,
        advs: &mut [&mut dyn ContentAdversary<A::Msg>],
        cap_of: impl Fn(usize) -> u64,
        stop: StopWhen,
        drain: bool,
    ) -> Result<Vec<bool>, SimError> {
        assert_eq!(
            advs.len(),
            self.lanes.len(),
            "one adversary per batch instance"
        );
        let n = self.population;
        // The stop condition is tracked incrementally: one full scan
        // here — revives between calls can change any processor's
        // standing — then `step_slice` re-checks only the acting
        // processor after each event.
        let mut satisfied = Vec::with_capacity(self.lanes.len() * n);
        let mut remaining = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let first = satisfied.len();
            satisfied.extend((0..n).map(|i| lane.proc_ok(i, stop)));
            remaining.push(satisfied[first..].iter().filter(|ok| !**ok).count());
        }
        let mut order: Vec<usize> = (0..self.lanes.len()).collect();
        while !order.is_empty() {
            let mut idx = 0;
            while idx < order.len() {
                let l = order[idx];
                let cap = cap_of(l);
                if remaining[l] == 0 || self.lanes[l].event() >= cap {
                    order.swap_remove(idx);
                    if drain && remaining[l] == 0 {
                        // Cross-instance body recycling: a decided
                        // instance's leftover buffered messages will
                        // never be delivered, so their bodies go back to
                        // the shared slab. Unobservable to the other
                        // instances (body indices are not
                        // adversary-visible).
                        self.lanes[l].drain(&mut self.shared);
                    }
                    continue;
                }
                let lane_satisfied = &mut satisfied[l * n..][..n];
                remaining[l] =
                    self.step_slice(l, &mut *advs[l], cap, stop, lane_satisfied, remaining[l])?;
                // A lane that met the stop condition or ran out of
                // events stays at `idx`; the entry check above finishes
                // it on the next visit.
                if remaining[l] != 0 && self.lanes[l].event() < cap {
                    idx += 1;
                }
            }
        }
        Ok(remaining.iter().map(|r| *r == 0).collect())
    }

    /// One fairness slice of lane `l`: up to [`FAIR_SLICE`] events
    /// (forced action or `adv`'s choice, applied, stop count updated),
    /// ending early at the lane's absolute event bound `cap` or once it
    /// meets `stop`. `rem` is how many of the lane's processors did not
    /// satisfy the stop condition on entry (`satisfied` says which);
    /// returns the count on exit.
    ///
    /// Lane, trace and the slice's event budget resolve once per slice;
    /// the stop count lives in a register. The per-event body then
    /// carries no lane-indexed loads, so a lane costs per event what it
    /// costs alone, whatever the batch size.
    fn step_slice(
        &mut self,
        l: usize,
        adv: &mut dyn ContentAdversary<A::Msg>,
        cap: u64,
        stop: StopWhen,
        satisfied: &mut [bool],
        mut rem: usize,
    ) -> Result<usize, SimError> {
        let lane = &mut self.lanes[l];
        let trace = &mut self.traces[l];
        let admissible = adv.admissible();
        // rtc-hot-loop(per-instance): the fairness-slice stepping loop
        // — every instance of every batch runs through here once per
        // event.
        for _ in 0..FAIR_SLICE.min(cap - lane.event()) {
            let forced = if admissible {
                lane.forced_action()
            } else {
                None
            };
            let action = match forced {
                Some(forced) => forced,
                None => adv.next(&ContentView {
                    pattern: lane.pattern_view(),
                    bodies: &self.shared.bodies,
                }),
            };
            // A network-plane action (a duplicate) has no acting
            // processor and never change automaton statuses, so the
            // incremental stop-condition recheck is skipped.
            let acting = match &action {
                Action::Step { p, .. } | Action::StepAll { p } | Action::Crash { p, .. } => {
                    Some(p.index())
                }
                Action::Duplicate { .. } => None,
            };
            lane.apply(action, admissible, &mut self.shared, trace)?;
            if let Some(acting) = acting {
                let ok = lane.proc_ok(acting, stop);
                if ok != satisfied[acting] {
                    satisfied[acting] = ok;
                    if ok {
                        rem -= 1;
                        if rem == 0 {
                            break;
                        }
                    } else {
                        rem += 1;
                    }
                }
            }
        }
        Ok(rem)
    }

    /// Builds the [`RunReport`] of instance `lane` for the run so far.
    pub fn report(&self, lane: usize, stalled: bool, admissible: bool) -> RunReport {
        self.lanes[lane].report(stalled, admissible)
    }

    /// Instance `lane`'s trace — byte-identical (equal
    /// [`Trace::digest`]) to the trace of a [`crate::Sim`] run with the
    /// same configuration and adversary.
    pub fn lane_trace(&self, lane: usize) -> &Trace {
        &self.traces[lane]
    }

    /// Whether instance `lane`'s run is failure-free (recorded no crash
    /// events).
    pub fn failure_free(&self, lane: usize) -> bool {
        self.traces[lane].faulty().is_empty()
    }

    /// Decisions recorded for instance `lane` so far, in decision
    /// order.
    pub fn decisions(&self, lane: usize) -> &[DecisionRecord] {
        self.traces[lane].decisions()
    }

    /// Instance `lane`'s online lateness classifier.
    pub fn lateness(&self, lane: usize) -> &LatenessMonitor {
        self.lanes[lane].monitor()
    }

    /// Whether processor `p` of instance `lane` is currently crashed.
    pub fn is_crashed(&self, lane: usize, p: ProcessorId) -> bool {
        self.lanes[lane].is_crashed_idx(p.index())
    }

    /// Instance `lane`'s event counter.
    pub fn events_executed(&self, lane: usize) -> u64 {
        self.lanes[lane].event()
    }

    /// Current statuses of instance `lane`, indexed by processor.
    pub fn statuses(&self, lane: usize) -> Vec<Status> {
        self.lanes[lane].statuses()
    }

    /// Immutable access to one automaton of instance `lane`.
    pub fn automaton(&self, lane: usize, p: ProcessorId) -> &A {
        self.lanes[lane].automaton(p.index())
    }

    /// Revives a crashed processor of instance `lane` — the batched
    /// counterpart of [`crate::Sim::revive`], with the same semantics.
    ///
    /// # Errors
    ///
    /// As [`crate::Sim::revive`].
    pub fn revive(&mut self, lane: usize, p: ProcessorId, auto: A) -> Result<(), SimError> {
        self.lanes[lane].revive(p, auto, &mut self.traces[lane])
    }

    /// Tears the batch down into its reusable allocations (bodies,
    /// stores, traces) for the next batch.
    pub fn into_pool(self) -> BatchPool<A::Msg> {
        let mut spare_stores = self.spare_stores;
        spare_stores.extend(self.lanes.into_iter().map(Lane::into_store));
        let mut spare_traces = self.spare_traces;
        spare_traces.extend(self.traces);
        BatchPool {
            shared: self.shared,
            spare_stores,
            spare_traces,
        }
    }
}

/// One handle per lane on a batch's pattern-only adversaries, as the
/// rotation takes them: a pattern-only adversary is a content adversary
/// that never looks.
fn as_content<M, Ad: Adversary>(advs: &mut [Ad]) -> Vec<&mut dyn ContentAdversary<M>> {
    advs.iter_mut()
        .map(|adv| adv as &mut dyn ContentAdversary<M>)
        .collect()
}

#[cfg(test)]
mod tests {
    use rtc_model::{Outbox, SeedCollection, StepRng, TimingParams, Value};

    use super::*;
    use crate::adversaries::{RandomAdversary, SynchronousAdversary};
    use crate::adversary::PatternView;
    use crate::envelope::MsgId;
    use crate::store::assert_holds;
    use crate::trace::EventView;

    /// Broadcasts its step count at every step and answers each distinct
    /// sender directly — so a step's outbox holds a broadcast *and*
    /// direct sends. Decides after hearing `target` messages.
    struct Chatter {
        id: ProcessorId,
        n: usize,
        heard: usize,
        target: usize,
        steps: u32,
    }

    impl Automaton for Chatter {
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
            let mut seen = vec![false; self.n];
            for (from, _) in inbox {
                self.heard += 1;
                if !std::mem::replace(&mut seen[from.index()], true) {
                    out.send(from, 1_000 + self.steps);
                }
            }
            out.broadcast(self.steps);
            self.steps += 1;
        }

        fn status(&self) -> Status {
            if self.heard >= self.target {
                Status::Decided(Value::One)
            } else {
                Status::Undecided
            }
        }
    }

    const N: usize = 4;

    fn chatters() -> Vec<Chatter> {
        ProcessorId::all(N)
            .map(|id| Chatter {
                id,
                n: N,
                heard: 0,
                target: 6,
                steps: 0,
            })
            .collect()
    }

    /// Two broadcasts of p0, a duplicate of one of them, then p0
    /// crashes with two of its last three sends dropped; after that,
    /// everything pending is delivered round-robin.
    struct Faults(u32);

    impl Adversary for Faults {
        fn next(&mut self, view: &PatternView<'_>) -> Action {
            let p = ProcessorId::new;
            self.0 += 1;
            match self.0 {
                1 | 3 => Action::Step {
                    p: p(0),
                    deliver: Vec::new(),
                },
                2 => Action::Duplicate {
                    id: view.pending(p(1))[0].id,
                },
                4 => Action::Crash {
                    p: p(0),
                    drop: view.last_sends_of(p(0))[..2].iter().map(|m| m.id).collect(),
                },
                turn => {
                    let q = p(1 + turn as usize % (N - 1));
                    Action::Step {
                        p: q,
                        deliver: view.pending_iter(q).map(|m| m.id).collect(),
                    }
                }
            }
        }
    }

    /// Steps everyone and delivers nothing, so its lane only ever
    /// buffers and runs into the event cap.
    struct Hoarder(usize);

    impl Adversary for Hoarder {
        fn next(&mut self, _: &PatternView<'_>) -> Action {
            self.0 += 1;
            Action::Step {
                p: ProcessorId::new(self.0 % N),
                deliver: Vec::new(),
            }
        }

        fn admissible(&self) -> bool {
            false
        }
    }

    fn adversaries() -> Vec<Box<dyn Adversary>> {
        vec![
            Box::new(Faults(0)),
            Box::new(SynchronousAdversary::new(N)),
            Box::new(RandomAdversary::new(7).deliver_prob(0.5)),
            Box::new(Hoarder(0)),
        ]
    }

    fn build(pool: BatchPool<u32>) -> BatchSim<Chatter> {
        let mut builder = BatchSimBuilder::from_pool(pool);
        for seed in 0..4 {
            let cfg =
                SimBuilder::new(TimingParams::default(), SeedCollection::new(seed)).fault_budget(1);
            builder.instance(cfg, chatters()).unwrap();
        }
        builder.build()
    }

    /// Checks the body accounting against the lanes' stores
    /// ([`assert_holds`]) and returns (buffered messages, messages held
    /// by runs, live bodies).
    fn accounted(batch: &BatchSim<Chatter>) -> (usize, usize, usize) {
        let stores = batch.lanes.iter().map(|lane| lane.pattern_view().store);
        assert_holds(&batch.shared.bodies, stores)
    }

    /// Round-robin, delivering everything but what p0 sends p3.
    struct Withhold(usize);

    impl Adversary for Withhold {
        fn next(&mut self, view: &PatternView<'_>) -> Action {
            let p = ProcessorId::new(self.0 % N);
            self.0 += 1;
            let deliver = view
                .pending_iter(p)
                .filter(|m| !(m.from.index() == 0 && p.index() == 3))
                .map(|m| m.id)
                .collect();
            Action::Step { p, deliver }
        }

        fn admissible(&self) -> bool {
            false
        }
    }

    #[test]
    fn a_drained_lane_still_reports_the_overdue_message_it_held() {
        // Everybody hears 40 messages, p3 none of p0's: by then p0's
        // first message to p3 is far more than K steps old, so the
        // decided run is not on time — also once the batch has drained
        // the finished lane and the store no longer holds the message.
        let cfg = SimBuilder::new(TimingParams::default(), SeedCollection::new(1));
        let population = || {
            let mut procs = chatters();
            procs.iter_mut().for_each(|c| c.target = 40);
            procs
        };
        let mut alone = cfg.build(population()).unwrap();
        let report = alone.run(&mut Withhold(0), RunLimits::default()).unwrap();
        assert!(!report.stalled() && alone.lateness().on_time());
        assert!(!report.facts().on_time, "p0's messages to p3 are overdue");

        let mut builder = BatchSimBuilder::new();
        builder.instance(cfg, population()).unwrap();
        let mut batch = builder.build();
        let reports = batch.run(&mut [Withhold(0)], RunLimits::default()).unwrap();
        assert_eq!(
            accounted(&batch),
            (0, 0, 0),
            "the finished lane was drained"
        );
        assert!(!reports[0].facts().on_time);
    }

    /// Applies `action` to the one lane of `batch`, not admissibly (no
    /// fault budget).
    fn apply(batch: &mut BatchSim<Chatter>, action: Action) -> Result<(), SimError> {
        let (lane, shared, trace) = batch.parts_mut(0);
        lane.apply(action, false, shared, trace)
    }

    /// What processor `p` of the one lane of `batch` holds, in buffer
    /// order.
    fn held_by(batch: &BatchSim<Chatter>, p: ProcessorId) -> Vec<MsgId> {
        let view = batch.lanes[0].pattern_view();
        view.pending_iter(p).map(|m| m.id).collect()
    }

    /// The ids the latest event of the one lane of `batch` delivered.
    fn last_delivered(batch: &BatchSim<Chatter>) -> Vec<MsgId> {
        let trace = batch.lane_trace(0);
        match trace.event(trace.event_count() - 1) {
            EventView::Step { delivered, .. } => delivered.to_vec(),
            other => panic!("the latest event is {other:?}"),
        }
    }

    /// A one-lane batch in which p1, p2 and p3 have broadcast once
    /// each, so p0 holds `[a, b, c]`, one message from each.
    fn p0_holds_three() -> (BatchSim<Chatter>, [MsgId; 3]) {
        let mut builder = BatchSimBuilder::new();
        let cfg = SimBuilder::new(TimingParams::default(), SeedCollection::new(3));
        builder.instance(cfg, chatters()).unwrap();
        let mut batch = builder.build();
        for q in 1..N {
            let step = Action::Step {
                p: ProcessorId::new(q),
                deliver: Vec::new(),
            };
            apply(&mut batch, step).unwrap();
        }
        let held = held_by(&batch, ProcessorId::new(0));
        (batch, held.try_into().unwrap())
    }

    #[test]
    fn a_listed_delivery_takes_exactly_its_ids() {
        let p0 = ProcessorId::new(0);
        let step = |deliver: Vec<MsgId>| Action::Step { p: p0, deliver };
        // Indices into [a, b, c, x], where x is p1's message to p2:
        // the delivery list, the id reported not buffered (if the step
        // fails), and what p0 holds afterwards.
        let cases: [(&[usize], Option<usize>, &[usize]); 5] = [
            (&[0, 1, 2], None, &[]),
            (&[0, 2], None, &[1]),
            (&[1, 0], None, &[2]),
            (&[0, 0], Some(0), &[1, 2]),
            (&[0, 1, 2, 3], Some(3), &[]),
        ];
        for (pick, missing, left) in cases {
            let (mut batch, [a, b, c]) = p0_holds_three();
            let x = held_by(&batch, ProcessorId::new(2))[0];
            let ids = [a, b, c, x];
            let deliver: Vec<MsgId> = pick.iter().map(|k| ids[*k]).collect();
            let outcome = apply(&mut batch, step(deliver.clone()));
            let trace = batch.lane_trace(0);
            match missing {
                None => {
                    assert_eq!(outcome, Ok(()));
                    assert_eq!(last_delivered(&batch), deliver, "{pick:?}");
                }
                Some(k) => {
                    let id = ids[k];
                    assert_eq!(outcome, Err(SimError::DeliverNotBuffered { p: p0, id }));
                    assert_eq!(trace.event_count(), 3, "a failed step records no row");
                }
            }
            let left: Vec<MsgId> = left.iter().map(|k| ids[*k]).collect();
            assert_eq!(held_by(&batch, p0), left, "after {pick:?}");
            accounted(&batch);
            // Whatever is left comes off with the whole buffer, and is
            // recorded as its list.
            apply(&mut batch, Action::StepAll { p: p0 }).unwrap();
            assert_eq!(last_delivered(&batch), left);
            assert!(held_by(&batch, p0).is_empty());
            accounted(&batch);
        }
    }

    #[test]
    fn bodies_follow_the_messages_through_faults_caps_drain_and_reuse() {
        let limits = RunLimits::with_max_events(200);
        let run = |mut batch: BatchSim<Chatter>| {
            let mut advs = adversaries();
            // Lane 0's four scripted faults only: two broadcasts (3 + 3
            // messages, 2 bodies), one duplicate (a 7th message, no new
            // body), a crash dropping 2 messages of the second broadcast
            // — whose body its run, still owing the third, keeps alive
            // for all three.
            batch
                .run_segment(&mut advs, &[4, 0, 0, 0], limits.stop)
                .unwrap();
            assert_eq!(accounted(&batch), (5, 7, 2));
            let reports = batch.run(&mut advs, limits).unwrap();
            let stalled: Vec<bool> = reports.iter().map(RunReport::stalled).collect();
            assert_eq!(stalled, [false, false, false, true]);
            // The three finished lanes were drained; what is left is
            // what the capped lane hoarded: 200 broadcasts of 3.
            assert_eq!(accounted(&batch), (600, 600, 200));
            batch.into_pool()
        };
        let pool = run(build(BatchPool::new()));
        // `reset` (in `build`) lets go of the capped lane's leftovers,
        // and a pooled rerun accounts the same way.
        let recycled = build(pool);
        assert_eq!(accounted(&recycled), (0, 0, 0));
        run(recycled);
    }
}
