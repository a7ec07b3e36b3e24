//! The concurrent-instance batch engine: B independent commit
//! instances stepped over shared scheduler infrastructure.
//!
//! A [`BatchSim`] drives B independent instances (same population `n`,
//! independent seeds and adversaries) through ONE shared
//! `(instance, dst)`-keyed message-store slab, one shared
//! structure-of-arrays trace recorder with per-instance segment views,
//! and per-instance amortized fairness scans — with message envelope
//! slots recycled across instances, so a campaign's steady state stops
//! allocating. Each instance is a [`crate::engine::Lane`], the same
//! type the single-instance [`crate::Sim`] wraps, so batched execution
//! is *byte-identical* per instance to B separate serial runs
//! (`tests/batch_equivalence.rs` pins decisions and trace digests).
//!
//! Scheduling is a sliced rotation: each still-running instance
//! executes up to [`FAIR_SLICE`] events per turn, keeping its working
//! set cache-hot across the slice while bounding how far any instance
//! can lead. Because an adversary only observes its own instance's
//! pattern (per-instance dense message ids, per-instance clocks and
//! event counters), the interleaving is unobservable and equivalence
//! holds by construction.

use std::fmt;

use rtc_model::{Automaton, ModelError, ProcessorId, Status};

use crate::adversary::{Action, Adversary};
use crate::batch_trace::BatchTrace;
use crate::engine::{Lane, RunLimits, RunReport, Shared, SimBuilder, SimError, StopWhen};
use crate::lateness::LatenessMonitor;
use crate::store::StoreLane;
use crate::trace::{DecisionRecord, Trace};

/// Events one lane executes per rotation turn before yielding to the
/// next still-running lane. Large enough that a lane's working set
/// stays cache-hot across the slice, small enough that no lane leads
/// another by more than a fraction of a typical commit run.
const FAIR_SLICE: u64 = 128;

/// Outlined adversary query: keeps a concrete adversary's (possibly
/// large) `next` body out of the batch engine's per-event loop, the
/// way the serial engine's `dyn ContentAdversary` boundary does.
#[inline(never)]
fn adv_next<Ad: Adversary>(adv: &mut Ad, view: &crate::adversary::PatternView<'_>) -> Action {
    adv.next(view)
}

/// Recycled allocations of a finished [`BatchSim`]: the shared store
/// slab, body slab, scratch buffers, trace columns, and per-instance
/// store lanes, all emptied but with their capacity kept. Feed it to
/// [`BatchSimBuilder::from_pool`] to run the next batch without
/// reallocating — the chaos campaign driver does this across its
/// work-stealing chunks.
pub struct BatchPool<M> {
    shared: Shared<M>,
    trace: BatchTrace,
    spare_lanes: Vec<StoreLane>,
    scratch: Trace,
}

impl<M> BatchPool<M> {
    /// An empty pool (equivalent to building without one).
    pub fn new() -> BatchPool<M> {
        BatchPool {
            shared: Shared::new(0),
            trace: BatchTrace::new(),
            spare_lanes: Vec::new(),
            scratch: Trace::new(0),
        }
    }

    /// Envelope slots this pool's shared slab has grown warm capacity
    /// for. Pooled reruns keep this from one batch to the next; the
    /// parallel plane's per-worker pool slices each report their own.
    pub fn warm_slots(&self) -> usize {
        self.shared.store.slot_capacity()
    }

    /// Per-instance trace tables this pool's recorder holds warm.
    pub fn warm_trace_lanes(&self) -> usize {
        self.trace.lane_count()
    }

    /// Folds `other`'s recycled per-instance store lanes into this
    /// pool. Used when a [`crate::ParBatchPool`] is re-sharded to a
    /// smaller worker count: the dropped shards' store lanes stay warm
    /// instead of being thrown away (their shared slabs cannot merge —
    /// slot indices are slab-relative — so only the lanes carry over).
    pub fn absorb(&mut self, other: BatchPool<M>) {
        self.spare_lanes.extend(other.spare_lanes);
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
            .field("spare_lanes", &self.spare_lanes.len())
            .field("warm_slots", &self.warm_slots())
            .field("warm_trace_lanes", &self.warm_trace_lanes())
            .finish()
    }
}

/// Builder for [`BatchSim`]: add one instance at a time, then build.
pub struct BatchSimBuilder<A: Automaton> {
    lanes: Vec<Lane<A>>,
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
        let base = (self.lanes.len() * self.population) as u32;
        let store_lane = match self.pool.spare_lanes.pop() {
            Some(mut lane) => {
                lane.reset(base);
                lane
            }
            None => StoreLane::new(base),
        };
        let lane = cfg.build_lane(procs, store_lane)?;
        self.lanes.push(lane);
        Ok(())
    }

    /// Finishes the batch. The shared store is sized for
    /// `instances × n` destinations; the trace recorder for one segment
    /// view per instance.
    pub fn build(mut self) -> BatchSim<A> {
        let b = self.lanes.len();
        self.pool.shared.reset(b * self.population);
        self.pool.trace.reset(b, self.population);
        BatchSim {
            lanes: self.lanes,
            shared: self.pool.shared,
            trace: self.pool.trace,
            spare_lanes: self.pool.spare_lanes,
            scratch: self.pool.scratch,
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
    shared: Shared<A::Msg>,
    trace: BatchTrace,
    /// Store lanes recycled from a previous batch but not used by this
    /// one (this batch had fewer instances); carried so `into_pool`
    /// returns them.
    spare_lanes: Vec<StoreLane>,
    /// Reusable replay target for [`BatchSim::lane_trace`].
    scratch: Trace,
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

    /// Runs every instance to completion under its own adversary
    /// (`advs[i]` drives instance `i`), round-robin, one event per
    /// still-running instance per round. Each instance observes exactly
    /// the schedule a serial [`crate::Sim::run`] with the same adversary and
    /// limits would produce. An instance that meets the stop condition
    /// returns its buffered envelope slots to the shared free lists for
    /// the still-running instances to recycle.
    ///
    /// # Panics
    ///
    /// Panics if `advs.len() != self.len()`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any instance's adversary
    /// provokes, aborting the whole batch (model violations are driver
    /// bugs, exactly as in the serial engine).
    pub fn run<Ad: Adversary>(
        &mut self,
        advs: &mut [Ad],
        limits: RunLimits,
    ) -> Result<Vec<RunReport>, SimError> {
        assert_eq!(
            advs.len(),
            self.lanes.len(),
            "one adversary per batch instance"
        );
        let b = self.lanes.len();
        let admissible: Vec<bool> = advs.iter().map(|a| a.admissible()).collect();
        let mut met: Vec<Option<bool>> = vec![None; b];
        let mut satisfied = vec![false; b * self.population];
        let mut remaining = vec![0usize; b];
        for (l, lane) in self.lanes.iter().enumerate() {
            for i in 0..self.population {
                let ok = lane.proc_ok(i, limits.stop);
                satisfied[l * self.population + i] = ok;
                if !ok {
                    remaining[l] += 1;
                }
            }
        }
        // Amortized-fairness rotation over still-running lanes only:
        // each turn a lane executes up to [`FAIR_SLICE`] events, so its
        // working set (automata, store lane, RNG) stays cache-hot
        // across the slice while no lane can lead another by more than
        // one slice. Finished lanes are swap-removed so each rotation
        // is O(active) — iterating the full lane list every round would
        // cost `rounds × B` skip checks against the longest-running
        // lane. Neither the slice width nor the rotation order is
        // adversary-observable (an adversary sees only its own
        // instance's pattern), so equivalence with serial runs holds.
        let mut order: Vec<usize> = (0..b).collect();
        while !order.is_empty() {
            let mut idx = 0;
            while idx < order.len() {
                let l = order[idx];
                if remaining[l] == 0 {
                    met[l] = Some(true);
                    order.swap_remove(idx);
                    // Cross-instance envelope recycling: a decided
                    // instance's leftover buffered messages will never
                    // be delivered, so their slots go back to the
                    // shared free lists. Unobservable to the other
                    // instances (slot indices are not
                    // adversary-visible).
                    self.lanes[l].drain(&mut self.shared);
                    continue;
                }
                if self.lanes[l].event() >= limits.max_events {
                    met[l] = Some(false);
                    order.swap_remove(idx);
                    continue;
                }
                let rem = self.step_slice(
                    l,
                    &mut advs[l],
                    admissible[l],
                    limits,
                    &mut satisfied,
                    remaining[l],
                )?;
                remaining[l] = rem;
                if rem != 0 && self.lanes[l].event() < limits.max_events {
                    idx += 1;
                }
                // A lane that met the stop condition or ran out of
                // events stays at `idx`; the entry checks above finish
                // it on the next visit.
            }
        }
        Ok(self
            .lanes
            .iter()
            .zip(met)
            .zip(admissible)
            .map(|((lane, met), adm)| lane.report(!met.unwrap_or(false), adm))
            .collect())
    }

    /// One fairness slice of lane `l`: up to [`FAIR_SLICE`] events
    /// (forced action or `adv`'s choice, applied, stop count updated),
    /// ending early at the lane's absolute event bound
    /// `limits.max_events` or once it meets `limits.stop`. `rem` is how
    /// many of the lane's processors did not satisfy the stop condition
    /// on entry (`satisfied` says which); returns the count on exit.
    ///
    /// Lane, adversary, trace sink, and the slice's event budget
    /// resolve once per slice; the stop count lives in a register. The
    /// per-event body then carries no lane-indexed loads beyond the
    /// serial engine's — the solo-lane tail of a batch (one straggler
    /// running to its cap) executes at single-instance cost.
    fn step_slice<Ad: Adversary>(
        &mut self,
        l: usize,
        adv: &mut Ad,
        adm: bool,
        limits: RunLimits,
        satisfied: &mut [bool],
        mut rem: usize,
    ) -> Result<usize, SimError> {
        let lane = &mut self.lanes[l];
        self.trace.begin_lane(l as u32);
        let sink = self.trace.active_mut();
        let budget = FAIR_SLICE.min(limits.max_events - lane.event());
        let mut outcome = Ok(());
        // rtc-hot-loop(per-instance): the fairness-slice stepping loop
        // — every instance of every batch runs through here once per
        // event.
        for _ in 0..budget {
            let forced = if adm {
                lane.forced_action(&self.shared.store)
            } else {
                None
            };
            let action = match forced {
                Some(forced) => forced,
                None => adv_next(adv, &lane.pattern_view(&self.shared.store)),
            };
            let acting = match &action {
                Action::Step { p, .. } | Action::Crash { p, .. } => Some(p.index()),
                Action::Partition { .. } | Action::Duplicate { .. } | Action::Reorder { .. } => {
                    None
                }
            };
            outcome = lane.apply(action, adm, &mut self.shared, sink);
            if outcome.is_err() {
                break;
            }
            if let Some(acting) = acting {
                let ok = lane.proc_ok(acting, limits.stop);
                let slot = l * self.population + acting;
                if ok != satisfied[slot] {
                    satisfied[slot] = ok;
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
        self.trace.end_lane(l as u32);
        outcome.map(|()| rem)
    }

    /// Builds the [`RunReport`] of instance `lane` for the run so far.
    pub fn report(&self, lane: usize, stalled: bool, admissible: bool) -> RunReport {
        self.lanes[lane].report(stalled, admissible)
    }

    /// Materializes instance `lane`'s trace — byte-identical (equal
    /// [`Trace::digest`]) to the trace of a serial run with the same
    /// configuration and adversary.
    pub fn to_trace(&self, lane: usize) -> Trace {
        self.trace.to_trace(lane)
    }

    /// [`BatchSim::to_trace`] into an internal pooled scratch: the
    /// returned reference is valid until the next `lane_trace` call.
    /// Replaying lane after lane this way is allocation-free once the
    /// scratch has grown to the largest lane — the chaos campaign
    /// verifies every instance of a batch through it.
    pub fn lane_trace(&mut self, lane: usize) -> &Trace {
        self.trace.to_trace_into(lane, &mut self.scratch);
        &self.scratch
    }

    /// Whether instance `lane`'s run is failure-free (recorded no crash
    /// events) — equal to `self.to_trace(lane).faulty().is_empty()`
    /// without materializing the trace.
    pub fn failure_free(&self, lane: usize) -> bool {
        self.trace.failure_free(lane)
    }

    /// Whether instance `lane`'s traced prefix is on-time at window
    /// `k` — equal to `self.to_trace(lane).is_on_time(k)` without
    /// materializing the trace. Together with
    /// [`BatchSim::failure_free`] this gives a verifier everything a
    /// run's trace contributes to the paper's Section 2.4 conditions,
    /// straight off the lane's dense tables.
    pub fn is_on_time(&self, lane: usize, k: u64) -> bool {
        self.trace.is_on_time(lane, k)
    }

    /// Decisions recorded for instance `lane` so far, in decision
    /// order — the cheap accessor for drivers that only need decided
    /// values, without materializing the instance's [`Trace`].
    pub fn decisions(&self, lane: usize) -> &[DecisionRecord] {
        self.trace.decisions_of(lane)
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
        self.trace.begin_lane(lane as u32);
        let res = self.lanes[lane].revive(p, auto, self.trace.active_mut());
        self.trace.end_lane(lane as u32);
        res
    }

    /// Runs a bounded segment of every still-unfinished instance:
    /// instance `i` executes until it meets `stop` or its event counter
    /// reaches the **absolute** bound `caps[i]` (an instance whose
    /// counter is already past its cap executes nothing). Returns, per
    /// instance, whether the stop condition is now met. Unlike
    /// [`BatchSim::run`] this neither drains finished instances nor
    /// builds reports, so a driver can interleave segments with revives
    /// ([`BatchSim::revive`]) and re-enter — the batched counterpart of
    /// [`crate::Sim::run_until`].
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
            advs.len(),
            self.lanes.len(),
            "one adversary per batch instance"
        );
        assert_eq!(
            caps.len(),
            self.lanes.len(),
            "one event cap per batch instance"
        );
        let b = self.lanes.len();
        let admissible: Vec<bool> = advs.iter().map(|a| a.admissible()).collect();
        // Recomputed from scratch each segment: revives between
        // segments can change any processor's standing.
        let mut remaining = vec![0usize; b];
        let mut satisfied = vec![false; b * self.population];
        for (l, lane) in self.lanes.iter().enumerate() {
            for i in 0..self.population {
                let ok = lane.proc_ok(i, stop);
                satisfied[l * self.population + i] = ok;
                if !ok {
                    remaining[l] += 1;
                }
            }
        }
        // Same sliced active-lane rotation as [`BatchSim::run`].
        let mut order: Vec<usize> = (0..b)
            .filter(|&l| remaining[l] > 0 && self.lanes[l].event() < caps[l])
            .collect();
        while !order.is_empty() {
            let mut idx = 0;
            while idx < order.len() {
                let l = order[idx];
                if remaining[l] == 0 || self.lanes[l].event() >= caps[l] {
                    order.swap_remove(idx);
                    continue;
                }
                let rem = self.step_slice(
                    l,
                    &mut advs[l],
                    admissible[l],
                    RunLimits {
                        max_events: caps[l],
                        stop,
                    },
                    &mut satisfied,
                    remaining[l],
                )?;
                remaining[l] = rem;
                if rem != 0 && self.lanes[l].event() < caps[l] {
                    idx += 1;
                }
            }
        }
        Ok(remaining.iter().map(|r| *r == 0).collect())
    }

    /// Tears the batch down into its reusable allocations (store slab,
    /// bodies, trace columns, store lanes) for the next batch.
    pub fn into_pool(self) -> BatchPool<A::Msg> {
        let mut spare_lanes = self.spare_lanes;
        spare_lanes.extend(self.lanes.into_iter().map(Lane::into_store_lane));
        BatchPool {
            shared: self.shared,
            trace: self.trace,
            spare_lanes,
            scratch: self.scratch,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rtc_model::{Outbox, SeedCollection, StepRng, TimingParams, Value};

    use super::*;
    use crate::adversaries::{RandomAdversary, SynchronousAdversary};
    use crate::adversary::PatternView;

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

    /// Two broadcasts of p0, a duplicate and a reorder on them, then p0
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
                4 => Action::Reorder {
                    id: view.pending(p(2))[0].id,
                },
                5 => Action::Crash {
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

    /// Checks the body accounting against the store — every buffered
    /// slot holds exactly one reference, and the live bodies are exactly
    /// the distinct bodies buffered slots map to — and returns (buffered
    /// slots, live bodies).
    fn accounted(batch: &BatchSim<Chatter>) -> (usize, usize) {
        let shared = &batch.shared;
        let mut distinct = BTreeSet::new();
        for lane in &batch.lanes {
            let view = lane.pattern_view(&shared.store);
            for dest in 0..N {
                for (_, body) in view.store.iter_dest_bodies(view.lane, dest) {
                    distinct.insert(body);
                }
            }
        }
        assert_eq!(shared.bodies.references(), shared.store.len());
        assert_eq!(shared.store.run_references(), shared.store.len());
        assert_eq!(shared.bodies.live(), distinct.len());
        (shared.store.len(), distinct.len())
    }

    #[test]
    fn bodies_follow_the_slots_through_faults_caps_drain_and_reuse() {
        let limits = RunLimits::with_max_events(200);
        let run = |mut batch: BatchSim<Chatter>| {
            let mut advs = adversaries();
            // Lane 0's five scripted faults only: two broadcasts (3 + 3
            // slots, 2 bodies), one duplicate (a 7th slot, no new
            // body), one reorder (nothing), a crash dropping 2 slots of
            // the second broadcast — whose body the third keeps alive.
            batch
                .run_segment(&mut advs, &[5, 0, 0, 0], limits.stop)
                .unwrap();
            assert_eq!(accounted(&batch), (5, 2));
            let reports = batch.run(&mut advs, limits).unwrap();
            let stalled: Vec<bool> = reports.iter().map(RunReport::stalled).collect();
            assert_eq!(stalled, [false, false, false, true]);
            // The three finished lanes were drained; what is left is
            // what the capped lane hoarded: 200 broadcasts of 3 slots.
            assert_eq!(accounted(&batch), (600, 200));
            batch.into_pool()
        };
        let pool = run(build(BatchPool::new()));
        // `reset` (in `build`) lets go of the capped lane's leftovers,
        // and a pooled rerun accounts the same way.
        let recycled = build(pool);
        assert_eq!(accounted(&recycled), (0, 0));
        run(recycled);
    }
}
