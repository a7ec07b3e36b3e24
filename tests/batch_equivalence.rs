//! Batch-vs-serial equivalence: a lane's neighbours must be
//! *unobservable* to it.
//!
//! `BatchSim` steps B independent commit instances over one shared
//! message-store slab, each recording its own trace; `Sim` is the same
//! engine with B = 1. This suite pins the core promise of that design:
//! for every seeded schedule, running an instance inside a batch
//! produces per-instance decisions, reports, and full trace digests
//! byte-identical to a standalone `Sim` run with the same
//! configuration, seed, and adversary — whatever the batch size, the
//! rotation, the recycled pool, or the way the run is cut into
//! segments. The digest covers every event, delivery, drop, decision,
//! and crash in order (the PR-4 golden-digest currency), so equality
//! here means the batched scheduler is not just "as good" but *the
//! same schedule*.

use std::cell::RefCell;
use std::rc::Rc;

use rtc::core::CommitMsg;
use rtc::model::{Outbox, StepRng};
use rtc::prelude::*;
use rtc::sim::{
    Action, Adversary, BatchPool, BatchSim, BatchSimBuilder, EventView, MsgId, PatternView, Sim,
    StopWhen, Trace,
};

mod hostile;
use hostile::{Hostile, InPlace, Seen};

/// One seeded schedule of the batch corpus.
struct Case {
    n: usize,
    seed: u64,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Random,
    Adaptive,
    Synchronous,
}

/// A batch group: B instances of population n, mixed adversary kinds.
fn group(n: usize, b: usize, base_seed: u64) -> Vec<Case> {
    (0..b)
        .map(|i| Case {
            n,
            seed: base_seed + i as u64,
            kind: match i % 4 {
                0 => Kind::Synchronous,
                1 => Kind::Adaptive,
                _ => Kind::Random,
            },
        })
        .collect()
}

/// Seed-derived vote vector (same mix as the scheduler-equivalence
/// corpus: unanimous-commit and abort-leaning populations).
fn votes(n: usize, seed: u64) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::from_bool(seed.rotate_left(i as u32 % 61) & 1 == 0 || seed.is_multiple_of(4))
        })
        .collect()
}

fn config(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

fn adversary(case: &Case) -> Box<dyn Adversary> {
    match case.kind {
        Kind::Random => {
            let deliver = 0.4 + 0.1 * (case.seed % 5) as f64;
            let crash = if case.seed.is_multiple_of(3) {
                0.02
            } else {
                0.0
            };
            Box::new(
                RandomAdversary::new(case.seed)
                    .deliver_prob(deliver)
                    .crash_prob(crash),
            )
        }
        Kind::Adaptive => Box::new(AdaptiveAdversary::new(case.seed)),
        Kind::Synchronous => Box::new(SynchronousAdversary::new(case.n)),
    }
}

fn population(case: &Case) -> Vec<CommitAutomaton> {
    commit_population(config(case.n), &votes(case.n, case.seed))
}

fn sim_builder(case: &Case) -> SimBuilder {
    let cfg = config(case.n);
    SimBuilder::new(cfg.timing(), SeedCollection::new(case.seed)).fault_budget(cfg.fault_bound())
}

/// The standalone run of one case over `procs`: report, trace digest
/// and decisions.
fn serial_run<A: Automaton>(case: &Case, procs: Vec<A>) -> SerialOutcome {
    let mut sim: Sim<A> = sim_builder(case).build(procs).unwrap();
    let mut adv = adversary(case);
    let report = sim.run(adv.as_mut(), RunLimits::default()).unwrap();
    let decisions = sim
        .trace()
        .decisions()
        .iter()
        .map(|d| (d.p, d.value))
        .collect();
    (report, sim.trace().digest(), decisions)
}

fn build_batch<A: Automaton>(
    cases: &[Case],
    wrap: impl Fn(CommitAutomaton) -> A,
    pool: BatchPool<A::Msg>,
) -> BatchSim<A> {
    let mut builder = BatchSimBuilder::from_pool(pool);
    for case in cases {
        let procs = population(case).into_iter().map(&wrap).collect();
        builder.instance(sim_builder(case), procs).unwrap();
    }
    builder.build()
}

/// One instance's ground truth: the standalone report, trace digest,
/// and decision vector every other way of running it must reproduce
/// byte-for-byte.
type SerialOutcome = (RunReport, u64, Vec<(ProcessorId, Value)>);

/// Checks one instance's report, decisions and trace digest against its
/// ground truth.
fn assert_same(
    case: &Case,
    how: &str,
    (report, digest, decisions): &SerialOutcome,
    (serial_report, serial_digest, serial_decisions): &SerialOutcome,
) {
    let label = format!("{how} n{}/seed{}", case.n, case.seed);
    assert_eq!(
        report.statuses(),
        serial_report.statuses(),
        "{label}: statuses diverged"
    );
    assert_eq!(
        report.events(),
        serial_report.events(),
        "{label}: event counts diverged"
    );
    assert_eq!(
        report.stalled(),
        serial_report.stalled(),
        "{label}: stalled flag diverged"
    );
    for p in ProcessorId::all(case.n) {
        assert_eq!(
            report.is_faulty(p),
            serial_report.is_faulty(p),
            "{label}: faulty set diverged at {p}"
        );
    }
    let facts = |r: &RunReport| (r.facts().failure_free, r.facts().on_time);
    assert_eq!(
        facts(report),
        facts(serial_report),
        "{label}: stated facts diverged"
    );
    assert_eq!(decisions, serial_decisions, "{label}: decisions diverged");
    assert_eq!(
        digest, serial_digest,
        "{label}: trace digest diverged from the serial run"
    );
}

/// Runs a group as one batch of `wrap`ped automata and checks every
/// instance against `serial`. Returns the spent batch's pool for reuse
/// probes.
fn check_batch<A: Automaton>(
    cases: &[Case],
    serial: &[SerialOutcome],
    wrap: impl Fn(CommitAutomaton) -> A,
    pool: BatchPool<A::Msg>,
) -> BatchPool<A::Msg> {
    let mut batch = build_batch(cases, wrap, pool);
    let mut advs: Vec<_> = cases.iter().map(adversary).collect();
    let reports = batch.run(&mut advs, RunLimits::default()).unwrap();
    assert_eq!(reports.len(), cases.len());
    for (i, (report, case)) in reports.into_iter().zip(cases).enumerate() {
        let decisions = batch.decisions(i).iter().map(|d| (d.p, d.value)).collect();
        let batched = (report, batch.lane_trace(i).digest(), decisions);
        assert_same(case, "batch", &batched, &serial[i]);
    }
    batch.into_pool()
}

/// Runs a group as one batch and checks every instance against its
/// standalone run.
fn check_group(cases: &[Case], pool: BatchPool<CommitMsg>) -> BatchPool<CommitMsg> {
    let serial: Vec<SerialOutcome> = cases
        .iter()
        .map(|case| serial_run(case, population(case)))
        .collect();
    check_batch(cases, &serial, |auto| auto, pool)
}

/// The three batch shapes of the 36-schedule corpus (the floor is 32).
/// Each group mixes synchronous, adaptive, and random adversaries, with
/// seed-dependent crash injection.
fn corpus() -> [Vec<Case>; 3] {
    let groups = [
        group(4, 16, 0xBA7C_4000),
        group(8, 12, 0xBA7C_8000),
        group(16, 8, 0xBA7C_1600),
    ];
    assert!(groups.iter().map(Vec::len).sum::<usize>() >= 32);
    groups
}

#[test]
fn batched_schedules_are_byte_identical_to_serial_runs() {
    // Thread ONE pool through all groups: equivalence must survive
    // recycled slabs, store lanes, and traces (the chaos campaign
    // driver reuses its pool exactly like this).
    let mut pool = BatchPool::new();
    for cases in &corpus() {
        pool = check_group(cases, pool);
    }
}

/// A commit automaton that never uses the broadcast slot: whatever its
/// inner automaton's outbox reaches, destination by destination in the
/// outbox's own order, it sends directly.
struct Unrolled {
    inner: CommitAutomaton,
    said: Outbox<CommitMsg>,
}

impl Unrolled {
    fn new(inner: CommitAutomaton) -> Unrolled {
        Unrolled {
            inner,
            said: Outbox::new(),
        }
    }
}

impl Automaton for Unrolled {
    type Msg = CommitMsg;

    fn id(&self) -> ProcessorId {
        self.inner.id()
    }

    fn population(&self) -> usize {
        self.inner.population()
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a CommitMsg)>,
        rng: &mut StepRng,
        out: &mut Outbox<CommitMsg>,
    ) {
        self.inner.step_into(inbox, rng, &mut self.said);
        for (to, msg) in self.said.sends(self.id(), self.population()) {
            out.send(to, msg.clone());
        }
        self.said.clear();
    }

    fn status(&self) -> Status {
        self.inner.status()
    }
}

#[test]
fn a_broadcast_is_the_same_schedule_as_its_unrolled_sends() {
    // One body shared by n − 1 slots against n − 1 bodies of one slot
    // each: ids, records, per-destination order — the whole trace —
    // must not tell them apart, alone or in a batch.
    let mut pool = BatchPool::new();
    for cases in &corpus() {
        let serial: Vec<SerialOutcome> = cases
            .iter()
            .map(|case| serial_run(case, population(case)))
            .collect();
        for (case, truth) in cases.iter().zip(&serial) {
            let procs = population(case).into_iter().map(Unrolled::new).collect();
            assert_same(case, "unrolled serial", &serial_run(case, procs), truth);
        }
        pool = check_batch(cases, &serial, Unrolled::new, pool);
    }
}

#[test]
fn pooled_rerun_reproduces_digests_exactly() {
    // Each group twice, the second time on the first run's recycled
    // pool (which by then has also served the other shape): every lane
    // matches its standalone run both times (pooling is invisible).
    let groups = [group(8, 8, 0x9E_0001), group(8, 12, 0x9E_1001)];
    let mut pool = BatchPool::new();
    for _ in 0..2 {
        for cases in &groups {
            pool = check_group(cases, pool);
        }
    }
}

/// The hostile corpus: the 36 seeds again, each under [`Hostile`]'s
/// scripted duplicate and partial-drop crash, the victim
/// revived as a rejoiner at `hostile::revive_at`.
fn hostile_adversary(case: &Case) -> Hostile {
    Hostile::new(adversary(case), case.n, case.seed)
}

fn rejoiner(case: &Case, victim: ProcessorId) -> CommitAutomaton {
    hostile::rejoiner(
        config(case.n),
        victim,
        votes(case.n, case.seed)[victim.index()],
    )
}

/// A `Sim` of one case under its hostile adversary, run to
/// `hostile::revive_at` and the victim revived if it is down by then.
fn hostile_sim_at_revive<A: Automaton>(
    case: &Case,
    wrap: impl Fn(CommitAutomaton) -> A,
) -> (Sim<A>, Hostile) {
    let procs = population(case).into_iter().map(&wrap).collect();
    let mut sim: Sim<A> = sim_builder(case).build(procs).unwrap();
    let mut adv = hostile_adversary(case);
    sim.run_until(&mut adv, hostile::revive_at(case.n), StopWhen::default())
        .unwrap();
    let victim = adv.victim();
    if sim.is_crashed(victim) {
        sim.revive(victim, wrap(rejoiner(case, victim))).unwrap();
    }
    (sim, adv)
}

/// The standalone hostile run of one case: its outcome, what of the
/// script its trace shows, and how many direct sends its automata
/// substituted in place (as `count` reads them).
fn hostile_serial<A: Automaton>(
    case: &Case,
    wrap: impl Fn(CommitAutomaton) -> A,
    count: impl Fn(&A) -> u32,
) -> (SerialOutcome, Seen, u32) {
    let (mut sim, mut adv) = hostile_sim_at_revive(case, wrap);
    let report = sim.run(&mut adv, hostile::LIMITS).unwrap();
    let decisions = sim
        .trace()
        .decisions()
        .iter()
        .map(|d| (d.p, d.value))
        .collect();
    let substituted = ProcessorId::all(case.n)
        .map(|p| count(sim.automaton(p)))
        .sum();
    let outcome = (report, sim.trace().digest(), decisions);
    (outcome, Seen::in_trace(sim.trace()), substituted)
}

/// Runs a group's hostile schedules as one `BatchSim`, cut into two
/// segments around the revive, checking every instance against
/// `serial`.
fn check_hostile_batches<A: Automaton>(
    cases: &[Case],
    serial: &[SerialOutcome],
    wrap: impl Fn(CommitAutomaton) -> A,
    pool: BatchPool<A::Msg>,
) -> BatchPool<A::Msg> {
    let caps: Vec<u64> = cases.iter().map(|c| hostile::revive_at(c.n)).collect();
    let mut batch = build_batch(cases, &wrap, pool);
    let mut advs: Vec<Hostile> = cases.iter().map(hostile_adversary).collect();
    batch
        .run_segment(&mut advs, &caps, StopWhen::default())
        .unwrap();
    for (l, case) in cases.iter().enumerate() {
        let victim = advs[l].victim();
        if batch.is_crashed(l, victim) {
            batch
                .revive(l, victim, wrap(rejoiner(case, victim)))
                .unwrap();
        }
    }
    let reports = batch.run(&mut advs, hostile::LIMITS).unwrap();
    for (i, (report, case)) in reports.into_iter().zip(cases).enumerate() {
        let decisions = batch.decisions(i).iter().map(|d| (d.p, d.value)).collect();
        let batched = (report, batch.lane_trace(i).digest(), decisions);
        assert_same(case, "hostile batch", &batched, &serial[i]);
    }
    batch.into_pool()
}

#[test]
fn hostile_schedules_are_byte_identical_on_all_three_engines() {
    // Where a run representation can go wrong: a copy of one slot of a
    // live broadcast, a crash that unfiles part of a
    // run, a revive after the drops, a rejoiner's direct replies.
    let mut pool = BatchPool::new();
    for cases in &corpus() {
        let runs: Vec<_> = cases
            .iter()
            .map(|case| hostile_serial(case, |auto| auto, |_| 0))
            .collect();
        // The duplicate fires in every schedule; the partial-drop
        // crash needs the victim alive with two sends of one step still
        // buffered, and the revive needs that crash before
        // `hostile::revive_at` — most schedules, not all.
        for (case, (_, seen, _)) in cases.iter().zip(&runs) {
            assert!(
                seen.duplicate,
                "n{}/seed{:#x}: the duplicate did not fire: {seen:?}",
                case.n, case.seed
            );
        }
        let full = runs.iter().filter(|(_, seen, _)| seen.all()).count();
        assert!(
            3 * full >= 2 * cases.len(),
            "only {full} of {} schedules ran the full script",
            cases.len()
        );
        let serial: Vec<SerialOutcome> = runs.into_iter().map(|(outcome, _, _)| outcome).collect();
        pool = check_hostile_batches(cases, &serial, |auto| auto, pool);
    }
}

#[test]
fn a_direct_send_in_place_of_a_broadcast_slot_is_the_same_on_all_three_engines() {
    // The same hostile schedules over a population that substitutes a
    // direct send (own body, the broadcast's place in the id order) at
    // every step that heard from somebody.
    let mut pool = BatchPool::new();
    for cases in &corpus() {
        let runs: Vec<_> = cases
            .iter()
            .map(|case| hostile_serial(case, InPlace::new, |auto| auto.substituted))
            .collect();
        for (case, (_, _, substituted)) in cases.iter().zip(&runs) {
            assert!(
                *substituted > 0,
                "n{}/seed{}: no direct send was substituted",
                case.n,
                case.seed
            );
        }
        let serial: Vec<SerialOutcome> = runs.into_iter().map(|(outcome, _, _)| outcome).collect();
        pool = check_hostile_batches(cases, &serial, InPlace::new, pool);
    }
}

#[test]
fn a_one_lane_batch_driven_in_segments_is_the_sim() {
    // `Sim` is the engine with one lane: a `BatchSim` of B = 1 driven by
    // `run_segment` + `revive` and a `Sim` driven by `run_until` +
    // `revive` over the same hostile schedule record the same run.
    for case in corpus().iter().flatten() {
        let revive_at = hostile::revive_at(case.n);
        let end = hostile::LIMITS.max_events;
        let stop = hostile::LIMITS.stop;

        let (mut sim, mut adv) = hostile_sim_at_revive(case, |auto| auto);
        let victim = adv.victim();
        let sim_met = sim.run_until(&mut adv, end, stop).unwrap();

        let mut lane = build_batch(std::slice::from_ref(case), |auto| auto, BatchPool::new());
        let mut advs = [hostile_adversary(case)];
        lane.run_segment(&mut advs, &[revive_at], stop).unwrap();
        if lane.is_crashed(0, victim) {
            lane.revive(0, victim, rejoiner(case, victim)).unwrap();
        }
        let lane_met = lane.run_segment(&mut advs, &[end], stop).unwrap();

        let label = format!("n{}/seed{:#x}", case.n, case.seed);
        assert_eq!(lane_met, [sim_met], "{label}: stop condition");
        assert_eq!(lane.events_executed(0), sim.events_executed(), "{label}");
        assert_eq!(lane.statuses(0), sim.statuses(), "{label}");
        let (one, alone) = (lane.lane_trace(0), sim.trace());
        assert_eq!(one.digest(), alone.digest(), "{label}: trace digest");
        assert_eq!(one.decisions(), alone.decisions(), "{label}");
        assert_eq!(one.late_marks(), alone.late_marks(), "{label}");
        let stated = |r: RunReport| (r.facts().failure_free, r.facts().on_time);
        assert_eq!(
            stated(lane.report(0, !lane_met[0], true)),
            stated(sim.report(!sim_met, true)),
            "{label}: stated facts"
        );
    }
}

/// What `p` holds, in buffer order.
fn held(view: &PatternView<'_>, p: ProcessorId) -> Vec<MsgId> {
    view.pending_iter(p).map(|m| m.id).collect()
}

/// Runs its inner adversary with every whole-buffer step spelled out:
/// a `StepAll` becomes the `Step` that lists what `p` holds.
struct Listed<A>(A);

impl<A: Adversary> Adversary for Listed<A> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        match self.0.next(view) {
            Action::StepAll { p } => Action::Step {
                p,
                deliver: held(view, p),
            },
            other => other,
        }
    }

    fn admissible(&self) -> bool {
        self.0.admissible()
    }
}

/// The other way round: a `Step` that lists exactly what `p` holds, in
/// order, becomes a `StepAll`. Keeps what each turned step delivered.
struct Whole<A>(A, Rc<RefCell<Vec<Vec<MsgId>>>>);

impl<A: Adversary> Adversary for Whole<A> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        match self.0.next(view) {
            Action::Step { p, deliver } if deliver == held(view, p) => {
                self.1.borrow_mut().push(deliver);
                Action::StepAll { p }
            }
            other => other,
        }
    }

    fn admissible(&self) -> bool {
        self.0.admissible()
    }
}

#[test]
fn step_all_is_step_with_the_whole_buffer() {
    // Over the corpus, plain and hostile: the run a schedule records is
    // the same whether its whole-buffer steps are `StepAll`s or the
    // `Step`s that list the buffer — digest, late marks and facts. A
    // `StepAll` classifies its deliveries only up to the first on-time
    // one, so the hostile corpus must turn steps that deliver late.
    let run = |case: &Case, adv: &mut dyn Adversary| {
        let mut sim: Sim<CommitAutomaton> = sim_builder(case).build(population(case)).unwrap();
        let report = sim.run(adv, hostile::LIMITS).unwrap();
        let facts = (report.facts().failure_free, report.facts().on_time);
        let trace = sim.trace();
        (
            trace.digest(),
            trace.late_marks().to_vec(),
            facts,
            report.events(),
        )
    };
    let (mut turned, mut turned_late) = (0, 0);
    for case in corpus().iter().flatten() {
        let label = format!("n{}/seed{:#x}", case.n, case.seed);
        let mut whole = Whole(adversary(case), Rc::default());
        let as_is = run(case, &mut adversary(case));
        assert_eq!(run(case, &mut Listed(adversary(case))), as_is, "{label}");
        assert_eq!(run(case, &mut whole), as_is, "{label}");
        turned += whole.1.borrow().len();
        let hostile = |inner| Hostile::new(inner, case.n, case.seed);
        let as_is = run(case, &mut hostile(adversary(case)));
        let listed = Box::new(Listed(adversary(case)));
        assert_eq!(run(case, &mut hostile(listed)), as_is, "hostile {label}");
        let turns = Rc::default();
        let whole = Box::new(Whole(adversary(case), Rc::clone(&turns)));
        assert_eq!(run(case, &mut hostile(whole)), as_is, "hostile {label}");
        let late = &as_is.1;
        turned_late += turns
            .borrow()
            .iter()
            .filter(|ids| ids.iter().any(|id| late.contains(id)))
            .count();
    }
    assert!(turned > 0, "no listed step was the whole buffer");
    assert!(turned_late > 0, "no turned hostile step delivered late");
}

/// Section 2's lateness, word for word, read off a trace's events and
/// message records: a message is late when some processor takes more
/// than `k` steps after its sending event and at or before its
/// receiving event. Returns the late deliveries in id order, and
/// whether a message pending to a live destination already is — late
/// whenever it arrives.
fn by_definition(trace: &Trace, k: u64) -> (Vec<MsgId>, bool) {
    let n = trace.population();
    let (mut steps, mut down) = (vec![Vec::new(); n], vec![false; n]);
    for (event, ev) in trace.events().enumerate() {
        match ev {
            EventView::Step { p, .. } => steps[p.index()].push(event as u64),
            EventView::Crash { p } => down[p.index()] = true,
            EventView::Revive { p } => down[p.index()] = false,
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

#[test]
fn on_time_and_late_agree_with_the_section_2_definition() {
    // A report's on-time fact and `Trace::late_marks` are the lane's
    // online monitor at the run's own K; the definition is their
    // oracle, over the hostile corpus (duplicates are sent "now",
    // dropped messages are never received, a revived processor steps
    // again) and a sparse schedule that delivers late.
    let (mut on_time, mut late) = (0, 0);
    let mut check = |sim: &Sim<CommitAutomaton>, report: &RunReport| {
        let (late_ids, overdue) = by_definition(sim.trace(), sim.timing().k());
        let mut marks = sim.trace().late_marks().to_vec();
        marks.sort_unstable();
        assert_eq!(marks, late_ids);
        let want = late_ids.is_empty() && !overdue;
        assert_eq!(report.facts().on_time, want, "{:?}", sim.trace());
        match want {
            true => on_time += 1,
            false => late += 1,
        }
    };
    for case in corpus().iter().flatten() {
        let (mut sim, mut adv) = hostile_sim_at_revive(case, |auto| auto);
        let report = sim.run(&mut adv, hostile::LIMITS).unwrap();
        check(&sim, &report);
    }
    let sparse = Case {
        n: 4,
        seed: 0x1A7E,
        kind: Kind::Random,
    };
    let mut sim: Sim<CommitAutomaton> = sim_builder(&sparse).build(population(&sparse)).unwrap();
    let mut adv = RandomAdversary::new(sparse.seed).deliver_prob(0.05);
    let report = sim
        .run(&mut adv, RunLimits::with_max_events(4_000))
        .unwrap();
    assert!(
        !sim.lateness().on_time(),
        "the sparse schedule is late at K"
    );
    check(&sim, &report);
    assert!(on_time > 0 && late > 0, "{on_time} on-time, {late} late");
}
