//! Batch-vs-serial equivalence: the concurrent-instance batch engine
//! must be *unobservable* per instance.
//!
//! `BatchSim` steps B independent commit instances over one shared
//! message-store slab and one shared trace recorder. This suite pins
//! the core promise of that design: for every seeded schedule, running
//! an instance inside a batch produces per-instance decisions, reports,
//! and full trace digests byte-identical to a standalone `Sim` run with
//! the same configuration, seed, and adversary. The digest covers every
//! event, delivery, drop, decision, and crash in order (the PR-4
//! golden-digest currency), so equality here means the batched
//! scheduler is not just "as good" but *the same schedule*.

use rtc::core::CommitMsg;
use rtc::model::{Outbox, StepRng};
use rtc::prelude::*;
use rtc::sim::{
    worker_of, Adversary, BatchPool, BatchSim, BatchSimBuilder, ParBatchSimBuilder, Sim, StopWhen,
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

fn adversary(case: &Case) -> Box<dyn Adversary + Send> {
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
        let batched = (report, batch.to_trace(i).digest(), decisions);
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
    // recycled slabs, store lanes, and trace columns (the chaos
    // campaign driver reuses its pool exactly like this).
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
    // must not tell them apart, on any of the three engines.
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

        let workers = 2;
        let mut builder = ParBatchSimBuilder::with_workers(workers);
        for (l, case) in cases.iter().enumerate() {
            let procs = population(case).into_iter().map(Unrolled::new).collect();
            builder
                .instance_on(sim_builder(case), procs, worker_of(l, workers))
                .unwrap();
        }
        let mut sharded = builder.build();
        let mut advs: Vec<_> = cases.iter().map(adversary).collect();
        let reports = sharded.run(&mut advs, RunLimits::default()).unwrap();
        for (i, (report, case)) in reports.into_iter().zip(cases).enumerate() {
            let decisions = sharded
                .decisions(i)
                .iter()
                .map(|d| (d.p, d.value))
                .collect();
            let lane = (report, sharded.to_trace(i).digest(), decisions);
            assert_same(case, "unrolled W=2", &lane, &serial[i]);
        }
    }
}

#[test]
fn pooled_rerun_reproduces_digests_exactly() {
    // Same batch twice, second time on the first run's recycled pool:
    // digests must be byte-identical (pooling is invisible).
    let cases = group(8, 8, 0x9E_0001);
    let digests_of = |pool: BatchPool<CommitMsg>| {
        let mut batch = build_batch(&cases, |auto| auto, pool);
        let mut advs: Vec<_> = cases.iter().map(adversary).collect();
        batch.run(&mut advs, RunLimits::default()).unwrap();
        let digests: Vec<u64> = (0..cases.len())
            .map(|i| batch.to_trace(i).digest())
            .collect();
        (digests, batch.into_pool())
    };
    let (first, pool) = digests_of(BatchPool::new());
    let (second, _) = digests_of(pool);
    assert_eq!(first, second);
}

/// The hostile corpus: the 36 seeds again, each under [`Hostile`]'s
/// scripted duplicate, reorder and partial-drop crash, the victim
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

/// The standalone hostile run of one case: its outcome, what of the
/// script its trace shows, and how many direct sends its automata
/// substituted in place (as `count` reads them).
fn hostile_serial<A: Automaton>(
    case: &Case,
    wrap: impl Fn(CommitAutomaton) -> A,
    count: impl Fn(&A) -> u32,
) -> (SerialOutcome, Seen, u32) {
    let procs = population(case).into_iter().map(&wrap).collect();
    let mut sim: Sim<A> = sim_builder(case).build(procs).unwrap();
    let mut adv = hostile_adversary(case);
    sim.run_until(&mut adv, hostile::revive_at(case.n), StopWhen::default())
        .unwrap();
    let victim = adv.victim();
    if sim.is_crashed(victim) {
        sim.revive(victim, wrap(rejoiner(case, victim))).unwrap();
    }
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

/// Runs a group's hostile schedules as one `BatchSim` and as a W = 2
/// `ParBatchSim`, checking every instance against `serial`.
fn check_hostile_batches<A>(
    cases: &[Case],
    serial: &[SerialOutcome],
    wrap: impl Fn(CommitAutomaton) -> A,
    pool: BatchPool<A::Msg>,
) -> BatchPool<A::Msg>
where
    A: Automaton + Send,
    A::Msg: Send,
{
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
        let batched = (report, batch.to_trace(i).digest(), decisions);
        assert_same(case, "hostile batch", &batched, &serial[i]);
    }

    let workers = 2;
    let mut builder = ParBatchSimBuilder::with_workers(workers);
    for (l, case) in cases.iter().enumerate() {
        let procs = population(case).into_iter().map(&wrap).collect();
        builder
            .instance_on(sim_builder(case), procs, worker_of(l, workers))
            .unwrap();
    }
    let mut sharded = builder.build();
    let mut advs: Vec<Hostile> = cases.iter().map(hostile_adversary).collect();
    sharded
        .run_segment(&mut advs, &caps, StopWhen::default())
        .unwrap();
    for (l, case) in cases.iter().enumerate() {
        let victim = advs[l].victim();
        if sharded.is_crashed(l, victim) {
            sharded
                .revive(l, victim, wrap(rejoiner(case, victim)))
                .unwrap();
        }
    }
    let reports = sharded.run(&mut advs, hostile::LIMITS).unwrap();
    for (i, (report, case)) in reports.into_iter().zip(cases).enumerate() {
        let decisions = sharded
            .decisions(i)
            .iter()
            .map(|d| (d.p, d.value))
            .collect();
        let lane = (report, sharded.to_trace(i).digest(), decisions);
        assert_same(case, "hostile W=2", &lane, &serial[i]);
    }
    batch.into_pool()
}

#[test]
fn hostile_schedules_are_byte_identical_on_all_three_engines() {
    // Where a run representation can go wrong: a copy of one slot of a
    // live broadcast, a reordered list, a crash that unfiles part of a
    // run, a revive after the drops, a rejoiner's direct replies.
    let mut pool = BatchPool::new();
    for cases in &corpus() {
        let runs: Vec<_> = cases
            .iter()
            .map(|case| hostile_serial(case, |auto| auto, |_| 0))
            .collect();
        // The network faults fire in every schedule; the partial-drop
        // crash needs the victim alive with two sends of one step still
        // buffered, and the revive needs that crash before
        // `hostile::revive_at` — most schedules, not all.
        for (case, (_, seen, _)) in cases.iter().zip(&runs) {
            assert!(
                seen.duplicate && seen.reorder,
                "n{}/seed{:#x}: a network fault did not fire: {seen:?}",
                case.n,
                case.seed
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
