//! Exact costs of the message hot path: the allocations of the `GO`
//! fan-out, a message clone, a synchronous commit, a warm batch and a
//! refused payload, and the events of a jitter soak. Each is a function
//! of the seed alone, the same on every machine and in debug and
//! release, so it is pinned here, not measured inside a noise margin
//! (docs/PERF.md, "Trajectory", has the history). Allocation pins are upper bounds at the last count: a
//! change that lowers one lowers its pin. Each counted region follows an
//! uncounted warm-up, so lazy one-time set-up never lands inside it.

mod counting;

use counting::count_allocs;
use rtc_chaos::{ChaosAdversary, ChaosSchedule};
use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_experiments::run_commit;
use rtc_model::{
    Automaton, LocalClock, Outbox, ProcessorId, SeedCollection, TimingParams, Value, Wire,
    WireError,
};
use rtc_runtime::{DelayModel, FaultPlan};
use rtc_sim::adversaries::SynchronousAdversary;
use rtc_sim::{BatchPool, BatchSimBuilder, RunLimits, SimBuilder};

fn cfg(n: usize) -> CommitConfig {
    CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
}

fn coordinator_rng(seed: u64) -> rtc_model::StepRng {
    SeedCollection::new(seed).step_rng(ProcessorId::COORDINATOR, LocalClock::new(0))
}

/// The coordinator's first step flips the coins and broadcasts `GO` to
/// its `n - 1` peers. Into a reused outbox (how the engines drive it)
/// the message is built once; the provided `step` adds one owned send
/// per peer in a single vector. Neither count grows with `n`.
#[test]
fn go_fan_out_allocates_the_same_at_every_population() {
    for n in [8usize, 16, 32] {
        let config = cfg(n);
        let mut out = Outbox::new();
        let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
        auto.step_into(std::iter::empty(), &mut coordinator_rng(41), &mut out);
        out.clear();

        let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
        let mut rng = coordinator_rng(42);
        let (into, ()) = count_allocs(|| auto.step_into(std::iter::empty(), &mut rng, &mut out));
        assert_eq!(out.sends(ProcessorId::COORDINATOR, n).count(), n - 1);

        let mut auto = CommitAutomaton::new(config, ProcessorId::COORDINATOR, Value::One);
        let mut rng = coordinator_rng(42);
        let (provided, sends) = count_allocs(|| auto.step(&[], &mut rng));
        assert_eq!(sends.len(), n - 1);

        assert_eq!((into, provided), (2, 3), "n = {n}: (step_into, step)");
    }
}

/// What a channel or socket send does per destination: the body is
/// shared, so a clone is a reference-count bump and no allocation.
#[test]
fn a_commit_msg_clone_allocates_nothing() {
    let mut auto = CommitAutomaton::new(cfg(16), ProcessorId::COORDINATOR, Value::One);
    let msg: CommitMsg = auto.step(&[], &mut coordinator_rng(42))[0].msg.clone();
    let mut clones = Vec::with_capacity(1024);
    let (allocs, ()) = count_allocs(|| clones.extend((0..1024).map(|_| msg.clone())));
    assert_eq!(allocs, 0);
}

/// A payload that claims more coins than it has bytes is refused before
/// anything is sized by the claim: 14 bytes announcing 2²⁰ coins cost
/// no allocation (sizing the coin list by the claim cost one, 1 MiB).
#[test]
fn a_payload_claiming_more_coins_than_bytes_allocates_nothing() {
    let mut payload = vec![1u8];
    payload.extend_from_slice(&(1u32 << 20).to_le_bytes());
    payload.extend_from_slice(&[1; 9]);
    assert_eq!(payload.len(), 14);
    let (allocs, decoded) = count_allocs(|| CommitMsg::decode(&payload));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert_eq!(allocs, 0);
}

/// A whole synchronous commit at `n = 16`, simulator and verdict
/// included: 422 allocations over its 930 messages. (It was 493 while
/// the synchronous adversary listed each step's deliveries in a fresh
/// `Vec`; its steps now take the whole buffer, `Action::StepAll`.)
#[test]
fn a_synchronous_n16_commit_allocates_at_most_its_pin() {
    let config = cfg(16);
    let votes = [Value::One; 16];
    let run = |seed| {
        run_commit(
            config,
            &votes,
            seed,
            &mut SynchronousAdversary::new(16),
            RunLimits::default(),
        )
    };
    run(41);
    let (allocs, result) = count_allocs(|| run(42));
    assert!(result.decided);
    assert_eq!(result.messages, 930);
    assert!(allocs <= 422, "{allocs} allocations, 422 when pinned");
}

/// Twenty-four crash-free runs at `n = 16` with up to three ticks of
/// delivery jitter, which keeps many messages buffered at once: 5 176
/// events in all, 215.67 a run.
#[test]
fn the_n16_jitter_soak_takes_its_pinned_events() {
    let config = cfg(16);
    let events: u64 = (0..24)
        .map(|rep| {
            let schedule = ChaosSchedule {
                early_abort: false,
                faults: FaultPlan::none().with_delay(DelayModel::Uniform { min: 0, max: 3 }),
                ..ChaosSchedule::fault_free(16, 0xD0_5EED + rep, vec![Value::One; 16])
            };
            let mut sim = SimBuilder::new(config.timing(), SeedCollection::new(schedule.seed))
                .fault_budget(config.fault_bound())
                .build(commit_population(config, &schedule.votes))
                .unwrap();
            let report = sim.run(&mut ChaosAdversary::new(&schedule), RunLimits::default());
            report.unwrap().events()
        })
        .sum();
    assert_eq!(events, 5_176);
}

/// Sixty-four synchronous `n = 16` instances on a `BatchSim` whose pool
/// six earlier batches warmed: 62 events per decision, and at most 262
/// allocations to step them (4.09 per instance; building is not
/// counted). `benchmark/` reads the same count as `sim.allocs_per_instance`.
/// It was 4 166 while the synchronous adversary allocated a delivery
/// list at each of the 61 steps with something to deliver; a step that
/// takes the whole buffer (`Action::StepAll`) names no ids.
#[test]
fn a_warm_n16_batch_steps_and_allocates_at_most_its_pin() {
    const B: u64 = 64;
    let config = cfg(16);
    let mut pool = BatchPool::new();
    for round in 0..=6 {
        let mut builder = BatchSimBuilder::from_pool(pool);
        for i in 0..B {
            let seeds = SeedCollection::new(0xBA7C_0000 + round * B + i);
            let sim = SimBuilder::new(config.timing(), seeds).fault_budget(config.fault_bound());
            builder
                .instance(sim, commit_population(config, &[Value::One; 16]))
                .unwrap();
        }
        let mut batch = builder.build();
        let mut advs: Vec<_> = (0..B).map(|_| SynchronousAdversary::new(16)).collect();
        let (allocs, reports) = count_allocs(|| batch.run(&mut advs, RunLimits::default()));
        pool = batch.into_pool();
        let reports = reports.unwrap();
        assert!(reports.iter().all(|r| r.all_nonfaulty_decided()));
        if round == 6 {
            assert_eq!(reports.iter().map(|r| r.events()).sum::<u64>(), 62 * B);
            assert!(allocs <= 262, "{allocs} allocations, 262 when pinned");
        }
    }
}
