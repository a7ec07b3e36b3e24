//! Behaviour pins for the populations and schedules that take a commit
//! instance off its inline state: n = 16 (the last population whose
//! per-peer bytes are inline), n = 17 and n = 40 (the boards spill),
//! and a machine whose peers run stages ahead of it (the live stage
//! boards spill). Every constant below was captured on the commit
//! before the instance's state moved inline — `Vec` boards, a
//! `BTreeMap` of stages, `Arc<[CommitKind]>` bundles — with this same
//! harness.
//!
//! The simulator's trace digest covers the schedule but not message
//! *content*, so every automaton is wrapped in a tap that folds the
//! `Debug` form of each step's deliveries and sends into a hash: a
//! `CommitMsg` must print as it did when its kinds were a slice.

use rtc_core::{
    commit_population, Agreement, AgreementMsg, CoinList, CommitAutomaton, CommitConfig, CommitMsg,
};
use rtc_model::{
    Automaton, Delivery, LocalClock, Outbox, ProcessorId, SeedCollection, Send, Status, StepRng,
    TimingParams, Value,
};
use rtc_sim::adversaries::{
    CrashAdversary, CrashPlan, DropPolicy, RandomAdversary, SynchronousAdversary,
};
use rtc_sim::{Adversary, RunLimits, SimBuilder};

/// FNV-1a, folded over text.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A commit automaton that hashes everything crossing its step
/// boundary, in the `Delivery`/`Send` form the digests were captured in.
struct Tap {
    inner: CommitAutomaton,
    seen: Fnv,
}

impl Automaton for Tap {
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
        let delivered: Vec<Delivery<CommitMsg>> = inbox
            .map(|(from, msg)| Delivery::new(from, msg.clone()))
            .collect();
        self.inner
            .step_into(delivered.iter().map(|d| (d.from, &d.msg)), rng, out);
        let sends: Vec<Send<CommitMsg>> = out
            .sends(self.id(), self.population())
            .map(|(to, msg)| Send::new(to, msg.clone()))
            .collect();
        self.seen.write(&format!("{delivered:?} -> {sends:?};"));
    }

    fn status(&self) -> Status {
        self.inner.status()
    }
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// [`rtc_sim::Trace::digest`]: the schedule.
    trace: u64,
    /// The taps' hashes, folded in processor order: the content.
    content: u64,
    /// Per processor: `1` commit, `0` abort, `-` undecided (crashed).
    decisions: &'static str,
    /// Per processor: the Protocol 1 stage it decided in (0 if it never
    /// decided there).
    stages: Vec<u64>,
}

/// Runs an all-commit population of `n` under `adversary`.
fn run(n: usize, seed: u64, adversary: &mut dyn Adversary) -> (u64, u64, String, Vec<u64>) {
    let cfg =
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap();
    let procs: Vec<Tap> = commit_population(cfg, &vec![Value::One; n])
        .into_iter()
        .map(|inner| Tap {
            inner,
            seen: Fnv::new(),
        })
        .collect();
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(seed))
        .fault_budget(cfg.fault_bound())
        .build(procs)
        .unwrap();
    let report = sim.run(adversary, RunLimits::default()).unwrap();
    assert!(report.all_nonfaulty_decided());
    let mut content = Fnv::new();
    let mut decisions = String::new();
    let mut stages = Vec::new();
    for p in ProcessorId::all(n) {
        let tap = sim.automaton(p);
        content.write(&format!("{:016x}", tap.seen.0));
        decisions.push(match tap.inner.status().value() {
            None => '-',
            Some(Value::Zero) => '0',
            Some(Value::One) => '1',
        });
        stages.push(
            tap.inner
                .agreement()
                .and_then(|a| a.decision())
                .map_or(0, |(_, stage)| stage),
        );
    }
    (sim.trace().digest(), content.0, decisions, stages)
}

fn check(n: usize, seed: u64, adversary: &mut dyn Adversary, pin: Pin) {
    let (trace, content, decisions, stages) = run(n, seed, adversary);
    assert_eq!(
        (trace, content, decisions.as_str(), stages),
        (pin.trace, pin.content, pin.decisions, pin.stages),
        "n = {n}, seed = {seed}"
    );
}

/// `value` everywhere but at the listed indices.
fn all_but(n: usize, value: u64, others: &[(usize, u64)]) -> Vec<u64> {
    let mut stages = vec![value; n];
    for (at, other) in others {
        stages[*at] = *other;
    }
    stages
}

/// Random delivery with processor `n / 2` crashed at event `2n + 1`,
/// its final broadcast reaching the even-numbered processors only.
fn one_crash(n: usize, seed: u64) -> CrashAdversary<RandomAdversary> {
    CrashAdversary::new(
        RandomAdversary::new(seed ^ 0xC4A5).deliver_prob(0.7),
        vec![CrashPlan {
            at_event: 2 * n as u64 + 1,
            victim: ProcessorId::new(n / 2),
            drop: DropPolicy::DropTo(ProcessorId::all(n).filter(|p| p.index() % 2 == 1).collect()),
        }],
    )
}

#[test]
fn n16_runs_are_pinned() {
    let n = 16;
    check(
        n,
        3,
        &mut SynchronousAdversary::new(n),
        Pin {
            trace: 9_041_423_037_462_685_805,
            content: 13_718_567_984_879_197_015,
            decisions: "1111111111111111",
            stages: vec![1; n],
        },
    );
    check(
        n,
        11,
        &mut RandomAdversary::new(11).deliver_prob(0.6),
        Pin {
            trace: 9_426_360_064_191_641_662,
            content: 4_987_300_134_593_562_887,
            decisions: "1111111111111111",
            stages: all_but(n, 2, &[(1, 1)]),
        },
    );
    check(
        n,
        13,
        &mut one_crash(n, 13),
        Pin {
            trace: 16_781_812_833_599_182_705,
            content: 5_571_724_310_412_455_689,
            decisions: "00000000-0000000",
            stages: all_but(n, 1, &[(8, 0), (13, 0)]),
        },
    );
}

#[test]
fn n17_runs_are_pinned() {
    let n = 17;
    check(
        n,
        3,
        &mut SynchronousAdversary::new(n),
        Pin {
            trace: 9_739_440_112_817_079_277,
            content: 16_388_096_979_729_251_181,
            decisions: "11111111111111111",
            stages: vec![1; n],
        },
    );
    check(
        n,
        18,
        &mut RandomAdversary::new(18).deliver_prob(0.6),
        Pin {
            trace: 1_031_742_087_881_664_966,
            content: 1_301_498_997_146_457_275,
            decisions: "11111111111111111",
            stages: all_but(n, 2, &[(9, 1), (10, 1), (11, 1), (15, 1)]),
        },
    );
    check(
        n,
        13,
        &mut one_crash(n, 13),
        Pin {
            trace: 887_920_673_372_268_212,
            content: 13_892_369_529_609_495_612,
            decisions: "00000000-00000000",
            stages: all_but(n, 1, &[(8, 0), (13, 0)]),
        },
    );
}

#[test]
fn n40_runs_are_pinned() {
    let n = 40;
    check(
        n,
        3,
        &mut SynchronousAdversary::new(n),
        Pin {
            trace: 13_880_504_296_105_419_903,
            content: 14_383_363_260_290_032_533,
            decisions: "1111111111111111111111111111111111111111",
            stages: vec![1; n],
        },
    );
    check(
        n,
        16,
        &mut RandomAdversary::new(16).deliver_prob(0.6),
        Pin {
            trace: 9_802_839_504_864_529_376,
            content: 14_481_951_342_012_563_765,
            decisions: "0000000000000000000000000000000000000000",
            stages: vec![2; n],
        },
    );
    check(
        n,
        13,
        &mut one_crash(n, 13),
        Pin {
            trace: 11_228_156_642_621_331_615,
            content: 10_709_003_101_248_309_195,
            decisions: "00000000000000000000-0000000000000000000",
            stages: all_but(n, 1, &[(20, 0), (35, 0)]),
        },
    );
}

/// A machine that hears nothing until its peers are six stages in: all
/// of their traffic for stages 1–6 is posted before its first poll, so
/// six boards are open at once — twice what the machine holds inline —
/// and one poll then runs it through all six. p4 is silent until stage
/// 5: stage 1 splits 2–2 and falls to the coin (0); in stages 2–4 p0's
/// 0 makes it three of four, and its own S-message is the only one;
/// from stage 5 everyone says 1.
#[test]
fn a_machine_whose_peers_run_stages_ahead_decides_as_before() {
    let p = ProcessorId::new;
    let coins = CoinList::from_values(
        [0, 1, 0, 1, 1, 1, 1, 1]
            .map(|b| Value::from_bool(b == 1))
            .to_vec(),
    );
    let mut m = Agreement::new(p(0), 5, 2, Value::One, coins);
    let mut said: Vec<AgreementMsg> = m.start();
    for stage in 1..=6u64 {
        let late = stage >= 5;
        for q in 1..=4usize {
            if !late && q == 4 {
                continue;
            }
            let value = if late || q == 1 {
                Value::One
            } else {
                Value::Zero
            };
            m.ingest(p(q), AgreementMsg::First { stage, value });
            m.ingest(
                p(q),
                AgreementMsg::Second {
                    stage,
                    value: late.then_some(Value::One),
                },
            );
        }
    }
    let mut rng = SeedCollection::new(0xA11CE).step_rng(p(0), LocalClock::new(0));
    said.extend(m.poll(&mut rng));
    assert_eq!(
        format!("{said:?}"),
        "[First { stage: 1, value: 1 }, Second { stage: 1, value: None }, \
         First { stage: 2, value: 0 }, Second { stage: 2, value: Some(0) }, \
         First { stage: 3, value: 0 }, Second { stage: 3, value: Some(0) }, \
         First { stage: 4, value: 0 }, Second { stage: 4, value: Some(0) }, \
         First { stage: 5, value: 0 }, Second { stage: 5, value: Some(1) }, \
         First { stage: 6, value: 1 }, Second { stage: 6, value: Some(1) }]"
    );
    assert_eq!(m.decision(), Some((Value::One, 5)));
    assert_eq!(m.status(), Status::Halted(Value::One));
    assert_eq!((m.stage(), m.local_flips()), (6, 0));
}
