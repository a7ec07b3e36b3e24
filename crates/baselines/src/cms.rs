//! A CMS-style agreement protocol built on a *weak global coin*.
//!
//! Chor, Merritt and Shmoys \[CMS\] achieve constant expected time in the
//! same adversary model as the paper but tolerate fewer than `n/6`
//! crashed processors in the asynchronous setting. Their engine is a
//! weak global coin assembled from the processors' own flips rather than
//! from a pre-distributed list.
//!
//! We implement a CMS-*style* protocol (full CMS is out of scope; see
//! `DESIGN.md`): each second-exchange message carries the sender's local
//! flip for the stage, and a processor that must fall back to a coin
//! adopts the flip of the **lowest-id sender** among the second-exchange
//! messages it received. When all processors sample the same leader the
//! coin is perfectly shared; an adversary that can remove or reorder
//! enough processors (large `t`) can split the sample and stall
//! progress. The qualitative profile matches CMS: constant expected time
//! at small `t/n`, degrading as the fault load grows — which is exactly
//! the contrast experiment F2 draws against the paper's `t < n/2`.

use std::collections::HashMap;
use std::fmt;

use rtc_model::{Automaton, Outbox, ProcessorId, Status, StepRng, Value};

/// A message of the CMS-style protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmsMsg {
    /// First exchange: `(1, s, v)`.
    First {
        /// The stage.
        stage: u64,
        /// The sender's local value.
        value: Value,
    },
    /// Second exchange: `(2, s, v | ⊥)` plus the sender's stage flip —
    /// the raw material of the weak global coin.
    Second {
        /// The stage.
        stage: u64,
        /// `Some(v)` for an S-message, `None` for `⊥`.
        value: Option<Value>,
        /// The sender's local coin flip for this stage.
        flip: Value,
    },
}

impl CmsMsg {
    fn stage(&self) -> u64 {
        match self {
            CmsMsg::First { stage, .. } | CmsMsg::Second { stage, .. } => *stage,
        }
    }
}

/// The wire bundle: every CMS message a processor emits at one step,
/// built once and broadcast once.
pub type CmsBundle = Vec<CmsMsg>;

#[derive(Clone, Debug, Default)]
struct StageBoard {
    first: HashMap<ProcessorId, Value>,
    second: HashMap<ProcessorId, (Option<Value>, Value)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiting {
    First,
    Second,
}

/// One processor of the CMS-style weak-global-coin agreement protocol.
#[derive(Clone)]
pub struct CmsAutomaton {
    id: ProcessorId,
    n: usize,
    t: usize,
    x: Value,
    stage: u64,
    waiting: Waiting,
    boards: HashMap<u64, StageBoard>,
    started: bool,
    decided: Option<(Value, u64)>,
    my_flip: Value,
}

impl CmsAutomaton {
    /// Creates the automaton for processor `id` with input `x`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 2t` and `id < n` (the machine itself needs
    /// majority quorums; the *coin* quality is what degrades with `t`).
    pub fn new(id: ProcessorId, n: usize, t: usize, x: Value) -> CmsAutomaton {
        assert!(n > 2 * t, "quorum machinery requires n > 2t");
        assert!(id.index() < n, "processor id out of range");
        CmsAutomaton {
            id,
            n,
            t,
            x,
            stage: 1,
            waiting: Waiting::First,
            boards: HashMap::new(),
            started: false,
            decided: None,
            my_flip: Value::Zero,
        }
    }

    /// The stage the machine is currently executing.
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// The decided value and deciding stage, if any.
    pub fn decision(&self) -> Option<(Value, u64)> {
        self.decided
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    fn ingest(&mut self, from: ProcessorId, msg: CmsMsg) {
        let board = self.boards.entry(msg.stage()).or_default();
        match msg {
            CmsMsg::First { value, .. } => {
                board.first.entry(from).or_insert(value);
            }
            CmsMsg::Second { value, flip, .. } => {
                board.second.entry(from).or_insert((value, flip));
            }
        }
    }

    fn poll(&mut self, rng: &mut StepRng) -> Vec<CmsMsg> {
        let mut out = Vec::new();
        loop {
            let stage = self.stage;
            let quorum = self.quorum();
            match self.waiting {
                Waiting::First => {
                    let board = self.boards.entry(stage).or_default();
                    if board.first.len() < quorum {
                        break;
                    }
                    let mut counts = [0usize; 2];
                    for v in board.first.values() {
                        counts[v.as_u8() as usize] += 1;
                    }
                    let value = if 2 * counts[1] > self.n {
                        Some(Value::One)
                    } else if 2 * counts[0] > self.n {
                        Some(Value::Zero)
                    } else {
                        None
                    };
                    // Flip the stage coin now and attach it: the weak
                    // global coin is sampled from these.
                    self.my_flip = Value::from_bool(rng.bit());
                    let msg = CmsMsg::Second {
                        stage,
                        value,
                        flip: self.my_flip,
                    };
                    self.ingest(self.id, msg);
                    out.push(msg);
                    self.waiting = Waiting::Second;
                }
                Waiting::Second => {
                    let board = self.boards.entry(stage).or_default();
                    if board.second.len() < quorum {
                        break;
                    }
                    let mut s_value: Option<Value> = None;
                    let mut s_count = 0usize;
                    for (v, _) in board.second.values() {
                        if let Some(v) = v {
                            debug_assert!(s_value.is_none_or(|sv| sv == *v));
                            s_value = Some(*v);
                            s_count += 1;
                        }
                    }
                    match s_value {
                        Some(v) => {
                            self.x = v;
                            if s_count >= quorum && self.decided.is_none() {
                                self.decided = Some((v, stage));
                            }
                        }
                        None => {
                            // Weak global coin: the flip of the lowest-id
                            // sender heard this stage.
                            let leader_flip = board
                                .second
                                .iter()
                                .min_by_key(|(p, _)| **p)
                                .map(|(_, (_, flip))| *flip)
                                .expect("quorum is nonempty");
                            self.x = leader_flip;
                        }
                    }
                    self.boards.remove(&stage.saturating_sub(2));
                    self.stage += 1;
                    self.waiting = Waiting::First;
                    let msg = CmsMsg::First {
                        stage: self.stage,
                        value: self.x,
                    };
                    self.ingest(self.id, msg);
                    out.push(msg);
                }
            }
        }
        out
    }
}

impl Automaton for CmsAutomaton {
    type Msg = CmsBundle;

    fn id(&self) -> ProcessorId {
        self.id
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a CmsBundle)>,
        rng: &mut StepRng,
        out: &mut Outbox<CmsBundle>,
    ) {
        let mut broadcasts = Vec::new();
        if !self.started {
            self.started = true;
            let msg = CmsMsg::First {
                stage: 1,
                value: self.x,
            };
            self.ingest(self.id, msg);
            broadcasts.push(msg);
        }
        for (from, bundle) in inbox {
            for msg in bundle {
                self.ingest(from, *msg);
            }
        }
        broadcasts.extend(self.poll(rng));
        if !broadcasts.is_empty() {
            out.broadcast(broadcasts);
        }
    }

    fn status(&self) -> Status {
        match self.decided {
            Some((v, _)) => Status::Decided(v),
            None => Status::Undecided,
        }
    }
}

impl fmt::Debug for CmsAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CmsAutomaton")
            .field("id", &self.id)
            .field("stage", &self.stage)
            .field("decided", &self.decided)
            .finish()
    }
}

/// Builds a CMS-style population.
///
/// # Panics
///
/// Panics unless `n > 2t` and `inputs.len() == n`.
pub fn cms_population(n: usize, t: usize, inputs: &[Value]) -> Vec<CmsAutomaton> {
    assert_eq!(inputs.len(), n, "one input per processor");
    (0..n)
        .map(|i| CmsAutomaton::new(ProcessorId::new(i), n, t, inputs[i]))
        .collect()
}

/// Outcome of one anti-leader-coin driven run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AntiLeaderOutcome {
    /// Stages executed until every processor decided (or the cap).
    pub stages: u64,
    /// Whether all processors decided within the cap.
    pub decided: bool,
}

/// Drives a CMS-style population under a **coin-splitting scheduler**.
///
/// The attack exploits what makes an *assembled* weak coin weak: the
/// adversary controls which `n − t` second-exchange messages each
/// processor receives, and the adopted coin is the flip of the
/// lowest-id sender in that set. By handing different processors
/// quorums that start at different sender offsets `0..=t`, the
/// adversary can expose up to `t + 1` distinct leaders; whenever two of
/// those leaders flipped differently, it assigns half the population a
/// 0-leader quorum and half a 1-leader quorum, preserving the value
/// split for another stage. The run only escapes when **all** `t + 1`
/// candidate leaders flip the same way — probability `2^-t` per coin
/// stage — so the expected stage count grows like `2^t` with the fault
/// bound. Protocol 1's pre-shared coin list is immune: every processor
/// that consults a coin consults the *same* coin, and no quorum choice
/// can split it.
///
/// This scheduler inspects message contents (like the F1 driver);
/// results are labelled accordingly in `EXPERIMENTS.md`.
pub fn anti_leader_stages(n: usize, t: usize, seed: u64, max_stages: u64) -> AntiLeaderOutcome {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rtc_model::{LocalClock, SeedCollection};

    assert!(n > 2 * t, "requires n > 2t");
    let seeds = SeedCollection::new(seed);
    let mut pick_rng = SmallRng::seed_from_u64(seed ^ 0xC35);
    let quorum = n - t;
    let mut machines: Vec<CmsAutomaton> = (0..n)
        .map(|i| CmsAutomaton::new(ProcessorId::new(i), n, t, Value::from_bool(i % 2 == 0)))
        .collect();
    let mut first_msgs: Vec<(ProcessorId, CmsMsg)> = Vec::new();
    for m in machines.iter_mut() {
        m.started = true;
        let msg = CmsMsg::First {
            stage: 1,
            value: m.x,
        };
        m.ingest(m.id, msg);
        first_msgs.push((m.id, msg));
    }
    for stage in 1..=max_stages {
        // --- First exchange: balance values below the majority line,
        // exactly as in the Ben-Or worst-case driver. ---
        let mut by_value: [Vec<(ProcessorId, CmsMsg)>; 2] = [Vec::new(), Vec::new()];
        for (from, msg) in first_msgs.drain(..) {
            if let CmsMsg::First { value, .. } = msg {
                by_value[value.as_u8() as usize].push((from, msg));
            }
        }
        let cap = n / 2;
        let mut second_msgs: Vec<(ProcessorId, CmsMsg)> = Vec::new();
        for m in machines.iter_mut() {
            let me = m.id;
            let my_value = m.x;
            let mut count = [0usize; 2];
            count[my_value.as_u8() as usize] = 1;
            let mut board = 1usize;
            let mut pools: [Vec<&(ProcessorId, CmsMsg)>; 2] = [
                by_value[0].iter().filter(|(from, _)| *from != me).collect(),
                by_value[1].iter().filter(|(from, _)| *from != me).collect(),
            ];
            let mut chosen: Vec<(ProcessorId, CmsMsg)> = Vec::new();
            while board < quorum {
                let prefer = usize::from(count[1] <= count[0]);
                let side = if count[prefer] < cap && !pools[prefer].is_empty() {
                    prefer
                } else if count[1 - prefer] < cap && !pools[1 - prefer].is_empty() {
                    1 - prefer
                } else {
                    break;
                };
                let idx = pick_rng.gen_range(0..pools[side].len());
                chosen.push(*pools[side].swap_remove(idx));
                count[side] += 1;
                board += 1;
            }
            while board < quorum {
                let side = if pools[0].is_empty() { 1 } else { 0 };
                if pools[side].is_empty() {
                    break;
                }
                let idx = pick_rng.gen_range(0..pools[side].len());
                chosen.push(*pools[side].swap_remove(idx));
                count[side] += 1;
                board += 1;
            }
            for (from, msg) in chosen {
                m.ingest(from, msg);
            }
            let mut rng = seeds.step_rng(me, LocalClock::new(stage * 2));
            for out in m.poll(&mut rng) {
                second_msgs.push((me, out));
            }
        }
        // --- Second exchange: split the leader coin. ---
        let batch = std::mem::take(&mut second_msgs);
        let mut sorted = batch.clone();
        sorted.sort_by_key(|(from, _)| *from);
        let any_s_message = sorted
            .iter()
            .any(|(_, msg)| matches!(msg, CmsMsg::Second { value: Some(_), .. }));
        // Windows of n−t consecutive senders; window j's leader is the
        // j-th lowest sender.
        let windows: Vec<&[(ProcessorId, CmsMsg)]> = (0..=t)
            .filter(|j| j + quorum <= sorted.len())
            .map(|j| &sorted[j..j + quorum])
            .collect();
        let leader_flip = |w: &[(ProcessorId, CmsMsg)]| match w.first() {
            Some((_, CmsMsg::Second { flip, .. })) => Some(*flip),
            _ => None,
        };
        let zero_window = windows.iter().find(|w| leader_flip(w) == Some(Value::Zero));
        let one_window = windows.iter().find(|w| leader_flip(w) == Some(Value::One));
        for (i, m) in machines.iter_mut().enumerate() {
            let me = m.id;
            let assignment: Vec<(ProcessorId, CmsMsg)> =
                match (any_s_message, zero_window, one_window) {
                    // All-⊥ stage with both leader flips available: keep
                    // the split alive.
                    (false, Some(zw), Some(ow)) => {
                        if i % 2 == 0 {
                            zw.to_vec()
                        } else {
                            ow.to_vec()
                        }
                    }
                    // The coin cannot be split this stage (or S-messages
                    // are in play): deliver everything.
                    _ => batch.clone(),
                };
            for (from, msg) in assignment {
                if from != me {
                    m.ingest(from, msg);
                }
            }
            let mut rng = seeds.step_rng(me, LocalClock::new(stage * 2 + 1));
            for out in m.poll(&mut rng) {
                first_msgs.push((me, out));
            }
        }
        if machines.iter().all(|m| m.decision().is_some()) {
            return AntiLeaderOutcome {
                stages: stage,
                decided: true,
            };
        }
    }
    AntiLeaderOutcome {
        stages: max_stages,
        decided: false,
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{SeedCollection, TimingParams};
    use rtc_sim::adversaries::{RandomAdversary, SynchronousAdversary};
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    #[test]
    fn unanimous_input_decides_that_value() {
        let procs = cms_population(5, 2, &[Value::One; 5]);
        let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(3))
            .fault_budget(2)
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(5), RunLimits::default())
            .unwrap();
        assert!(report.all_nonfaulty_decided());
        assert_eq!(report.decided_values(), vec![Value::One]);
    }

    #[test]
    fn mixed_inputs_reach_agreement_quickly_with_no_faults() {
        for seed in 0..10u64 {
            let inputs = [
                Value::One,
                Value::Zero,
                Value::One,
                Value::Zero,
                Value::Zero,
            ];
            let procs = cms_population(5, 2, &inputs);
            let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
                .fault_budget(2)
                .build(procs)
                .unwrap();
            let report = sim
                .run(&mut SynchronousAdversary::new(5), RunLimits::default())
                .unwrap();
            assert!(report.all_nonfaulty_decided(), "seed {seed}");
            assert!(report.agreement_holds(), "seed {seed}");
        }
    }

    #[test]
    fn safety_holds_under_random_schedules() {
        for seed in 0..10u64 {
            let inputs = [Value::One, Value::Zero, Value::One];
            let procs = cms_population(3, 1, &inputs);
            let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(seed))
                .fault_budget(1)
                .build(procs)
                .unwrap();
            let mut adv = RandomAdversary::new(seed).deliver_prob(0.6);
            let report = sim.run(&mut adv, RunLimits::default()).unwrap();
            assert!(report.agreement_holds(), "seed {seed}");
        }
    }
}
