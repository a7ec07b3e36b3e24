//! Protocol 1: the asynchronous agreement subroutine (paper, Section 3.1).
//!
//! A modification of Ben-Or's randomized asynchronous agreement protocol
//! in which a list of pre-flipped *shared* coins replaces the local coin
//! for the first `|coins|` stages. Each stage `s` has two message
//! exchanges:
//!
//! 1. broadcast `(1, s, x_p)`; wait for `n − t` messages `(1, s, *)`;
//!    if more than `n/2` of the received first-exchange messages carry
//!    the same value `v`, broadcast `(2, s, v)`, else broadcast
//!    `(2, s, ⊥)`;
//! 2. wait for `n − t` messages `(2, s, *)`. If an *S-message*
//!    `(2, s, v)` (one with `v ≠ ⊥`) was received, set `x_p ← v`; if at
//!    least `n − t` S-messages for `v` were received, decide `v` — or, if
//!    already decided, **return** `v` (exit the subroutine and fall
//!    silent). If no S-message was received, set `x_p` from the shared
//!    coin `coins[s]` when `s ≤ |coins|`, else from a local flip.
//!
//! With `|coins| ≥ n` every nonfaulty processor decides within a small
//! constant expected number of stages (Lemma 8: fewer than 4), because in
//! each stage all processors that consult a coin consult the *same* coin,
//! which matches any S-message value with probability 1/2.
//!
//! The [`Agreement`] type is an embeddable state machine (Protocol 2
//! drives one); [`AgreementAutomaton`] wraps it as a standalone
//! [`rtc_model::Automaton`] solving the agreement problem.

use std::collections::BTreeMap;
use std::fmt;

use std::sync::Arc;

use rtc_model::{Automaton, Outbox, ProcessorId, Status, StepRng, Value};

use crate::coins::CoinList;

/// A Protocol 1 message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgreementMsg {
    /// The first-exchange message `(1, s, v)`.
    First {
        /// The stage.
        stage: u64,
        /// The sender's local value.
        value: Value,
    },
    /// The second-exchange message `(2, s, v)` (an S-message when
    /// `value` is `Some`, the "I don't know" marker `⊥` when `None`).
    Second {
        /// The stage.
        stage: u64,
        /// `Some(v)` for an S-message, `None` for `⊥`.
        value: Option<Value>,
    },
}

impl AgreementMsg {
    /// The stage this message belongs to.
    pub fn stage(&self) -> u64 {
        match self {
            AgreementMsg::First { stage, .. } | AgreementMsg::Second { stage, .. } => *stage,
        }
    }
}

/// Which wait the processor is currently blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiting {
    /// Instruction 2: waiting for `n − t` first-exchange messages.
    First,
    /// Instruction 6: waiting for `n − t` second-exchange messages.
    Second,
}

/// Per-stage bulletin board: who sent what, deduplicated by sender.
///
/// Dense per-processor tables, not search trees: the board is posted to
/// on every `Agree` delivery — the per-message hot path of the whole
/// commit run — so a post must be an index plus a counter bump.
#[derive(Clone, Debug)]
struct StageBoard {
    /// `first[p]` = the first-exchange value heard from `p`.
    first: Vec<Option<Value>>,
    first_count: usize,
    /// `second[p]` = the second-exchange message heard from `p`
    /// (`Some(None)` is a posted `⊥`).
    second: Vec<Option<Option<Value>>>,
    second_count: usize,
}

impl StageBoard {
    fn new(n: usize) -> StageBoard {
        StageBoard {
            first: vec![None; n],
            first_count: 0,
            second: vec![None; n],
            second_count: 0,
        }
    }

    /// Posts a first-exchange value from `from` (first one counts).
    fn post_first(&mut self, from: ProcessorId, v: Value) {
        let slot = &mut self.first[from.index()];
        if slot.is_none() {
            *slot = Some(v);
            self.first_count += 1;
        }
    }

    /// Posts a second-exchange message from `from` (first one counts).
    fn post_second(&mut self, from: ProcessorId, v: Option<Value>) {
        let slot = &mut self.second[from.index()];
        if slot.is_none() {
            *slot = Some(v);
            self.second_count += 1;
        }
    }
}

/// The embeddable Protocol 1 state machine.
///
/// Drive it with [`Agreement::start`], [`Agreement::ingest`] and
/// [`Agreement::poll`]; broadcast every returned message to all *other*
/// processors (the machine posts its own copy internally).
#[derive(Clone)]
pub struct Agreement {
    id: ProcessorId,
    n: usize,
    t: usize,
    coins: Arc<CoinList>,
    x: Value,
    stage: u64,
    waiting: Waiting,
    boards: BTreeMap<u64, StageBoard>,
    started: bool,
    decided: Option<(Value, u64)>,
    halted: bool,
    local_flips: u64,
}

impl Agreement {
    /// Creates the machine for processor `id` of a population of `n`
    /// with fault bound `t`, input `x`, and shared `coins`.
    ///
    /// The coins are taken as anything convertible to `Arc<CoinList>`:
    /// pass a bare `CoinList` for a standalone machine, or an
    /// `Arc<CoinList>` clone to share one flip allocation across a
    /// whole population (what Protocol 2's piggybacking does).
    ///
    /// # Panics
    ///
    /// Panics unless `n > 2t` (the protocol's standing assumption in
    /// Section 3) and `id < n`.
    pub fn new(
        id: ProcessorId,
        n: usize,
        t: usize,
        x: Value,
        coins: impl Into<Arc<CoinList>>,
    ) -> Agreement {
        let coins = coins.into();
        assert!(n > 2 * t, "protocol 1 requires n > 2t (n = {n}, t = {t})");
        assert!(id.index() < n, "processor id out of range");
        Agreement {
            id,
            n,
            t,
            coins,
            x,
            stage: 1,
            waiting: Waiting::First,
            boards: BTreeMap::new(),
            started: false,
            decided: None,
            halted: false,
            local_flips: 0,
        }
    }

    /// The quorum size `n − t`.
    fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Begins stage 1: broadcast `(1, 1, x)`.
    ///
    /// Returns the messages to broadcast. Idempotent: subsequent calls
    /// return nothing.
    pub fn start(&mut self) -> Vec<AgreementMsg> {
        if self.started {
            return Vec::new();
        }
        self.started = true;
        let msg = AgreementMsg::First {
            stage: 1,
            value: self.x,
        };
        self.ingest(self.id, msg);
        vec![msg]
    }

    /// Posts a received message on the bulletin board.
    ///
    /// Messages for the current or any later stage are accepted at any
    /// time (a processor may run ahead of its peers); duplicates from
    /// the same sender for the same exchange are ignored, which cannot
    /// occur in the fail-stop model but keeps the board robust.
    ///
    /// A message for a stage already left behind, or any message once
    /// the machine has returned, is dropped: [`Agreement::poll`] reads
    /// only the current stage's board and nothing would ever free the
    /// board such a message opened.
    pub fn ingest(&mut self, from: ProcessorId, msg: AgreementMsg) {
        if self.halted || msg.stage() < self.stage {
            return;
        }
        let n = self.n;
        let board = self
            .boards
            .entry(msg.stage())
            .or_insert_with(|| StageBoard::new(n));
        match msg {
            AgreementMsg::First { value, .. } => board.post_first(from, value),
            AgreementMsg::Second { value, .. } => board.post_second(from, value),
        }
    }

    /// Re-evaluates the current wait conditions, advancing as many
    /// instructions as the board allows. Returns messages to broadcast.
    pub fn poll(&mut self, rng: &mut StepRng) -> Vec<AgreementMsg> {
        let mut out = Vec::new();
        if !self.started || self.halted {
            return out;
        }
        loop {
            let quorum = self.quorum();
            let stage = self.stage;
            let n = self.n;
            match self.waiting {
                Waiting::First => {
                    let board = self
                        .boards
                        .entry(stage)
                        .or_insert_with(|| StageBoard::new(n));
                    if board.first_count < quorum {
                        break;
                    }
                    // Instruction 3: strict majority of the population
                    // size among the first-exchange messages received.
                    let mut counts = [0usize; 2];
                    for v in board.first.iter().flatten() {
                        counts[v.as_u8() as usize] += 1;
                    }
                    let second_value = if 2 * counts[1] > self.n {
                        Some(Value::One)
                    } else if 2 * counts[0] > self.n {
                        Some(Value::Zero)
                    } else {
                        None
                    };
                    let msg = AgreementMsg::Second {
                        stage,
                        value: second_value,
                    };
                    self.ingest(self.id, msg);
                    out.push(msg);
                    self.waiting = Waiting::Second;
                }
                Waiting::Second => {
                    let board = self
                        .boards
                        .entry(stage)
                        .or_insert_with(|| StageBoard::new(n));
                    if board.second_count < quorum {
                        break;
                    }
                    // Gather S-message statistics.
                    let mut s_value: Option<Value> = None;
                    let mut s_count = 0usize;
                    for v in board.second.iter().flatten().flatten() {
                        match s_value {
                            None => {
                                s_value = Some(*v);
                                s_count = 1;
                            }
                            Some(sv) => {
                                // Lemma 2: in the fail-stop model only one
                                // value can appear in S-messages per stage.
                                debug_assert_eq!(sv, *v, "conflicting S-messages in stage");
                                s_count += 1;
                            }
                        }
                    }
                    match s_value {
                        None => {
                            // Instruction 8: shared coin, else local flip.
                            self.x = self.coins.get(stage).unwrap_or_else(|| {
                                self.local_flips += 1;
                                Value::from_bool(rng.bit())
                            });
                        }
                        Some(v) => {
                            self.x = v;
                            if s_count >= quorum {
                                if self.decided.is_some() {
                                    // Instruction 13: return(v).
                                    self.halted = true;
                                    return out;
                                }
                                // Instruction 14: decide v.
                                self.decided = Some((v, stage));
                            }
                        }
                    }
                    // Proceed to the next stage.
                    self.boards.remove(&stage.saturating_sub(2));
                    self.stage += 1;
                    self.waiting = Waiting::First;
                    let msg = AgreementMsg::First {
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

    /// The messages this machine has already broadcast for its current
    /// (and still-boarded previous) stage, for re-transmission after a
    /// crash–restart: the crash may have dropped the original sends,
    /// leaving peers one message short of a quorum forever. Receivers
    /// deduplicate by sender, so re-sending is idempotent.
    pub fn resend_current(&self) -> Vec<AgreementMsg> {
        if !self.started || self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        for stage in [self.stage.saturating_sub(1), self.stage] {
            if stage == 0 {
                continue;
            }
            if let Some(board) = self.boards.get(&stage) {
                if let Some(v) = board.first[self.id.index()] {
                    out.push(AgreementMsg::First { stage, value: v });
                }
                if let Some(v) = board.second[self.id.index()] {
                    out.push(AgreementMsg::Second { stage, value: v });
                }
            }
        }
        out
    }

    /// The decided value and the stage at which the decision happened.
    pub fn decision(&self) -> Option<(Value, u64)> {
        self.decided
    }

    /// Whether the machine has returned from the subroutine (and fallen
    /// silent).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The machine's status in [`rtc_model::Status`] terms.
    pub fn status(&self) -> Status {
        match (self.decided, self.halted) {
            (Some((v, _)), true) => Status::Halted(v),
            (Some((v, _)), false) => Status::Decided(v),
            (None, _) => Status::Undecided,
        }
    }

    /// This machine's processor id.
    pub fn id(&self) -> ProcessorId {
        self.id
    }

    /// The current local value `x_p`.
    pub fn local_value(&self) -> Value {
        self.x
    }

    /// The stage currently being executed (1-based).
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// How many times the machine fell back to a local coin flip
    /// (always 0 while `|coins| ≥` the stage count — the Ben-Or
    /// degradation indicator).
    pub fn local_flips(&self) -> u64 {
        self.local_flips
    }
}

impl fmt::Debug for Agreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Agreement")
            .field("id", &self.id)
            .field("stage", &self.stage)
            .field("waiting", &self.waiting)
            .field("x", &self.x)
            .field("decided", &self.decided)
            .field("halted", &self.halted)
            .finish()
    }
}

/// The wire format of [`AgreementAutomaton`]: all the Protocol 1
/// messages a processor emits at one step, bundled so that each
/// destination receives at most one message per step (the model's
/// one-message-per-destination rule). Built once per step and broadcast
/// once.
pub type AgreementBundle = Vec<AgreementMsg>;

/// Protocol 1 as a standalone automaton solving the agreement problem.
///
/// Useful on its own (e.g. for the Lemma 8 stage-count experiments) and
/// as the shape baselines share.
#[derive(Debug)]
pub struct AgreementAutomaton {
    inner: Agreement,
    n: usize,
}

impl AgreementAutomaton {
    /// Creates the automaton for processor `id` with input `x`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 2t` and `id < n`.
    pub fn new(
        id: ProcessorId,
        n: usize,
        t: usize,
        x: Value,
        coins: impl Into<Arc<CoinList>>,
    ) -> AgreementAutomaton {
        AgreementAutomaton {
            inner: Agreement::new(id, n, t, x, coins),
            n,
        }
    }

    /// Access to the embedded state machine.
    pub fn agreement(&self) -> &Agreement {
        &self.inner
    }
}

impl Automaton for AgreementAutomaton {
    type Msg = AgreementBundle;

    fn id(&self) -> ProcessorId {
        self.inner.id
    }

    fn population(&self) -> usize {
        self.n
    }

    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a AgreementBundle)>,
        rng: &mut StepRng,
        out: &mut Outbox<AgreementBundle>,
    ) {
        let mut broadcasts = self.inner.start();
        for (from, bundle) in inbox {
            for msg in bundle {
                self.inner.ingest(from, *msg);
            }
        }
        broadcasts.extend(self.inner.poll(rng));
        if !broadcasts.is_empty() {
            out.broadcast(broadcasts);
        }
    }

    fn status(&self) -> Status {
        self.inner.status()
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::{LocalClock, SeedCollection};

    use super::*;

    fn rng_for(p: usize, step: u64) -> StepRng {
        SeedCollection::new(5).step_rng(ProcessorId::new(p), LocalClock::new(step))
    }

    fn coins(vals: &[Value]) -> CoinList {
        CoinList::from_values(vals.to_vec())
    }

    /// Hand-delivers all broadcasts among a set of Agreement machines
    /// until quiescence; returns the number of delivery sweeps.
    fn run_lockstep(machines: &mut [Agreement], max_sweeps: usize) -> usize {
        let mut pending: Vec<(ProcessorId, AgreementMsg)> = Vec::new();
        for m in machines.iter_mut() {
            let id = m.id;
            for msg in m.start() {
                pending.push((id, msg));
            }
        }
        for sweep in 0..max_sweeps {
            if pending.is_empty() {
                return sweep;
            }
            let batch = std::mem::take(&mut pending);
            for (from, msg) in batch {
                for m in machines.iter_mut() {
                    if m.id != from {
                        m.ingest(from, msg);
                    }
                }
            }
            for m in machines.iter_mut() {
                let mut rng = rng_for(m.id.index(), 1000 + m.stage);
                let id = m.id;
                for msg in m.poll(&mut rng) {
                    pending.push((id, msg));
                }
            }
        }
        max_sweeps
    }

    fn population(n: usize, t: usize, inputs: &[Value], cl: CoinList) -> Vec<Agreement> {
        let cl = Arc::new(cl);
        (0..n)
            .map(|i| Agreement::new(ProcessorId::new(i), n, t, inputs[i], Arc::clone(&cl)))
            .collect()
    }

    #[test]
    #[should_panic(expected = "n > 2t")]
    fn rejects_too_many_faults() {
        let _ = Agreement::new(ProcessorId::new(0), 4, 2, Value::One, coins(&[]));
    }

    #[test]
    fn unanimous_one_decides_one_in_stage_one() {
        let mut ms = population(3, 1, &[Value::One; 3], coins(&[Value::Zero; 4]));
        run_lockstep(&mut ms, 50);
        for m in &ms {
            let (v, stage) = m.decision().expect("decided");
            assert_eq!(v, Value::One);
            assert_eq!(
                stage, 1,
                "Lemma 1: unanimous input decides in its first stage"
            );
        }
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut ms = population(5, 2, &[Value::Zero; 5], coins(&[Value::One; 8]));
        run_lockstep(&mut ms, 50);
        for m in &ms {
            assert_eq!(m.decision().unwrap().0, Value::Zero);
        }
    }

    #[test]
    fn mixed_inputs_agree_on_something() {
        let inputs = [Value::One, Value::Zero, Value::One, Value::Zero, Value::One];
        let mut ms = population(5, 2, &inputs, coins(&[Value::One; 16]));
        run_lockstep(&mut ms, 200);
        let decisions: Vec<Value> = ms.iter().map(|m| m.decision().unwrap().0).collect();
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "agreement violated: {decisions:?}"
        );
    }

    #[test]
    fn shared_coins_prevent_local_flips() {
        let inputs = [
            Value::One,
            Value::Zero,
            Value::One,
            Value::Zero,
            Value::Zero,
        ];
        let mut ms = population(5, 2, &inputs, coins(&[Value::Zero; 32]));
        run_lockstep(&mut ms, 200);
        for m in &ms {
            assert_eq!(m.local_flips(), 0, "no local flips while coins last");
        }
    }

    #[test]
    fn empty_coins_fall_back_to_local_flips_and_still_agree() {
        // Ben-Or mode: local flips only. With a benign lockstep schedule
        // the processors still converge (slowly at worst).
        let inputs = [Value::One, Value::Zero, Value::One];
        let mut ms = population(3, 1, &inputs, coins(&[]));
        run_lockstep(&mut ms, 2000);
        let decisions: Vec<Value> = ms.iter().map(|m| m.decision().unwrap().0).collect();
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn halts_one_stage_after_deciding() {
        let mut ms = population(3, 1, &[Value::One; 3], coins(&[Value::Zero; 4]));
        run_lockstep(&mut ms, 100);
        for m in &ms {
            assert!(
                m.halted(),
                "lockstep run should reach the return(v) instruction"
            );
            assert_eq!(m.status(), Status::Halted(Value::One));
        }
    }

    #[test]
    fn duplicate_messages_do_not_inflate_quorums() {
        let mut m = Agreement::new(ProcessorId::new(0), 3, 1, Value::One, coins(&[]));
        m.start();
        // One peer repeats itself; quorum is 2 distinct senders — own
        // message plus one peer — so this suffices, but the duplicate
        // must not count as a third distinct first-exchange message.
        m.ingest(
            ProcessorId::new(1),
            AgreementMsg::First {
                stage: 1,
                value: Value::Zero,
            },
        );
        m.ingest(
            ProcessorId::new(1),
            AgreementMsg::First {
                stage: 1,
                value: Value::One,
            },
        );
        let mut rng = rng_for(0, 1);
        let out = m.poll(&mut rng);
        // Quorum of 2 reached: one second-exchange broadcast, and with a
        // 1-1 split there is no majority, so it is ⊥.
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0],
            AgreementMsg::Second {
                stage: 1,
                value: None
            }
        );
    }

    #[test]
    fn stale_and_post_return_messages_open_no_board() {
        let stale_from = |q: usize, stage: u64| {
            (
                ProcessorId::new(q),
                AgreementMsg::Second {
                    stage,
                    value: Some(Value::One),
                },
            )
        };
        let mut ms = population(3, 1, &[Value::One; 3], coins(&[Value::Zero; 4]));
        // Run p0 alone against hand-fed peers up to stage 3.
        let m = &mut ms[0];
        m.start();
        let mut rng = rng_for(0, 1);
        for stage in 1..=2 {
            for q in [1, 2] {
                m.ingest(
                    ProcessorId::new(q),
                    AgreementMsg::First {
                        stage,
                        value: Value::One,
                    },
                );
                let (from, second) = stale_from(q, stage);
                m.ingest(from, second);
            }
            m.poll(&mut rng);
        }
        assert!(m.halted(), "decided in stage 1, returned in stage 2");
        let boards = m.boards.len();
        // A duplicate of stage 1, and anything at all after the return.
        for stage in [1, 2, 3, 9] {
            let (from, msg) = stale_from(1, stage);
            m.ingest(from, msg);
        }
        assert_eq!(m.boards.len(), boards);

        // A live machine in stage 2: stage 1 is behind it, stage 2 and
        // later are not.
        let m = &mut ms[1];
        m.start();
        for q in [0, 2] {
            m.ingest(
                ProcessorId::new(q),
                AgreementMsg::First {
                    stage: 1,
                    value: Value::One,
                },
            );
        }
        m.poll(&mut rng);
        for q in [0, 2] {
            let (from, msg) = stale_from(q, 1);
            m.ingest(from, msg);
        }
        m.poll(&mut rng);
        assert_eq!((m.stage(), m.halted()), (2, false));
        m.boards.remove(&1);
        let (from, msg) = stale_from(0, 1);
        m.ingest(from, msg);
        assert!(!m.boards.contains_key(&1), "a stale message opens no board");
        let (from, msg) = stale_from(0, 3);
        m.ingest(from, msg);
        assert!(m.boards.contains_key(&3), "a future stage still buffers");
    }

    #[test]
    fn early_messages_for_future_stages_are_buffered() {
        let mut m = Agreement::new(
            ProcessorId::new(0),
            3,
            1,
            Value::One,
            coins(&[Value::One; 4]),
        );
        m.start();
        // Stage 2 traffic arrives before stage 1 completes.
        m.ingest(
            ProcessorId::new(1),
            AgreementMsg::First {
                stage: 2,
                value: Value::One,
            },
        );
        let mut rng = rng_for(0, 1);
        assert!(m.poll(&mut rng).is_empty(), "stage 1 quorum not yet met");
        m.ingest(
            ProcessorId::new(2),
            AgreementMsg::First {
                stage: 1,
                value: Value::One,
            },
        );
        let out = m.poll(&mut rng);
        assert!(!out.is_empty());
    }

    #[test]
    fn automaton_wrapper_fans_out_to_peers() {
        let mut a = AgreementAutomaton::new(
            ProcessorId::new(0),
            3,
            1,
            Value::One,
            coins(&[Value::One; 4]),
        );
        let mut rng = rng_for(0, 0);
        let sends = a.step(&[], &mut rng);
        // First step broadcasts (1, 1, x) to the two peers.
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|s| s.to != ProcessorId::new(0)));
    }
}
