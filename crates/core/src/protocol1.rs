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

use std::fmt;
use std::sync::Arc;

use rtc_model::{Automaton, Outbox, ProcessorId, Status, StepRng, Value};

use crate::coins::CoinList;
use crate::hot::PEERS_INLINE;
use crate::inline::InlineVec;

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

/// A first-exchange message from this peer is posted.
const FIRST: u8 = 0b0_0001;
/// The posted first-exchange value is [`Value::One`].
const FIRST_ONE: u8 = 0b0_0010;
/// A second-exchange message from this peer is posted.
const SECOND: u8 = 0b0_0100;
/// The posted second-exchange message is an S-message (not `⊥`).
const SECOND_S: u8 = 0b0_1000;
/// The posted S-message's value is [`Value::One`].
const SECOND_ONE: u8 = 0b1_0000;

/// Per-stage bulletin board: who sent what, deduplicated by sender.
///
/// One byte per peer packs both exchanges, the way
/// [`VoteBoard`](crate::VoteBoard) packs `GO` and vote: the board is
/// posted to on every `Agree` delivery — the per-message hot path of
/// the whole commit run — so a post must be an index plus a counter
/// bump, and up to `PEERS_INLINE` peers the bytes are part of the
/// board.
#[derive(Clone, Debug, Default)]
struct StageBoard {
    cells: InlineVec<u8, PEERS_INLINE>,
    first_count: usize,
    second_count: usize,
}

impl StageBoard {
    fn new(n: usize) -> StageBoard {
        StageBoard {
            cells: InlineVec::filled(n, 0),
            first_count: 0,
            second_count: 0,
        }
    }

    /// Empties the board for a population of `n` in place: a ring slot
    /// is reused stage after stage, and a spilled board keeps its heap
    /// block.
    fn reset(&mut self, n: usize) {
        if self.cells.len() == n {
            self.cells.fill(0);
        } else {
            self.cells = InlineVec::filled(n, 0);
        }
        self.first_count = 0;
        self.second_count = 0;
    }

    /// Posts a first-exchange value from `from` (first one counts).
    fn post_first(&mut self, from: ProcessorId, v: Value) {
        let cell = &mut self.cells[from.index()];
        if *cell & FIRST == 0 {
            *cell |= FIRST | if v == Value::One { FIRST_ONE } else { 0 };
            self.first_count += 1;
        }
    }

    /// Posts a second-exchange message from `from` (first one counts).
    fn post_second(&mut self, from: ProcessorId, v: Option<Value>) {
        let cell = &mut self.cells[from.index()];
        if *cell & SECOND == 0 {
            *cell |= SECOND
                | match v {
                    None => 0,
                    Some(Value::Zero) => SECOND_S,
                    Some(Value::One) => SECOND_S | SECOND_ONE,
                };
            self.second_count += 1;
        }
    }

    fn post(&mut self, from: ProcessorId, msg: AgreementMsg) {
        match msg {
            AgreementMsg::First { value, .. } => self.post_first(from, value),
            AgreementMsg::Second { value, .. } => self.post_second(from, value),
        }
    }

    /// The first-exchange value posted by `p`, if any.
    fn first_of(&self, p: ProcessorId) -> Option<Value> {
        first_in(self.cells[p.index()])
    }

    /// The second-exchange message posted by `p`, if any (`Some(None)`
    /// is a posted `⊥`).
    fn second_of(&self, p: ProcessorId) -> Option<Option<Value>> {
        let cell = self.cells[p.index()];
        (cell & SECOND != 0).then(|| s_value_in(cell))
    }

    /// The posted first-exchange values, by processor index.
    fn firsts(&self) -> impl Iterator<Item = Value> + '_ {
        self.cells.iter().filter_map(|&cell| first_in(cell))
    }

    /// The values of the posted S-messages, by processor index.
    fn s_values(&self) -> impl Iterator<Item = Value> + '_ {
        self.cells.iter().filter_map(|&cell| s_value_in(cell))
    }
}

fn first_in(cell: u8) -> Option<Value> {
    (cell & FIRST != 0).then(|| Value::from_bool(cell & FIRST_ONE != 0))
}

fn s_value_in(cell: u8) -> Option<Value> {
    (cell & SECOND_S != 0).then(|| Value::from_bool(cell & SECOND_ONE != 0))
}

/// Stage boards held in place in the machine, as a ring. Protocol 1
/// reads only the current stage's board, re-sends from the previous
/// stage's after a restart, and a peer one exchange ahead has already
/// posted to the next one: three boards are the working set whenever
/// delivery keeps peers within a stage of each other. That is every
/// synchronous run, all 36 schedules of the batch-equivalence corpus and
/// 107 of the scheduler corpus's 108, when the boards were counted (the
/// other held a fourth board on 3 of its 16 machines: docs/PERF.md
/// "PR 19"). A peer further ahead than that posts to the spill list, a
/// `Vec` allocated at its first such post.
const LIVE_STAGES: usize = 3;

/// The ring slot that holds `stage`'s board while it is live.
fn ring_slot(stage: u64) -> usize {
    (stage % LIVE_STAGES as u64) as usize
}

/// A machine's stage boards. While the machine is at stage `s`, the
/// boards of stages `s − 1 ..= s + 1` sit in a fixed ring, stage `q` in
/// slot `q % 3`, so finding one is an index, and the boards of later
/// stages wait in the spill list. Each ring slot is tagged with the
/// stage its board belongs to; tag 0 is an empty slot (stages start at
/// 1), and every tag is 0 or a stage of the window. Opening a board
/// resets its slot in place.
#[derive(Clone, Default)]
struct Boards {
    ring: [(u64, StageBoard); LIVE_STAGES],
    /// `(stage, board)` for stages past `s + 1`, unordered.
    spill: Vec<(u64, StageBoard)>,
}

impl Boards {
    /// The board of `stage`, if it is open.
    fn get(&self, stage: u64) -> Option<&StageBoard> {
        let (tag, board) = &self.ring[ring_slot(stage)];
        // An empty slot's tag is 0, and stage 0 (the one before stage
        // 1) has no board.
        if stage != 0 && *tag == stage {
            return Some(board);
        }
        self.spill
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, board)| board)
    }

    /// The board of `stage`, at or after the machine's `current` one,
    /// opened if this is its first post.
    fn open(&mut self, n: usize, current: u64, stage: u64) -> &mut StageBoard {
        debug_assert!(stage >= current, "stage {stage} is behind {current}");
        if stage > current + 1 {
            let at = match self.spill.iter().position(|(s, _)| *s == stage) {
                Some(at) => at,
                None => {
                    self.spill.push((stage, StageBoard::new(n)));
                    self.spill.len() - 1
                }
            };
            return &mut self.spill[at].1;
        }
        let (tag, board) = &mut self.ring[ring_slot(stage)];
        if *tag != stage {
            *tag = stage;
            board.reset(n);
        }
        board
    }

    /// The board of the `current` stage, which is always open.
    fn current(&mut self, current: u64) -> &mut StageBoard {
        let (tag, board) = &mut self.ring[ring_slot(current)];
        debug_assert_eq!(*tag, current, "the current stage's board is open");
        board
    }

    /// The machine moves from `stage` to `stage + 1`: the board of
    /// `stage − 1` has no reader left, and its slot takes `stage + 2`,
    /// from the spill list if a peer got there first.
    fn advance(&mut self, stage: u64) {
        let next = stage + 2;
        let slot = &mut self.ring[ring_slot(next)];
        match self.spill.iter().position(|(s, _)| *s == next) {
            Some(at) => *slot = self.spill.swap_remove(at),
            None => slot.0 = 0,
        }
    }
}

/// The embeddable Protocol 1 state machine.
///
/// Drive it with [`Agreement::start`], [`Agreement::ingest`] and
/// [`Agreement::poll`]; broadcast every returned message to all *other*
/// processors (the machine posts its own copy internally). A caller
/// that steps many machines hands [`Agreement::start_into`] and
/// [`Agreement::poll_into`] a sink instead and allocates nothing.
///
/// The machine's state is inline: the boards of the stages in flight
/// are part of it — a ring of three, of up to 16 processors each; a peer
/// more than a stage ahead posts to a spill list, and a larger
/// population's boards are one heap block each — so the only heap
/// object a machine normally refers to is the shared coin list.
#[derive(Clone)]
pub struct Agreement {
    id: ProcessorId,
    n: usize,
    t: usize,
    /// `None` only on a machine Protocol 2 has not given its input yet.
    coins: Option<Arc<CoinList>>,
    x: Value,
    stage: u64,
    waiting: Waiting,
    /// The boards of the previous stage, the current one and every later
    /// stage something was posted for.
    boards: Boards,
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
        let mut machine = Agreement::awaiting_input(id, n, t);
        machine.set_input(x, coins.into());
        machine
    }

    /// The machine as Protocol 2 holds it before instruction 12: it has
    /// no input and no coins yet and cannot start, but a peer that got
    /// there first may already be sending, and those messages are
    /// posted ([`Agreement::ingest`]) exactly as they will be once it
    /// runs — a post is first-write-wins per sender and depends on
    /// neither `x_p` nor the coins.
    ///
    /// # Panics
    ///
    /// As [`Agreement::new`].
    pub(crate) fn awaiting_input(id: ProcessorId, n: usize, t: usize) -> Agreement {
        assert!(n > 2 * t, "protocol 1 requires n > 2t (n = {n}, t = {t})");
        assert!(id.index() < n, "processor id out of range");
        Agreement {
            id,
            n,
            t,
            coins: None,
            x: Value::Zero,
            stage: 1,
            waiting: Waiting::First,
            boards: Boards::default(),
            started: false,
            decided: None,
            halted: false,
            local_flips: 0,
        }
    }

    /// Gives a machine made by [`Agreement::awaiting_input`] its input
    /// and the shared coins; it can then [`Agreement::start_into`].
    pub(crate) fn set_input(&mut self, x: Value, coins: Arc<CoinList>) {
        debug_assert!(!self.started, "the input is fixed before stage 1");
        self.x = x;
        self.coins = Some(coins);
    }

    /// Whether stage 1 has begun.
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// The first-exchange value on `stage`'s board for `p`, if any.
    #[cfg(test)]
    pub(crate) fn posted_first(&self, stage: u64, p: ProcessorId) -> Option<Value> {
        self.boards.get(stage)?.first_of(p)
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
        let mut out = Vec::new();
        self.start_into(&mut |msg| out.push(msg));
        out
    }

    /// [`Agreement::start`], handing the messages to `sink`.
    pub fn start_into(&mut self, sink: &mut impl FnMut(AgreementMsg)) {
        if self.started {
            return;
        }
        debug_assert!(self.coins.is_some(), "started without an input");
        self.started = true;
        self.boards.open(self.n, 1, 1).post_first(self.id, self.x);
        sink(AgreementMsg::First {
            stage: 1,
            value: self.x,
        });
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
        self.boards
            .open(self.n, self.stage, msg.stage())
            .post(from, msg);
    }

    /// Re-evaluates the current wait conditions, advancing as many
    /// instructions as the board allows. Returns messages to broadcast.
    pub fn poll(&mut self, rng: &mut StepRng) -> Vec<AgreementMsg> {
        let mut out = Vec::new();
        self.poll_into(rng, &mut |msg| out.push(msg));
        out
    }

    /// [`Agreement::poll`], handing the messages to `sink`.
    pub fn poll_into(&mut self, rng: &mut StepRng, sink: &mut impl FnMut(AgreementMsg)) {
        if !self.started || self.halted {
            return;
        }
        loop {
            let quorum = self.quorum();
            let stage = self.stage;
            let board = self.boards.current(stage);
            match self.waiting {
                Waiting::First => {
                    if board.first_count < quorum {
                        break;
                    }
                    // Instruction 3: strict majority of the population
                    // size among the first-exchange messages received.
                    let mut counts = [0usize; 2];
                    for v in board.firsts() {
                        counts[v.as_u8() as usize] += 1;
                    }
                    let second_value = if 2 * counts[1] > self.n {
                        Some(Value::One)
                    } else if 2 * counts[0] > self.n {
                        Some(Value::Zero)
                    } else {
                        None
                    };
                    board.post_second(self.id, second_value);
                    sink(AgreementMsg::Second {
                        stage,
                        value: second_value,
                    });
                    self.waiting = Waiting::Second;
                }
                Waiting::Second => {
                    if board.second_count < quorum {
                        break;
                    }
                    // Gather S-message statistics.
                    let mut s_value: Option<Value> = None;
                    let mut s_count = 0usize;
                    for v in board.s_values() {
                        // Lemma 2: in the fail-stop model only one
                        // value can appear in S-messages per stage.
                        let sv = *s_value.get_or_insert(v);
                        debug_assert_eq!(sv, v, "conflicting S-messages in stage");
                        s_count += 1;
                    }
                    match s_value {
                        None => {
                            // Instruction 8: shared coin, else local flip.
                            let shared = self.coins.as_ref().and_then(|coins| coins.get(stage));
                            self.x = shared.unwrap_or_else(|| {
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
                                    self.boards = Boards::default();
                                    return;
                                }
                                // Instruction 14: decide v.
                                self.decided = Some((v, stage));
                            }
                        }
                    }
                    // Proceed to the next stage. This stage's board
                    // stays for `resend_current`.
                    self.boards.advance(stage);
                    self.stage += 1;
                    self.waiting = Waiting::First;
                    self.boards
                        .open(self.n, self.stage, self.stage)
                        .post_first(self.id, self.x);
                    sink(AgreementMsg::First {
                        stage: self.stage,
                        value: self.x,
                    });
                }
            }
        }
    }

    /// The messages this machine has already broadcast for its current
    /// (and still-boarded previous) stage, handed to `sink` for
    /// re-transmission after a crash–restart: the crash may have
    /// dropped the original sends, leaving peers one message short of a
    /// quorum forever. Receivers deduplicate by sender, so re-sending
    /// is idempotent.
    pub fn resend_current(&self, sink: &mut impl FnMut(AgreementMsg)) {
        if !self.started || self.halted {
            return;
        }
        for stage in [self.stage - 1, self.stage] {
            let Some(board) = self.boards.get(stage) else {
                continue;
            };
            if let Some(value) = board.first_of(self.id) {
                sink(AgreementMsg::First { stage, value });
            }
            if let Some(value) = board.second_of(self.id) {
                sink(AgreementMsg::Second { stage, value });
            }
        }
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
        let mut broadcasts = Vec::new();
        self.inner.start_into(&mut |msg| broadcasts.push(msg));
        for (from, bundle) in inbox {
            for msg in bundle {
                self.inner.ingest(from, *msg);
            }
        }
        self.inner.poll_into(rng, &mut |msg| broadcasts.push(msg));
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
    use std::collections::BTreeMap;

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
        assert!(
            open_stages(m).is_empty(),
            "a returned machine keeps no board"
        );
        // A duplicate of stage 1, and anything at all after the return.
        for stage in [1, 2, 3, 9] {
            let (from, msg) = stale_from(1, stage);
            m.ingest(from, msg);
        }
        assert!(open_stages(m).is_empty());

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
        assert_eq!(
            open_stages(m),
            [1, 2],
            "the stage just left stays for a re-send"
        );
        // Empty stage 1's slot: a stale message must not reopen it.
        m.boards.ring[ring_slot(1)].0 = 0;
        let (from, msg) = stale_from(0, 1);
        m.ingest(from, msg);
        assert_eq!(open_stages(m), [2], "a stale message opens no board");
        let (from, msg) = stale_from(0, 3);
        m.ingest(from, msg);
        assert_eq!(open_stages(m), [2, 3], "a future stage still buffers");
        assert!(
            spilled_stages(m).is_empty(),
            "the next stage is in the ring"
        );
    }

    /// The stages `m` holds a board for, in the ring or the spill list,
    /// ascending.
    fn open_stages(m: &Agreement) -> Vec<u64> {
        let ring = m.boards.ring.iter().map(|(s, _)| *s).filter(|s| *s != 0);
        let mut stages: Vec<u64> = ring.chain(spilled_stages(m)).collect();
        stages.sort_unstable();
        stages
    }

    /// The stages whose boards are held in the spill list, ascending.
    fn spilled_stages(m: &Agreement) -> Vec<u64> {
        let mut stages: Vec<u64> = m.boards.spill.iter().map(|(s, _)| *s).collect();
        stages.sort_unstable();
        stages
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
        // Stage 2 traffic arrives before stage 1 completes: the next
        // stage's board is in the ring.
        m.ingest(
            ProcessorId::new(1),
            AgreementMsg::First {
                stage: 2,
                value: Value::One,
            },
        );
        assert_eq!((open_stages(&m), spilled_stages(&m)), (vec![1, 2], vec![]));
        // So does stage 3 and 4 traffic: past the next stage, the boards
        // are held in the spill list.
        for stage in [3, 4] {
            m.ingest(
                ProcessorId::new(1),
                AgreementMsg::Second { stage, value: None },
            );
        }
        assert_eq!(
            (open_stages(&m), spilled_stages(&m)),
            (vec![1, 2, 3, 4], vec![3, 4])
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
        // What was buffered is on the boards, spilled or not.
        let board = |stage| m.boards.get(stage).unwrap();
        assert_eq!(board(2).first_of(ProcessorId::new(1)), Some(Value::One));
        assert_eq!(board(4).second_of(ProcessorId::new(1)), Some(None));
        assert_eq!(board(4).second_of(ProcessorId::new(2)), None);
    }

    /// The trap of a tagged ring: at stage 1 the stage before is 0, and
    /// an empty slot's tag is 0 too. A machine restored at stage 1 — a
    /// clone of its state, with the next stage's board in the ring and a
    /// later one spilled — re-sends its stage-1 messages and nothing else.
    #[test]
    fn a_machine_restored_at_stage_one_resends_only_stage_one() {
        let mut m = Agreement::new(ProcessorId::new(0), 5, 2, Value::One, coins(&[]));
        m.start();
        for q in [1, 2] {
            let first = |stage| AgreementMsg::First {
                stage,
                value: Value::One,
            };
            for stage in [1, 2, 3] {
                m.ingest(ProcessorId::new(q), first(stage));
            }
        }
        let resent = |m: &Agreement| {
            let mut out = Vec::new();
            m.resend_current(&mut |msg| out.push(msg));
            out
        };
        assert_eq!(
            (open_stages(&m), spilled_stages(&m)),
            (vec![1, 2, 3], vec![3])
        );
        assert_eq!(m.boards.ring[ring_slot(0)].0, 0, "stage 0's slot is empty");
        let first = AgreementMsg::First {
            stage: 1,
            value: Value::One,
        };
        assert_eq!(resent(&m.clone()), [first]);
        // With its quorum of firsts in, the machine sends its second
        // exchange and still waits at stage 1.
        let mut rng = rng_for(0, 1);
        let second = AgreementMsg::Second {
            stage: 1,
            value: Some(Value::One),
        };
        assert_eq!(m.poll(&mut rng), [second]);
        assert_eq!(m.stage(), 1);
        assert_eq!(resent(&m.clone()), [first, second]);
    }

    /// A sender's posts on one stage of [`MapModel`]: the first exchange
    /// and the second.
    type ModelCell = (Option<Value>, Option<Option<Value>>);

    /// Protocol 1 over a `BTreeMap` of per-stage boards that keeps every
    /// board it opens: the reference the ring and its spill list are
    /// checked against.
    struct MapModel {
        id: usize,
        quorum: usize,
        n: usize,
        coins: CoinList,
        x: Value,
        stage: u64,
        second_sent: bool,
        /// Per stage, per sender: the first and the second exchange.
        boards: BTreeMap<u64, BTreeMap<usize, ModelCell>>,
    }

    impl MapModel {
        fn ingest(&mut self, from: usize, msg: AgreementMsg) {
            if msg.stage() < self.stage {
                return;
            }
            let cell = self
                .boards
                .entry(msg.stage())
                .or_default()
                .entry(from)
                .or_default();
            match msg {
                AgreementMsg::First { value, .. } => {
                    cell.0.get_or_insert(value);
                }
                AgreementMsg::Second { value, .. } => {
                    cell.1.get_or_insert(value);
                }
            }
        }

        fn send(&mut self, msg: AgreementMsg, out: &mut Vec<AgreementMsg>) {
            self.ingest(self.id, msg);
            out.push(msg);
        }

        fn poll(&mut self) -> Vec<AgreementMsg> {
            let mut out = Vec::new();
            loop {
                let stage = self.stage;
                let board = self.boards.entry(stage).or_default();
                if !self.second_sent {
                    let firsts: Vec<Value> = board.values().filter_map(|c| c.0).collect();
                    if firsts.len() < self.quorum {
                        return out;
                    }
                    let ones = firsts.iter().filter(|v| **v == Value::One).count();
                    let value = if 2 * ones > self.n {
                        Some(Value::One)
                    } else if 2 * (firsts.len() - ones) > self.n {
                        Some(Value::Zero)
                    } else {
                        None
                    };
                    self.second_sent = true;
                    self.send(AgreementMsg::Second { stage, value }, &mut out);
                } else {
                    let seconds: Vec<Option<Value>> = board.values().filter_map(|c| c.1).collect();
                    if seconds.len() < self.quorum {
                        return out;
                    }
                    let s_values: Vec<Value> = seconds.into_iter().flatten().collect();
                    match s_values.first() {
                        None => self.x = self.coins.get(stage).expect("coins last the run"),
                        Some(&v) => {
                            self.x = v;
                            assert!(s_values.len() < self.quorum, "no decision in this run");
                        }
                    }
                    self.stage += 1;
                    self.second_sent = false;
                    let first = AgreementMsg::First {
                        stage: self.stage,
                        value: self.x,
                    };
                    self.send(first, &mut out);
                }
            }
        }
    }

    /// A machine that runs nine stages while one peer runs a stage ahead
    /// of it, another three, and a third in step but missing stages,
    /// with stale and conflicting repeats mixed in: after every delivery
    /// round it has sent exactly what the map model sends, and every
    /// board it still holds — ring or spill list — reads as the model's.
    #[test]
    fn peers_one_and_three_stages_ahead_post_as_a_per_stage_map() {
        let (n, t) = (5, 2);
        for seed in 0..24u64 {
            let mut bits = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut bit = move || {
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                bits & 1 == 1
            };
            let flips: Vec<Value> = (0..16).map(|_| Value::from_bool(bit())).collect();
            let x = Value::from_bool(bit());
            let mut m = Agreement::new(ProcessorId::new(0), n, t, x, coins(&flips));
            let mut model = MapModel {
                id: 0,
                quorum: n - t,
                n,
                coins: coins(&flips),
                x,
                stage: 1,
                second_sent: false,
                boards: BTreeMap::new(),
            };
            let mut said = m.start();
            let mut expected = Vec::new();
            model.send(AgreementMsg::First { stage: 1, value: x }, &mut expected);
            // (peer, stages ahead of the machine, stages sent so far)
            let mut peers = [(1usize, 1u64, 0u64), (2, 3, 0), (3, 0, 0)];
            let mut most_spilled = 0;
            let mut rng = rng_for(0, seed);
            while m.stage() < 10 {
                for (q, ahead, sent) in &mut peers {
                    while *sent < m.stage() + *ahead {
                        *sent += 1;
                        let stage = *sent;
                        if *q == 3 && bit() {
                            continue; // a stage this peer never gets to us
                        }
                        let value = Value::from_bool(bit());
                        for msg in [
                            AgreementMsg::First { stage, value },
                            AgreementMsg::Second { stage, value: None },
                            // A conflicting repeat: the first one counts.
                            AgreementMsg::First {
                                stage,
                                value: Value::from_bool(!value.as_bool()),
                            },
                            // A stale repeat: dropped by both.
                            AgreementMsg::First {
                                stage: stage.saturating_sub(4).max(1),
                                value,
                            },
                        ] {
                            m.ingest(ProcessorId::new(*q), msg);
                            model.ingest(*q, msg);
                        }
                    }
                }
                most_spilled = most_spilled.max(m.boards.spill.len());
                said.extend(m.poll(&mut rng));
                expected.extend(model.poll());
                assert_eq!(said, expected, "seed {seed}");
                assert_eq!((m.stage(), m.local_value()), (model.stage, model.x));
                for stage in m.stage() - 1..=m.stage() + 4 {
                    let posts = model.boards.get(&stage);
                    let Some(board) = m.boards.get(stage) else {
                        assert!(posts.is_none(), "seed {seed}: stage {stage} lost");
                        continue;
                    };
                    for p in ProcessorId::all(n) {
                        let cell = posts.and_then(|b| b.get(&p.index())).copied();
                        assert_eq!(
                            (board.first_of(p), board.second_of(p)),
                            cell.unwrap_or_default(),
                            "seed {seed}: stage {stage}, {p}"
                        );
                    }
                }
            }
            assert!(m.decision().is_none());
            assert_eq!(most_spilled, 2, "stages 2 and 3 past the window");
        }
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
