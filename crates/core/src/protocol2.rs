//! Protocol 2: the randomized transaction commit protocol (Section 3.2).
//!
//! Each processor keeps a *vote* — what it currently wants to do with
//! the transaction (`0` abort, `1` commit). The coordinator (id 0) flips
//! the shared coins and floods them in `GO` messages; every processor
//! relays `GO` once to announce "I am participating". A processor that
//! does not hear `GO` from everyone within `2K` of its own clock ticks
//! changes its vote to abort. Votes are then broadcast; a processor that
//! receives `n` commit votes within `2K` ticks enters Protocol 1 with
//! input 1, otherwise with input 0. The transaction commits iff
//! Protocol 1 decides 1.
//!
//! Two details from the paper that matter for correctness:
//!
//! * **Piggybacking.** The `GO` message (with its coins) is piggybacked
//!   on *every* message, including Protocol 1's. Thus any processor that
//!   receives anything at all has the coins and can participate, even if
//!   the coordinator died mid-broadcast.
//! * **Early abort.** "Any processor that has abort as its vote can
//!   actually implement the abort" at vote-broadcast time: once `p`
//!   broadcasts an abort vote, no processor can ever collect `n` commit
//!   votes, so every input to Protocol 1 is 0 and — by Protocol 1's
//!   validity — the common decision is already fixed at abort.
//!
//! Every send of the protocol is a broadcast, so a step bundles whatever
//! it has to say — `GO`, a vote, Protocol 1 messages — into one
//! [`CommitMsg`], built once and handed to the substrate as one
//! [`Outbox::broadcast`]. The only direct sends are catch-up replies to
//! a rejoiner's ping: the same bundle extended with `Decided`, in place
//! of the broadcast at the pinger.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use rtc_model::{Automaton, Decision, Outbox, ProcessorId, Recoverable, Status, StepRng, Value};

use crate::coins::CoinList;
use crate::config::CommitConfig;
use crate::hot::VoteBoard;
use crate::inline::InlineVec;
use crate::protocol1::{Agreement, AgreementMsg};

/// The payload kinds of Protocol 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitKind {
    /// A `GO` message (original or relay); the coins ride in the
    /// envelope's piggyback slot.
    #[default]
    Go,
    /// A vote broadcast.
    Vote(Value),
    /// A Protocol 1 message.
    Agree(AgreementMsg),
    /// A decision notification. Broadcast when the
    /// [`CommitConfig::with_decision_broadcast`] extension is on, and
    /// sent directly (extension or not) as the reply to a [`CommitKind::Ping`] —
    /// the "decide-then-return" flood made explicit: re-telling a
    /// final, unique decision is always safe.
    Decided(Value),
    /// A catch-up probe from a recovered or lagging processor: "has
    /// anyone decided?". Peers that have decided — even ones that have
    /// returned from Protocol 1 and fallen silent — reply with a direct
    /// [`CommitKind::Decided`].
    Ping,
}

/// A Protocol 2 message: the payloads a processor emits at one step
/// (bundled so each destination gets at most one message per step, per
/// the model), plus the piggybacked `GO`.
///
/// The coin list is the shared view of what the coordinator flipped
/// once; the kinds are held in the message. Building a `CommitMsg` and
/// cloning one — what a channel or socket send does per destination —
/// is a reference-count bump and a copy of up to four small values, no
/// heap allocation (a fifth kind moves them to the heap: see
/// [`CommitKinds`]); the simulator keeps the one message a step
/// broadcast and clones nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitMsg {
    /// The piggybacked coins (`Some` on every message a processor sends
    /// after learning them — which is every message it can send at all,
    /// except the coordinator-less corner where coins are unknown).
    pub go: Option<Arc<CoinList>>,
    /// The payloads, in emission order. Reads as a `[CommitKind]`.
    pub kinds: CommitKinds,
}

/// Payload kinds a [`CommitMsg`] holds without a heap object. A step
/// that sends anything mostly sends one kind (a `GO`, a vote, one
/// Protocol 1 message) or two (the exchange that completes a quorum and
/// the one it opens). Of the 1 158 sending steps of the 36-schedule
/// batch-equivalence corpus 916 send one kind, 221 two, 13 three, 8 four
/// and none more; of the 7 113 of the 108-schedule scheduler corpus one
/// sends five. Past four it is a rejoiner's one-off re-broadcast or a
/// processor handed several stages' quorums in one step (docs/PERF.md
/// "PR 19").
const KINDS_INLINE: usize = 4;

/// The payload kinds of one [`CommitMsg`], in emission order: an
/// [`InlineVec`] that holds the four kinds a step sends at most, bar a
/// rejoiner's re-broadcast, in the message itself.
pub type CommitKinds = InlineVec<CommitKind, KINDS_INLINE>;

/// Which instruction window of Protocol 2 the processor is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CommitPhase {
    /// Instruction 2: waiting for a `GO` message.
    AwaitGo,
    /// Instruction 4: waiting for `n` `GO`s or `2K` ticks.
    AwaitGoQuorum,
    /// Instruction 8: waiting for `n` votes or `2K` ticks.
    AwaitVotes,
    /// Instruction 12: inside Protocol 1.
    Agreeing,
}

/// One processor of the randomized transaction commit protocol.
///
/// # Example
///
/// Running three processors to a unanimous commit under the benign
/// scheduler:
///
/// ```
/// use rtc_core::{CommitAutomaton, CommitConfig};
/// use rtc_model::{Decision, ProcessorId, SeedCollection, TimingParams, Value};
/// use rtc_sim::{adversaries::SynchronousAdversary, RunLimits, SimBuilder};
///
/// let cfg = CommitConfig::new(3, 1, TimingParams::default())?;
/// let procs: Vec<_> = ProcessorId::all(3)
///     .map(|p| CommitAutomaton::new(cfg, p, Value::One))
///     .collect();
/// let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(42))
///     .fault_budget(cfg.fault_bound())
///     .build(procs)
///     .unwrap();
/// let report = sim.run(&mut SynchronousAdversary::new(3), RunLimits::default()).unwrap();
/// assert!(report.statuses().iter().all(|s| s.decision() == Some(Decision::Commit)));
/// # Ok::<(), rtc_model::ModelError>(())
/// ```
#[derive(Clone)]
pub struct CommitAutomaton {
    id: ProcessorId,
    cfg: CommitConfig,
    clock: u64,
    vote: Value,
    initval: Value,
    coins: Option<Arc<CoinList>>,
    phase: CommitPhase,
    /// Which processors this one has heard a `GO` from and their first
    /// votes, as one dense per-processor byte table plus counts. Every
    /// delivery touches this (any message carrying coins doubles as a
    /// `GO`), so it must be an index, not a search tree — held inline
    /// (see [`VoteBoard`]).
    board: VoteBoard,
    go_wait_start: Option<u64>,
    vote_wait_start: Option<u64>,
    /// Protocol 1, held from the start so that `Agree` messages from
    /// peers already past instruction 12 are posted where it will read
    /// them; it gets its input and starts at this processor's own
    /// instruction 12.
    agreement: Agreement,
    decided: Option<Value>,
    early_abort: bool,
    agreement_input: Option<Value>,
    /// Decision-broadcast extension state: whether this processor has
    /// sent its `Decided` notification, and whether it adopted the
    /// decision from one (and is therefore silent).
    decision_sent: bool,
    adopted: bool,
    /// Crash–recovery state: a restored automaton re-broadcasts its
    /// current protocol messages once (the crash may have dropped the
    /// originals) and pings peers for a decision it may have missed
    /// until it has one.
    rejoining: bool,
    rejoin_resent: bool,
    last_ping: Option<u64>,
    /// Restored from a snapshot older than the crash (amnesiac): the
    /// lost incarnation may have sent messages this state cannot
    /// re-derive, so re-running the protocol could equivocate. An
    /// observer never advances the protocol; it only catches up.
    observer: bool,
    /// Peers whose `Ping` arrived this step; answered with a direct
    /// `Decided` if this processor has decided. BTreeSet for a
    /// deterministic reply order.
    pingers: BTreeSet<ProcessorId>,
}

impl CommitAutomaton {
    /// Creates the automaton for processor `id` with initial vote
    /// `initval` (`Value::One` = wants to commit).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the configured population.
    pub fn new(cfg: CommitConfig, id: ProcessorId, initval: Value) -> CommitAutomaton {
        assert!(id.index() < cfg.population(), "processor id out of range");
        CommitAutomaton {
            id,
            cfg,
            clock: 0,
            vote: initval,
            initval,
            coins: None,
            phase: CommitPhase::AwaitGo,
            board: VoteBoard::new(cfg.population()),
            go_wait_start: None,
            vote_wait_start: None,
            agreement: Agreement::awaiting_input(id, cfg.population(), cfg.fault_bound()),
            decided: None,
            early_abort: false,
            agreement_input: None,
            decision_sent: false,
            adopted: false,
            rejoining: false,
            rejoin_resent: false,
            last_ping: None,
            observer: false,
            pingers: BTreeSet::new(),
        }
    }

    /// Whether this automaton is a restored rejoiner still catching up
    /// (clears once it holds a decision).
    pub fn rejoining(&self) -> bool {
        self.rejoining
    }

    /// Whether this automaton is an amnesiac observer: restored from a
    /// snapshot that predates its crash, so it never drives the
    /// protocol itself (see [`Recoverable::restore_amnesiac`]).
    pub fn is_observer(&self) -> bool {
        self.observer
    }

    /// The processor's initial vote.
    pub fn initial_vote(&self) -> Value {
        self.initval
    }

    /// The processor's current vote.
    pub fn vote(&self) -> Value {
        self.vote
    }

    /// Whether this processor decided abort at vote-broadcast time
    /// (before entering Protocol 1).
    pub fn early_aborted(&self) -> bool {
        self.early_abort
    }

    /// The embedded Protocol 1 machine, once instruction 12 is reached.
    pub fn agreement(&self) -> Option<&Agreement> {
        Some(&self.agreement).filter(|agreement| agreement.started())
    }

    /// The value this processor fed into Protocol 1 (`x_p`), once known.
    pub fn agreement_input(&self) -> Option<Value> {
        self.agreement_input
    }

    /// Whether this processor has learned the shared coins.
    pub fn has_coins(&self) -> bool {
        self.coins.is_some()
    }

    /// Records a `GO` heard from `p` (first one counts).
    fn mark_go(&mut self, p: ProcessorId) {
        self.board.mark_go(p);
    }

    /// Records a vote heard from `p` (first one counts).
    fn mark_vote(&mut self, p: ProcessorId, v: Value) {
        self.board.mark_vote(p, v);
    }

    // Runs once per delivered message, and every write it makes lands
    // in the automaton itself (the vote board, Protocol 1's boards), so
    // up to 16 processors it cannot allocate. `#[inline(always)]` is
    // load-bearing: the message-dense synchronous step delivers every
    // buffered message in one call, and inlining the kind dispatch into
    // that delivery loop lets the table writes (`mark_go`/`mark_vote`
    // byte read-modify-writes) fuse with the loop instead of paying a
    // call per message. A plain `#[inline]` is dropped when the caller
    // grows past LLVM's budget, as the simulator's per-step body does
    // when it is compiled as one codegen unit. The kinds that occur at
    // most once per run per peer (`Decided`, `Ping`) are outlined into
    // [`Self::ingest_rare`] so they don't bloat the inlined body.
    #[inline(always)]
    fn ingest(&mut self, from: ProcessorId, msg: &CommitMsg) {
        if let Some(coins) = &msg.go {
            // Any message carrying coins doubles as a GO from its sender;
            // adopting them is a reference-count bump on the
            // coordinator's single flip allocation.
            self.coins.get_or_insert_with(|| Arc::clone(coins));
            self.mark_go(from);
        }
        for kind in msg.kinds.iter() {
            match kind {
                CommitKind::Go => {}
                CommitKind::Vote(v) => {
                    self.mark_vote(from, *v);
                }
                CommitKind::Agree(am) => self.agreement.ingest(from, *am),
                rare => self.ingest_rare(from, rare),
            }
        }
    }

    /// The cold tail of [`Self::ingest`]: decision adoption and
    /// catch-up probes, each seen a bounded number of times per run
    /// (vs. `Vote`/`Agree` traffic per message per step).
    #[cold]
    fn ingest_rare(&mut self, from: ProcessorId, kind: &CommitKind) {
        match kind {
            CommitKind::Decided(v) => {
                // Adopt the (final, unique) decision. Arrives either
                // from the decision-broadcast extension or as a
                // direct reply to a `Ping`; in both cases a processor
                // that already decided on its own may also fall
                // silent now — the decision is being told to it, so
                // no further Protocol 1 traffic of its own is needed.
                let prior = *self.decided.get_or_insert(*v);
                debug_assert_eq!(prior, *v, "conflicting Decided messages");
                self.adopted = true;
            }
            CommitKind::Ping => {
                if from != self.id {
                    self.pingers.insert(from);
                }
            }
            CommitKind::Go | CommitKind::Vote(_) | CommitKind::Agree(_) => {
                debug_assert!(false, "hot kinds are dispatched inline");
            }
        }
    }

    /// Adds to `kinds` the protocol messages this processor has already
    /// broadcast for its current position and is not sending this step
    /// anyway, re-emitted once after a restart: the crash may have
    /// dropped the originals mid-broadcast, leaving peers one message
    /// short of a quorum forever. All receivers deduplicate by sender,
    /// so re-sending is idempotent.
    fn rejoin_kinds(&self, kinds: &mut CommitKinds) {
        let mut resend = |kind| {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        };
        if self.coins.is_some() && self.phase != CommitPhase::AwaitGo {
            resend(CommitKind::Go);
        }
        if matches!(self.phase, CommitPhase::AwaitVotes | CommitPhase::Agreeing) {
            if let Some(v) = self.board.vote_of(self.id) {
                resend(CommitKind::Vote(v));
            }
        }
        self.agreement
            .resend_current(&mut |msg| resend(CommitKind::Agree(msg)));
    }

    fn timed_out(&self, start: Option<u64>) -> bool {
        start.is_some_and(|s| self.clock.saturating_sub(s) >= self.cfg.timing().vote_timeout())
    }

    /// Runs the phase machine until it can make no further progress this
    /// step, adding the payload kinds to broadcast to `out`.
    fn advance(&mut self, rng: &mut StepRng, out: &mut CommitKinds) {
        let n = self.cfg.population();
        loop {
            match self.phase {
                CommitPhase::AwaitGo => {
                    if self.id.is_coordinator() && self.coins.is_none() {
                        // Instruction 1: flip the coins and broadcast GO.
                        self.coins = Some(Arc::new(CoinList::flip(self.cfg.coin_count(), rng)));
                    }
                    if self.coins.is_some() {
                        // Instruction 3: relay GO (the coordinator's
                        // broadcast and the relay are the same send here).
                        self.mark_go(self.id);
                        out.push(CommitKind::Go);
                        self.go_wait_start = Some(self.clock);
                        self.phase = CommitPhase::AwaitGoQuorum;
                    } else {
                        break;
                    }
                }
                CommitPhase::AwaitGoQuorum => {
                    let all_go = self.board.go_count() == n;
                    if !all_go && !self.timed_out(self.go_wait_start) {
                        break;
                    }
                    if !all_go {
                        // Instruction 6: not everyone checked in — abort.
                        self.vote = Value::Zero;
                    }
                    // Instruction 7: broadcast the vote; a processor whose
                    // vote is abort may implement the abort right away.
                    self.mark_vote(self.id, self.vote);
                    out.push(CommitKind::Vote(self.vote));
                    if self.vote == Value::Zero && self.cfg.early_abort() {
                        self.decided.get_or_insert(Value::Zero);
                        self.early_abort = true;
                    }
                    self.vote_wait_start = Some(self.clock);
                    self.phase = CommitPhase::AwaitVotes;
                }
                CommitPhase::AwaitVotes => {
                    let all_votes = self.board.vote_count() == n;
                    if !all_votes && !self.timed_out(self.vote_wait_start) {
                        break;
                    }
                    // Instructions 9–11: x_p = 1 iff n commit votes.
                    let xp = if all_votes && self.board.all_votes_are_one() {
                        Value::One
                    } else {
                        Value::Zero
                    };
                    self.agreement_input = Some(xp);
                    // The Go carrying the coins is what moved us past
                    // AwaitGo, so the coins are known here; if that
                    // invariant ever breaks, stall this step rather than
                    // panic — a panic would turn a protocol bug into a
                    // crash fault outside the fault budget.
                    let Some(coins) = self.coins.clone() else {
                        debug_assert!(false, "coins known before the vote wait");
                        break;
                    };
                    // Instruction 12. Whatever peers already sent for
                    // Protocol 1 is on its boards.
                    self.agreement.set_input(xp, coins);
                    self.agreement
                        .start_into(&mut |msg| out.push(CommitKind::Agree(msg)));
                    self.phase = CommitPhase::Agreeing;
                }
                CommitPhase::Agreeing => {
                    self.agreement
                        .poll_into(rng, &mut |msg| out.push(CommitKind::Agree(msg)));
                    if let Some((v, _)) = self.agreement.decision() {
                        // Instructions 13–15: the fate of the transaction.
                        let prior = *self.decided.get_or_insert(v);
                        debug_assert_eq!(
                            prior, v,
                            "protocol 1 outcome contradicts the early abort"
                        );
                    }
                    break;
                }
            }
        }
    }
}

impl Automaton for CommitAutomaton {
    type Msg = CommitMsg;

    fn id(&self) -> ProcessorId {
        self.id
    }

    fn population(&self) -> usize {
        self.cfg.population()
    }

    // Generic in the inbox, so instantiated once per substrate — each
    // with a single caller. `#[inline]` keeps every instantiation local
    // to its caller's codegen unit, where that caller can absorb it;
    // without it the placement, and with it a multiplexer's inner step
    // (`rtc-txn`'s `Replica`), is left to codegen-unit partitioning.
    #[inline]
    fn step_into<'a>(
        &mut self,
        inbox: impl Iterator<Item = (ProcessorId, &'a CommitMsg)>,
        rng: &mut StepRng,
        out: &mut Outbox<CommitMsg>,
    ) {
        self.clock += 1;
        for (from, msg) in inbox {
            self.ingest(from, msg);
        }
        // A processor that adopted a broadcast decision no longer runs
        // the protocol (it is silent except for its own one-shot relay).
        // An amnesiac observer never ran it in the first place: the
        // protocol messages of its lost incarnation cannot be re-derived
        // from its state, so re-participating could equivocate.
        let mut kinds = CommitKinds::new();
        if !(self.adopted || self.observer) {
            self.advance(rng, &mut kinds);
        }
        // Decision-broadcast extension: announce once, first thing after
        // deciding (whether by protocol or by adoption).
        if self.cfg.decision_broadcast() && !self.decision_sent {
            if let Some(v) = self.decided {
                kinds.push(CommitKind::Decided(v));
                self.decision_sent = true;
            }
        }
        // Crash–recovery: a restored automaton re-broadcasts its current
        // protocol position once, and pings for a missed decision every
        // vote-timeout window until it holds one.
        if self.rejoining {
            if self.decided.is_some() {
                self.rejoining = false;
            } else {
                if !self.rejoin_resent {
                    self.rejoin_resent = true;
                    self.rejoin_kinds(&mut kinds);
                }
                let ping_due = self.last_ping.is_none_or(|at| {
                    self.clock.saturating_sub(at) >= self.cfg.timing().vote_timeout()
                });
                if ping_due {
                    self.last_ping = Some(self.clock);
                    kinds.push(CommitKind::Ping);
                }
            }
        }
        // Direct catch-up replies: a pinged processor that has decided
        // re-tells the decision to the pinger alone — even after it has
        // returned from Protocol 1 and fallen silent, which is exactly
        // when the rejoiner has no other way to learn the outcome.
        let mut replies = std::mem::take(&mut self.pingers);
        if self.decided.is_none() {
            replies.clear();
        }
        if kinds.is_empty() && replies.is_empty() {
            // Nothing to broadcast and nobody to catch up: silent (this
            // covers the returned-from-Protocol-1 quiescence; broadcasts
            // produced in the very step the return fires are still sent —
            // discarding them could starve a straggler of its last
            // quorum message).
            return;
        }
        // The paper piggybacks GO on every message; the ablation switch
        // restricts the coins to explicit GO messages only. Either way
        // the coins are shared, not copied.
        let go = if self.cfg.piggyback_go() || kinds.contains(&CommitKind::Go) {
            self.coins.clone()
        } else {
            None
        };
        // At most one message per destination per step: a pinger's
        // catch-up reply rides the broadcast bundle, as a direct send of
        // the bundle extended with `Decided` (when the bundle does not
        // already carry it). The message is built once; the substrate
        // decides what a destination costs.
        let reply_kind = self
            .decided
            .filter(|v| !replies.is_empty() && !kinds.contains(&CommitKind::Decided(*v)))
            .map(CommitKind::Decided);
        if let Some(reply) = reply_kind {
            let mut extended = CommitMsg {
                go: go.clone(),
                kinds: kinds.clone(),
            };
            extended.kinds.push(reply);
            for q in replies {
                out.send(q, extended.clone());
            }
        }
        if !kinds.is_empty() {
            out.broadcast(CommitMsg { go, kinds });
        }
    }

    fn status(&self) -> Status {
        match self.decided {
            None => Status::Undecided,
            Some(v) => {
                let halted_by_return = self.agreement.halted();
                let halted_by_adoption = self.adopted && self.decision_sent;
                if halted_by_return || halted_by_adoption {
                    Status::Halted(v)
                } else {
                    Status::Decided(v)
                }
            }
        }
    }
}

/// The persisted state of a [`CommitAutomaton`] — everything needed to
/// resume the protocol after a crash (conceptually, the processor's
/// stable storage).
#[derive(Clone)]
pub struct CommitSnapshot {
    state: CommitAutomaton,
}

impl fmt::Debug for CommitSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitSnapshot")
            .field("state", &self.state)
            .finish()
    }
}

impl Recoverable for CommitAutomaton {
    type Snapshot = CommitSnapshot;

    fn snapshot(&self) -> CommitSnapshot {
        CommitSnapshot {
            state: self.clone(),
        }
    }

    fn restore(snapshot: &CommitSnapshot) -> CommitAutomaton {
        let mut auto = snapshot.state.clone();
        auto.rejoining = true;
        auto.rejoin_resent = false;
        auto.last_ping = None;
        auto.pingers.clear();
        auto
    }

    fn restore_amnesiac(snapshot: &CommitSnapshot) -> CommitAutomaton {
        // The protocol messages already sent are not a function of this
        // snapshot, so the rejoiner comes back as a pure observer: it
        // never advances the protocol, only pings for the decision.
        let mut auto = CommitAutomaton::restore(snapshot);
        auto.observer = true;
        auto
    }
}

impl fmt::Debug for CommitAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommitAutomaton")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("phase", &self.phase)
            .field("vote", &self.vote)
            .field("decided", &self.decided)
            .finish()
    }
}

/// Builds the full population of commit automata from per-processor
/// initial votes.
///
/// # Panics
///
/// Panics if `initial_votes.len()` differs from the configured
/// population.
pub fn commit_population(cfg: CommitConfig, initial_votes: &[Value]) -> Vec<CommitAutomaton> {
    assert_eq!(
        initial_votes.len(),
        cfg.population(),
        "one initial vote per processor"
    );
    initial_votes
        .iter()
        .enumerate()
        .map(|(i, v)| CommitAutomaton::new(cfg, ProcessorId::new(i), *v))
        .collect()
}

/// Convenience: the decision every processor reached, if any.
pub fn decisions_of(statuses: &[Status]) -> Vec<Option<Decision>> {
    statuses.iter().map(|s| s.decision()).collect()
}

#[cfg(test)]
mod tests {
    use rtc_model::{SeedCollection, TimingParams};
    use rtc_sim::adversaries::{
        CrashAdversary, CrashPlan, DropPolicy, RandomAdversary, SynchronousAdversary,
    };
    use rtc_sim::{RunLimits, SimBuilder};

    use super::*;

    fn cfg(n: usize, t: usize) -> CommitConfig {
        CommitConfig::new(n, t, TimingParams::default()).unwrap()
    }

    fn run_sync(cfgv: CommitConfig, votes: &[Value], seed: u64) -> Vec<Option<Decision>> {
        let procs = commit_population(cfgv, votes);
        let mut sim = SimBuilder::new(cfgv.timing(), SeedCollection::new(seed))
            .fault_budget(cfgv.fault_bound())
            .build(procs)
            .unwrap();
        let report = sim
            .run(
                &mut SynchronousAdversary::new(cfgv.population()),
                RunLimits::default(),
            )
            .unwrap();
        assert!(!report.stalled(), "synchronous run must terminate");
        decisions_of(report.statuses())
    }

    #[test]
    fn unanimous_commit_commits() {
        for n in [1usize, 2, 3, 5, 8] {
            let t = CommitConfig::max_tolerated(n);
            let decisions = run_sync(cfg(n, t), &vec![Value::One; n], 7);
            assert!(
                decisions.iter().all(|d| *d == Some(Decision::Commit)),
                "n = {n}: {decisions:?}"
            );
        }
    }

    #[test]
    fn any_initial_abort_aborts() {
        for bad in 0..5usize {
            let mut votes = vec![Value::One; 5];
            votes[bad] = Value::Zero;
            let decisions = run_sync(cfg(5, 2), &votes, 13 + bad as u64);
            assert!(
                decisions.iter().all(|d| *d == Some(Decision::Abort)),
                "aborter {bad}: {decisions:?}"
            );
        }
    }

    #[test]
    fn all_abort_aborts() {
        let decisions = run_sync(cfg(4, 1), &[Value::Zero; 4], 3);
        assert!(decisions.iter().all(|d| *d == Some(Decision::Abort)));
    }

    #[test]
    fn random_schedules_preserve_agreement() {
        for seed in 0..30u64 {
            let c = cfg(5, 2);
            let votes = [Value::One, Value::One, Value::Zero, Value::One, Value::One];
            let procs = commit_population(c, &votes);
            let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
                .fault_budget(c.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = RandomAdversary::new(seed)
                .deliver_prob(0.6)
                .crash_prob(0.002);
            let report = sim.run(&mut adv, RunLimits::default()).unwrap();
            assert!(report.agreement_holds(), "seed {seed}");
            assert!(report.all_nonfaulty_decided(), "seed {seed} stalled");
            // Initial abort present => decision must be abort.
            for s in report.statuses() {
                if let Some(d) = s.decision() {
                    assert_eq!(d, Decision::Abort, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn coordinator_crash_mid_broadcast_still_safe_and_live() {
        let c = cfg(5, 2);
        let procs = commit_population(c, &[Value::One; 5]);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(99))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        // Let the coordinator take exactly one step (broadcasting GO),
        // then crash it, dropping the GO to processors 3 and 4.
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(5),
            vec![CrashPlan {
                at_event: 1,
                victim: ProcessorId::COORDINATOR,
                drop: DropPolicy::DropTo(vec![ProcessorId::new(3), ProcessorId::new(4)]),
            }],
        );
        let report = sim.run(&mut adv, RunLimits::default()).unwrap();
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
        // The survivors never heard GO from the dead coordinator's
        // victims in time... they must all agree either way; with GO
        // missing for some, the decision is abort.
        let survivors: Vec<Decision> = report
            .statuses()
            .iter()
            .skip(1)
            .filter_map(|s| s.decision())
            .collect();
        assert!(survivors.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn early_abort_is_flagged_and_consistent() {
        let c = cfg(3, 1);
        let mut votes = vec![Value::One; 3];
        votes[2] = Value::Zero;
        let procs = commit_population(c, &votes);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(5))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let report = sim
            .run(&mut SynchronousAdversary::new(3), RunLimits::default())
            .unwrap();
        assert!(report.agreement_holds());
        assert!(sim.automaton(ProcessorId::new(2)).early_aborted());
        assert_eq!(
            sim.automaton(ProcessorId::new(2)).agreement_input(),
            Some(Value::Zero)
        );
    }

    #[test]
    fn decision_broadcast_halts_everyone() {
        let c = cfg(5, 2).with_decision_broadcast(true);
        let procs = commit_population(c, &[Value::One; 5]);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(31))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let limits = rtc_sim::RunLimits {
            max_events: 100_000,
            stop: rtc_sim::StopWhen::AllNonfaultyHalted,
        };
        let report = sim.run(&mut SynchronousAdversary::new(5), limits).unwrap();
        assert!(
            !report.stalled(),
            "the extension guarantees every processor halts"
        );
        assert!(report
            .statuses()
            .iter()
            .all(|s| matches!(s, rtc_model::Status::Halted(Value::One))));
    }

    #[test]
    fn decision_broadcast_preserves_safety_under_random_schedules() {
        for seed in 0..20u64 {
            let c = cfg(5, 2).with_decision_broadcast(true);
            let votes = [Value::One, Value::One, Value::Zero, Value::One, Value::One];
            let procs = commit_population(c, &votes);
            let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(seed))
                .fault_budget(c.fault_bound())
                .build(procs)
                .unwrap();
            let mut adv = RandomAdversary::new(seed)
                .deliver_prob(0.5)
                .crash_prob(0.008);
            let report = sim.run(&mut adv, rtc_sim::RunLimits::default()).unwrap();
            assert!(report.agreement_holds(), "seed {seed}");
            assert!(report.all_nonfaulty_decided(), "seed {seed}");
            for s in report.statuses() {
                if let Some(d) = s.decision() {
                    assert_eq!(d, Decision::Abort, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn pinged_halted_processor_replies_decided_directly() {
        use rtc_model::{Delivery, LocalClock, Recoverable};

        // Run a 3-population to the fully-halted end state.
        let c = cfg(3, 1);
        let procs = commit_population(c, &[Value::One; 3]);
        let mut sim = SimBuilder::new(c.timing(), SeedCollection::new(8))
            .fault_budget(c.fault_bound())
            .build(procs)
            .unwrap();
        let limits = rtc_sim::RunLimits {
            max_events: 100_000,
            stop: rtc_sim::StopWhen::AllNonfaultyHalted,
        };
        let report = sim.run(&mut SynchronousAdversary::new(3), limits).unwrap();
        assert!(!report.stalled());

        // An amnesiac restart of p1: restored from its initial state, it
        // knows nothing and must recover the outcome by pinging.
        let fresh = CommitAutomaton::new(c, ProcessorId::new(1), Value::One);
        let mut rejoiner = CommitAutomaton::restore_amnesiac(&fresh.snapshot());
        assert!(rejoiner.rejoining());
        assert!(rejoiner.is_observer());
        let mut rng = SeedCollection::new(9).step_rng(ProcessorId::new(1), LocalClock::new(0));
        let sends = rejoiner.step(&[], &mut rng);
        assert!(
            sends
                .iter()
                .all(|s| s.msg.kinds.contains(&CommitKind::Ping)),
            "a decision-less rejoiner pings: {sends:?}"
        );

        // A halted peer — silent for every other purpose — answers the
        // ping with a direct Decided to the pinger alone.
        let mut peer = sim.automaton(ProcessorId::COORDINATOR).clone();
        assert_eq!(peer.status(), Status::Halted(Value::One));
        let ping = sends
            .iter()
            .find(|s| s.to == ProcessorId::COORDINATOR)
            .expect("ping reaches the coordinator")
            .msg
            .clone();
        let mut rng0 =
            SeedCollection::new(9).step_rng(ProcessorId::COORDINATOR, LocalClock::new(1));
        let replies = peer.step(&[Delivery::new(ProcessorId::new(1), ping)], &mut rng0);
        assert_eq!(replies.len(), 1, "reply goes to the pinger alone");
        assert_eq!(replies[0].to, ProcessorId::new(1));
        assert!(replies[0]
            .msg
            .kinds
            .contains(&CommitKind::Decided(Value::One)));

        // The rejoiner adopts the decision and stops rejoining.
        let mut rng1 = SeedCollection::new(9).step_rng(ProcessorId::new(1), LocalClock::new(2));
        rejoiner.step(
            &[Delivery::new(
                ProcessorId::COORDINATOR,
                replies[0].msg.clone(),
            )],
            &mut rng1,
        );
        assert_eq!(rejoiner.status().value(), Some(Value::One));
        let mut rng2 = SeedCollection::new(9).step_rng(ProcessorId::new(1), LocalClock::new(3));
        rejoiner.step(&[], &mut rng2);
        assert!(!rejoiner.rejoining());
    }

    #[test]
    fn agree_messages_that_arrive_before_instruction_12_are_on_the_board_when_it_starts() {
        use rtc_model::{Delivery, LocalClock};

        // n = 3, so Protocol 1's quorum is 2: a processor's own message
        // plus one peer's.
        let c = cfg(3, 1);
        let p = ProcessorId::new;
        let seeds = SeedCollection::new(12);
        let mut procs = commit_population(c, &[Value::One; 3]);
        let step = |auto: &mut CommitAutomaton, clock: u64, inbox: &[Delivery<CommitMsg>]| {
            let mut rng = seeds.step_rng(auto.id(), LocalClock::new(clock));
            let sends = auto.step(inbox, &mut rng);
            sends.first().map(|send| send.msg.clone())
        };
        let [p0, p1, p2] = &mut procs[..] else {
            unreachable!("three processors")
        };
        let from = |q: usize, msg: &CommitMsg| Delivery::new(p(q), msg.clone());
        // GO, relays, votes.
        let go = step(p0, 0, &[]).unwrap();
        let relay1 = step(p1, 0, &[from(0, &go)]).unwrap();
        let relay2 = step(p2, 0, &[from(0, &go)]).unwrap();
        let vote0 = step(p0, 1, &[from(1, &relay1), from(2, &relay2)]).unwrap();
        let vote1 = step(p1, 1, &[from(2, &relay2)]).unwrap();
        let vote2 = step(p2, 1, &[from(1, &relay1)]).unwrap();
        assert_eq!(vote1.kinds[..], [CommitKind::Vote(Value::One)]);
        // p0 hears both votes and enters Protocol 1; p1 has p0's vote
        // but not yet p2's.
        let first0 = step(p0, 2, &[from(1, &vote1), from(2, &vote2)]).unwrap();
        let first = CommitKind::Agree(AgreementMsg::First {
            stage: 1,
            value: Value::One,
        });
        assert_eq!(first0.kinds[..], [first]);
        assert_eq!(step(p1, 2, &[from(0, &vote0)]), None);

        // p0's stage-1 message reaches p1 while it still waits for
        // votes: it is posted, not held aside.
        assert_eq!(step(p1, 3, &[from(0, &first0)]), None);
        assert!(p1.agreement().is_none(), "instruction 12 not reached");
        let posted = |q| p1.agreement.posted_first(1, p(q));
        assert_eq!((posted(0), posted(1)), (Some(Value::One), None));

        // The last vote arrives: Protocol 1 starts with a quorum of
        // first-exchange messages already there, so the same step sends
        // the second exchange too.
        let started = step(p1, 4, &[from(2, &vote2)]).unwrap();
        let second = CommitKind::Agree(AgreementMsg::Second {
            stage: 1,
            value: Some(Value::One),
        });
        assert_eq!(started.kinds[..], [first, second]);
    }

    /// A processor restored inside Protocol 1's first stage re-sends its
    /// stage-1 message and no other: there is no stage 0 to re-send
    /// from, though the board ring's empty slots carry that tag.
    #[test]
    fn a_commit_machine_restored_at_stage_one_resends_only_stage_one() {
        use rtc_model::{Delivery, LocalClock, Recoverable};

        let c = cfg(3, 1);
        let seeds = SeedCollection::new(12);
        let mut procs = commit_population(c, &[Value::One; 3]);
        let step = |auto: &mut CommitAutomaton, clock: u64, inbox: &[Delivery<CommitMsg>]| {
            let mut rng = seeds.step_rng(auto.id(), LocalClock::new(clock));
            auto.step(inbox, &mut rng)
        };
        let [p0, p1, p2] = &mut procs[..] else {
            unreachable!("three processors")
        };
        let from = |q: usize, sends: &[rtc_model::Send<CommitMsg>]| {
            Delivery::new(ProcessorId::new(q), sends[0].msg.clone())
        };
        let go = step(p0, 0, &[]);
        let relay1 = step(p1, 0, &[from(0, &go)]);
        let relay2 = step(p2, 0, &[from(0, &go)]);
        step(p0, 1, &[from(1, &relay1), from(2, &relay2)]);
        let vote1 = step(p1, 1, &[from(2, &relay2)]);
        let vote2 = step(p2, 1, &[from(1, &relay1)]);
        step(p0, 2, &[from(1, &vote1), from(2, &vote2)]);
        assert_eq!(p0.agreement().map(Agreement::stage), Some(1));

        let mut restored = CommitAutomaton::restore(&p0.snapshot());
        let sends = step(&mut restored, 3, &[]);
        assert!(!sends.is_empty(), "a rejoiner re-sends");
        for send in &sends {
            let agree: Vec<&CommitKind> = send
                .msg
                .kinds
                .iter()
                .filter(|kind| matches!(kind, CommitKind::Agree(_)))
                .collect();
            let first = CommitKind::Agree(AgreementMsg::First {
                stage: 1,
                value: Value::One,
            });
            assert_eq!(agree, [&first], "to {}: {:?}", send.to, send.msg);
        }
    }

    #[test]
    fn amnesiac_coordinator_does_not_restart_the_protocol() {
        use rtc_model::{LocalClock, Recoverable};

        // A participating coordinator's first step flips the coins and
        // broadcasts GO; an amnesiac observer must not — its lost
        // incarnation may already have flooded a *different* coin list,
        // and a second one would fork the shared randomness.
        let c = cfg(3, 1);
        let fresh = CommitAutomaton::new(c, ProcessorId::COORDINATOR, Value::One);
        let mut observer = CommitAutomaton::restore_amnesiac(&fresh.snapshot());
        assert!(observer.is_observer());
        let mut rng = SeedCollection::new(4).step_rng(ProcessorId::COORDINATOR, LocalClock::new(0));
        let sends = observer.step(&[], &mut rng);
        assert!(!sends.is_empty(), "the observer still pings");
        for s in &sends {
            assert!(s.msg.go.is_none(), "no coins may be flooded: {s:?}");
            assert_eq!(s.msg.kinds[..], [CommitKind::Ping], "ping only: {s:?}");
        }
        assert!(!observer.has_coins());
    }

    #[test]
    fn snapshot_restore_is_behavior_preserving() {
        use rtc_model::Recoverable;

        // A mid-protocol snapshot restores to the same observable state.
        let c = cfg(3, 1);
        let auto = CommitAutomaton::new(c, ProcessorId::new(2), Value::One);
        let restored = CommitAutomaton::restore(&auto.snapshot());
        assert_eq!(restored.id(), auto.id());
        assert_eq!(restored.status(), auto.status());
        assert_eq!(restored.vote(), auto.vote());
        assert_eq!(restored.initial_vote(), auto.initial_vote());
    }

    #[test]
    fn population_builder_checks_vote_count() {
        let c = cfg(3, 1);
        let result = std::panic::catch_unwind(|| commit_population(c, &[Value::One; 2]));
        assert!(result.is_err());
    }
}
