//! The paced node loop both wall-clock substrates run, and the shared
//! state around it.
//!
//! Section 2.1 of the paper has one kind of step: a processor receives
//! a set of messages, draws its random number, and sends a set.
//! [`ClusterCore`] runs that step on one OS thread per processor, once
//! per *tick*, so local clocks advance in real time: the protocol's
//! `2K`-tick timeouts become `2K × tick` of wall clock, and a message
//! held longer than `K` ticks is *late* in exactly the paper's sense. A
//! node steps `m` multiplexed instances per tick (the channel substrate
//! runs `m = 1`).
//!
//! Ticks are paced on absolute deadlines ([`next_deadline`]), so a local
//! clock advances one step per tick, not one per tick-plus-step-time. A
//! node that falls behind steps at once and paces from there; it never
//! bursts through several steps in one tick of everyone else's clock.
//!
//! The nodes step out of phase: the first incarnation of node `i` of
//! `n` takes its first step `i/n` of a tick after boot
//! ([`first_step`]), so its step `k` falls at `(k + i/n) × tick` — the
//! simulator's synchronous schedule, which steps processors round-robin
//! in id order, on the wall clock. A message reaches higher-numbered
//! nodes in the tick it was sent, as it does in the simulator, instead
//! of racing its receiver's same-index step. A respawned node has no
//! phase to keep: it steps at once and paces from there.
//!
//! A node is the only thread of its processor. At its deadline it
//! takes its step the way the paper's model does: it receives what has
//! arrived, computes and sends. What differs between substrates is only
//! how messages move, and that is the [`Links`] seam: at the start of a
//! tick [`Links::receive`] hands the node what has arrived at its own
//! end of the links, each message with the instant it is due; the node
//! keeps what is not yet due in its own [`HoldQueue`] and steps on the
//! rest; then it files each instance's [`Outbox`] and flushes once.
//! `ChannelLinks` in this crate routes each message through the
//! [`FaultRouter`](crate::FaultRouter) at the sender and passes it, due
//! instant and all, to the receiver's inbox; `rtc-net`'s `TcpLinks`
//! reads the node's sockets, routes the frames it decodes, and writes
//! one buffer per peer. A node's end of the links and its hold queue
//! live in its slot, not in one incarnation, so a successor inherits
//! everything that arrived or fell due while the processor was down.
//!
//! What a step leaves behind — the node's clock, its statuses, what it
//! sent, how its arrivals classified — is one record, and the cluster
//! keeps every node's on one board behind one lock. A step takes the
//! board twice: once to number its event and classify its arrivals
//! against the [`LatenessMonitor`] and the tick ledger, once to publish
//! its clock, statuses and message counts. A crash writes its snapshot
//! and marks the node down in one critical section, and a respawn
//! publishes the restored statuses and marks the node up in another.
//! Only the `done` flag, which a parked node reads, lives beside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use rtc_model::{
    Delivery, LatenessMonitor, LocalClock, Outbox, ProcessorId, Recoverable, RunFacts,
    SeedCollection, Status, TimingParams,
};

use crate::fault::{wall, FaultPlan, HoldQueue, RestartAt};

/// Pacing and bounds for a cluster run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterOptions {
    /// Real-time duration of one automaton step.
    pub tick: Duration,
    /// Hard cap on steps per node.
    pub max_steps: u64,
    /// Hard cap on wall-clock time for the whole run.
    pub wall_timeout: Duration,
    /// The model's `K` ([`TimingParams::k`]): the run's
    /// [`LatenessMonitor`] calls a delivery late when some node took
    /// more than this many steps between the send and the receive, and
    /// the tick ledger when it arrived more than this many ticks after
    /// its sender's tick.
    pub lateness_k: u64,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions::derived(Duration::from_micros(500), TimingParams::default())
    }
}

impl ClusterOptions {
    /// Margin added to every derived wall timeout: scheduler noise,
    /// injected faults, and CI load are all absorbed here rather than
    /// in the model-derived part of the budget.
    const WALL_MARGIN: Duration = Duration::from_secs(5);

    /// How many failure-free decision windows the wall timeout allows
    /// before giving up — headroom for runs that are late, degraded, or
    /// waiting out restarts, not a model quantity.
    const WALL_WINDOWS: u32 = 256;

    /// Options whose wall timeout is derived from the timing constants
    /// instead of hardcoded: one failure-free decision takes at most
    /// [`TimingParams::failure_free_decision_bound`] (`8K`) ticks of
    /// wall clock, and the timeout budgets `WALL_WINDOWS` such
    /// windows plus a fixed `WALL_MARGIN`. See
    /// `docs/MODEL.md` for the rationale.
    pub fn derived(tick: Duration, timing: TimingParams) -> ClusterOptions {
        let window = tick * u32::try_from(timing.failure_free_decision_bound()).unwrap_or(u32::MAX);
        ClusterOptions {
            tick,
            max_steps: 200_000,
            wall_timeout: window * Self::WALL_WINDOWS + Self::WALL_MARGIN,
            lateness_k: timing.k(),
        }
    }
}

/// The outcome of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Final status per processor.
    pub statuses: Vec<Status>,
    /// Steps each node executed.
    pub steps: Vec<u64>,
    /// Which processors' scripted crash fired.
    pub crashed: Vec<bool>,
    /// Which processors were restarted after a crash.
    pub recovered: Vec<bool>,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Messages still held when the run ended — by a node's hold queue
    /// (delay spikes or link-outage buffering) past the run's end, or by
    /// a socket link that never wrote them — counted instead of being
    /// silently dropped.
    pub messages_undelivered: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Whether the run ended by decision (vs timeout).
    pub decided_in_time: bool,
    /// The tick ledger: this instance's deliveries that arrived more
    /// than `K` receiver ticks after their sender's tick. Node clocks
    /// advance at the same wall rate (one step per tick), so this is a
    /// second, tick-based observer of the paper's lateness.
    pub late_by_ticks: u64,
    /// Deliveries the run's [`LatenessMonitor`] classified — the paper's
    /// event-based measure (Section 2), in the vocabulary the simulator
    /// reports. Counted over every instance the nodes multiplex.
    pub deliveries: u64,
    /// How many of those were late: some processor took more than `K`
    /// steps between the send and the receive.
    pub late_deliveries: u64,
}

impl ClusterReport {
    /// Whether every non-crashed processor decided. A processor that
    /// crashed but was later restarted counts as non-crashed: once it
    /// rejoins, it owes a decision like everyone else.
    pub fn all_nonfaulty_decided(&self) -> bool {
        self.statuses
            .iter()
            .zip(self.crashed.iter().zip(&self.recovered))
            .all(|(s, (crashed, recovered))| (*crashed && !recovered) || s.is_decided())
    }

    /// Whether at most one distinct value was decided.
    pub fn agreement_holds(&self) -> bool {
        let mut vals: Vec<_> = self.statuses.iter().filter_map(|s| s.value()).collect();
        vals.sort();
        vals.dedup();
        vals.len() <= 1
    }

    /// States the instance's [`RunFacts`]. *On-time*, at the
    /// [`ClusterOptions::lateness_k`] the run was booted with, is what
    /// its three observers can vouch for: the lateness monitor saw no
    /// late delivery, the tick ledger none either, and nothing was
    /// still held — in a node's hold queue or a socket link — when the
    /// run ended (a held message has no age here, so any one counts).
    /// *Failure-free* means no scripted crash fired.
    pub fn facts(&self) -> RunFacts<'_> {
        RunFacts {
            statuses: &self.statuses,
            excused: self
                .crashed
                .iter()
                .zip(&self.recovered)
                .map(|(crashed, recovered)| *crashed && !*recovered)
                .collect(),
            failure_free: !self.crashed.contains(&true),
            on_time: self.late_deliveries == 0
                && self.late_by_ticks == 0
                && self.messages_undelivered == 0,
        }
    }
}

/// One message on its way to a node's inbox.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// The sender.
    pub from: ProcessorId,
    /// Which multiplexed instance the message belongs to.
    pub instance: usize,
    /// The sender's step count when it sent.
    pub sent_at_tick: u64,
    /// The cluster-wide step event of the sending step, for the
    /// lateness monitor.
    pub sent_event: u64,
    /// The payload.
    pub msg: M,
}

/// How messages move between nodes: the one thing the substrates do
/// differently. An implementation owns a format (an in-memory envelope,
/// a frame on a socket) and whatever stands between sender and
/// receiver; the node loop knows neither. Each call names the node's
/// own [`Links::End`], which only that node's incarnations touch.
pub trait Links<M>: Send + Sync + 'static {
    /// Node `i`'s own end of the links — its inbox or sockets, its
    /// unwritten bytes, its fault dice. It lives in the node's slot and
    /// passes from each incarnation to the next.
    type End: Send + 'static;

    /// Begins node `to`'s tick at `now`: hands `land` every message
    /// that has arrived at `end` since the last call, in arrival order,
    /// each with the instant it is due — `now` or earlier when it is
    /// due now, later when the plan holds it. Must not block.
    fn receive(
        &self,
        end: &mut Self::End,
        to: ProcessorId,
        now: Instant,
        land: impl FnMut(Instant, Envelope<M>),
    );

    /// Files what one instance sent at one step: `step.msg` is its
    /// outbox and the rest of `step` the header every message of the
    /// step shares; `n` is the population a broadcast fans out over
    /// ([`Outbox::sends`] is the order on every link). Must not block
    /// on a receiver and must tolerate teardown: a message that cannot
    /// be carried is accounted by the substrate, not reported here.
    fn send(&self, end: &mut Self::End, step: Envelope<&Outbox<M>>, n: usize);

    /// Ends node `from`'s tick: whatever it filed since its last flush
    /// and has not moved yet moves now, as far as it can without
    /// blocking. Called once per step, after the last instance's
    /// `send`.
    fn flush(&self, end: &mut Self::End, from: ProcessorId);
}

/// When a node's next step is due: at `slot`, the instant its step is
/// owed — its first step's phase, or one `tick` after the deadline of
/// the step before — or `now` for a node already past that. A late node
/// steps at once and does not burst through the ticks it missed: its
/// next slot is a whole tick after the step it took late.
fn next_deadline(slot: Instant, now: Instant) -> Instant {
    slot.max(now)
}

/// When the first incarnation of node `i` of `n` takes its first step:
/// `i/n` of a tick after `boot`. Its step `k` is then due at
/// `boot + (k + i/n) × tick`, inside plan tick `k`.
fn first_step(boot: Instant, tick: Duration, i: usize, n: usize) -> Instant {
    boot + tick * i as u32 / n as u32
}

/// What node `i` keeps across its incarnations: its end of the links
/// and the envelopes held for it. An incarnation locks its slot for its
/// whole life, so a successor starts only once its predecessor is gone.
struct Slot<E, M> {
    end: E,
    held: HoldQueue<Envelope<M>>,
}

/// A node's slot, shared by its successive incarnations.
type SharedSlot<E, M> = Arc<Mutex<Slot<E, M>>>;

/// What the nodes' steps leave behind, in one place: a step of the
/// paper's model receives, computes and sends, and its record is the
/// node's clock, its statuses, what it sent and how its arrivals
/// classified. Crashes and respawns write here too, each in one
/// critical section.
struct Board<S> {
    /// `statuses[k][i]`: instance `k`'s status at node `i`.
    statuses: Vec<Vec<Status>>,
    /// Steps each node has taken.
    steps: Vec<u64>,
    /// Protocol messages sent, per instance (before any fault or frame).
    messages: Vec<u64>,
    /// The tick ledger, per instance: deliveries whose receiver tick
    /// exceeds their sender's by more than `K`.
    late_by_ticks: Vec<u64>,
    /// `crash_snaps[i]`: node `i`'s crash-time snapshot of every
    /// instance — the stable storage a dying node writes.
    crash_snaps: Vec<Option<Vec<S>>>,
    /// Currently crashed and not (yet) restarted.
    down: Vec<bool>,
    /// Whether each processor's scripted crash actually fired.
    crashed: Vec<bool>,
    /// Step events numbered so far, cluster-wide: a step's event is
    /// numbered and noted by the monitor in one critical section.
    events: u64,
    lateness: LatenessMonitor,
}

impl<S> Board<S> {
    fn publish_statuses<A: Recoverable>(&mut self, i: usize, autos: &[A]) {
        for (k, a) in autos.iter().enumerate() {
            self.statuses[k][i] = a.status();
        }
    }
}

/// Everything the node threads and the driving thread share.
struct Shared<A: Recoverable, L> {
    board: Mutex<Board<A::Snapshot>>,
    /// Raised by `finish` (`Release`) before it unparks the nodes, read
    /// by each node (`Acquire`) before every step and after every wake.
    done: AtomicBool,
    /// One seed collection per instance: instance `k` replays the
    /// simulator's coin flips for seed collection `k`.
    seeds: Vec<SeedCollection>,
    tick: Duration,
    max_steps: u64,
    links: L,
}

impl<A: Recoverable, L> Shared<A, L> {
    fn board(&self) -> MutexGuard<'_, Board<A::Snapshot>> {
        self.board
            .lock()
            .expect("no thread panics holding the board")
    }

    /// Waits until `due`, or until [`ClusterCore::finish`] raises
    /// `done` and unparks the node. Returns whether the run is still
    /// on.
    fn wait_until(&self, due: Instant) -> bool {
        loop {
            if self.done.load(Ordering::Acquire) {
                return false;
            }
            let now = Instant::now();
            if now >= due {
                return true;
            }
            thread::park_timeout(due - now);
        }
    }
}

/// Spawns one incarnation of node `i`, stepping `autos` (one automaton
/// per instance) from the step count its predecessor reached. Its first
/// step is due at `slot`. This is the only thread either wall-clock
/// substrate spawns.
fn spawn_node<A, L>(
    shared: Arc<Shared<A, L>>,
    i: usize,
    node: SharedSlot<L::End, A::Msg>,
    mut autos: Vec<A>,
    crash_at: Option<u64>,
    mut slot: Instant,
) -> thread::JoinHandle<()>
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
    L: Links<A::Msg>,
{
    thread::spawn(move || {
        let id = ProcessorId::new(i);
        // The slot serialises incarnations: a restarting thread blocks
        // here until its predecessor exits, then inherits its end of
        // the links — everything that arrived meanwhile — and every
        // hold (eventual delivery across the crash).
        let mut node = node.lock().expect("no incarnation panics holding its slot");
        let Slot { end, held } = &mut *node;
        // Resume the step counter where the predecessor left it so
        // per-step randomness is never reused.
        let mut clock = shared.board().steps[i];
        let mut arrivals: Vec<Envelope<A::Msg>> = Vec::new();
        let mut per_instance: Vec<Vec<Delivery<A::Msg>>> =
            autos.iter().map(|_| Vec::new()).collect();
        let mut sent = vec![0; autos.len()];
        let mut out: Outbox<A::Msg> = Outbox::new();
        while !shared.done.load(Ordering::Acquire) && clock < shared.max_steps {
            if crash_at == Some(clock) {
                // Fail-stop mid-broadcast: this step's messages are
                // never sent. Stable storage (the snapshots) survives.
                let snaps = autos.iter().map(A::snapshot).collect();
                let mut board = shared.board();
                board.crash_snaps[i] = Some(snaps);
                board.crashed[i] = true;
                board.down[i] = true;
                return;
            }
            // A late node's deadline is now: it steps at once on what
            // has already arrived.
            let due = next_deadline(slot, Instant::now());
            slot = due + shared.tick;
            if !shared.wait_until(due) {
                return;
            }
            // Receive: the holds that have fallen due, oldest first,
            // then what has arrived, less what the plan still holds.
            let now = Instant::now();
            arrivals.extend(std::iter::from_fn(|| held.pop_due(now)));
            shared.links.receive(end, id, now, |at, env| {
                if at <= now {
                    arrivals.push(env);
                } else {
                    held.push(at, env);
                }
            });
            // This step's cluster-wide event, for the paper's lateness
            // measure: number and note the step first (the receiving
            // step counts toward the interval), then classify what
            // reaches an instance.
            let ev = {
                let board = &mut *shared.board();
                board.events += 1;
                board.lateness.note_step(i, board.events);
                for env in arrivals.drain(..) {
                    // The tag came off a wire: one that names no
                    // instance is dropped, never indexed or classified.
                    if let Some(inbox) = per_instance.get_mut(env.instance) {
                        board.lateness.classify_delivery(env.sent_event);
                        if clock.saturating_sub(env.sent_at_tick) > board.lateness.k() {
                            board.late_by_ticks[env.instance] += 1;
                        }
                        inbox.push(Delivery::new(env.from, env.msg));
                    }
                }
                board.events
            };
            for (k, (auto, inbox)) in autos.iter_mut().zip(&mut per_instance).enumerate() {
                let mut rng = shared.seeds[k].step_rng(id, LocalClock::new(clock));
                auto.step_into(inbox.iter().map(|d| (d.from, &d.msg)), &mut rng, &mut out);
                inbox.clear();
                let n = auto.population();
                sent[k] = out.sends(id, n).count() as u64;
                if sent[k] > 0 {
                    // What a broadcast costs per destination is the
                    // substrate's call: the outbox goes as it is.
                    let step = Envelope {
                        from: id,
                        instance: k,
                        sent_at_tick: clock + 1,
                        sent_event: ev,
                        msg: &out,
                    };
                    shared.links.send(end, step, n);
                }
                out.clear();
            }
            // Flush before publishing: a driver that sees the decision
            // and stops the run finds the step's messages on their way.
            shared.links.flush(end, id);
            clock += 1;
            let mut board = shared.board();
            board.steps[i] = clock;
            board.publish_statuses(i, &autos);
            for (total, step) in board.messages.iter_mut().zip(&sent) {
                *total += step;
            }
        }
    })
}

/// A booted cluster: every node's first incarnation running its paced
/// loop over `L`, ready to be driven — by [`ClusterCore::run_scripted`],
/// by [`supervise`](crate::supervise), or by a caller polling
/// [`ClusterCore::all_owing_decided`] — and then finished.
pub struct ClusterCore<A: Recoverable, L: Links<A::Msg>> {
    shared: Arc<Shared<A, L>>,
    slots: Vec<SharedSlot<L::End, A::Msg>>,
    /// Every node thread spawned, incarnations included: the only
    /// threads a run starts.
    handles: Vec<thread::JoinHandle<()>>,
    /// `init_snaps[i]`: node `i`'s initial snapshots, the fallback for
    /// amnesiac restarts.
    init_snaps: Vec<Vec<A::Snapshot>>,
    start: Instant,
}

impl<A: Recoverable, L: Links<A::Msg>> std::fmt::Debug for ClusterCore<A, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("nodes", &self.slots.len())
            .field("instances", &self.shared.seeds.len())
            .finish()
    }
}

impl<A, L> ClusterCore<A, L>
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
    L: Links<A::Msg>,
{
    /// Spawns the first incarnation of every node, node `i`'s first
    /// step due `i/n` of a tick after boot: on time, its step `k` falls
    /// at `(k + i/n) × tick`, the simulator's synchronous schedule.
    ///
    /// `instances[k]` is the population of instance `k` (all the same
    /// length `n`, in processor order) and `seeds[k]` its seed
    /// collection; `links` is how messages move and `ends[i]` node
    /// `i`'s own end of them. Of `faults` the core reads only the
    /// scripted crash steps — network faults belong to the substrate.
    ///
    /// # Panics
    ///
    /// Panics when `instances` is empty or ragged, or when `seeds` or
    /// `ends` do not match it.
    pub fn boot(
        instances: Vec<Vec<A>>,
        seeds: Vec<SeedCollection>,
        faults: &FaultPlan,
        opts: &ClusterOptions,
        links: L,
        ends: Vec<L::End>,
    ) -> ClusterCore<A, L> {
        let m = instances.len();
        assert!(m > 0, "need at least one commit instance");
        assert_eq!(seeds.len(), m, "one seed collection per instance");
        let n = instances[0].len();
        assert!(n > 0, "cluster needs at least one processor");
        assert!(
            instances.iter().all(|pop| pop.len() == n),
            "all instances must share the population size"
        );
        assert_eq!(ends.len(), n, "one end of the links per processor");

        // Transpose instances[k][i] into per-node automata.
        let mut per_node: Vec<Vec<A>> = (0..n).map(|_| Vec::with_capacity(m)).collect();
        for pop in instances {
            for (i, auto) in pop.into_iter().enumerate() {
                per_node[i].push(auto);
            }
        }
        let init_snaps = per_node
            .iter()
            .map(|autos| autos.iter().map(A::snapshot).collect())
            .collect();
        let board = Board {
            statuses: vec![vec![Status::Undecided; n]; m],
            steps: vec![0; n],
            messages: vec![0; m],
            late_by_ticks: vec![0; m],
            crash_snaps: (0..n).map(|_| None).collect(),
            down: vec![false; n],
            crashed: vec![false; n],
            events: 0,
            lateness: LatenessMonitor::new(n, opts.lateness_k),
        };
        let shared = Arc::new(Shared::<A, L> {
            board: Mutex::new(board),
            done: AtomicBool::new(false),
            seeds,
            tick: opts.tick,
            max_steps: opts.max_steps,
            links,
        });
        let slots: Vec<SharedSlot<L::End, A::Msg>> = ends
            .into_iter()
            .map(|end| {
                Arc::new(Mutex::new(Slot {
                    end,
                    held: HoldQueue::default(),
                }))
            })
            .collect();
        let boot = Instant::now();
        let handles = per_node
            .into_iter()
            .enumerate()
            .map(|(i, autos)| {
                let crash_at = faults.crash_step(ProcessorId::new(i));
                spawn_node(
                    Arc::clone(&shared),
                    i,
                    Arc::clone(&slots[i]),
                    autos,
                    crash_at,
                    first_step(boot, opts.tick, i, n),
                )
            })
            .collect();
        ClusterCore {
            shared,
            slots,
            handles,
            init_snaps,
            start: boot,
        }
    }

    /// Respawns a down node, from its crash snapshots or amnesiac. The
    /// new incarnation steps at once.
    ///
    /// The restored automata's statuses are published and the node is
    /// marked up in one critical section, so no decision check reads
    /// the node up with the dead incarnation's status — a victim that
    /// decided before it crashed cannot end the run before its
    /// successor takes a step.
    pub fn respawn(&mut self, idx: usize, from_snapshot: bool) {
        let mut board = self.shared.board();
        let autos: Vec<A> = match board.crash_snaps[idx].as_ref().filter(|_| from_snapshot) {
            Some(snaps) => snaps.iter().map(A::restore).collect(),
            None => self.init_snaps[idx]
                .iter()
                .map(A::restore_amnesiac)
                .collect(),
        };
        board.publish_statuses(idx, &autos);
        board.down[idx] = false;
        drop(board);
        self.handles.push(spawn_node(
            Arc::clone(&self.shared),
            idx,
            Arc::clone(&self.slots[idx]),
            autos,
            None,
            Instant::now(),
        ));
    }

    /// Steps each node has taken so far.
    pub fn steps(&self) -> Vec<u64> {
        self.shared.board().steps.clone()
    }

    /// Node threads spawned so far, respawns included. They are the
    /// only threads a run starts: a round of `n` nodes that nothing
    /// restarts runs `n`.
    pub fn threads_spawned(&self) -> u64 {
        self.handles.len() as u64
    }

    /// How many nodes the cluster runs.
    pub(crate) fn population(&self) -> usize {
        self.slots.len()
    }

    /// The nodes' step period.
    pub(crate) fn tick(&self) -> Duration {
        self.shared.tick
    }

    /// Time elapsed since the cluster booted.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Which nodes are currently down (crashed and not yet respawned).
    pub(crate) fn down(&self) -> Vec<bool> {
        self.shared.board().down.clone()
    }

    /// Whether every node not excused by `excused` is up and holds a
    /// decision in every instance.
    pub(crate) fn all_up_and_decided(&self, excused: &[bool]) -> bool {
        let board = self.shared.board();
        let Board { statuses, down, .. } = &*board;
        (0..down.len())
            .all(|i| excused[i] || (!down[i] && statuses.iter().all(|inst| inst[i].is_decided())))
    }

    /// Whether every node that is not currently down holds a decision
    /// in every instance.
    pub fn all_owing_decided(&self) -> bool {
        let down = self.down();
        self.all_up_and_decided(&down)
    }

    /// The scripted driver: fires each restart at its tick, `tick × at`
    /// of wall clock after boot, or at the victim's actual crash,
    /// whichever is later, and stops when no restart is pending and
    /// every owed decision is in, or at `wall_timeout`. Returns which
    /// nodes were respawned and whether the run ended by decision.
    pub fn run_scripted(
        &mut self,
        mut pending: Vec<RestartAt>,
        wall_timeout: Duration,
    ) -> (Vec<bool>, bool) {
        pending.sort_by_key(|r| r.at);
        let mut recovered = vec![false; self.population()];
        while self.elapsed() < wall_timeout {
            let now = self.elapsed();
            pending.retain(|r| {
                let idx = r.victim.index();
                let fire = now >= wall(self.tick(), r.at) && self.shared.board().down[idx];
                if fire {
                    self.respawn(idx, r.from_snapshot);
                    recovered[idx] = true;
                }
                !fire
            });
            if pending.is_empty() && self.all_owing_decided() {
                return (recovered, true);
            }
            thread::sleep(self.tick());
        }
        (recovered, false)
    }

    /// Stops the node threads and assembles one report per instance.
    /// No tick is waited out: every node is unparked once `done` is
    /// raised. Then `teardown` gets the links and every node's end of
    /// them, and returns how many messages the substrate still held;
    /// with the envelopes whose hold in a node's queue outlived the run,
    /// that is the report's undelivered count. `steps`, `crashed`,
    /// `recovered`, the undelivered count and the monitor's counts are
    /// per node or per run, and repeated in every instance's report.
    pub fn finish(
        self,
        recovered: Vec<bool>,
        decided_in_time: bool,
        teardown: impl FnOnce(L, Vec<L::End>) -> u64,
    ) -> Vec<ClusterReport> {
        self.shared.done.store(true, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles {
            let _ = h.join();
        }
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            unreachable!("every node thread has exited and dropped its handle");
        };
        let (ended, mut held, mut ends) = (Instant::now(), 0, Vec::new());
        for slot in self.slots {
            let Ok(slot) = Arc::try_unwrap(slot) else {
                unreachable!("every node thread has exited and dropped its slot");
            };
            let slot = slot
                .into_inner()
                .expect("no incarnation panics holding its slot");
            held += slot.held.outliving(ended);
            ends.push(slot.end);
        }
        let messages_undelivered = held + teardown(shared.links, ends);
        let wall = self.start.elapsed();
        let board = shared
            .board
            .into_inner()
            .expect("no thread panics holding the board");
        board
            .statuses
            .into_iter()
            .enumerate()
            .map(|(k, statuses)| {
                let owed_in = statuses
                    .iter()
                    .zip(&board.down)
                    .all(|(s, d)| *d || s.is_decided());
                ClusterReport {
                    statuses,
                    steps: board.steps.clone(),
                    crashed: board.crashed.clone(),
                    recovered: recovered.clone(),
                    messages_sent: board.messages[k],
                    messages_undelivered,
                    wall,
                    decided_in_time: decided_in_time && owed_in,
                    late_by_ticks: board.late_by_ticks[k],
                    deliveries: board.lateness.delivered(),
                    late_deliveries: board.lateness.late_count(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
    use rtc_model::{Decision, TimingParams, Value};

    use std::sync::mpsc::{Receiver, Sender};

    use super::*;
    use crate::fault::DelayModel;
    use crate::recovery::{boot_channels, finish_channels};
    use crate::run_cluster;

    fn cfg(n: usize) -> CommitConfig {
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
    }

    fn opts() -> ClusterOptions {
        ClusterOptions {
            tick: Duration::from_micros(300),
            max_steps: 100_000,
            wall_timeout: Duration::from_secs(20),
            ..ClusterOptions::default()
        }
    }

    /// A step recorder: every step it reports its own step count, how
    /// many messages it has heard, and the first draw of the step's
    /// random number — to `p1` then `p0`, or as one broadcast.
    #[derive(Clone, Debug)]
    struct Probe {
        id: ProcessorId,
        steps: u64,
        heard: u64,
        broadcasts: bool,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Seen {
        step: u64,
        heard: u64,
        coin: u64,
    }

    impl rtc_model::Automaton for Probe {
        type Msg = Seen;

        fn id(&self) -> ProcessorId {
            self.id
        }

        fn population(&self) -> usize {
            2
        }

        fn step_into<'a>(
            &mut self,
            inbox: impl Iterator<Item = (ProcessorId, &'a Seen)>,
            rng: &mut rtc_model::StepRng,
            out: &mut Outbox<Seen>,
        ) {
            self.heard += inbox.count() as u64;
            let seen = Seen {
                step: self.steps,
                heard: self.heard,
                coin: rng.next_u64(),
            };
            self.steps += 1;
            if self.broadcasts {
                out.broadcast(seen);
            } else {
                out.send(ProcessorId::new(1), seen.clone());
                out.send(ProcessorId::new(0), seen);
            }
        }

        fn status(&self) -> Status {
            Status::Undecided
        }
    }

    impl Recoverable for Probe {
        type Snapshot = Probe;

        fn snapshot(&self) -> Probe {
            self.clone()
        }

        fn restore(snapshot: &Probe) -> Probe {
            snapshot.clone()
        }
    }

    /// What a node asked of its `Links`, call by call.
    #[derive(Debug)]
    enum Call {
        /// One `send`: the step's header, whether the outbox held a
        /// broadcast, and what each destination receives.
        Send(Envelope<()>, bool, Vec<(ProcessorId, Seen)>),
        Flush(ProcessorId),
    }

    /// A `Links` that delivers only what was waiting at boot, and
    /// reports every call.
    struct Recorder(Sender<Call>);

    impl Links<Seen> for Recorder {
        /// What waits at a node's end: handed over at its first tick.
        type End = Vec<Envelope<Seen>>;

        fn receive(
            &self,
            end: &mut Vec<Envelope<Seen>>,
            _to: ProcessorId,
            now: Instant,
            mut land: impl FnMut(Instant, Envelope<Seen>),
        ) {
            end.drain(..).for_each(|env| land(now, env));
        }

        fn send(&self, _end: &mut Vec<Envelope<Seen>>, step: Envelope<&Outbox<Seen>>, n: usize) {
            let header = Envelope {
                from: step.from,
                instance: step.instance,
                sent_at_tick: step.sent_at_tick,
                sent_event: step.sent_event,
                msg: (),
            };
            let mut out = step.msg.clone();
            let sends = step.msg.sends(step.from, n);
            let sends = sends.map(|(to, msg)| (to, msg.clone())).collect();
            let _ = self
                .0
                .send(Call::Send(header, out.take_broadcast().is_some(), sends));
        }

        fn flush(&self, _end: &mut Vec<Envelope<Seen>>, from: ProcessorId) {
            let _ = self.0.send(Call::Flush(from));
        }
    }

    /// Boots two instances of a two-`Probe` population where `p1`
    /// crashes before its first step, so `p0` is the only thread that
    /// ever steps, over a [`Recorder`] with `waiting` at `p0`'s end.
    fn boot_probes(
        broadcasts: bool,
        p0_crash: Option<u64>,
        seeds: &[SeedCollection],
        waiting: Vec<Envelope<Seen>>,
    ) -> (ClusterCore<Probe, Recorder>, Receiver<Call>) {
        let p = ProcessorId::new;
        let population = || {
            (0..2).map(|i| Probe {
                id: p(i),
                steps: 0,
                heard: 0,
                broadcasts,
            })
        };
        let (calls_tx, calls) = std::sync::mpsc::channel();
        let mut faults = FaultPlan::none().with_crash(p(1), 0);
        if let Some(at) = p0_crash {
            faults = faults.with_crash(p(0), at);
        }
        let core = ClusterCore::boot(
            vec![population().collect(), population().collect()],
            seeds.to_vec(),
            &faults,
            &ClusterOptions {
                tick: Duration::from_millis(1),
                max_steps: 1_000,
                ..opts()
            },
            Recorder(calls_tx),
            vec![waiting, Vec::new()],
        );
        (core, calls)
    }

    #[test]
    fn the_node_loop_over_a_recording_links() {
        // p0 crashes at step 3.
        const CRASH: u64 = 3;
        let p = ProcessorId::new;
        let seeds = vec![SeedCollection::new(91), SeedCollection::new(92)];
        // Waiting in p0's inbox: one message for instance 1, and one
        // whose tag names no instance.
        let waiting = [1, 7].map(|instance| Envelope {
            from: p(1),
            instance,
            sent_at_tick: 0,
            sent_event: 0,
            msg: Seen {
                step: 0,
                heard: 0,
                coin: 0,
            },
        });
        let (mut core, calls) = boot_probes(false, Some(CRASH), &seeds, waiting.to_vec());
        let wait = Duration::from_secs(20);
        let await_down = |core: &ClusterCore<Probe, Recorder>| {
            while !core.down()[0] {
                assert!(core.elapsed() < wait, "p0 never crashed");
                thread::sleep(Duration::from_millis(1));
            }
        };

        // Every step files instance 0's outbox, then instance 1's, each
        // fanning out in the order the automaton listed its sends, then
        // flushes once; the loop stamps the step count after the step
        // and draws the coin from `seeds[instance]` at the step's
        // clock. The out-of-range tag was dropped: only instance 1
        // heard anything.
        let expect_steps = |steps: std::ops::Range<u64>| {
            for step in steps {
                for instance in [0, 1] {
                    let call = calls.recv_timeout(wait).expect("a send per instance");
                    let Call::Send(header, false, sends) = call else {
                        panic!("expected instance {instance}'s direct sends, got {call:?}");
                    };
                    assert_eq!((header.from, header.instance), (p(0), instance));
                    assert_eq!(header.sent_at_tick, step + 1);
                    let coin = seeds[instance]
                        .step_rng(p(0), LocalClock::new(step))
                        .next_u64();
                    let heard = instance as u64;
                    let seen = Seen { step, heard, coin };
                    assert_eq!(sends, vec![(p(1), seen.clone()), (p(0), seen)]);
                }
                let call = calls.recv_timeout(wait).expect("a flush per step");
                assert!(
                    matches!(call, Call::Flush(from) if from == p(0)),
                    "{call:?}"
                );
            }
        };
        expect_steps(0..CRASH);
        // The crash fires before step 3 sends anything, and the thread
        // is gone once the node is marked down.
        await_down(&core);
        assert!(calls.try_recv().is_err(), "a crashed node sent a message");

        // A restart resumes both the automata (from the crash snapshot)
        // and the loop's step counter, so no step's randomness is drawn
        // twice.
        core.respawn(0, true);
        expect_steps(CRASH..CRASH + 2);
        let reports = core.finish(vec![true, false], false, |_, _| 0);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].crashed, vec![true, true]);
        assert!(reports[0].steps[0] >= CRASH + 2 && reports[0].steps[1] == 0);
        // Only the arrival that reached an instance was classified, by
        // the monitor and by the tick ledger: it was sent at tick 0 and
        // read at tick 0.
        assert_eq!(reports[0].deliveries, 1);
        assert!(reports.iter().all(|r| r.late_by_ticks == 0));
        // Each instance's message count is what the links were handed,
        // by both incarnations: the steps read above, two sends each,
        // and whatever the successor sent before `finish` stopped it.
        let mut recorded = [2 * (CRASH + 2); 2];
        for call in calls.try_iter() {
            if let Call::Send(header, _, sends) = call {
                recorded[header.instance] += sends.len() as u64;
            }
        }
        let counted: Vec<u64> = reports.iter().map(|r| r.messages_sent).collect();
        assert_eq!(counted, recorded);
    }

    #[test]
    fn a_broadcast_is_filed_once_per_instance_and_a_tick_flushes_once() {
        let p = ProcessorId::new;
        let seeds = vec![SeedCollection::new(93), SeedCollection::new(94)];
        let (core, calls) = boot_probes(true, None, &seeds, Vec::new());
        let wait = Duration::from_secs(20);
        for step in 0..4 {
            for instance in [0, 1] {
                // One call carries the broadcast, whatever it fans out
                // to (here the one other processor).
                let call = calls.recv_timeout(wait).expect("a send per instance");
                let Call::Send(header, true, sends) = call else {
                    panic!("expected instance {instance}'s broadcast, got {call:?}");
                };
                assert_eq!((header.instance, header.sent_at_tick), (instance, step + 1));
                assert_eq!(sends.len(), 1);
                assert_eq!((sends[0].0, sends[0].1.step), (p(1), step));
            }
            let call = calls.recv_timeout(wait).expect("a flush per step");
            assert!(
                matches!(call, Call::Flush(from) if from == p(0)),
                "{call:?}"
            );
        }
        let reports = core.finish(vec![false; 2], false, |_, _| 0);
        // Messages are counted per destination, as before.
        assert_eq!(reports[0].messages_sent, reports[0].steps[0]);
    }

    #[test]
    fn deadlines_are_absolute_and_a_late_node_does_not_burst() {
        let tick = Duration::from_millis(10);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // The loop's rule, one step at a time: the step is due at its
        // slot or now, whichever is later, and the next slot is one
        // tick after that.
        let pace = |slot: Instant, now: Instant| {
            let due = next_deadline(slot, now);
            (due, due + tick)
        };
        // On time (the step took 3 ms): the next tick is due one tick
        // after the previous deadline, not one tick after now.
        assert_eq!(pace(at(110), at(103)), (at(110), at(120)));
        // Late by less than a tick: step at once, and pace from there.
        assert_eq!(pace(at(110), at(117)), (at(117), at(127)));
        assert_eq!(pace(at(127), at(118)), (at(127), at(137)));
        // Late by many ticks: one immediate step, not one per tick
        // missed — the deadline after it is a whole tick away.
        assert_eq!(pace(at(110), at(175)), (at(175), at(185)));
        assert_eq!(pace(at(185), at(175)), (at(185), at(195)));
        // A respawn's slot is the instant it was spawned: its first
        // step is due at once, and the next one a tick later.
        assert_eq!(pace(at(100), at(100)), (at(100), at(110)));
    }

    #[test]
    fn first_steps_fall_at_the_synchronous_phases() {
        // Node i of n first steps i/n of a tick after boot, so its step
        // k is due at (k + i/n) ticks: inside plan tick k, after every
        // lower-numbered node's step k and before every node's step
        // k + 1.
        let tick = Duration::from_millis(1);
        let boot = Instant::now();
        for n in [1, 3, 5, 16] {
            let phases: Vec<Duration> = (0..n)
                .map(|i| first_step(boot, tick, i, n) - boot)
                .collect();
            assert_eq!(phases[0], Duration::ZERO);
            assert!(phases
                .windows(2)
                .all(|w| w[1] - w[0] >= tick / n as u32 - Duration::from_nanos(1)));
            assert!(phases[n - 1] + tick / n as u32 <= tick);
        }
        let at = |i, n| first_step(boot, tick, i, n) - boot;
        assert_eq!(at(1, 3), Duration::from_nanos(333_333));
        assert_eq!(at(2, 3), Duration::from_nanos(666_666));
        assert_eq!(at(4, 5), Duration::from_micros(800));
    }

    #[test]
    fn finish_does_not_wait_out_a_tick() {
        // Every node is parked in a 50 ms tick when `finish` is called;
        // unparking wakes each at once, and nothing else runs.
        let c = cfg(3);
        let slow = ClusterOptions {
            tick: Duration::from_millis(50),
            ..opts()
        };
        let core = boot_channels(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(15),
            &FaultPlan::none(),
            &slow,
        );
        let called = Instant::now();
        let report = finish_channels(core, vec![false; 3], false);
        let took = called.elapsed();
        assert!(took < Duration::from_millis(25), "finish took {took:?}");
        assert!(report.steps.iter().all(|s| *s <= 1), "{report:?}");
    }

    #[test]
    fn every_node_takes_its_first_step_at_boot() {
        // Node i's first step is due i/n of the 200 ms tick after boot:
        // a node that stepped at boot, or waited out a whole tick, falls
        // outside its window [i·T/n, i·T/n + T/(2n)).
        let c = cfg(3);
        let tick = Duration::from_millis(200);
        let slow = ClusterOptions { tick, ..opts() };
        let booted = Instant::now();
        let core = boot_channels(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(17),
            &FaultPlan::none(),
            &slow,
        );
        let mut first = [None; 3];
        while first.contains(&None) && booted.elapsed() < Duration::from_secs(1) {
            let now = booted.elapsed();
            for (at, s) in first.iter_mut().zip(core.steps()) {
                if at.is_none() && s > 0 {
                    *at = Some(now);
                }
            }
            thread::sleep(Duration::from_micros(200));
        }
        let report = finish_channels(core, vec![false; 3], false);
        assert!(report.steps.iter().all(|s| *s >= 1), "{report:?}");
        for (i, at) in (0..).zip(first) {
            let phase = tick * i / 3;
            let at = at.expect("every node stepped");
            assert!(
                at >= phase && at < phase + tick / 6,
                "node {i} first stepped at {at:?}, outside its phase {phase:?}: {first:?}"
            );
        }
        assert!(first.windows(2).all(|w| w[0] < w[1]), "{first:?}");
    }

    /// A commit automaton that logs, after each of its steps, when the
    /// step ended and whether it had decided.
    #[derive(Clone, Debug)]
    struct Logged {
        inner: CommitAutomaton,
        log: Arc<Mutex<Vec<(Instant, bool)>>>,
    }

    impl rtc_model::Automaton for Logged {
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
            rng: &mut rtc_model::StepRng,
            out: &mut Outbox<CommitMsg>,
        ) {
            self.inner.step_into(inbox, rng, out);
            let decided = self.inner.status().is_decided();
            self.log.lock().unwrap().push((Instant::now(), decided));
        }

        fn status(&self) -> Status {
            self.inner.status()
        }
    }

    impl Recoverable for Logged {
        type Snapshot = Logged;

        fn snapshot(&self) -> Logged {
            self.clone()
        }

        fn restore(snapshot: &Logged) -> Logged {
            snapshot.clone()
        }
    }

    #[test]
    fn fault_free_runs_take_the_synchronous_schedule() {
        // A 40 ms tick leaves every message at least 8 ms (n = 5) to
        // reach its receiver's step, so only the phases decide who
        // hears what when. Each node decides after exactly the
        // simulator's synchronous step count, and node i's step k ends
        // inside [(k + i/n)·T, (k + 1)·T) of boot — plan tick k, where a
        // tick-windowed fault reads it. One run of each size commits,
        // one aborts.
        let tick = Duration::from_millis(40);
        for (n, seed, no) in [
            (3, 1, None),
            (3, 2, Some(2)),
            (5, 42, None),
            (5, 43, Some(1)),
        ] {
            let c = cfg(n);
            let seeds = SeedCollection::new(seed);
            let mut votes = vec![Value::One; n];
            if let Some(i) = no {
                votes[i] = Value::Zero;
            }
            let population = commit_population(c, &votes);
            let mut sim = rtc_sim::SimBuilder::new(TimingParams::default(), seeds)
                .fault_budget(c.fault_bound())
                .build(population.clone())
                .unwrap();
            let mut adv = rtc_sim::adversaries::SynchronousAdversary::new(n);
            sim.run(&mut adv, rtc_sim::RunLimits::default()).unwrap();
            let expected: Vec<u64> = ProcessorId::all(n)
                .map(|p| sim.trace().decision_of(p).expect("decides").clock.ticks())
                .collect();

            let logs: Vec<_> = (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
            let logged = population
                .into_iter()
                .zip(&logs)
                .map(|(inner, log)| Logged {
                    inner,
                    log: Arc::clone(log),
                })
                .collect();
            let o = ClusterOptions { tick, ..opts() };
            let booted = Instant::now();
            let report = run_cluster(logged, seeds, FaultPlan::none(), o);
            assert!(report.decided_in_time, "{report:?}");
            let logs: Vec<_> = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
            let decided: Vec<u64> = logs
                .iter()
                .map(|log| 1 + log.iter().position(|(_, d)| *d).expect("decides") as u64)
                .collect();
            assert_eq!(decided, expected, "n = {n}, {seeds:?}: decision steps");
            for (i, log) in (0..).zip(&logs) {
                for (k, (at, _)) in (0..).zip(log) {
                    let since = *at - booted;
                    let (due, end) = (tick * k + tick * i / n as u32, tick * (k + 1));
                    assert!(
                        since >= due && since < end,
                        "node {i}'s step {k} ended {since:?} after boot, not in [{due:?}, {end:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn lateness_is_classified_against_the_derived_k() {
        // Every message is held eight ticks, so between a send and its
        // receive every node takes eight or nine steps: late against
        // K = 2, on time against K = 64. The first verdict flips only if
        // both nodes stall six ticks inside one hold, the second only if
        // a delivery is held up 56 ticks past its hold — longer than the
        // whole 40-tick run.
        let tick = Duration::from_millis(4);
        let run = |k: u64| {
            let mut o = ClusterOptions::derived(tick, TimingParams::new(k).unwrap());
            o.wall_timeout = Duration::from_millis(160);
            let probes = (0..2).map(|i| Probe {
                id: ProcessorId::new(i),
                steps: 0,
                heard: 0,
                broadcasts: false,
            });
            run_cluster(
                probes.collect(),
                SeedCollection::new(16),
                FaultPlan::none().with_delay(DelayModel::Uniform { min: 8, max: 8 }),
                o,
            )
        };
        let strict = run(2);
        assert!(strict.deliveries > 0, "{strict:?}");
        assert_eq!(strict.late_deliveries, strict.deliveries, "{strict:?}");
        let lax = run(64);
        assert!(lax.deliveries > 0, "{lax:?}");
        assert!(lax.late_deliveries * 4 < lax.deliveries, "{lax:?}");
    }

    #[test]
    fn unanimous_commit_decides_commit() {
        let c = cfg(5);
        let report = run_cluster(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(11),
            FaultPlan::none(),
            opts(),
        );
        assert!(report.decided_in_time, "run timed out: {report:?}");
        assert!(report
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Commit)));
    }

    #[test]
    fn initial_abort_decides_abort() {
        let c = cfg(5);
        let mut votes = vec![Value::One; 5];
        votes[3] = Value::Zero;
        let report = run_cluster(
            commit_population(c, &votes),
            SeedCollection::new(12),
            FaultPlan::none(),
            opts(),
        );
        assert!(report.decided_in_time);
        assert!(report
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Abort)));
    }

    #[test]
    fn tolerated_crashes_still_decide() {
        let c = cfg(5); // t = 2
        let report = run_cluster(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(13),
            FaultPlan::none()
                .with_crash(ProcessorId::new(3), 6)
                .with_crash(ProcessorId::new(4), 2),
            opts(),
        );
        assert!(report.decided_in_time, "run timed out: {report:?}");
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
    }

    #[test]
    fn tick_ledger_reflects_injected_spikes() {
        // Spikes of `SPIKE` ticks, more than K = 4, and over well before
        // the run can end (16+ ticks), so the held messages are
        // delivered. The floor is what the plan's own dice imply, not a
        // second wall-clock run: the coordinator's first broadcast (its
        // GO, at its boot step) rolls the first dice of its stream, one
        // per peer, and each GO those dice hold reaches its peer `SPIKE`
        // ticks later — more than K receiver ticks after the GO's tick.
        const SPIKE: u64 = 7;
        let c = cfg(3);
        let seeds = SeedCollection::new(52);
        let plan = FaultPlan::none().with_delay(DelayModel::Spike {
            permille: 400,
            spike: SPIKE,
        });
        let tick = opts().tick;
        let mut dice = crate::recovery::fault_dice(seeds, 0);
        let held_go = (1..3)
            .filter(|&to| {
                let (hold, ..) = plan.roll(
                    ProcessorId::COORDINATOR,
                    ProcessorId::new(to),
                    Duration::ZERO,
                    tick,
                    &mut dice,
                );
                hold > tick * TimingParams::default().k() as u32
            })
            .count() as u64;
        assert!(
            held_go > 0,
            "the seed's dice must hold a GO for the floor to bite"
        );

        let spiky = run_cluster(commit_population(c, &[Value::One; 3]), seeds, plan, opts());
        assert!(spiky.agreement_holds());
        assert!(
            spiky.late_by_ticks >= held_go,
            "the ledger counts {} late messages, fewer than the {held_go} held GOs",
            spiky.late_by_ticks
        );
    }

    #[test]
    fn link_outage_is_survived_consistently() {
        // The link between the coordinator and p2 is down for the first
        // 13 ticks (about 4 ms); its traffic arrives when the window
        // closes. The cluster
        // must still decide consistently (commit if the buffered GO
        // still beats the 2K window in real time, abort otherwise).
        let c = cfg(3);
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(21),
            FaultPlan::none().with_link_outage(
                ProcessorId::COORDINATOR,
                ProcessorId::new(2),
                0,
                13,
            ),
            opts(),
        );
        assert!(
            report.decided_in_time,
            "outage must not block the cluster: {report:?}"
        );
        assert!(report.agreement_holds());
    }

    #[test]
    fn outage_past_run_end_is_counted_not_dropped() {
        // The link cut lasts far beyond the run (2 000 000 ticks, ten
        // minutes), so traffic buffered on it can never arrive; the report must account for it instead
        // of silently dropping it.
        let c = cfg(3);
        let mut o = opts();
        o.wall_timeout = Duration::from_millis(500);
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(31),
            FaultPlan::none().with_link_outage(
                ProcessorId::COORDINATOR,
                ProcessorId::new(1),
                0,
                2_000_000,
            ),
            o,
        );
        assert!(
            report.messages_undelivered > 0,
            "held messages must be counted: {report:?}"
        );
        assert!(report.agreement_holds());
    }

    #[test]
    fn delay_spikes_preserve_safety_and_liveness() {
        let c = cfg(3);
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(14),
            FaultPlan::none().with_delay(DelayModel::Spike {
                permille: 200,
                spike: 10,
            }),
            opts(),
        );
        assert!(report.decided_in_time, "run timed out: {report:?}");
        assert!(report.agreement_holds());
    }

    #[test]
    fn healed_partition_is_survived_consistently() {
        // {p0, p1} vs {p2, p3, p4} for the first 10 ticks (3 ms), then
        // the network heals and buffered traffic flows. Either the run decides
        // before the cut matters or the heal lets it finish; both ways
        // agreement must hold and nobody may be left undecided.
        let c = cfg(5);
        let report = run_cluster(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(61),
            FaultPlan::none().with_partition(vec![0, 0, 1, 1, 1], 0, 10),
            opts(),
        );
        assert!(
            report.decided_in_time,
            "healed partition must not block the cluster: {report:?}"
        );
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
    }

    #[test]
    fn duplication_and_reordering_preserve_agreement() {
        // A third of messages are duplicated and a third held back out
        // of order; the automata must absorb both without double-acting.
        let c = cfg(5);
        let report = run_cluster(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(62),
            FaultPlan::none().with_duplication(300).with_reordering(300),
            opts(),
        );
        assert!(report.decided_in_time, "run timed out: {report:?}");
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
        assert!(report
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Commit)));
    }

    #[test]
    fn derived_timeouts_scale_with_tick_and_bound() {
        let timing = TimingParams::default();
        let fine = ClusterOptions::derived(Duration::from_micros(100), timing);
        let coarse = ClusterOptions::derived(Duration::from_millis(1), timing);
        assert!(coarse.wall_timeout > fine.wall_timeout);
        // Both budgets still dominate the margin, so a fault-free run
        // never times out just because the tick is small.
        assert!(fine.wall_timeout >= Duration::from_secs(5));
        assert_eq!(ClusterOptions::default().tick, Duration::from_micros(500));
    }
}
