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
//! The tick is also the unit of I/O. What differs between substrates is
//! only where a step's sends go, and that is the [`Links`] seam: the
//! loop files each instance's [`Outbox`] and flushes once per tick.
//! `ChannelLinks` in this crate routes each message through the
//! [`FaultRouter`](crate::FaultRouter) to the receiver's inbox or the
//! delayer; `rtc-net`'s `TcpLinks` encodes frames into one buffer per
//! peer and a flush is one socket write per link, and the receiving
//! node's reader routes the frames. Inboxes are std `mpsc` receivers of
//! [`Inbound`] items on both.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rtc_model::{
    Delivery, LatenessMonitor, LocalClock, Outbox, ProcessorId, Recoverable, RunFacts,
    SeedCollection, Status, TimingParams,
};

use crate::fault::{wall, FaultPlan, RestartAt};

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
    /// Messages still held by the delayer (delay spikes or link-outage
    /// buffering) when the run ended — traffic whose hold outlived the
    /// run instead of being silently dropped.
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
    /// still held — by the delayer or a socket link — when the run
    /// ended (a held message has no age here, so any one counts).
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

/// What a node's inbox carries.
#[derive(Debug)]
pub enum Inbound<M> {
    /// Messages that arrived together (one socket read, one channel
    /// send), in arrival order.
    Msgs(Vec<Envelope<M>>),
    /// The run is over: the node returns without taking another step.
    Stop,
}

/// Where a node's sends go: the one thing the substrates do differently.
/// An implementation owns a format (an in-memory envelope, a frame on a
/// socket) and whatever stands between sender and inbox; the node loop
/// knows neither.
pub trait Links<M>: Send + Sync + 'static {
    /// Files what one instance sent at one step: `step.msg` is its
    /// outbox and the rest of `step` the header every message of the
    /// step shares; `n` is the population a broadcast fans out over
    /// ([`Outbox::sends`] is the order on every link). Must not block
    /// on a receiver and must tolerate teardown: a message that cannot
    /// be carried is accounted by the substrate, not reported here.
    fn send(&self, step: Envelope<&Outbox<M>>, n: usize);

    /// Ends node `from`'s tick: whatever it filed since its last flush
    /// and has not moved yet moves now. Called once per step, after the
    /// last instance's `send`.
    fn flush(&self, from: ProcessorId);
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

/// Both ends of a node's inbox, as [`ClusterCore::boot`] takes them.
pub type InboxEnds<M> = (Sender<Inbound<M>>, Receiver<Inbound<M>>);

/// An inbox endpoint shareable across a node's successive incarnations.
type SharedInbox<M> = Arc<Mutex<Receiver<Inbound<M>>>>;

/// Everything the node threads and the driving thread share.
struct Shared<A: Recoverable, L> {
    /// `statuses[k][i]`: instance `k`'s status at node `i`.
    statuses: Mutex<Vec<Vec<Status>>>,
    steps: Mutex<Vec<u64>>,
    done: Arc<AtomicBool>,
    /// Protocol messages sent, per instance (before any fault or frame).
    messages: Vec<AtomicU64>,
    /// The tick ledger, per instance: deliveries whose receiver tick
    /// exceeds their sender's by more than `K`.
    late_by_ticks: Vec<AtomicU64>,
    /// `crash_snaps[i]`: node `i`'s crash-time snapshot of every
    /// instance — the stable storage a dying node writes.
    crash_snaps: Mutex<Vec<Option<Vec<A::Snapshot>>>>,
    /// `init_snaps[i]`: the fallback for amnesiac restarts. (In a Mutex
    /// only to make `Shared` Sync without demanding `Snapshot: Sync`;
    /// it is written once, before any thread starts.)
    init_snaps: Mutex<Vec<Vec<A::Snapshot>>>,
    /// Currently crashed and not (yet) restarted.
    down: Mutex<Vec<bool>>,
    /// Whether each processor's scripted crash actually fired.
    ever_crashed: Mutex<Vec<bool>>,
    /// One seed collection per instance: instance `k` replays the
    /// simulator's coin flips for seed collection `k`.
    seeds: Vec<SeedCollection>,
    tick: Duration,
    max_steps: u64,
    /// Cluster-wide step-event counter feeding the lateness monitor.
    events: AtomicU64,
    lateness: Mutex<LatenessMonitor>,
    links: L,
}

impl<A: Recoverable, L> Shared<A, L> {
    fn publish_statuses(&self, i: usize, autos: &[A]) {
        let mut st = self
            .statuses
            .lock()
            .expect("no thread panics holding cluster state");
        for (k, a) in autos.iter().enumerate() {
            st[k][i] = a.status();
        }
    }
}

/// Spawns one incarnation of node `i`, stepping `autos` (one automaton
/// per instance) from the step count its predecessor reached. Its first
/// step is due at `slot`.
fn spawn_node<A, L>(
    shared: Arc<Shared<A, L>>,
    i: usize,
    rx: SharedInbox<A::Msg>,
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
        // The inbox mutex serialises incarnations: a restarting thread
        // blocks here until its predecessor exits, then inherits every
        // message queued meanwhile (eventual delivery across the crash).
        let rx = rx.lock().expect("no incarnation panics holding its inbox");
        // Resume the step counter where the predecessor left it so
        // per-step randomness is never reused.
        let mut clock = shared
            .steps
            .lock()
            .expect("no thread panics holding cluster state")[i];
        let mut arrivals: Vec<Envelope<A::Msg>> = Vec::new();
        let mut per_instance: Vec<Vec<Delivery<A::Msg>>> =
            autos.iter().map(|_| Vec::new()).collect();
        let mut out: Outbox<A::Msg> = Outbox::new();
        while !shared.done.load(Ordering::Relaxed) && clock < shared.max_steps {
            if crash_at == Some(clock) {
                // Fail-stop mid-broadcast: this step's messages are
                // never sent. Stable storage (the snapshots) survives.
                shared
                    .crash_snaps
                    .lock()
                    .expect("no thread panics holding cluster state")[i] =
                    Some(autos.iter().map(A::snapshot).collect());
                shared
                    .ever_crashed
                    .lock()
                    .expect("no thread panics holding cluster state")[i] = true;
                shared
                    .down
                    .lock()
                    .expect("no thread panics holding cluster state")[i] = true;
                return;
            }
            // Collect one tick's worth of arrivals. A late node's wait
            // is zero, which still drains what is already queued.
            let due = next_deadline(slot, Instant::now());
            slot = due + shared.tick;
            loop {
                match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Ok(Inbound::Msgs(batch)) => arrivals.extend(batch),
                    Err(RecvTimeoutError::Timeout) => break,
                    Ok(Inbound::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            // This step's cluster-wide event, for the paper's lateness
            // measure: note the step first (the receiving step counts
            // toward the interval), then classify what reaches an
            // instance.
            let ev = shared.events.fetch_add(1, Ordering::Relaxed) + 1;
            {
                let mut mon = shared
                    .lateness
                    .lock()
                    .expect("no thread panics holding cluster state");
                mon.note_step(i, ev);
                for env in arrivals.drain(..) {
                    // The tag came off a wire: one that names no
                    // instance is dropped, never indexed or classified.
                    if let Some(inbox) = per_instance.get_mut(env.instance) {
                        mon.classify_delivery(env.sent_event);
                        if clock.saturating_sub(env.sent_at_tick) > mon.k() {
                            shared.late_by_ticks[env.instance].fetch_add(1, Ordering::Relaxed);
                        }
                        inbox.push(Delivery::new(env.from, env.msg));
                    }
                }
            }
            for (k, (auto, inbox)) in autos.iter_mut().zip(&mut per_instance).enumerate() {
                let mut rng = shared.seeds[k].step_rng(id, LocalClock::new(clock));
                auto.step_into(inbox.iter().map(|d| (d.from, &d.msg)), &mut rng, &mut out);
                inbox.clear();
                let n = auto.population();
                let sent = out.sends(id, n).count() as u64;
                if sent > 0 {
                    shared.messages[k].fetch_add(sent, Ordering::Relaxed);
                    // What a broadcast costs per destination is the
                    // substrate's call: the outbox goes as it is.
                    let step = Envelope {
                        from: id,
                        instance: k,
                        sent_at_tick: clock + 1,
                        sent_event: ev,
                        msg: &out,
                    };
                    shared.links.send(step, n);
                }
                out.clear();
            }
            // Flush before publishing: a driver that sees the decision
            // and stops the run finds the step's messages on their way.
            shared.links.flush(id);
            clock += 1;
            shared
                .steps
                .lock()
                .expect("no thread panics holding cluster state")[i] = clock;
            shared.publish_statuses(i, &autos);
        }
    })
}

/// A booted cluster: every node's first incarnation running its paced
/// loop over `L`, ready to be driven — by [`ClusterCore::run_scripted`],
/// by [`supervise`](crate::supervise), or by a caller polling
/// [`ClusterCore::all_owing_decided`] — and then finished.
pub struct ClusterCore<A: Recoverable, L> {
    shared: Arc<Shared<A, L>>,
    inboxes: Vec<SharedInbox<A::Msg>>,
    /// A sender into each inbox, for [`ClusterCore::finish`]'s stop.
    wake: Vec<Sender<Inbound<A::Msg>>>,
    handles: Vec<thread::JoinHandle<()>>,
    start: Instant,
}

impl<A: Recoverable, L> std::fmt::Debug for ClusterCore<A, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterCore")
            .field("nodes", &self.inboxes.len())
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
    /// collection; `inboxes[i]` is both ends of the channel the
    /// substrate delivers node `i`'s traffic on (it keeps clones of the
    /// sender) and `links` where node sends go. Of `faults` the core
    /// reads only the scripted crash steps — network faults belong to
    /// the substrate. `done` is raised by [`ClusterCore::finish`]; the
    /// substrate's own threads may watch the same flag.
    ///
    /// # Panics
    ///
    /// Panics when `instances` is empty or ragged, or when `seeds` or
    /// `inboxes` do not match it.
    pub fn boot(
        instances: Vec<Vec<A>>,
        seeds: Vec<SeedCollection>,
        faults: &FaultPlan,
        opts: &ClusterOptions,
        done: Arc<AtomicBool>,
        inboxes: Vec<InboxEnds<A::Msg>>,
        links: L,
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
        assert_eq!(inboxes.len(), n, "one inbox per processor");

        // Transpose instances[k][i] into per-node automata.
        let mut per_node: Vec<Vec<A>> = (0..n).map(|_| Vec::with_capacity(m)).collect();
        for pop in instances {
            for (i, auto) in pop.into_iter().enumerate() {
                per_node[i].push(auto);
            }
        }
        let shared = Arc::new(Shared::<A, L> {
            statuses: Mutex::new(vec![vec![Status::Undecided; n]; m]),
            steps: Mutex::new(vec![0; n]),
            done,
            messages: (0..m).map(|_| AtomicU64::new(0)).collect(),
            late_by_ticks: (0..m).map(|_| AtomicU64::new(0)).collect(),
            crash_snaps: Mutex::new((0..n).map(|_| None).collect()),
            init_snaps: Mutex::new(
                per_node
                    .iter()
                    .map(|autos| autos.iter().map(A::snapshot).collect())
                    .collect(),
            ),
            down: Mutex::new(vec![false; n]),
            ever_crashed: Mutex::new(vec![false; n]),
            seeds,
            tick: opts.tick,
            max_steps: opts.max_steps,
            events: AtomicU64::new(0),
            lateness: Mutex::new(LatenessMonitor::new(n, opts.lateness_k)),
            links,
        });
        let (wake, inboxes): (Vec<_>, Vec<SharedInbox<A::Msg>>) = inboxes
            .into_iter()
            .map(|(tx, rx)| (tx, Arc::new(Mutex::new(rx))))
            .unzip();
        let boot = Instant::now();
        let handles = per_node
            .into_iter()
            .enumerate()
            .map(|(i, autos)| {
                let crash_at = faults.crash_step(ProcessorId::new(i));
                spawn_node(
                    Arc::clone(&shared),
                    i,
                    Arc::clone(&inboxes[i]),
                    autos,
                    crash_at,
                    first_step(boot, opts.tick, i, n),
                )
            })
            .collect();
        ClusterCore {
            shared,
            inboxes,
            wake,
            handles,
            start: boot,
        }
    }

    /// Respawns a down node, from its crash snapshots or amnesiac. The
    /// new incarnation steps at once.
    ///
    /// The order is an invariant: restore, publish the restored
    /// automata's statuses, mark the node up, spawn. Marking up before
    /// publishing would let a decision check read the dead
    /// incarnation's status — a victim that decided before it crashed
    /// would end the run before its successor took a step.
    pub fn respawn(&mut self, idx: usize, from_snapshot: bool) {
        let snaps = if from_snapshot {
            self.shared
                .crash_snaps
                .lock()
                .expect("no thread panics holding cluster state")[idx]
                .clone()
        } else {
            None
        };
        let autos: Vec<A> = match snaps {
            Some(snaps) => snaps.iter().map(A::restore).collect(),
            None => self
                .shared
                .init_snaps
                .lock()
                .expect("no thread panics holding cluster state")[idx]
                .iter()
                .map(A::restore_amnesiac)
                .collect(),
        };
        self.shared.publish_statuses(idx, &autos);
        self.shared
            .down
            .lock()
            .expect("no thread panics holding cluster state")[idx] = false;
        self.handles.push(spawn_node(
            Arc::clone(&self.shared),
            idx,
            Arc::clone(&self.inboxes[idx]),
            autos,
            None,
            Instant::now(),
        ));
    }

    /// Steps each node has taken so far.
    pub fn steps(&self) -> Vec<u64> {
        self.shared
            .steps
            .lock()
            .expect("no thread panics holding cluster state")
            .clone()
    }

    /// How many nodes the cluster runs.
    pub(crate) fn population(&self) -> usize {
        self.inboxes.len()
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
        self.shared
            .down
            .lock()
            .expect("no thread panics holding cluster state")
            .clone()
    }

    /// Whether every node not excused by `excused` is up and holds a
    /// decision in every instance.
    pub(crate) fn all_up_and_decided(&self, excused: &[bool]) -> bool {
        let st = self
            .shared
            .statuses
            .lock()
            .expect("no thread panics holding cluster state");
        let down = self
            .shared
            .down
            .lock()
            .expect("no thread panics holding cluster state");
        (0..down.len())
            .all(|i| excused[i] || (!down[i] && st.iter().all(|inst| inst[i].is_decided())))
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
                let fire = now >= wall(self.tick(), r.at)
                    && self
                        .shared
                        .down
                        .lock()
                        .expect("no thread panics holding cluster state")[idx];
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
    /// No poll interval is waited out: every node is woken by an
    /// in-band [`Inbound::Stop`], the links are dropped — substrate
    /// threads fed by a channel the links own see it disconnect — and
    /// then `teardown` runs: the substrate joins its own threads there
    /// and returns how many messages it still held. `steps`, `crashed`,
    /// `recovered`, the undelivered count and the monitor's counts are
    /// per node or per run, and repeated in every instance's report.
    pub fn finish(
        self,
        recovered: Vec<bool>,
        decided_in_time: bool,
        teardown: impl FnOnce() -> u64,
    ) -> Vec<ClusterReport> {
        self.shared.done.store(true, Ordering::Relaxed);
        for tx in &self.wake {
            // A crashed node's inbox has nobody reading; harmless.
            let _ = tx.send(Inbound::Stop);
        }
        for h in self.handles {
            let _ = h.join();
        }
        let Ok(shared) = Arc::try_unwrap(self.shared) else {
            unreachable!("every node thread has exited and dropped its handle");
        };
        drop(shared.links);
        let messages_undelivered = teardown();
        let steps = shared
            .steps
            .lock()
            .expect("no thread panics holding cluster state")
            .clone();
        let crashed = shared
            .ever_crashed
            .lock()
            .expect("no thread panics holding cluster state")
            .clone();
        let down = shared
            .down
            .lock()
            .expect("no thread panics holding cluster state")
            .clone();
        let (deliveries, late_deliveries) = {
            let mon = shared
                .lateness
                .lock()
                .expect("no thread panics holding cluster state");
            (mon.delivered(), mon.late_count())
        };
        let wall = self.start.elapsed();
        let statuses = shared
            .statuses
            .lock()
            .expect("no thread panics holding cluster state")
            .clone();
        statuses
            .into_iter()
            .enumerate()
            .map(|(k, statuses)| {
                let owed_in = statuses
                    .iter()
                    .zip(&down)
                    .all(|(s, d)| *d || s.is_decided());
                ClusterReport {
                    statuses,
                    steps: steps.clone(),
                    crashed: crashed.clone(),
                    recovered: recovered.clone(),
                    messages_sent: shared.messages[k].load(Ordering::Relaxed),
                    messages_undelivered,
                    wall,
                    decided_in_time: decided_in_time && owed_in,
                    late_by_ticks: shared.late_by_ticks[k].load(Ordering::Relaxed),
                    deliveries,
                    late_deliveries,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
    use rtc_model::{Decision, TimingParams, Value};

    use super::*;
    use crate::fault::DelayModel;
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

    /// A `Links` that delivers nothing and reports every call.
    struct Recorder(Sender<Call>);

    impl Links<Seen> for Recorder {
        fn send(&self, step: Envelope<&Outbox<Seen>>, n: usize) {
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

        fn flush(&self, from: ProcessorId) {
            let _ = self.0.send(Call::Flush(from));
        }
    }

    /// Boots two instances of a two-`Probe` population where `p1`
    /// crashes before its first step, so `p0` is the only thread that
    /// ever steps, over a [`Recorder`].
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
        let inboxes: Vec<_> = (0..2).map(|_| std::sync::mpsc::channel()).collect();
        inboxes[0].0.send(Inbound::Msgs(waiting)).unwrap();
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
            Arc::new(AtomicBool::new(false)),
            inboxes,
            Recorder(calls_tx),
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
        let reports = core.finish(vec![true, false], false, || 0);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].crashed, vec![true, true]);
        assert!(reports[0].steps[0] >= CRASH + 2 && reports[0].steps[1] == 0);
        // Only the arrival that reached an instance was classified, by
        // the monitor and by the tick ledger: it was sent at tick 0 and
        // read at tick 0.
        assert_eq!(reports[0].deliveries, 1);
        assert!(reports.iter().all(|r| r.late_by_ticks == 0));
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
        let reports = core.finish(vec![false; 2], false, || 0);
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
        // the in-band stop wakes them (and the dropped links the
        // delayer) at once.
        let c = cfg(3);
        let slow = ClusterOptions {
            tick: Duration::from_millis(50),
            ..opts()
        };
        let cluster = crate::recovery::ChannelCluster::boot(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(15),
            &FaultPlan::none(),
            &slow,
        );
        let called = Instant::now();
        let report = cluster.finish(vec![false; 3], false);
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
        let cluster = crate::recovery::ChannelCluster::boot(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(17),
            &FaultPlan::none(),
            &slow,
        );
        let mut first = [None; 3];
        while first.contains(&None) && booted.elapsed() < Duration::from_secs(1) {
            let now = booted.elapsed();
            for (at, s) in first.iter_mut().zip(cluster.core.steps()) {
                if at.is_none() && s > 0 {
                    *at = Some(now);
                }
            }
            thread::sleep(Duration::from_micros(200));
        }
        let report = cluster.finish(vec![false; 3], false);
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
