//! The socket cluster: nodes on threads, links on TCP, faults where
//! frames land.
//!
//! Topology per run, for `n` nodes and `m` commit instances:
//!
//! ```text
//!  node i ── links[i][j] (sender thread: connect+accept, reconnect+backoff) ──► ...
//!      ... ──► listener j ──► reader threads ──► inbox j ──► node j
//!              (FaultRouter::route; held frames ──► delayer ──► inbox j)
//! ```
//!
//! The nodes themselves are the runtime's
//! [`ClusterCore`](rtc_runtime::ClusterCore) — the same paced loop,
//! crash snapshots, respawn and the lateness feed as the channel
//! substrate, stepping all `m` instances once per tick. This module is
//! what goes around it: listeners, readers, the link mesh, and
//! [`TcpLinks`], which turns a tick of a node's sends into one buffer
//! of frames per peer link.
//!
//! The tick is the unit of I/O on both sides of a socket: a node's
//! frames for one peer leave in one write per flush (the bytes and
//! order on the link that one write per frame would put there), and a
//! reader hands its node the complete frames of one read as one inbox
//! item. Nothing polls: a link's thread is spawned by its first batch
//! and accepts the connection it opens ([`Landing`]), links end when
//! teardown drops their senders, readers at the EOF that follows.
//!
//! * Each node owns one real [`TcpListener`]; reader threads outlive
//!   node crashes, so frames that arrive while a node is down wait in
//!   its inbox — the same eventual-delivery-across-crashes guarantee
//!   the channel runtime gets from its shared inbox.
//! * All traffic crosses real sockets, so every link is subject to the
//!   same faults. A reader applies the plan's network faults to the
//!   frames it decodes through the runtime's [`FaultRouter`] — the
//!   channel substrate's router and its one delayer thread — and a
//!   reset closes its connection once the frames already read are
//!   routed, a clean FIN the sender's replay ring recovers from.
//! * Frames carry the instance tag. Each instance draws from its own
//!   [`SeedCollection`], so instance `k` of a socket run is coin-for-
//!   coin the population the simulator runs under seed `k`.

use std::io::{self, ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::{Outbox, ProcessorId, Recoverable, SeedCollection, Wire, WireError};
use rtc_runtime::{
    ClusterCore, ClusterReport, Envelope, FaultPlan, FaultRouter, Inbound, Links, SupervisorPolicy,
    SupervisorReport,
};

use crate::options::{io_deadline, NetOptions};
use crate::peer::{spawn_link, Batch, NetCounters, Peer};
use crate::wire::{append_frame, try_decode_frame, Frame, HEADER};

/// Socket-layer totals for one run.
#[derive(Clone, Debug, Default)]
pub struct NetRunStats {
    /// Frames link senders wrote to a socket.
    pub frames_sent: u64,
    /// The socket writes that carried them: one per link per tick that
    /// had anything to send.
    pub writes: u64,
    /// Frames a link took in hand and never wrote, for one of two
    /// reasons. *The link gave up*: its retry budget ran out
    /// (`links_given_up` counts those links) and everything it was
    /// handed from then on is dropped — frames somebody may have been
    /// waiting for. *Teardown overtook the frame*: `finish` was called
    /// while it was still queued, which the drivers do once every owed
    /// decision is in, so nobody was waiting for it — typically the
    /// last decider's decision broadcast; a link counts the whole batch
    /// it had in hand, not what was queued behind it. With
    /// `links_given_up` at zero every drop is of the second kind.
    pub frames_dropped: u64,
    /// Successful re-establishments of a broken connection.
    pub reconnects: u64,
    /// Links that gave up and marked their peer down.
    pub links_given_up: u64,
    /// Connection resets the readers injected.
    pub resets_injected: u64,
    /// Deliveries classified by the lateness monitor.
    pub deliveries: u64,
    /// Deliveries the monitor classified late.
    pub late_deliveries: u64,
}

impl std::ops::AddAssign<&NetRunStats> for NetRunStats {
    /// Sums every counter. The destructuring is exhaustive on purpose:
    /// a new counter does not compile until it is summed here too.
    fn add_assign(&mut self, run: &NetRunStats) {
        let NetRunStats {
            frames_sent,
            writes,
            frames_dropped,
            reconnects,
            links_given_up,
            resets_injected,
            deliveries,
            late_deliveries,
        } = run;
        self.frames_sent += frames_sent;
        self.writes += writes;
        self.frames_dropped += frames_dropped;
        self.reconnects += reconnects;
        self.links_given_up += links_given_up;
        self.resets_injected += resets_injected;
        self.deliveries += deliveries;
        self.late_deliveries += late_deliveries;
    }
}

/// The outcome of one socket cluster run: one [`ClusterReport`] per
/// multiplexed commit instance, plus the socket-layer stats.
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Per-instance reports, in instance order. `steps`, `crashed`,
    /// `recovered`, and `messages_undelivered` are substrate-global
    /// (nodes crash as processes, not per instance) and repeated in
    /// every instance's report.
    pub instances: Vec<ClusterReport>,
    /// Socket-layer counters for the whole run.
    pub stats: NetRunStats,
}

impl NetReport {
    /// Whether at most one distinct value was decided in every
    /// instance.
    pub fn agreement_holds(&self) -> bool {
        self.instances.iter().all(ClusterReport::agreement_holds)
    }

    /// Whether every instance ended with all owed decisions in.
    pub fn all_decided(&self) -> bool {
        self.instances
            .iter()
            .all(ClusterReport::all_nonfaulty_decided)
    }
}

/// One peer link as its node sees it: the tick's frames so far, and,
/// once a flush has spawned the link's thread, its channel and the
/// buffers it hands back.
#[derive(Default)]
struct Outgoing {
    batch: Batch,
    running: Option<(Sender<Batch>, Receiver<Vec<u8>>)>,
}

/// Node `i`'s side of its `n` peer links (toward each node's
/// listener), and the encoding of the broadcast being filed.
struct Outbound {
    body: Vec<u8>,
    links: Vec<Outgoing>,
}

/// The socket substrate's [`Links`]. Only node `i` locks `nodes[i]`.
struct TcpLinks<M> {
    nodes: Vec<Mutex<Outbound>>,
    /// Where links to node `j` connect.
    landings: Vec<Arc<Landing<M>>>,
}

impl<M: Wire + Clone + Send + 'static> Links<M> for TcpLinks<M> {
    fn send(&self, step: Envelope<&Outbox<M>>, n: usize) {
        let mut node = self.nodes[step.from.index()]
            .lock()
            .expect("no node panics holding its links");
        let Outbound { body, links } = &mut *node;
        let header = Frame {
            from: step.from,
            instance: step.instance as u32,
            sent_at_tick: step.sent_at_tick,
            sent_event: step.sent_event,
            msg: (),
        };
        let direct = step.msg.direct();
        body.clear();
        for (to, msg) in step.msg.sends(step.from, n) {
            let batch = &mut links[to.index()].batch;
            if direct.iter().any(|s| std::ptr::eq(&s.msg, msg)) {
                append_frame(&mut batch.bytes, &header, msg);
            } else {
                // A frame names no destination, so the broadcast is
                // encoded once and copied.
                if body.is_empty() {
                    append_frame(body, &header, msg);
                }
                batch.bytes.extend_from_slice(body);
            }
            batch.frames += 1;
        }
    }

    fn flush(&self, from: ProcessorId) {
        let mut node = self.nodes[from.index()]
            .lock()
            .expect("no node panics holding its links");
        let links = node.links.iter_mut().enumerate();
        for (j, link) in links.filter(|(_, l)| l.batch.frames > 0) {
            let (tx, spare) = link
                .running
                .get_or_insert_with(|| self.landings[j].spawn_link(from.index()));
            // A recycled buffer; before the link has returned one, a
            // new one as large as the tick it stands in for — one
            // allocation, not a doubling chain per buffer.
            let fresh = Batch {
                bytes: spare
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(link.batch.bytes.len())),
                frames: 0,
            };
            // A send can fail only during teardown.
            let _ = tx.send(std::mem::replace(&mut link.batch, fresh));
        }
    }
}

/// Decodes every complete frame in `buf`, in order, into `land`, and
/// removes their bytes, once, leaving a torn tail for the next read to
/// complete.
///
/// # Errors
///
/// A frame that fails to decode poisons the stream; the frames before
/// it have landed.
fn drain_frames<M: Wire>(
    buf: &mut Vec<u8>,
    mut land: impl FnMut(Envelope<M>),
) -> Result<(), WireError> {
    let mut at = 0;
    let outcome = loop {
        match try_decode_frame::<M>(&buf[at..]) {
            Ok(Some((frame, used))) => {
                at += used;
                land(Envelope {
                    from: frame.from,
                    instance: frame.instance as usize,
                    sent_at_tick: frame.sent_at_tick,
                    sent_event: frame.sent_event,
                    msg: frame.msg,
                });
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    buf.drain(..at);
    outcome
}

/// Node `to`'s listener, and what the links that connect to it and
/// the readers of its connections share.
struct Landing<M> {
    to: ProcessorId,
    listener: TcpListener,
    inbox: Sender<Inbound<M>>,
    router: Arc<FaultRouter<M>>,
    counters: Arc<NetCounters>,
    done: Arc<AtomicBool>,
    io_deadline: Duration,
    /// Keys each reader's fault dice, with the run's connection number.
    seed: u64,
    /// The links to this node and the readers of its connections, for
    /// `finish` to join.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Wire + Clone + Send + 'static> Landing<M> {
    /// Spawns the link from node `from` to this node.
    fn spawn_link(self: &Arc<Self>, from: usize) -> (Sender<Batch>, Receiver<Vec<u8>>) {
        let (tx, rx) = channel();
        let (spare_tx, spare) = channel();
        let policy = SupervisorPolicy::default();
        let link = spawn_link(
            Arc::clone(self),
            rx,
            spare_tx,
            policy,
            self.io_deadline,
            Arc::clone(&self.done),
            Arc::clone(&self.counters),
            policy.seed ^ ((from as u64) << 32) ^ self.to.index() as u64,
        );
        self.counters.links_spawned.fetch_add(1, Ordering::Relaxed);
        self.threads
            .lock()
            .expect("no thread panics spawning")
            .push(link);
        (tx, spare)
    }
}

/// A link connects, then accepts one connection and starts its reader
/// (dice of its own, so links do not fault in lockstep). Each link
/// accepts once per connect, after it, so the accept never waits; it may
/// take another link's connection, which is fine: frames name senders.
impl<M: Wire + Clone + Send + 'static> Peer for Arc<Landing<M>> {
    fn connect(&self, deadline: Duration) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.listener.local_addr()?, deadline)?;
        let (conn, _) = self.listener.accept()?;
        let conn_no = self.counters.accepted.fetch_add(1, Ordering::Relaxed) + 1;
        let rng = SmallRng::seed_from_u64(self.seed ^ conn_no.wrapping_mul(0x9E37_79B9));
        let landing = Arc::clone(self);
        let reader = thread::spawn(move || read_frames(conn, &landing, rng));
        self.threads
            .lock()
            .expect("no thread panics spawning")
            .push(reader);
        Ok(stream)
    }
}

/// Joins every thread in `threads`, and any a joined link adds.
fn join_all(threads: &Mutex<Vec<JoinHandle<()>>>) {
    loop {
        let Some(h) = threads.lock().expect("no thread panics spawning").pop() else {
            return;
        };
        let _ = h.join();
    }
}

/// Reads frames off one connection until EOF, error, reset or
/// teardown; readers outlive node crashes, so the inbox keeps filling
/// while the node is down. Reads accumulate in a buffer parsed at frame
/// boundaries, so a read deadline can never tear a frame. The frames of
/// one read are routed on `rng`'s dice at one `at`, and those due now
/// are one inbox item.
fn read_frames<M: Wire + Clone + Send + 'static>(
    mut stream: TcpStream,
    landing: &Landing<M>,
    mut rng: SmallRng,
) {
    // EOF ends a reader — its link closes at teardown; the deadline is
    // for a peer that goes quiet without closing.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if landing.done.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // No frame is shorter than its header: one allocation
                // holds whatever this read completed.
                let mut batch = Vec::with_capacity(buf.len() / (4 + HEADER));
                let (at, mut reset) = (landing.router.elapsed(), false);
                let poisoned = drain_frames(&mut buf, |env| {
                    let (now, tear) = landing.router.route(env, landing.to, at, &mut rng);
                    batch.extend(now);
                    reset |= tear;
                })
                .is_err();
                if !batch.is_empty() {
                    let _ = landing.inbox.send(Inbound::Msgs(batch));
                }
                if reset {
                    landing
                        .counters
                        .resets_injected
                        .fetch_add(1, Ordering::Relaxed);
                }
                if reset || poisoned {
                    // A reset is a clean close behind the frames already
                    // read; a poisoned stream cannot be resynchronised.
                    // Either way the sender reconnects and replays.
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// A booted socket cluster: listeners bound and node threads running,
/// ready to be driven by a monitor loop — sockets around the runtime's
/// [`ClusterCore`]. Links and readers start with the traffic.
pub struct NetClusterCore<A: Recoverable + Send + 'static>
where
    A::Msg: Wire + Send + 'static,
{
    core: ClusterCore<A, TcpLinks<A::Msg>>,
    counters: Arc<NetCounters>,
    /// Each node's listener, links and readers.
    landings: Vec<Arc<Landing<A::Msg>>>,
    /// The readers' fault router, finished once they have all exited.
    router: Arc<FaultRouter<A::Msg>>,
}

impl<A: Recoverable + Send + 'static> std::fmt::Debug for NetClusterCore<A>
where
    A::Msg: Wire + Send + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClusterCore")
            .field("core", &self.core)
            .finish()
    }
}

impl<A> NetClusterCore<A>
where
    A: Recoverable + Send + 'static,
    A::Msg: Wire + Send + 'static,
{
    /// Binds listeners and spawns the first incarnation of every node.
    ///
    /// `instances[k]` is the population of commit instance `k` (all the
    /// same length `n`, in processor order); `seeds[k]` is instance
    /// `k`'s seed collection.
    ///
    /// # Panics
    ///
    /// Panics when `instances` is empty or ragged, when `seeds` does
    /// not match it, or when a localhost socket cannot be bound (the
    /// substrate cannot exist without its sockets).
    pub fn boot(
        instances: Vec<Vec<A>>,
        seeds: Vec<SeedCollection>,
        faults: FaultPlan,
        opts: &NetOptions,
    ) -> NetClusterCore<A> {
        assert!(!instances.is_empty(), "need at least one commit instance");
        assert_eq!(
            seeds.len(),
            instances.len(),
            "one seed collection per instance"
        );
        let n = instances[0].len();
        let done = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let inboxes: Vec<_> = (0..n).map(|_| channel()).collect();
        let inbox_tx = inboxes.iter().map(|(tx, _)| tx.clone()).collect();
        let router = Arc::new(FaultRouter::new(
            faults.clone(),
            opts.tick,
            inbox_tx,
            Arc::clone(&done),
        ));
        let landings: Vec<_> = inboxes
            .iter()
            .enumerate()
            .map(|(j, (inbox, _))| {
                Arc::new(Landing {
                    to: ProcessorId::new(j),
                    listener: TcpListener::bind("127.0.0.1:0")
                        .expect("bind node listener on localhost"),
                    inbox: inbox.clone(),
                    router: Arc::clone(&router),
                    counters: Arc::clone(&counters),
                    done: Arc::clone(&done),
                    io_deadline: io_deadline(opts),
                    seed: seeds[0].master() ^ (0xFA157 + j as u64),
                    threads: Mutex::default(),
                })
            })
            .collect();
        let tcp = TcpLinks {
            nodes: (0..n)
                .map(|_| {
                    Mutex::new(Outbound {
                        body: Vec::new(),
                        links: (0..n).map(|_| Outgoing::default()).collect(),
                    })
                })
                .collect(),
            landings: landings.clone(),
        };
        let core = ClusterCore::boot(instances, seeds, &faults, opts, done, inboxes, tcp);
        NetClusterCore {
            core,
            counters,
            landings,
            router,
        }
    }

    /// Whether every node that is not currently down holds a decision
    /// in every instance.
    pub fn all_owing_decided(&self) -> bool {
        self.core.all_owing_decided()
    }

    /// Stops every thread and assembles the report. The order makes it
    /// prompt, and nothing is connected to: the core stops the nodes
    /// and drops the links' senders, so every link thread returns and
    /// closes its socket; the readers are at EOF by the time they are
    /// joined, and then the router they shared ends its delayer.
    pub fn finish(self, recovered: Vec<bool>, decided_in_time: bool) -> NetReport {
        let NetClusterCore {
            core,
            counters,
            landings,
            router,
        } = self;
        let instances = core.finish(recovered, decided_in_time, || {
            landings.into_iter().for_each(|l| join_all(&l.threads));
            let router = Arc::into_inner(router).expect("every reader has exited");
            router.finish() + counters.frames_dropped.load(Ordering::Relaxed)
        });
        let stats = NetRunStats {
            frames_sent: counters.frames_sent.load(Ordering::Relaxed),
            writes: counters.writes.load(Ordering::Relaxed),
            frames_dropped: counters.frames_dropped.load(Ordering::Relaxed),
            reconnects: counters.reconnects.load(Ordering::Relaxed),
            links_given_up: counters.links_given_up.load(Ordering::Relaxed),
            resets_injected: counters.resets_injected.load(Ordering::Relaxed),
            deliveries: instances[0].deliveries,
            late_deliveries: instances[0].late_deliveries,
        };
        NetReport { instances, stats }
    }
}

/// Runs `m` commit instances over real sockets, honouring the fault
/// plan's scripted crashes *and restarts* — the socket counterpart of
/// [`run_cluster`](rtc_runtime::run_cluster).
///
/// `instances[k]` is instance `k`'s population in processor order;
/// `seeds[k]` its seed collection. Network faults in the plan are
/// applied to real frames by the readers they land in; crashes take
/// down the node process-wide (all instances at once), restarts revive
/// it.
pub fn run_net_cluster<A>(
    instances: Vec<Vec<A>>,
    seeds: Vec<SeedCollection>,
    mut faults: FaultPlan,
    opts: NetOptions,
) -> NetReport
where
    A: Recoverable + Send + 'static,
    A::Msg: Wire + Send + 'static,
{
    let restarts = std::mem::take(&mut faults.restarts);
    let mut net = NetClusterCore::boot(instances, seeds, faults, &opts);
    let (recovered, decided_in_time) = net.core.run_scripted(restarts, opts.wall_timeout);
    net.finish(recovered, decided_in_time)
}

/// Runs `m` commit instances over real sockets under the shared
/// self-healing [`supervise`](rtc_runtime::supervise) loop: scripted
/// restarts in the plan are ignored — the supervisor owns recovery —
/// and `t` classifies cluster health exactly as on the channel
/// substrate.
pub fn run_net_supervised<A>(
    instances: Vec<Vec<A>>,
    seeds: Vec<SeedCollection>,
    faults: FaultPlan,
    opts: NetOptions,
    t: usize,
    policy: SupervisorPolicy,
) -> (NetReport, SupervisorReport)
where
    A: Recoverable + Send + 'static,
    A::Msg: Wire + Send + 'static,
{
    let mut net = NetClusterCore::boot(instances, seeds, faults, &opts);
    let (sup, recovered, decided_in_time) =
        rtc_runtime::supervise(&mut net.core, t, policy, opts.wall_timeout);
    (net.finish(recovered, decided_in_time), sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
    use rtc_model::{Decision, TimingParams, Value};

    fn cfg(n: usize) -> CommitConfig {
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
    }

    fn opts() -> NetOptions {
        let mut o = NetOptions::derived(Duration::from_millis(1), TimingParams::default());
        o.wall_timeout = Duration::from_secs(30);
        o
    }

    #[test]
    fn frames_torn_at_any_byte_decode_as_they_would_whole() {
        use rtc_core::{CommitKind, CommitMsg};
        // Four frames of different lengths, as one byte stream.
        let frames: Vec<Frame<CommitMsg>> = (0..4usize)
            .map(|i| Frame {
                from: ProcessorId::new(i % 3),
                instance: i as u32,
                sent_at_tick: 10 + i as u64,
                sent_event: 100 + i as u64,
                msg: CommitMsg {
                    go: None,
                    kinds: vec![CommitKind::Vote(Value::One); i].into(),
                },
            })
            .collect();
        let encoded: Vec<Vec<u8>> = frames.iter().map(crate::wire::encode_frame).collect();
        let seen = |batch: &[Envelope<CommitMsg>]| -> Vec<Frame<CommitMsg>> {
            let frame = |e: &Envelope<CommitMsg>| Frame {
                from: e.from,
                instance: e.instance as u32,
                sent_at_tick: e.sent_at_tick,
                sent_event: e.sent_event,
                msg: e.msg.clone(),
            };
            batch.iter().map(frame).collect()
        };
        // One feed per frame: the reference.
        let (mut buf, mut batch) = (Vec::new(), Vec::new());
        for bytes in &encoded {
            buf.extend_from_slice(bytes);
            drain_frames(&mut buf, |env| batch.push(env)).expect("valid frames");
            assert!(buf.is_empty());
        }
        assert_eq!(seen(&batch), frames);
        // The first k frames in one stream, split in two reads at every
        // byte offset: the same envelopes in the same order, the first
        // read yielding exactly the frames it completes.
        for k in 1..=encoded.len() {
            let stream = encoded[..k].concat();
            for cut in 0..=stream.len() {
                let (mut buf, mut batch) = (Vec::new(), Vec::new());
                buf.extend_from_slice(&stream[..cut]);
                drain_frames(&mut buf, |env| batch.push(env)).expect("valid frames");
                let whole = encoded[..k]
                    .iter()
                    .scan(0, |end, bytes| {
                        *end += bytes.len();
                        Some(*end)
                    })
                    .filter(|end| *end <= cut)
                    .count();
                assert_eq!(batch.len(), whole, "k = {k}, cut at {cut}");
                buf.extend_from_slice(&stream[cut..]);
                drain_frames(&mut buf, |env| batch.push(env)).expect("valid frames");
                assert!(buf.is_empty(), "k = {k}, cut at {cut}");
                assert_eq!(seen(&batch), frames[..k], "k = {k}, cut at {cut}");
            }
        }
    }

    #[test]
    fn finish_does_not_wait_out_a_tick() {
        // Nodes parked in a 50 ms tick, links in their idle wait,
        // readers in `read`: `finish` wakes each instead of waiting any
        // of them out.
        let c = cfg(3);
        let mut slow = NetOptions::derived(Duration::from_millis(50), TimingParams::default());
        slow.wall_timeout = Duration::from_secs(30);
        let net = NetClusterCore::boot(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(12)],
            FaultPlan::none(),
            &slow,
        );
        let called = Instant::now();
        let report = net.finish(vec![false; 3], false);
        let took = called.elapsed();
        assert!(took < Duration::from_millis(25), "finish took {took:?}");
        assert!(report.instances[0].steps.iter().all(|s| *s <= 1));
    }

    #[test]
    fn every_node_takes_its_first_step_at_boot() {
        // Node i's first step is due i/n of the 200 ms tick after boot:
        // a node that stepped at boot, or waited out a whole tick, falls
        // outside its window [i·T/n, i·T/n + T/(2n)).
        let c = cfg(3);
        let tick = Duration::from_millis(200);
        let mut slow = NetOptions::derived(tick, TimingParams::default());
        slow.wall_timeout = Duration::from_secs(30);
        let booted = Instant::now();
        let net = NetClusterCore::boot(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(14)],
            FaultPlan::none(),
            &slow,
        );
        let mut first = [None; 3];
        while first.contains(&None) && booted.elapsed() < Duration::from_secs(1) {
            let now = booted.elapsed();
            for (at, s) in first.iter_mut().zip(net.core.steps()) {
                if at.is_none() && s > 0 {
                    *at = Some(now);
                }
            }
            thread::sleep(Duration::from_micros(200));
        }
        let report = net.finish(vec![false; 3], false);
        assert!(
            report.instances[0].steps.iter().all(|s| *s >= 1),
            "{report:?}"
        );
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

        fn status(&self) -> rtc_model::Status {
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
        // A 40 ms tick leaves every frame at least 8 ms (n = 5) to reach
        // its receiver's step, connection set-up included, so only the
        // phases decide who hears what when. Each node decides after
        // exactly the simulator's synchronous step count, and node i's
        // step k ends inside [(k + i/n)·T, (k + 1)·T) of boot — plan
        // tick k, where a tick-windowed fault reads it. One run of each
        // size commits, one aborts.
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
            let mut o = NetOptions::derived(tick, TimingParams::default());
            o.wall_timeout = Duration::from_secs(30);
            let booted = Instant::now();
            let report = run_net_cluster(vec![logged], vec![seeds], FaultPlan::none(), o);
            assert!(report.instances[0].decided_in_time, "{report:?}");
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
    fn a_fault_free_round_footprint() {
        // n = 3: six links carry traffic, each opens one connection and
        // accepts one, and the three self-links never spawn. Every
        // connection is opened by a link, which accepts one right
        // after, so the accept count is the count of connections.
        let c = cfg(3);
        let net = NetClusterCore::boot(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(15)],
            FaultPlan::none(),
            &opts(),
        );
        let counters = Arc::clone(&net.counters);
        let accepted = || counters.accepted.load(Ordering::Relaxed);
        let wait = Instant::now();
        while !(net.all_owing_decided() && accepted() >= 6) {
            assert!(wait.elapsed() < Duration::from_secs(20), "{net:?}");
            thread::sleep(Duration::from_millis(1));
        }
        let report = net.finish(vec![false; 3], true);
        assert!(report.all_decided(), "{report:?}");
        // `finish` opened no connection and started no link.
        assert_eq!(accepted(), 6);
        assert_eq!(counters.links_spawned.load(Ordering::Relaxed), 6);
        assert_eq!(report.stats.reconnects, 0);
    }

    #[test]
    fn unanimous_commit_decides_over_real_sockets() {
        let c = cfg(3);
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(11)],
            FaultPlan::none(),
            opts(),
        );
        let inst = &report.instances[0];
        assert!(inst.decided_in_time, "run timed out: {report:?}");
        assert!(inst
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Commit)));
        assert!(report.stats.frames_sent > 0);
        assert_eq!(report.stats.links_given_up, 0);
    }

    #[test]
    fn multiplexed_instances_decide_independently() {
        let c = cfg(3);
        // Instance 0 is unanimous commit; instance 1 carries an abort
        // vote. Both ride the same connection mesh.
        let mut votes1 = vec![Value::One; 3];
        votes1[2] = Value::Zero;
        let report = run_net_cluster(
            vec![
                commit_population(c, &[Value::One; 3]),
                commit_population(c, &votes1),
            ],
            vec![SeedCollection::new(21), SeedCollection::new(22)],
            FaultPlan::none(),
            opts(),
        );
        assert!(report.all_decided(), "{report:?}");
        assert!(report.agreement_holds());
        assert!(report.instances[0]
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Commit)));
        assert!(report.instances[1]
            .statuses
            .iter()
            .all(|s| s.decision() == Some(Decision::Abort)));
    }

    #[test]
    fn proxied_faults_preserve_agreement_and_count_resets() {
        let c = cfg(3);
        let plan = FaultPlan::none()
            .with_duplication(300)
            .with_reordering(300)
            .with_resets(150);
        plan.validate(3, c.fault_bound()).unwrap();
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(31)],
            plan,
            opts(),
        );
        assert!(report.all_decided(), "{report:?}");
        assert!(report.agreement_holds());
        assert!(
            report.stats.resets_injected > 0,
            "15% reset rate must fire at least once: {:?}",
            report.stats
        );
        assert_eq!(report.stats.links_given_up, 0);
    }

    #[test]
    fn scripted_crash_and_restart_rejoins_over_sockets() {
        let c = cfg(3); // t = 1
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(2), 4)
            .with_restart(ProcessorId::new(2), 40, true);
        plan.validate(3, c.fault_bound()).unwrap();
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(41)],
            plan,
            opts(),
        );
        let inst = &report.instances[0];
        assert!(inst.decided_in_time, "{report:?}");
        assert!(inst.crashed[2] && inst.recovered[2]);
        assert!(inst.statuses[2].is_decided(), "{report:?}");
        assert!(inst.agreement_holds());
    }

    #[test]
    fn scripted_crash_of_a_decided_victim_awaits_its_successor() {
        // p2 decides long before step 150; the pending restart keeps
        // the run open until the crash fires, and the amnesiac
        // successor — not the dead incarnation's published `Decided` —
        // is what the run must wait for.
        let c = cfg(3);
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(2), 150)
            .with_restart(ProcessorId::new(2), 20, false);
        plan.validate(3, c.fault_bound()).unwrap();
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(42)],
            plan,
            opts(),
        );
        let inst = &report.instances[0];
        assert!(inst.decided_in_time, "{report:?}");
        assert!(inst.crashed[2] && inst.recovered[2], "{report:?}");
        assert!(inst.statuses[2].is_decided(), "{report:?}");
        assert!(inst.steps[2] > 150, "{report:?}");
    }

    #[test]
    fn supervised_socket_cluster_heals_a_crash() {
        let c = cfg(3); // t = 1
        let plan = FaultPlan::none().with_crash(ProcessorId::new(1), 3);
        let (report, sup) = run_net_supervised(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(51)],
            plan,
            opts(),
            c.fault_bound(),
            SupervisorPolicy::default(),
        );
        let inst = &report.instances[0];
        assert!(inst.decided_in_time, "{report:?}\n{sup:?}");
        assert!(inst.statuses[1].is_decided());
        assert!(inst.agreement_holds());
        assert!(sup.restarts[1] >= 1, "victim should have been restarted");
        assert!(!sup.permanent_failures.iter().any(|p| *p));
    }

    #[test]
    fn partition_heal_lets_buffered_frames_flow() {
        let c = cfg(3);
        // Cut {p0} | {p1, p2} for 3 ticks — well inside the 2K = 8 tick
        // vote timeout — then heal; the run must still commit.
        let plan = FaultPlan::none().with_partition(vec![0, 1, 1], 0, 3);
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(61)],
            plan,
            opts(),
        );
        let inst = &report.instances[0];
        assert!(inst.decided_in_time, "{report:?}");
        assert!(inst.agreement_holds());
    }

    #[test]
    fn outage_past_run_end_is_counted_not_dropped() {
        // The p0–p1 cut lasts far beyond the run (2 000 000 ticks, over
        // half an hour), so frames the readers hold for it can never
        // land; the report must account for them instead of silently
        // dropping them.
        let c = cfg(3);
        let mut o = opts();
        o.wall_timeout = Duration::from_millis(500);
        let report = run_net_cluster(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(71)],
            FaultPlan::none().with_link_outage(
                ProcessorId::COORDINATOR,
                ProcessorId::new(1),
                0,
                2_000_000,
            ),
            o,
        );
        let inst = &report.instances[0];
        assert!(
            inst.messages_undelivered > 0,
            "held frames must be counted: {report:?}"
        );
        // Not only frames teardown overtook in a link: the delayer's.
        assert!(
            inst.messages_undelivered > report.stats.frames_dropped,
            "{report:?}"
        );
        assert!(report.agreement_holds());
    }
}
