//! The socket cluster: each node one thread, its own sockets read and
//! written inside its tick, faults where frames land.
//!
//! Topology per run, for `n` nodes and `m` commit instances:
//!
//! ```text
//!  boot (driving thread): bind n listeners; for each pair i < j,
//!        connect i ─► listener j, accept (from the backlog)
//!  node i, at its tick:
//!    receive: read every peer socket until it would block ─► decode
//!             ─► FaultRouter::route ─► due now: this step | held: node i's hold queue
//!    step all m instances
//!    flush:   one buffer per peer ─► write until it would block (the rest waits)
//! ```
//!
//! The nodes themselves are the runtime's
//! [`ClusterCore`](rtc_runtime::ClusterCore) — the same paced loop,
//! crash snapshots, respawn, hold queue and lateness feed as the
//! channel substrate, stepping all `m` instances once per tick. This
//! module is what goes around it: the listeners, one connection per
//! unordered pair of nodes, and [`TcpLinks`], which reads a node's
//! sockets at the start of its tick and writes them at the end. A run
//! starts no thread but the nodes.
//!
//! The tick is the unit of I/O on both sides of a socket: a node's
//! frames for one peer are one batch per tick, appended to the peer's
//! buffer (the bytes and order on the link that one write per frame
//! would put there), and a node reads whatever has arrived when its
//! tick begins. Nothing blocks: a socket that would block keeps the
//! rest for the node's next tick.
//!
//! * A node's sockets, unwritten bytes, replay rings and hold queue
//!   belong to its slot, not to one incarnation. A crashed node reads
//!   nothing, so frames sent to it wait in the kernel's receive buffers
//!   and its successor reads them — the eventual-delivery-across-crashes
//!   guarantee the channel runtime gets from its shared inbox.
//! * All traffic crosses real sockets, so every link is subject to the
//!   same faults. A node applies the plan's network faults to the
//!   frames it decodes through the runtime's [`FaultRouter`], and a
//!   reset closes the connection once the frames already read are
//!   routed. The lower-numbered end redials, the higher one polls its
//!   listener while a connection is down, and both replay their ring.
//! * Frames carry the instance tag. Each instance draws from its own
//!   [`SeedCollection`], so instance `k` of a socket run is coin-for-
//!   coin the population the simulator runs under seed `k`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::{Outbox, ProcessorId, Recoverable, SeedCollection, Wire};
use rtc_runtime::{
    ClusterCore, ClusterReport, Envelope, FaultPlan, FaultRouter, Links, SupervisorPolicy,
    SupervisorReport,
};

use crate::options::{io_deadline, NetOptions};
use crate::peer::{hello, Link, NetCounters};
use crate::wire::{append_frame, Frame};

/// Socket-layer totals for one run.
#[derive(Clone, Debug, Default)]
pub struct NetRunStats {
    /// Frames written whole to a socket, each counted once however
    /// often a replay rewrites it.
    pub frames_sent: u64,
    /// The batches that carried them: one per link per tick that had
    /// anything to send, however many socket writes it took.
    pub writes: u64,
    /// Frames a node filed for a peer and no socket took, for one of
    /// two reasons. *The link gave up*: its retry budget ran out
    /// (`links_given_up` counts those links) and everything filed for
    /// it from then on is dropped — frames somebody may have been
    /// waiting for. *Teardown overtook the frame*: `finish` was called
    /// while the socket still had it to write, which the drivers do
    /// once every owed decision is in, so nobody was waiting for it.
    /// With `links_given_up` at zero every drop is of the second kind.
    pub frames_dropped: u64,
    /// Successful redials of a broken connection.
    pub reconnects: u64,
    /// Links that gave up and marked their peer down.
    pub links_given_up: u64,
    /// Connection resets the receiving nodes injected.
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

/// The socket substrate's [`Links`]: what every node's end shares.
#[derive(Debug)]
struct TcpLinks {
    router: FaultRouter,
    counters: Arc<NetCounters>,
    /// Where node `j` listens, for redials.
    addrs: Vec<SocketAddr>,
    io_deadline: Duration,
    policy: SupervisorPolicy,
}

/// Node `i`'s end of the mesh: its listener, its link to each peer, and
/// what it needs to file and route frames.
#[derive(Debug)]
struct TcpEnd {
    /// Non-blocking; polled only while a link to a lower-numbered peer
    /// is down.
    listener: TcpListener,
    /// `links[j]`: the connection to node `j`; `links[i]` carries
    /// nothing.
    links: Vec<Link>,
    /// The broadcast being filed, encoded once.
    body: Vec<u8>,
    /// Fault dice for the frames this node reads.
    dice: SmallRng,
}

impl TcpEnd {
    /// Node `me` takes each connection its listener holds for the link
    /// it names: a lower-numbered peer redials the links that are down.
    fn accept(&mut self, me: usize, io_deadline: Duration) {
        if self.links[..me].iter().all(|l| l.stream.is_some()) {
            return;
        }
        while let Ok((stream, _)) = self.listener.accept() {
            // A connection that closes before its hello, or names no
            // peer that dials this node, is dropped.
            match hello(&stream, io_deadline) {
                Ok(j) if j < me => self.links[j].attach(stream),
                _ => {}
            }
        }
    }
}

impl<M: Wire + Clone + Send + 'static> Links<M> for TcpLinks {
    type End = TcpEnd;

    fn receive(
        &self,
        end: &mut TcpEnd,
        to: ProcessorId,
        now: Instant,
        mut land: impl FnMut(Instant, Envelope<M>),
    ) {
        end.accept(to.index(), self.io_deadline);
        let TcpEnd { links, dice, .. } = end;
        for link in links.iter_mut() {
            let open = link.receive();
            if link.inbound.pending() == 0 && open {
                continue;
            }
            let mut reset = false;
            let poisoned = link
                .inbound
                .drain(|env| reset |= self.router.route(env, to, now, dice, &mut land))
                .is_err();
            if reset {
                self.counters
                    .resets_injected
                    .fetch_add(1, Ordering::Relaxed);
            }
            if reset || poisoned || !open {
                // A reset is a clean close behind the frames already
                // read; a poisoned stream cannot be resynchronised; a
                // closed one is gone. Either way the lower-numbered end
                // redials and both replay.
                link.detach();
            }
        }
    }

    fn send(&self, end: &mut TcpEnd, step: Envelope<&Outbox<M>>, n: usize) {
        let TcpEnd { body, links, .. } = end;
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
            let out = &mut links[to.index()].outbound;
            if direct.iter().any(|s| std::ptr::eq(&s.msg, msg)) {
                append_frame(&mut out.bytes, &header, msg);
            } else {
                // A frame names no destination, so the broadcast is
                // encoded once and copied.
                if body.is_empty() {
                    append_frame(body, &header, msg);
                }
                out.bytes.extend_from_slice(body);
            }
            out.open += 1;
        }
    }

    fn flush(&self, end: &mut TcpEnd, from: ProcessorId) {
        let me = from.index();
        for (j, link) in end.links.iter_mut().enumerate().filter(|(j, _)| *j != me) {
            let dial = (me < j).then(|| (&self.addrs[j], me));
            link.flush(dial, self.io_deadline, &self.policy, &self.counters);
        }
    }
}

/// Opens one connection to `listener`, at `addr`, and accepts it. The
/// connect completes from the listen backlog, so the accept returns at
/// once and no thread waits on either end.
fn connect_pair(
    addr: &SocketAddr,
    listener: &TcpListener,
    io_deadline: Duration,
) -> io::Result<(TcpStream, TcpStream)> {
    let near = TcpStream::connect_timeout(addr, io_deadline)?;
    let (far, _) = listener.accept()?;
    for stream in [&near, &far] {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
    }
    Ok((near, far))
}

/// A booted socket cluster: listeners bound, one connection per pair of
/// nodes open, and node threads running, ready to be driven by a
/// monitor loop — sockets around the runtime's
/// [`ClusterCore`].
pub struct NetClusterCore<A: Recoverable + Send + 'static>
where
    A::Msg: Wire + Send + 'static,
{
    core: ClusterCore<A, TcpLinks>,
    counters: Arc<NetCounters>,
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
    /// Binds listeners, connects every pair of nodes on the calling
    /// thread, and spawns the first incarnation of every node.
    ///
    /// `instances[k]` is the population of commit instance `k` (all the
    /// same length `n`, in processor order); `seeds[k]` is instance
    /// `k`'s seed collection.
    ///
    /// # Panics
    ///
    /// Panics when `instances` is empty or ragged, when `seeds` does
    /// not match it, or when a localhost socket cannot be bound or
    /// connected (the substrate cannot exist without its sockets).
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
        let counters = Arc::new(NetCounters::default());
        let deadline = io_deadline(opts);
        let policy = SupervisorPolicy::default();
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind node listener on localhost"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("a bound listener has an address"))
            .collect();
        let mut links: Vec<Vec<Link>> = (0..n)
            .map(|i| {
                let seed = |j: usize| policy.seed ^ ((i as u64) << 32) ^ j as u64;
                (0..n).map(|j| Link::new(seed(j))).collect()
            })
            .collect();
        // One connection per pair, dialled by the lower-numbered node.
        for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
            let (near, far) = connect_pair(&addrs[j], &listeners[j], deadline)
                .expect("connect two localhost nodes");
            links[i][j].stream = Some(near);
            links[j][i].stream = Some(far);
            counters.connects.fetch_add(1, Ordering::Relaxed);
        }
        let ends = listeners
            .into_iter()
            .zip(links)
            .enumerate()
            .map(|(i, (listener, links))| {
                listener
                    .set_nonblocking(true)
                    .expect("a bound listener goes non-blocking");
                TcpEnd {
                    listener,
                    links,
                    body: Vec::new(),
                    dice: SmallRng::seed_from_u64(seeds[0].master() ^ (0xFA157 + i as u64)),
                }
            })
            .collect();
        let tcp = TcpLinks {
            router: FaultRouter::new(faults.clone(), opts.tick),
            counters: Arc::clone(&counters),
            addrs,
            io_deadline: deadline,
            policy,
        };
        let core = ClusterCore::boot(instances, seeds, &faults, opts, tcp, ends);
        NetClusterCore { core, counters }
    }

    /// Whether every node that is not currently down holds a decision
    /// in every instance.
    pub fn all_owing_decided(&self) -> bool {
        self.core.all_owing_decided()
    }

    /// Stops every node and assembles the report. Nothing is waited out
    /// and nothing is connected to: the core unparks and joins the
    /// nodes, then every socket closes with its node's end. Frames no
    /// socket had taken by then count as dropped.
    pub fn finish(self, recovered: Vec<bool>, decided_in_time: bool) -> NetReport {
        let NetClusterCore { core, counters } = self;
        let instances = core.finish(recovered, decided_in_time, |_, ends| {
            let unsent: u64 = ends
                .into_iter()
                .flat_map(|end| end.links)
                .map(|mut link| link.outbound.drop_unsent())
                .sum();
            counters.frames_dropped.fetch_add(unsent, Ordering::Relaxed) + unsent
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
/// applied to real frames by the nodes that read them; crashes take
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
    use std::sync::Mutex;
    use std::thread;

    use crate::peer::Incoming;

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
        // Feeds `bytes` to `inbound` as reads, then decodes.
        let feed = |inbound: &mut Incoming, batch: &mut Vec<_>, mut bytes: &[u8]| {
            while !bytes.is_empty() {
                assert!(inbound.read_from(&mut bytes), "a slice reads to its end");
            }
            inbound.drain(|env| batch.push(env)).expect("valid frames");
        };
        // One feed per frame: the reference.
        let (mut inbound, mut batch) = (Incoming::default(), Vec::new());
        for bytes in &encoded {
            feed(&mut inbound, &mut batch, bytes);
            assert_eq!(inbound.pending(), 0);
        }
        assert_eq!(seen(&batch), frames);
        // The first k frames in one stream, split in two reads at every
        // byte offset: the same envelopes in the same order, the first
        // read yielding exactly the frames it completes.
        for k in 1..=encoded.len() {
            let stream = encoded[..k].concat();
            for cut in 0..=stream.len() {
                let (mut inbound, mut batch) = (Incoming::default(), Vec::new());
                feed(&mut inbound, &mut batch, &stream[..cut]);
                let whole = encoded[..k]
                    .iter()
                    .scan(0, |end, bytes| {
                        *end += bytes.len();
                        Some(*end)
                    })
                    .filter(|end| *end <= cut)
                    .count();
                assert_eq!(batch.len(), whole, "k = {k}, cut at {cut}");
                feed(&mut inbound, &mut batch, &stream[cut..]);
                assert_eq!(inbound.pending(), 0, "k = {k}, cut at {cut}");
                assert_eq!(seen(&batch), frames[..k], "k = {k}, cut at {cut}");
            }
        }
    }

    #[test]
    fn finish_does_not_wait_out_a_tick() {
        // Every node is parked in a 50 ms tick when `finish` is called:
        // it wakes each instead of waiting any of them out, and there is
        // no other thread to wait for.
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

    /// Boots a commit round of three nodes under `plan`, waits for
    /// every decision, and returns the round's thread count, its
    /// connection count before and after `finish`, and the report.
    fn round_footprint(seed: u64, plan: FaultPlan) -> (u64, u64, u64, NetReport) {
        let c = cfg(3);
        let net = NetClusterCore::boot(
            vec![commit_population(c, &[Value::One; 3])],
            vec![SeedCollection::new(seed)],
            plan,
            &opts(),
        );
        let wait = Instant::now();
        while !net.all_owing_decided() {
            assert!(wait.elapsed() < Duration::from_secs(20), "{net:?}");
            thread::sleep(Duration::from_millis(1));
        }
        let threads = net.core.threads_spawned();
        let counters = Arc::clone(&net.counters);
        let connects = || counters.connects.load(Ordering::Relaxed);
        let before = connects();
        let report = net.finish(vec![false; 3], true);
        assert!(report.all_decided(), "{report:?}");
        (threads, before, connects(), report)
    }

    #[test]
    fn a_fault_free_round_footprint() {
        // n = 3: three threads, one per node and nothing else, and one
        // connection per pair of nodes, all opened at boot; `finish`
        // opens none.
        let (threads, before, after, report) = round_footprint(15, FaultPlan::none());
        assert_eq!(threads, 3);
        assert_eq!(before, 3);
        assert_eq!(after, 3);
        assert_eq!(report.stats.reconnects, 0);
    }

    #[test]
    fn network_faults_start_no_thread_over_sockets() {
        // Delays, duplicates, reorders, a healing partition and resets
        // hold frames and tear connections, and still the round runs on
        // its three node threads: the holds wait in the nodes' queues,
        // and the redials are the nodes' own.
        let plan = FaultPlan::none()
            .with_delay(rtc_runtime::DelayModel::Spike {
                permille: 200,
                spike: 2,
            })
            .with_duplication(300)
            .with_reordering(300)
            .with_partition(vec![0, 1, 1], 0, 3)
            .with_resets(150);
        let (threads, before, after, report) = round_footprint(32, plan);
        assert_eq!(threads, 3);
        assert!(report.stats.resets_injected > 0, "{:?}", report.stats);
        // Every redial is one connection, and `finish` opens none.
        assert_eq!(before, 3 + report.stats.reconnects);
        assert_eq!(after, before);
    }

    /// A step count on the wire: eight bytes.
    #[derive(Clone, Debug, PartialEq)]
    struct Count(u64);

    impl Wire for Count {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&self.0.to_le_bytes());
        }

        fn decode(bytes: &[u8]) -> Result<Count, rtc_model::WireError> {
            let bytes: [u8; 8] = bytes
                .try_into()
                .map_err(|_| rtc_model::WireError::Truncated)?;
            Ok(Count(u64::from_le_bytes(bytes)))
        }
    }

    /// Node 0 sends node 1 its step count at every step; node 1 logs,
    /// at each of its own steps, every count it heard. The log is
    /// shared, so a successor restored from a snapshot logs into it
    /// too.
    #[derive(Clone, Debug)]
    struct Tally {
        id: ProcessorId,
        steps: u64,
        heard: Arc<Mutex<Vec<(u64, u64)>>>,
    }

    impl rtc_model::Automaton for Tally {
        type Msg = Count;

        fn id(&self) -> ProcessorId {
            self.id
        }

        fn population(&self) -> usize {
            2
        }

        fn step_into<'a>(
            &mut self,
            inbox: impl Iterator<Item = (ProcessorId, &'a Count)>,
            _rng: &mut rtc_model::StepRng,
            out: &mut Outbox<Count>,
        ) {
            let mut heard = self.heard.lock().unwrap();
            heard.extend(inbox.map(|(_, c)| (self.steps, c.0)));
            if self.id == ProcessorId::COORDINATOR {
                out.send(ProcessorId::new(1), Count(self.steps));
            }
            self.steps += 1;
        }

        fn status(&self) -> rtc_model::Status {
            rtc_model::Status::Undecided
        }
    }

    impl Recoverable for Tally {
        type Snapshot = Tally;

        fn snapshot(&self) -> Tally {
            self.clone()
        }

        fn restore(snapshot: &Tally) -> Tally {
            snapshot.clone()
        }
    }

    #[test]
    fn frames_sent_to_a_crashed_node_reach_its_successor_over_sockets() {
        // p1 crashes at its step 3 (about 7 ms in) and its snapshot
        // successor starts at tick 30 (60 ms). p0 sends it a count at
        // every step meanwhile: nobody reads p1's socket, so the frames
        // wait in the kernel's receive buffer, and the successor's
        // first step reads them all. Every count arrives exactly once,
        // in order, and is a classified delivery.
        const CRASH: u64 = 3;
        let heard = Arc::new(Mutex::new(Vec::new()));
        let population = (0..2)
            .map(|i| Tally {
                id: ProcessorId::new(i),
                steps: 0,
                heard: Arc::clone(&heard),
            })
            .collect();
        let mut o = NetOptions::derived(Duration::from_millis(2), TimingParams::default());
        o.wall_timeout = Duration::from_millis(120);
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(1), CRASH)
            .with_restart(ProcessorId::new(1), 30, true);
        let report = run_net_cluster(vec![population], vec![SeedCollection::new(43)], plan, o);
        let inst = &report.instances[0];
        assert!(inst.crashed[1] && inst.recovered[1], "{report:?}");
        let heard = heard.lock().unwrap().clone();
        let counts: Vec<u64> = heard.iter().map(|(_, c)| *c).collect();
        assert_eq!(
            counts,
            (0..counts.len() as u64).collect::<Vec<_>>(),
            "{heard:?}"
        );
        let backlog = heard.iter().filter(|(step, _)| *step == CRASH).count();
        assert!(
            backlog > 10,
            "the successor's first step read {backlog}: {heard:?}"
        );
        assert!(counts.len() > 30, "{heard:?}");
        assert_eq!(report.stats.deliveries, heard.len() as u64, "{report:?}");
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
        // half an hour), so frames the receiving nodes hold for it can
        // never land; the report must account for them instead of
        // silently dropping them.
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
        // Not only frames teardown overtook in a link: the nodes' holds.
        assert!(
            inst.messages_undelivered > report.stats.frames_dropped,
            "{report:?}"
        );
        assert!(report.agreement_holds());
    }
}
