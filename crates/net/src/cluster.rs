//! The socket cluster: nodes on threads, links on TCP, faults on the
//! wire.
//!
//! Topology per run, for `n` nodes and `m` commit instances:
//!
//! ```text
//!  node i ── links[i][j] (sender thread, reconnect+backoff) ──► ...
//!      ... ──► proxy j (when the plan has network faults) ──► ...
//!      ... ──► listener j ──► reader threads ──► inbox j ──► node j
//! ```
//!
//! The nodes themselves are the runtime's
//! [`ClusterCore`](rtc_runtime::ClusterCore) — the same paced loop,
//! crash snapshots, respawn and lateness feed as the channel substrate,
//! stepping all `m` instances once per tick. This module is what goes
//! around it: sockets, acceptors, readers, proxies, the link mesh, and
//! [`TcpLinks`], which turns a node's send into a CRC frame on the
//! right peer link.
//!
//! * Each node owns one real [`TcpListener`]; acceptor and reader
//!   threads outlive node crashes, so frames that arrive while a node
//!   is down wait in its inbox — the same eventual-delivery-across-
//!   crashes guarantee the channel runtime gets from its shared inbox.
//! * All traffic, self-sends included, crosses real sockets, so every
//!   link is subject to the same faults.
//! * Frames carry the instance tag. Each instance draws from its own
//!   [`SeedCollection`], so instance `k` of a socket run is coin-for-
//!   coin the population the simulator runs under seed `k`.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Sender};
use rtc_model::{ProcessorId, Recoverable, SeedCollection};
use rtc_runtime::{
    ClusterCore, ClusterReport, DelayModel, Envelope, FaultPlan, Links, SupervisorPolicy,
    SupervisorReport,
};

use crate::options::NetOptions;
use crate::peer::{spawn_link, NetCounters};
use crate::proxy::FaultProxy;
use crate::wire::{encode_frame, try_decode_frame, Frame, Wire};

/// Socket-layer totals for one run.
#[derive(Clone, Debug, Default)]
pub struct NetRunStats {
    /// Frames link senders wrote to a socket.
    pub frames_sent: u64,
    /// Frames dropped because a link had exhausted its retry budget
    /// (or teardown overtook them).
    pub frames_dropped: u64,
    /// Successful re-establishments of a broken connection.
    pub reconnects: u64,
    /// Links that gave up and marked their peer down.
    pub links_given_up: u64,
    /// Connection resets injected by the fault proxies.
    pub resets_injected: u64,
    /// Deliveries classified by the lateness monitor.
    pub deliveries: u64,
    /// Deliveries the monitor classified late.
    pub late_deliveries: u64,
}

impl NetRunStats {
    /// Whether every delivery of the run was on-time in the paper's
    /// sense — the socket analogue of an admissible execution.
    pub fn on_time(&self) -> bool {
        self.late_deliveries == 0
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

/// The socket substrate's [`Links`]: `links[i][j]` is the frame channel
/// from node `i` toward node `j`'s listener (or proxy).
struct TcpLinks {
    links: Vec<Vec<Sender<Vec<u8>>>>,
}

impl<M: Wire + Send + 'static> Links<M> for TcpLinks {
    fn send(&self, to: ProcessorId, env: Envelope<M>) {
        let from = env.from;
        let bytes = encode_frame(&Frame {
            from,
            instance: env.instance as u32,
            sent_at_tick: env.sent_at_tick,
            sent_event: env.sent_event,
            msg: env.msg,
        });
        // A send can fail only during teardown.
        let _ = self.links[from.index()][to.index()].send(bytes);
    }
}

/// Spawns the acceptor for node `i`'s real listener. Each accepted
/// connection gets a reader thread that parses frames into the node's
/// inbox; readers outlive node crashes, so the inbox keeps filling
/// while the node is down.
fn spawn_acceptor<M>(
    listener: TcpListener,
    inbox: Sender<Envelope<M>>,
    done: Arc<AtomicBool>,
) -> thread::JoinHandle<()>
where
    M: Wire + Send + 'static,
{
    thread::spawn(move || {
        let mut readers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !done.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let inbox = inbox.clone();
                    let done = Arc::clone(&done);
                    readers.push(thread::spawn(move || read_frames(stream, &inbox, &done)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(_) => break,
            }
        }
        for r in readers {
            let _ = r.join();
        }
    })
}

/// Reads frames off one connection into the inbox until EOF, error, or
/// teardown. Reads are accumulated into a buffer and parsed at frame
/// boundaries, so a read deadline can never tear a frame.
fn read_frames<M>(mut stream: TcpStream, inbox: &Sender<Envelope<M>>, done: &AtomicBool)
where
    M: Wire,
{
    // The deadline doubles as the teardown poll interval.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if done.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    match try_decode_frame::<M>(&buf) {
                        Ok(Some((frame, used))) => {
                            buf.drain(..used);
                            let _ = inbox.send(Envelope {
                                from: frame.from,
                                instance: frame.instance as usize,
                                sent_at_tick: frame.sent_at_tick,
                                sent_event: frame.sent_event,
                                msg: frame.msg,
                            });
                        }
                        Ok(None) => break,
                        // A poisoned stream cannot be resynchronised;
                        // the sender will reconnect and resend.
                        Err(_) => return,
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// A booted socket cluster: listeners, proxies, links, and node
/// threads running, ready to be driven by a monitor loop — sockets
/// around the runtime's [`ClusterCore`].
pub struct NetClusterCore<A: Recoverable + Send + 'static>
where
    A::Msg: Wire + Send + 'static,
{
    core: ClusterCore<A, TcpLinks>,
    counters: Arc<NetCounters>,
    link_handles: Vec<thread::JoinHandle<()>>,
    acceptor_handles: Vec<thread::JoinHandle<()>>,
    proxies: Vec<FaultProxy>,
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
    /// Binds listeners, interposes proxies when the plan carries
    /// network faults, spawns links, readers, and the first incarnation
    /// of every node.
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
        let start = Instant::now();
        let done = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());

        // Real listeners, one per node.
        let mut listeners = Vec::with_capacity(n);
        let mut real_addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind node listener on localhost");
            l.set_nonblocking(true).expect("nonblocking listener");
            real_addrs.push(l.local_addr().expect("listener address"));
            listeners.push(l);
        }

        // Fault proxies, when the plan has anything for them to do.
        let needs_proxy = faults.delay != DelayModel::None
            || !faults.outages.is_empty()
            || !faults.partitions.is_empty()
            || faults.duplicate_permille > 0
            || faults.reorder_permille > 0
            || faults.reset_permille > 0;
        let mut proxies = Vec::new();
        let mut peer_addrs = real_addrs.clone();
        if needs_proxy {
            for (j, upstream) in real_addrs.iter().enumerate() {
                let proxy = FaultProxy::spawn(
                    ProcessorId::new(j),
                    *upstream,
                    faults.clone(),
                    opts.tick,
                    opts.io_deadline,
                    seeds[0].master() ^ (0xFA157 + j as u64),
                    start,
                    Arc::clone(&done),
                    Arc::clone(&counters),
                )
                .expect("spawn fault proxy on localhost");
                peer_addrs[j] = proxy.addr;
                proxies.push(proxy);
            }
        }

        // Inboxes and their feeding acceptors.
        let (inbox_tx, inbox_rx): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let acceptor_handles = listeners
            .into_iter()
            .zip(inbox_tx)
            .map(|(listener, tx)| spawn_acceptor(listener, tx, Arc::clone(&done)))
            .collect();

        // The n×n link mesh.
        let mut links: Vec<Vec<Sender<Vec<u8>>>> = Vec::with_capacity(n);
        let mut link_handles = Vec::with_capacity(n * n);
        for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for (j, addr) in peer_addrs.iter().enumerate() {
                let (tx, rx) = unbounded::<Vec<u8>>();
                link_handles.push(spawn_link(
                    *addr,
                    rx,
                    opts.reconnect,
                    opts.connect_deadline,
                    opts.io_deadline,
                    Arc::clone(&done),
                    Arc::clone(&counters),
                    opts.reconnect.seed ^ ((i as u64) << 32) ^ j as u64,
                ));
                row.push(tx);
            }
            links.push(row);
        }

        let core = ClusterCore::boot(
            instances,
            seeds,
            &faults,
            &opts.cluster(),
            done,
            inbox_rx,
            TcpLinks { links },
        );
        NetClusterCore {
            core,
            counters,
            link_handles,
            acceptor_handles,
            proxies,
        }
    }

    /// Respawns a down node, from its crash snapshots or amnesiac.
    pub fn respawn_node(&mut self, idx: usize, from_snapshot: bool) {
        self.core.respawn(idx, from_snapshot);
    }

    /// Whether every node that is not currently down holds a decision
    /// in every instance.
    pub fn all_owing_decided(&self) -> bool {
        self.core.all_owing_decided()
    }

    /// Stops every thread and assembles the report.
    pub fn finish(self, recovered: Vec<bool>, decided_in_time: bool) -> NetReport {
        let NetClusterCore {
            core,
            counters,
            link_handles,
            acceptor_handles,
            proxies,
        } = self;
        let instances = core.finish(recovered, decided_in_time, || {
            for h in link_handles {
                let _ = h.join();
            }
            let held: u64 = proxies.into_iter().map(FaultProxy::finish).sum();
            for h in acceptor_handles {
                let _ = h.join();
            }
            held + counters.frames_dropped.load(Ordering::Relaxed)
        });
        let stats = NetRunStats {
            frames_sent: counters.frames_sent.load(Ordering::Relaxed),
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
/// `run_cluster_recoverable`.
///
/// `instances[k]` is instance `k`'s population in processor order;
/// `seeds[k]` its seed collection. Network faults in the plan are
/// applied by per-node proxies to real frames; crashes take down the
/// node process-wide (all instances at once), restarts revive it.
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
    let n = instances[0].len();
    let mut net = NetClusterCore::boot(instances, seeds, faults, &opts);
    let (sup, recovered, decided_in_time) =
        rtc_runtime::supervise(&mut net.core, n, t, policy, opts.wall_timeout, opts.tick);
    (net.finish(recovered, decided_in_time), sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_core::{commit_population, CommitConfig};
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
            .with_restart(ProcessorId::new(2), Duration::from_millis(40), true);
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
            .with_restart(ProcessorId::new(2), Duration::from_millis(20), false);
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
        let plan = FaultPlan::none().with_partition(
            vec![0, 1, 1],
            Duration::ZERO,
            Duration::from_millis(3),
        );
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
}
