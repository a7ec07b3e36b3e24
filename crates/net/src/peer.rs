//! Outbound links: one sender thread per (source, destination) pair
//! that carries traffic, spawned by its first batch; no self-link does.
//!
//! A link owns a lazily-established TCP connection to its [`Peer`]. Its
//! unit of work is a [`Batch`]: every frame its node sent this peer in
//! one tick, back to back in one buffer, which costs one liveness probe
//! and one `write_all` however many frames it holds.
//! Connects and writes carry the run's I/O deadline; a failed write or
//! connect sends the link through a bounded reconnect loop paced by the
//! supervisor's backoff formula under `SupervisorPolicy::default()`, so
//! one formula — `min(base × 2^attempt, max)` plus seeded jitter — paces
//! both node restarts and link reconnects. Only when the retry budget
//! is exhausted is the peer marked down and its traffic dropped (and
//! counted: those frames surface as `messages_undelivered`). The thread
//! ends when its channel disconnects — teardown drops the senders — or
//! when it meets `done` with a batch still in hand.
//!
//! # At-least-once delivery
//!
//! TCP cannot tell a sender about a peer's close until after the fact:
//! the first write after a FIN lands in a dead socket and only the
//! *next* write errors, so a connection reset could silently eat the
//! writes in that window. The link therefore keeps a ring of its most
//! recent writes — as few as cover [`RESEND_WINDOW`] frames, so the
//! ring retains frames' worth of bytes, not batches' worth — and
//! replays the whole ring, oldest first, after every reconnect. A write
//! is replayed whole or not at all. Frames may arrive more than once —
//! never zero times. That is exactly the contract the automata already
//! honour for the duplication fault, so at-least-once is free at the
//! protocol layer, and it preserves the model's eventual delivery
//! across resets. A batch the ring lets go is handed back to the
//! sending node, which fills it again: tick buffers circulate, they are
//! not allocated per flush.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_runtime::SupervisorPolicy;

/// Socket-layer counters shared by every link and reader of a run.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    /// Frames successfully written to a socket by link senders.
    pub(crate) frames_sent: AtomicU64,
    /// The socket writes that carried them: one per batch.
    pub(crate) writes: AtomicU64,
    /// Frames dropped because their link had given up, or because
    /// teardown overtook them.
    pub(crate) frames_dropped: AtomicU64,
    /// Successful re-establishments of a previously broken connection.
    pub(crate) reconnects: AtomicU64,
    /// Links that exhausted their retry budget and marked the peer down.
    pub(crate) links_given_up: AtomicU64,
    /// Connection resets the readers injected.
    pub(crate) resets_injected: AtomicU64,
    /// Connections accepted: one per connect, reconnects included.
    pub(crate) accepted: AtomicU64,
    /// Link threads spawned: one per pair that carried a batch.
    pub(crate) links_spawned: AtomicU64,
}

/// What a link connects to.
pub(crate) trait Peer: Send + 'static {
    /// Opens one connection to the peer within `deadline`.
    fn connect(&self, deadline: Duration) -> io::Result<TcpStream>;
}

/// How many recently-written frames a link retains for replay after a
/// reconnect, at least. The loss window of an undetected reset is what
/// was written between the peer's FIN and the first failing write — on
/// loopback with tick-paced traffic that is one or two writes, so a
/// small ring amply covers it.
const RESEND_WINDOW: u64 = 16;

/// What one node sent one peer in one tick: whole frames back to back,
/// and how many.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    pub(crate) bytes: Vec<u8>,
    pub(crate) frames: u64,
}

/// Sleeps for `total` in small slices, bailing out early when `done`
/// flips — a link mid-backoff must not stall teardown.
fn sleep_unless_done(total: Duration, done: &AtomicBool) {
    const SLICE: Duration = Duration::from_millis(2);
    let mut remaining = total;
    while !remaining.is_zero() && !done.load(Ordering::Relaxed) {
        let nap = remaining.min(SLICE);
        thread::sleep(nap);
        remaining -= nap;
    }
}

/// Checks whether the kernel has already seen the peer close this
/// connection. The first write after a FIN succeeds into a dead socket
/// and the frame silently vanishes; a zero-cost non-blocking read
/// surfaces the FIN (`Ok(0)`) or reset *before* the write instead. The
/// link never expects inbound data, so anything readable other than
/// `WouldBlock` means the connection is no longer a usable link.
fn probe_alive(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    let alive = match (&mut (&*conn)).read(&mut byte) {
        Ok(0) => false,
        Ok(_) => true, // stray inbound byte on a send-only link
        Err(e) if e.kind() == ErrorKind::WouldBlock => true,
        Err(_) => false,
    };
    alive && conn.set_nonblocking(false).is_ok()
}

/// The mutable state of one link's sender thread.
struct LinkState<P> {
    peer: P,
    policy: SupervisorPolicy,
    io_deadline: Duration,
    done: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    rng: SmallRng,
    stream: Option<TcpStream>,
    /// Consecutive connect/write failures since the last successful
    /// write; `> max_retries` marks the peer down for good.
    failures: u32,
    given_up: bool,
    ever_connected: bool,
    /// Replay ring for at-least-once delivery (module docs), and how
    /// many frames it holds.
    recent: VecDeque<Batch>,
    recent_frames: u64,
    /// Where batches the ring lets go return to, emptied.
    spare: Sender<Vec<u8>>,
    /// Whether the next (re)connect must replay the ring: set when a
    /// write failed or an idle probe found the connection dead, i.e.
    /// frames may sit in a dead socket's buffer.
    replay: bool,
}

impl<P: Peer> LinkState<P> {
    /// Delivers `batch` (or, with `None`, just flushes a pending ring
    /// replay) or dies trying within the retry budget; a link that has
    /// given up drops it. A batch is only released on a successful
    /// write. Returns `false` when teardown overtook the batch: the
    /// link is done.
    fn deliver(&mut self, batch: Option<Batch>) -> bool {
        let frames = batch.as_ref().map_or(0, |b| b.frames);
        loop {
            // Teardown won the race (the frames would arrive after
            // every node stopped listening), or the peer is down.
            let teardown = self.done.load(Ordering::Relaxed);
            if teardown || self.given_up {
                let dropped = &self.counters.frames_dropped;
                dropped.fetch_add(frames, Ordering::Relaxed);
                return !teardown;
            }
            if self.stream.is_none() {
                match self.peer.connect(self.io_deadline) {
                    Ok(s) => {
                        // Deadline every write: a wedged peer must
                        // surface as an error, not a hang.
                        let _ = s.set_write_timeout(Some(self.io_deadline));
                        let _ = s.set_nodelay(true);
                        if self.ever_connected {
                            self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        self.ever_connected = true;
                        self.stream = Some(s);
                    }
                    Err(_) => {
                        self.fail();
                        continue;
                    }
                }
            }
            let conn = self.stream.as_mut().expect("connected above");
            let wrote = probe_alive(conn) && {
                let ring_ok = if self.replay {
                    // A write failed (or an idle probe saw a FIN):
                    // writes near the failure may be lost in the old
                    // socket. Replay the ring first (duplicates are
                    // protocol-safe).
                    self.recent.iter().all(|b| conn.write_all(&b.bytes).is_ok())
                } else {
                    true
                };
                ring_ok
                    && match &batch {
                        Some(b) => conn.write_all(&b.bytes).is_ok(),
                        None => true,
                    }
            };
            if wrote {
                self.failures = 0;
                self.replay = false;
                if let Some(b) = batch {
                    let sent = &self.counters.frames_sent;
                    sent.fetch_add(frames, Ordering::Relaxed);
                    self.counters.writes.fetch_add(1, Ordering::Relaxed);
                    self.retain(b);
                }
                return true;
            }
            // Broken or reset connection: reconnect, replay, resend.
            self.stream = None;
            self.replay = true;
            self.fail();
        }
    }

    /// Puts a written batch in the ring and lets go of the oldest ones
    /// the rest still covers [`RESEND_WINDOW`] frames without.
    fn retain(&mut self, batch: Batch) {
        self.recent_frames += batch.frames;
        self.recent.push_back(batch);
        while let Some(oldest) = self.recent.front() {
            if self.recent_frames - oldest.frames < RESEND_WINDOW {
                break;
            }
            self.recent_frames -= oldest.frames;
            let mut bytes = self.recent.pop_front().expect("peeked").bytes;
            bytes.clear();
            // The node is gone only during teardown.
            let _ = self.spare.send(bytes);
        }
    }

    /// Books one failure: backs off, or, when the budget is exhausted,
    /// marks the peer down for good.
    fn fail(&mut self) {
        self.failures += 1;
        if self.failures > self.policy.max_retries {
            self.given_up = true;
            self.counters.links_given_up.fetch_add(1, Ordering::Relaxed);
            return;
        }
        sleep_unless_done(
            self.policy.backoff(self.failures - 1, &mut self.rng),
            &self.done,
        );
    }
}

/// Spawns the sender thread for one link. Batches arrive pre-encoded
/// on `rx` and their buffers go back on `spare`; every connect and
/// write is bounded by `io_deadline`; `seed` keys the backoff jitter so
/// two links never thunder in lockstep after a shared outage.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_link(
    peer: impl Peer,
    rx: Receiver<Batch>,
    spare: Sender<Vec<u8>>,
    policy: SupervisorPolicy,
    io_deadline: Duration,
    done: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    seed: u64,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let mut link = LinkState {
            peer,
            policy,
            io_deadline,
            done,
            counters,
            rng: SmallRng::seed_from_u64(seed),
            stream: None,
            failures: 0,
            given_up: false,
            ever_connected: false,
            recent: VecDeque::new(),
            recent_frames: 0,
            spare,
            replay: false,
        };
        loop {
            // The timeout paces the idle probe only; teardown drops the
            // senders, which ends the wait at once.
            let batch = match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(b) => b,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle probe: a reset can eat frames already
                    // written into a dead socket, and if the automaton
                    // has gone quiet there is no next write to trigger
                    // the replay. Surface the FIN now and replay the
                    // ring, so tail frames (a node's final decision
                    // broadcast) are never lost for good.
                    if !link.given_up && !link.recent.is_empty() {
                        if let Some(conn) = link.stream.as_ref() {
                            if !probe_alive(conn) {
                                link.stream = None;
                                link.replay = true;
                            }
                        }
                        if link.replay {
                            link.deliver(None);
                        }
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            if !link.deliver(Some(batch)) {
                return;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::mpsc::channel;

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            max_retries: 3,
            jitter_permille: 0,
            from_snapshot: true,
            seed: 9,
        }
    }

    /// A batch of `frames` one-byte "frames".
    fn batch(frames: &[u8]) -> Batch {
        Batch {
            bytes: frames.to_vec(),
            frames: frames.len() as u64,
        }
    }

    /// A bare address: the test accepts what the link connects.
    impl Peer for SocketAddr {
        fn connect(&self, deadline: Duration) -> io::Result<TcpStream> {
            TcpStream::connect_timeout(self, deadline)
        }
    }

    #[test]
    fn frames_survive_a_connection_reset() {
        // rtc-allow(socket-deadline): test-only accept/read harness
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = channel();
        let (spare_tx, spare) = channel();
        let counters = Arc::new(NetCounters::default());
        let handle = spawn_link(
            addr,
            rx,
            spare_tx,
            policy(),
            Duration::from_millis(100),
            Arc::new(AtomicBool::new(false)),
            Arc::clone(&counters),
            7,
        );

        tx.send(batch(&[1])).expect("send");
        // Accept the first connection and read its frame. The
        // three-frame batch that follows is never read: whether the
        // link writes it before or after it can see the close, it
        // lands in a dead socket or is refused — then slam the
        // connection shut.
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 1];
        conn.read_exact(&mut buf).expect("first frame");
        assert_eq!(buf, [1]);
        tx.send(batch(&[2, 3, 4])).expect("send");
        drop(conn);
        // Give the FIN time to reach the sender's kernel so a probe
        // (the idle one, if the batch beat the close) sees it
        // deterministically.
        thread::sleep(Duration::from_millis(30));

        // The next batch must arrive over a fresh connection, preceded
        // by the replay of the ring (at-least-once, never zero-times):
        // the lost batch whole, in order, behind the write before it.
        tx.send(batch(&[5, 6])).expect("send");
        let (mut conn, _) = listener.accept().expect("re-accept");
        let mut buf = [0u8; 6];
        conn.read_exact(&mut buf)
            .expect("replayed ring + last batch");
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);

        // The link ends when its senders are gone, not on a poll.
        drop(tx);
        handle.join().expect("join");
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 6);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 3);
        assert_eq!(counters.frames_dropped.load(Ordering::Relaxed), 0);
        assert_eq!(counters.reconnects.load(Ordering::Relaxed), 1);
        // Six frames are inside the window: the ring let nothing go.
        assert!(spare.try_recv().is_err());
    }

    #[test]
    fn the_ring_covers_the_window_in_frames_and_recycles_the_rest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (tx, rx) = channel();
        let (spare_tx, spare) = channel();
        let handle = spawn_link(
            listener.local_addr().expect("addr"),
            rx,
            spare_tx,
            policy(),
            Duration::from_millis(100),
            Arc::new(AtomicBool::new(false)),
            Arc::new(NetCounters::default()),
            6,
        );
        // 10 + 10 frames: the first batch is still needed to cover 16.
        // A 32-frame batch covers the window alone: both go back,
        // emptied, capacity kept.
        for frames in [10, 10, 32] {
            tx.send(batch(&vec![0; frames])).expect("send");
        }
        let _conn = listener.accept().expect("accept");
        for _ in 0..2 {
            let recycled = spare
                .recv_timeout(Duration::from_secs(5))
                .expect("a buffer");
            assert!(recycled.is_empty() && recycled.capacity() >= 10);
        }
        drop(tx);
        handle.join().expect("join");
        assert!(spare.try_recv().is_err(), "the last batch is the ring");
    }

    #[test]
    fn dead_peer_exhausts_the_budget_and_is_marked_down() {
        // Bind-then-drop yields an address that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let (tx, rx) = channel();
        let counters = Arc::new(NetCounters::default());
        let handle = spawn_link(
            addr,
            rx,
            channel().0,
            policy(),
            Duration::from_millis(20),
            Arc::new(AtomicBool::new(false)),
            Arc::clone(&counters),
            8,
        );
        tx.send(batch(&[9, 10])).expect("send");
        tx.send(batch(&[11])).expect("send");
        // The budget (3 retries × ≤4ms backoff, plus connect latency)
        // runs out on the first batch; the second meets a link that
        // has given up.
        drop(tx);
        handle.join().expect("join");
        assert_eq!(counters.links_given_up.load(Ordering::Relaxed), 1);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 0);
        // All three frames are accounted as dropped, not lost silently.
        assert_eq!(counters.frames_dropped.load(Ordering::Relaxed), 3);
    }
}
