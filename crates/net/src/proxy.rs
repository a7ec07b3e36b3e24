//! The fault-injecting proxy: one per node, interposed on every
//! inbound link.
//!
//! When a [`FaultPlan`] carries network faults, the cluster does not
//! hand senders the node's real address — it hands them the address of
//! that node's [`FaultProxy`]. The proxy accepts real connections,
//! decodes real frames, and re-emits them toward the node's real
//! listener through a delay heap, applying the runtime's fault
//! vocabulary to genuine TCP traffic:
//!
//! * **Delay** — each frame's hold is drawn from the plan's
//!   [`DelayModel`](rtc_runtime::DelayModel), its ticks read as the
//!   cluster's tick of wall clock, as are the windows below.
//! * **Outages and partitions** — a frame crossing a cut link or an
//!   active partition is held until the window heals. Nothing is
//!   dropped; eventual delivery survives the cut.
//! * **Reordering** — an extra one-to-three-tick hold lets younger
//!   frames overtake this one through the heap.
//! * **Duplication** — a byte-identical copy rides the heap with its
//!   own extra hold.
//! * **Resets** (socket-only) — after relaying a frame the proxy closes
//!   the inbound connection at a frame boundary, forcing the sender
//!   through its reconnect/backoff path. Clean FIN, never mid-frame:
//!   every accepted frame is still forwarded.
//!
//! The proxy needs only frame *headers* (the source id), never payload
//! semantics, so it works for any [`Wire`](rtc_model::Wire) message
//! type and cannot cheat on behalf of the protocol.

use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::ProcessorId;
use rtc_runtime::{Due, FaultPlan};

use crate::cluster::{accept_until_done, wake_acceptor};
use crate::peer::NetCounters;
use crate::wire::MAX_FRAME;

/// A frame on its way to the forwarder: when it is due, its bytes.
type Hold = (Instant, Vec<u8>);

/// Everything the proxy's threads share.
struct ProxyShared {
    plan: FaultPlan,
    dst: ProcessorId,
    start: Instant,
    tick: Duration,
    io_deadline: Duration,
    done: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    forward: Sender<Hold>,
}

/// A per-node fault proxy, listening on its own ephemeral port and
/// relaying toward the node's real listener.
pub(crate) struct FaultProxy {
    /// Where senders should connect instead of the real listener.
    pub(crate) addr: SocketAddr,
    acceptor: thread::JoinHandle<()>,
    /// Returns the number of frames still held (or queued) at teardown
    /// — traffic whose hold outlived the run, accounted as undelivered.
    forwarder: thread::JoinHandle<u64>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.addr)
            .finish()
    }
}

impl FaultProxy {
    /// Spawns the proxy guarding `dst`: an acceptor for inbound links
    /// and a forwarder that replays frames toward `upstream` (the
    /// node's real listener) in due order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        dst: ProcessorId,
        upstream: SocketAddr,
        plan: FaultPlan,
        tick: Duration,
        io_deadline: Duration,
        seed: u64,
        start: Instant,
        done: Arc<AtomicBool>,
        counters: Arc<NetCounters>,
    ) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;

        let (forward_tx, forward_rx) = unbounded::<Hold>();
        let shared = Arc::new(ProxyShared {
            plan,
            dst,
            start,
            tick,
            io_deadline,
            done: Arc::clone(&done),
            counters: Arc::clone(&counters),
            forward: forward_tx,
        });

        let forwarder = spawn_forwarder(upstream, forward_rx, io_deadline, done);
        // The acceptor and its handlers hold the only senders into the
        // forwarder, so it ends when they have.
        let acceptor = thread::spawn(move || {
            let mut conn_no = 0u64;
            accept_until_done(&listener, &shared.done, |stream| {
                conn_no += 1;
                let shared = Arc::clone(&shared);
                // Vary the fault dice per connection so the dst's
                // links do not fault in lockstep.
                let rng = SmallRng::seed_from_u64(seed ^ conn_no.wrapping_mul(0x9E37_79B9));
                thread::spawn(move || handle_inbound(stream, shared, rng))
            });
        });

        Ok(FaultProxy {
            addr,
            acceptor,
            forwarder,
        })
    }

    /// Joins the proxy's threads; returns how many frames were still
    /// held when the run ended.
    pub(crate) fn finish(self) -> u64 {
        wake_acceptor(self.addr);
        let _ = self.acceptor.join();
        self.forwarder.join().unwrap_or(0)
    }
}

/// One inbound connection: parse frames, roll the fault dice, hand the
/// bytes to the forwarder with their computed hold.
fn handle_inbound(mut stream: TcpStream, shared: Arc<ProxyShared>, mut rng: SmallRng) {
    // A read deadline keeps the handler responsive to teardown even
    // when the sender goes quiet without closing.
    let _ = stream.set_read_timeout(Some(shared.io_deadline.min(Duration::from_millis(25))));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if shared.done.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // sender closed
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                // Relay every complete frame of the read, then remove
                // their bytes once. A reset closes the connection at a
                // frame boundary, but only behind the complete frames
                // already read off the socket: they are TCP-acked, and
                // the contract is that every accepted frame is still
                // forwarded.
                let (mut at, mut reset) = (0, false);
                let poisoned = loop {
                    let mut rolled = false;
                    match relay_one(&buf[at..], &shared, &mut rng, &mut rolled) {
                        Ok(Some(consumed)) => at += consumed,
                        Ok(None) => break false, // need more bytes
                        Err(()) => break true,   // drop the connection
                    }
                    reset |= rolled;
                };
                if reset {
                    let resets = &shared.counters.resets_injected;
                    resets.fetch_add(1, Ordering::Relaxed);
                }
                if reset || poisoned {
                    return;
                }
                buf.drain(..at);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Relays the first complete frame in `buf`, returning how many bytes
/// it consumed (`Ok(None)`: incomplete; `Err`: poisoned stream, drop
/// the connection). Sets `reset` when the fault dice ask for a
/// connection reset after this frame.
fn relay_one(
    buf: &[u8],
    shared: &ProxyShared,
    rng: &mut SmallRng,
    reset: &mut bool,
) -> Result<Option<usize>, ()> {
    if buf.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        // There is no way to resynchronise a framed stream.
        return Err(());
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    // The source id is the first header field after the length.
    let src = ProcessorId::new(u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize);
    let bytes = buf[..4 + len].to_vec();
    let (hold, duplicate_hold, reset_after) =
        shared
            .plan
            .roll(src, shared.dst, shared.start.elapsed(), shared.tick, rng);
    let now = Instant::now();
    let copy = duplicate_hold.map(|hold| (now + hold, bytes.clone()));
    let _ = shared.forward.send((now + hold, bytes));
    if let Some(copy) = copy {
        let _ = shared.forward.send(copy);
    }
    *reset = reset_after;
    Ok(Some(4 + len))
}

/// The forwarder: owns the delay heap and one reconnecting upstream
/// connection, writing frames toward the real listener in due order.
fn spawn_forwarder(
    upstream: SocketAddr,
    rx: Receiver<Hold>,
    io_deadline: Duration,
    done: Arc<AtomicBool>,
) -> thread::JoinHandle<u64> {
    thread::spawn(move || -> u64 {
        let mut heap: BinaryHeap<Due<Vec<u8>>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut stream: Option<TcpStream> = None;
        loop {
            let timeout = heap
                .peek()
                .map(|h| h.due.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(5))
                .min(Duration::from_millis(5));
            match rx.recv_timeout(timeout) {
                Ok((due, item)) => {
                    seq += 1;
                    heap.push(Due { due, seq, item });
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return heap.len() as u64,
            }
            let now = Instant::now();
            while heap.peek().is_some_and(|h| h.due <= now) {
                let bytes = heap.pop().expect("peeked").item;
                if !write_upstream(&mut stream, upstream, &bytes, io_deadline, &done) {
                    // Teardown or a dead upstream: the frame (and the
                    // rest of the heap) would arrive after the run.
                    return heap.len() as u64 + 1;
                }
            }
            if done.load(Ordering::Relaxed) {
                return heap.len() as u64;
            }
        }
    })
}

/// Writes `bytes` upstream, (re)connecting with the I/O deadline as
/// needed. Returns `false` when teardown started or the upstream stayed
/// unreachable across a handful of attempts.
fn write_upstream(
    stream: &mut Option<TcpStream>,
    upstream: SocketAddr,
    bytes: &[u8],
    io_deadline: Duration,
    done: &AtomicBool,
) -> bool {
    // The upstream is our own node's listener: it only disappears at
    // teardown, so a short fixed retry budget suffices here (senders
    // carry the real backoff machinery).
    for _ in 0..4 {
        if done.load(Ordering::Relaxed) {
            return false;
        }
        if stream.is_none() {
            match TcpStream::connect_timeout(&upstream, io_deadline) {
                Ok(s) => {
                    let _ = s.set_write_timeout(Some(io_deadline));
                    let _ = s.set_nodelay(true);
                    *stream = Some(s);
                }
                Err(_) => {
                    thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        match stream.as_mut().expect("connected above").write_all(bytes) {
            Ok(()) => return true,
            Err(_) => *stream = None,
        }
    }
    false
}
