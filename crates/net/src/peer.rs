//! One node's end of its connection to one peer: the socket, the bytes
//! read that are not yet a whole frame, the bytes to write with their
//! replay ring, and the bounded redial. Only the node that owns the
//! link touches it, inside its tick, and nothing here blocks: sockets
//! are non-blocking, a read takes what has arrived, a write what the
//! kernel will take, and the rest waits for the node's next tick.
//!
//! A node's outgoing unit is a batch: every frame it sent one peer in
//! one tick, back to back. Batches append to one buffer per peer
//! ([`Outgoing`]), which a flush writes until the socket would block.
//!
//! A broken connection is redialled by the lower-numbered end, on the
//! supervisor's backoff formula under `SupervisorPolicy::default()`, so
//! one formula — `min(base × 2^attempt, max)` plus seeded jitter —
//! paces both node restarts and link redials. Backoff is a deadline the
//! node checks at its ticks, not a sleep. Only when the retry budget is
//! exhausted is the peer marked down and its traffic dropped (and
//! counted: those frames surface as `messages_undelivered`).
//!
//! # At-least-once delivery
//!
//! TCP cannot tell a sender about a peer's close until after the fact:
//! the first write after a FIN lands in a dead socket and only a later
//! one errors, and a close with unread bytes can discard what was in
//! flight toward either end. Each end of a connection therefore keeps a
//! ring of its most recent batches — as few as cover [`RESEND_WINDOW`]
//! frames, so the ring retains frames' worth of bytes, not batches'
//! worth — and, after any reconnect, replays the whole ring, oldest
//! first, before what it has not yet written. Frames may arrive more
//! than once — never zero times. That is exactly the contract the
//! automata already honour for the duplication fault, so at-least-once
//! is free at the protocol layer, and it preserves the model's eventual
//! delivery across resets. The ring is the front of the same buffer
//! the batches are written from: a batch the ring lets go is cut off
//! the front, and the buffer's capacity is reused.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::{Wire, WireError};
use rtc_runtime::{Envelope, SupervisorPolicy};

use crate::wire::try_decode_frame;

/// Socket-layer counters shared by every node of a run.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    /// Frames written whole to a socket, each counted once however
    /// often a replay rewrites it.
    pub(crate) frames_sent: AtomicU64,
    /// The batches that carried them: one per peer per tick that had
    /// anything to send.
    pub(crate) writes: AtomicU64,
    /// Frames dropped because their link had given up, or because
    /// teardown overtook them before a socket took them.
    pub(crate) frames_dropped: AtomicU64,
    /// Successful redials of a broken connection.
    pub(crate) reconnects: AtomicU64,
    /// Links that exhausted their retry budget and marked the peer down.
    pub(crate) links_given_up: AtomicU64,
    /// Connection resets the reading nodes injected.
    pub(crate) resets_injected: AtomicU64,
    /// Connections opened: one per pair at boot, and one per redial.
    pub(crate) connects: AtomicU64,
}

/// How many recently-written frames a link retains for replay after a
/// reconnect, at least. The loss window of a reset is what was written
/// between the peer's close and the writer's next read, which sees it —
/// on loopback with tick-paced traffic one batch — so a small ring
/// amply covers it.
pub(crate) const RESEND_WINDOW: u64 = 16;

/// What a node has for one peer, oldest first: the replay ring (batches
/// written whole on some connection, as few as cover [`RESEND_WINDOW`]
/// frames), then what no connection has yet taken whole. Offsets count
/// bytes since the link was made.
#[derive(Debug, Default)]
pub(crate) struct Outgoing {
    /// Frames back to back; `bytes[0]` is at offset `base`.
    pub(crate) bytes: Vec<u8>,
    base: usize,
    /// Frames appended since the last [`Outgoing::seal`].
    pub(crate) open: u64,
    /// One per sealed tick: its end offset and its frame count.
    batches: VecDeque<(usize, u64)>,
    /// How far the current connection has taken the bytes.
    written: usize,
    /// How far any connection has: batches that end by here are sent.
    high: usize,
    /// Frames in the sent batches still retained: the ring.
    ring_frames: u64,
}

impl Outgoing {
    fn end(&self) -> usize {
        self.base + self.bytes.len()
    }

    /// Closes the tick's batch, if the tick filed any frame.
    pub(crate) fn seal(&mut self) {
        if self.open > 0 {
            self.batches.push_back((self.end(), self.open));
            self.open = 0;
        }
    }

    /// Writes what `w` has not yet taken until it would block, counts
    /// the batches written whole for the first time, and lets go of the
    /// ring's oldest batches the rest cover the window without.
    ///
    /// # Errors
    ///
    /// The connection is broken; what it took stays for the replay.
    pub(crate) fn write_to(
        &mut self,
        w: &mut impl Write,
        counters: &NetCounters,
    ) -> io::Result<()> {
        let result = loop {
            if self.written == self.end() {
                break Ok(());
            }
            // rtc-allow(socket-deadline): non-blocking socket, WouldBlock ends the tick's writes
            match w.write(&self.bytes[self.written - self.base..]) {
                Ok(0) => break Err(ErrorKind::WriteZero.into()),
                Ok(k) => self.written += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if self.written > self.high {
            let fresh = self.batches.iter().skip_while(|(end, _)| *end <= self.high);
            let (frames, batches) = fresh
                .take_while(|(end, _)| *end <= self.written)
                .fold((0, 0), |(f, b), (_, frames)| (f + frames, b + 1));
            counters.frames_sent.fetch_add(frames, Ordering::Relaxed);
            counters.writes.fetch_add(batches, Ordering::Relaxed);
            self.ring_frames += frames;
            self.high = self.written;
        }
        let mut cut = self.base;
        while let Some(&(end, frames)) = self.batches.front() {
            if end > self.written || self.ring_frames - frames < RESEND_WINDOW {
                break;
            }
            self.ring_frames -= frames;
            self.batches.pop_front();
            cut = end;
        }
        self.bytes.drain(..cut - self.base);
        self.base = cut;
        result
    }

    /// Starts a new connection: its first write is the ring's oldest
    /// batch.
    pub(crate) fn replay(&mut self) {
        self.written = self.base;
    }

    /// Drops every frame no connection has taken whole, and returns how
    /// many: the link gave up, or teardown overtook them.
    pub(crate) fn drop_unsent(&mut self) -> u64 {
        self.seal();
        let mut frames = 0;
        while let Some(&(end, n)) = self.batches.back() {
            if end <= self.high {
                break;
            }
            frames += n;
            self.batches.pop_back();
        }
        let kept = self.batches.back().map_or(self.base, |(end, _)| *end);
        self.bytes.truncate(kept - self.base);
        self.written = self.written.min(kept);
        self.high = self.high.min(kept);
        frames
    }
}

/// Bytes read from one connection that are not yet decoded. The buffer
/// is zeroed once as it grows and read into in place after that.
#[derive(Debug, Default)]
pub(crate) struct Incoming {
    bytes: Vec<u8>,
    len: usize,
}

/// Room a read is offered, at least.
const READ_ROOM: usize = 16 * 1024;

impl Incoming {
    /// Reads what `r` has until it would block. Returns `false` when the
    /// connection is gone (end of stream, or an error); what was read
    /// before stays.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> bool {
        loop {
            if self.bytes.len() - self.len < READ_ROOM {
                self.bytes.resize(self.len + READ_ROOM, 0);
            }
            let room = self.bytes.len() - self.len;
            // rtc-allow(socket-deadline): non-blocking socket, WouldBlock ends the tick's reads
            match r.read(&mut self.bytes[self.len..]) {
                Ok(0) => return false,
                Ok(k) => {
                    self.len += k;
                    // A short read took everything there was.
                    if k < room {
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Decodes every complete frame, in order, into `land`, and removes
    /// their bytes, leaving a torn tail for the next read to complete.
    ///
    /// # Errors
    ///
    /// A frame that fails to decode poisons the stream; the frames
    /// before it have landed.
    pub(crate) fn drain<M: Wire>(
        &mut self,
        mut land: impl FnMut(Envelope<M>),
    ) -> Result<(), WireError> {
        let mut at = 0;
        let outcome = loop {
            match try_decode_frame::<M>(&self.bytes[at..self.len]) {
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
        self.bytes.copy_within(at..self.len, 0);
        self.len -= at;
        outcome
    }

    /// Bytes read and not yet decoded.
    pub(crate) fn pending(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// One node's end of its connection to one peer.
#[derive(Debug)]
pub(crate) struct Link {
    /// The connection, non-blocking; `None` while it is down.
    pub(crate) stream: Option<TcpStream>,
    pub(crate) inbound: Incoming,
    pub(crate) outbound: Outgoing,
    /// Consecutive failed redials; `> max_retries` gives the link up.
    failures: u32,
    /// When the next redial may go, after a failed one.
    retry_at: Option<Instant>,
    pub(crate) given_up: bool,
    /// Keys the backoff jitter, so two links never thunder in lockstep
    /// after a shared outage.
    rng: SmallRng,
}

impl Link {
    /// A link with no connection yet, its backoff jitter keyed by
    /// `seed`.
    pub(crate) fn new(seed: u64) -> Link {
        Link {
            stream: None,
            inbound: Incoming::default(),
            outbound: Outgoing::default(),
            failures: 0,
            retry_at: None,
            given_up: false,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Takes `stream` as the link's connection, superseding any other:
    /// the torn tail of the old one is dropped, and the next write
    /// replays the ring.
    pub(crate) fn attach(&mut self, stream: TcpStream) {
        self.stream = Some(stream);
        self.inbound.clear();
        self.outbound.replay();
    }

    /// Closes the connection; the lower-numbered end redials.
    pub(crate) fn detach(&mut self) {
        self.stream = None;
    }

    /// Reads what has arrived. Returns `false` when the connection is
    /// gone; a link that is down reads nothing and is not gone.
    pub(crate) fn receive(&mut self) -> bool {
        match self.stream.as_mut() {
            Some(stream) => self.inbound.read_from(stream),
            None => true,
        }
    }

    /// Ends the node's tick on this link: seals the tick's batch,
    /// redials a broken connection when `dial` says where (this end is
    /// the lower-numbered one, node `me`), and writes what the socket
    /// will take, detaching a connection that fails. A link that has
    /// given up drops its frames instead, and counts them.
    pub(crate) fn flush(
        &mut self,
        dial: Option<(&SocketAddr, usize)>,
        io_deadline: Duration,
        policy: &SupervisorPolicy,
        counters: &NetCounters,
    ) {
        self.outbound.seal();
        if let (None, Some((addr, me))) = (&self.stream, dial) {
            self.redial(addr, me, io_deadline, policy, counters);
        }
        if self.given_up {
            let dropped = self.outbound.drop_unsent();
            counters
                .frames_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        } else if let Some(stream) = self.stream.as_mut() {
            if self.outbound.write_to(stream, counters).is_err() {
                self.detach();
            }
        }
    }

    /// Redials `addr` as node `me` once the backoff allows. On success
    /// the connection is attached behind the dialer's hello; each
    /// failure books a backoff, and one past the budget gives the link
    /// up and counts it.
    fn redial(
        &mut self,
        addr: &SocketAddr,
        me: usize,
        io_deadline: Duration,
        policy: &SupervisorPolicy,
        counters: &NetCounters,
    ) {
        let now = Instant::now();
        if self.given_up || self.retry_at.is_some_and(|at| now < at) {
            return;
        }
        match dial(addr, me, io_deadline) {
            Ok(stream) => {
                counters.connects.fetch_add(1, Ordering::Relaxed);
                counters.reconnects.fetch_add(1, Ordering::Relaxed);
                self.failures = 0;
                self.retry_at = None;
                self.attach(stream);
            }
            Err(_) => {
                self.failures += 1;
                if self.failures > policy.max_retries {
                    self.given_up = true;
                    counters.links_given_up.fetch_add(1, Ordering::Relaxed);
                } else {
                    let backoff = policy.backoff(self.failures - 1, &mut self.rng);
                    self.retry_at = Some(now + backoff);
                }
            }
        }
    }
}

/// Opens a connection to `addr` and says who is calling: node `me`'s id,
/// four bytes, before any frame. The connect completes from the peer's
/// listen backlog whether or not the peer is running.
fn dial(addr: &SocketAddr, me: usize, io_deadline: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(addr, io_deadline)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(io_deadline))?;
    (&stream).write_all(&(me as u32).to_le_bytes())?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Reads a redialled connection's hello, the dialer's id, within
/// `io_deadline` — the dialer writes it right behind its connect — and
/// makes the connection non-blocking.
pub(crate) fn hello(stream: &TcpStream, io_deadline: Duration) -> io::Result<usize> {
    let mut id = [0u8; 4];
    stream.set_read_timeout(Some(io_deadline))?;
    (&*stream).read_exact(&mut id)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(u32::from_le_bytes(id) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    use rtc_core::{CommitKind, CommitMsg};
    use rtc_model::{ProcessorId, Value};

    use crate::wire::{encode_frame, Frame};

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

    /// Files a batch of one-byte "frames" and ends the tick, as node 0
    /// dialling `addr` would.
    fn tick(link: &mut Link, frames: &[u8], addr: &SocketAddr, counters: &NetCounters) {
        link.outbound.bytes.extend_from_slice(frames);
        link.outbound.open += frames.len() as u64;
        link.flush(
            Some((addr, 0)),
            Duration::from_millis(100),
            &policy(),
            counters,
        );
    }

    /// A connection to `listener`, accepted, the near end non-blocking
    /// as boot leaves it.
    fn connect(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let near = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        near.set_nonblocking(true).expect("non-blocking");
        let (far, _) = listener.accept().expect("accept");
        far.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("deadline");
        (near, far)
    }

    #[test]
    fn frames_survive_a_connection_reset() {
        // rtc-allow(socket-deadline): test-only accept/read harness
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let counters = NetCounters::default();
        let (near, mut far) = connect(&listener);
        let mut link = Link::new(7);
        link.stream = Some(near);

        tick(&mut link, &[1], &addr, &counters);
        let mut buf = [0u8; 1];
        far.read_exact(&mut buf).expect("first frame");
        assert_eq!(buf, [1]);
        // The three-frame batch lands in the peer's buffer and is never
        // read: the peer closes with it unread, which resets the
        // connection and loses it.
        tick(&mut link, &[2, 3, 4], &addr, &counters);
        drop(far);
        // Give the reset time to reach the writer's kernel, so the
        // node's next read sees it deterministically.
        thread::sleep(Duration::from_millis(30));

        // The next tick reads the reset, redials, and its batch
        // arrives over the fresh connection behind the dialer's hello
        // and the replay of the ring (at-least-once, never zero-times):
        // the lost batch whole, in order, behind the write before it.
        assert!(!link.receive(), "the reset is read");
        link.detach();
        tick(&mut link, &[5, 6], &addr, &counters);
        let (mut conn, _) = listener.accept().expect("re-accept");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("deadline");
        let mut hello = [0u8; 4];
        conn.read_exact(&mut hello).expect("hello");
        assert_eq!(u32::from_le_bytes(hello), 0);
        let mut buf = [0u8; 6];
        conn.read_exact(&mut buf)
            .expect("replayed ring + last batch");
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);

        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 6);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 3);
        assert_eq!(counters.frames_dropped.load(Ordering::Relaxed), 0);
        assert_eq!(counters.reconnects.load(Ordering::Relaxed), 1);
        // Six frames are inside the window: the ring let nothing go.
        assert_eq!(link.outbound.bytes, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn the_ring_covers_the_window_in_frames_and_recycles_the_rest() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let counters = NetCounters::default();
        let (near, _far) = connect(&listener);
        let mut link = Link::new(6);
        link.stream = Some(near);
        // 10 + 10 frames: the first batch is still needed to cover 16.
        for (k, frames) in [10, 10].into_iter().enumerate() {
            tick(&mut link, &vec![k as u8; frames], &addr, &counters);
        }
        assert_eq!(link.outbound.bytes.len(), 20);
        // A 32-frame batch covers the window alone: both earlier ones
        // are cut off the front, and the buffer keeps its capacity for
        // the ticks to come.
        tick(&mut link, &[2; 32], &addr, &counters);
        assert_eq!(link.outbound.bytes, [2; 32], "the last batch is the ring");
        assert!(link.outbound.bytes.capacity() >= 52);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 52);
    }

    #[test]
    fn dead_peer_exhausts_the_budget_and_is_marked_down() {
        // Bind-then-drop yields an address that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let counters = NetCounters::default();
        let mut link = Link::new(8);
        // The budget (3 retries × ≤4ms backoff) runs out within the
        // ticks that follow the first batch; the second meets a link
        // that has given up.
        tick(&mut link, &[9, 10], &addr, &counters);
        let wait = Instant::now();
        while !link.given_up {
            assert!(wait.elapsed() < Duration::from_secs(5), "{link:?}");
            thread::sleep(Duration::from_millis(1));
            tick(&mut link, &[], &addr, &counters);
        }
        tick(&mut link, &[11], &addr, &counters);
        assert_eq!(counters.links_given_up.load(Ordering::Relaxed), 1);
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 0);
        // All three frames are accounted as dropped, not lost silently.
        assert_eq!(counters.frames_dropped.load(Ordering::Relaxed), 3);
        assert!(link.outbound.bytes.is_empty());
    }

    /// A socket that takes at most `per_call` bytes a write, and
    /// `budget` a tick, then would block.
    struct Trickle {
        taken: Vec<u8>,
        per_call: usize,
        budget: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let k = buf.len().min(self.per_call).min(self.budget);
            self.taken.extend_from_slice(&buf[..k]);
            self.budget -= k;
            Ok(k)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_node_writer_resumes_where_the_socket_would_block() {
        // Forty ticks of one to four frames of different lengths, over
        // a socket that takes 3 bytes a call and 40 a tick: far less
        // than a tick files, so the tail carries over tick after tick.
        // Every frame must arrive whole, in order and exactly once, and
        // count as sent once it is whole.
        let frame = |k: u64| Frame {
            from: ProcessorId::new(0),
            instance: k as u32,
            sent_at_tick: k,
            sent_event: k,
            msg: CommitMsg {
                go: None,
                kinds: vec![CommitKind::Vote(Value::One); (k % 3) as usize].into(),
            },
        };
        let counters = NetCounters::default();
        let mut out = Outgoing::default();
        let mut socket = Trickle {
            taken: Vec::new(),
            per_call: 3,
            budget: 0,
        };
        let (mut filed, mut batches, mut ticks) = (Vec::new(), 0, 0);
        while ticks < 40 || out.written < out.end() {
            if ticks < 40 {
                for _ in 0..=ticks % 4 {
                    let f = frame(filed.len() as u64);
                    out.bytes.extend_from_slice(&encode_frame(&f));
                    out.open += 1;
                    filed.push(f);
                }
                batches += 1;
            }
            out.seal();
            socket.budget = 40;
            out.write_to(&mut socket, &counters)
                .expect("would block, not fail");
            ticks += 1;
            // Nothing counts as sent before its batch is whole.
            let whole = socket.taken.len();
            let sent = counters.frames_sent.load(Ordering::Relaxed) as usize;
            let encoded: usize = filed[..sent].iter().map(|f| encode_frame(f).len()).sum();
            assert!(encoded <= whole, "tick {ticks}: {sent} frames counted");
        }
        assert!(ticks > 60, "the socket must have held the writer back");
        let mut inbound = Incoming::default();
        assert!(inbound.read_from(&mut socket.taken.as_slice()));
        let mut arrived = Vec::new();
        inbound
            .drain::<CommitMsg>(|env| {
                arrived.push(Frame {
                    from: env.from,
                    instance: env.instance as u32,
                    sent_at_tick: env.sent_at_tick,
                    sent_event: env.sent_event,
                    msg: env.msg,
                });
            })
            .expect("whole frames");
        assert_eq!(inbound.pending(), 0, "no torn tail");
        assert_eq!(arrived, filed);
        assert_eq!(
            counters.frames_sent.load(Ordering::Relaxed),
            filed.len() as u64
        );
        assert_eq!(counters.writes.load(Ordering::Relaxed), batches);
    }
}
