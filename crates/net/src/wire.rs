//! Length-prefixed wire framing and message codecs.
//!
//! A frame is everything one message carries across a socket (a socket
//! write carries a whole tick of them, back to back, for one link):
//!
//! ```text
//! [len: u32]                  length of the rest of the frame
//! [from: u32]                 sender processor id
//! [instance: u32]             commit instance the payload belongs to
//! [sent_at_tick: u64]         sender's local clock at the send
//! [sent_event: u64]           global step-event index of the send
//! [payload ...]               message bytes, per the [`Wire`] codec
//! ```
//!
//! All integers are little-endian. `sent_at_tick` feeds the per-link
//! delay ledger (the runtime's lateness approximation) and `sent_event`
//! feeds the exact online [`rtc_sim::LatenessMonitor`]; `instance`
//! multiplexes many concurrent commit instances over one connection.
//!
//! Decoding is defensive: a frame longer than [`MAX_FRAME`] or a
//! payload that fails its codec poisons the connection (the reader
//! drops it and the sender reconnects) rather than the process.

use std::sync::Arc;

use rtc_core::{AgreementMsg, CoinList, CommitKind, CommitKinds, CommitMsg};
use rtc_model::{ProcessorId, Value};

/// Hard cap on the byte length of one frame. Protocol 2 messages are a
/// handful of kinds plus a coin list of `O(n)` coins, far below this;
/// anything larger is corruption or a framing bug, not traffic.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of frame header after the length prefix: from (4) +
/// instance (4) + sent_at_tick (8) + sent_event (8).
pub const HEADER: usize = 24;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced length.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// An enum tag byte had no meaning.
    BadTag(u8),
    /// Trailing bytes followed a complete payload.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(len) => write!(f, "frame of {len} bytes exceeds MAX_FRAME"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// A message type that can cross a socket. Implemented here for the
/// protocol's [`CommitMsg`]; the trait is local to this crate so other
/// message types can opt in where they are defined against it.
pub trait Wire: Sized {
    /// Appends the encoded message to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a message from exactly `bytes` (no trailing data).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when `bytes` is truncated, has an
    /// unknown tag, or carries trailing garbage.
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;
}

/// A decoded frame: routing header plus payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame<M> {
    /// The sending processor.
    pub from: ProcessorId,
    /// The commit instance the payload belongs to.
    pub instance: u32,
    /// The sender's local clock at the send.
    pub sent_at_tick: u64,
    /// The global step-event index of the sending step.
    pub sent_event: u64,
    /// The payload.
    pub msg: M,
}

/// Encodes a frame (length prefix included) into a fresh byte vector.
pub fn encode_frame<M: Wire>(frame: &Frame<M>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    append_frame(&mut buf, frame, &frame.msg);
    buf
}

/// Appends the frame that `header`'s routing fields and `msg` make to
/// `buf` (whatever payload `header` has is ignored): the bytes
/// [`encode_frame`] returns, behind whatever `buf` already holds.
pub(crate) fn append_frame<H, M: Wire>(buf: &mut Vec<u8>, header: &Frame<H>, msg: &M) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // length back-patched below
    buf.extend_from_slice(&(header.from.index() as u32).to_le_bytes());
    buf.extend_from_slice(&header.instance.to_le_bytes());
    buf.extend_from_slice(&header.sent_at_tick.to_le_bytes());
    buf.extend_from_slice(&header.sent_event.to_le_bytes());
    msg.encode(buf);
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Parses one complete frame from the front of `buf`, if present.
///
/// Returns `Ok(None)` when more bytes are needed, and the frame plus
/// its total encoded length (prefix included) once one is complete.
///
/// # Errors
///
/// Returns a [`WireError`] when the length prefix exceeds [`MAX_FRAME`]
/// or the payload fails its codec — the caller must poison the
/// connection, because the stream offset can no longer be trusted.
pub fn try_decode_frame<M: Wire>(buf: &[u8]) -> Result<Option<(Frame<M>, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len));
    }
    if len < HEADER {
        return Err(WireError::Truncated);
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = &buf[4..4 + len];
    let from = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let instance = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
    let sent_at_tick = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    let sent_event = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    let msg = M::decode(&body[HEADER..])?;
    Ok(Some((
        Frame {
            from: ProcessorId::new(from),
            instance,
            sent_at_tick,
            sent_event,
            msg,
        },
        4 + len,
    )))
}

/// A byte cursor over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.pos.checked_add(4).ok_or(WireError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn value(&mut self) -> Result<Value, WireError> {
        match self.u8()? {
            0 => Ok(Value::Zero),
            1 => Ok(Value::One),
            t => Err(WireError::BadTag(t)),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.bytes.len() - self.pos))
        }
    }
}

// Payload tags for CommitKind.
const TAG_GO: u8 = 0;
const TAG_VOTE: u8 = 1;
const TAG_AGREE_FIRST: u8 = 2;
const TAG_AGREE_SECOND: u8 = 3;
const TAG_DECIDED: u8 = 4;
const TAG_PING: u8 = 5;

impl Wire for CommitMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match &self.go {
            None => buf.push(0),
            Some(coins) => {
                buf.push(1);
                buf.extend_from_slice(&(coins.len() as u32).to_le_bytes());
                for stage in 1..=coins.len() as u64 {
                    let v = coins.get(stage).expect("stage within the list");
                    buf.push(v.as_u8());
                }
            }
        }
        buf.extend_from_slice(&(self.kinds.len() as u32).to_le_bytes());
        for kind in self.kinds.iter() {
            match kind {
                CommitKind::Go => buf.push(TAG_GO),
                CommitKind::Vote(v) => {
                    buf.push(TAG_VOTE);
                    buf.push(v.as_u8());
                }
                CommitKind::Agree(AgreementMsg::First { stage, value }) => {
                    buf.push(TAG_AGREE_FIRST);
                    buf.extend_from_slice(&stage.to_le_bytes());
                    buf.push(value.as_u8());
                }
                CommitKind::Agree(AgreementMsg::Second { stage, value }) => {
                    buf.push(TAG_AGREE_SECOND);
                    buf.extend_from_slice(&stage.to_le_bytes());
                    match value {
                        None => buf.push(0),
                        Some(v) => {
                            buf.push(1);
                            buf.push(v.as_u8());
                        }
                    }
                }
                CommitKind::Decided(v) => {
                    buf.push(TAG_DECIDED);
                    buf.push(v.as_u8());
                }
                CommitKind::Ping => buf.push(TAG_PING),
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<CommitMsg, WireError> {
        let mut r = Reader::new(bytes);
        let go = match r.u8()? {
            0 => None,
            1 => {
                let count = r.u32()? as usize;
                if count > MAX_FRAME {
                    return Err(WireError::Oversized(count));
                }
                let mut flips = Vec::with_capacity(count);
                for _ in 0..count {
                    flips.push(r.value()?);
                }
                Some(Arc::new(CoinList::from_values(flips)))
            }
            t => return Err(WireError::BadTag(t)),
        };
        let kind_count = r.u32()? as usize;
        if kind_count > MAX_FRAME {
            return Err(WireError::Oversized(kind_count));
        }
        let mut kinds = CommitKinds::new();
        for _ in 0..kind_count {
            kinds.push(match r.u8()? {
                TAG_GO => CommitKind::Go,
                TAG_VOTE => CommitKind::Vote(r.value()?),
                TAG_AGREE_FIRST => {
                    let stage = r.u64()?;
                    CommitKind::Agree(AgreementMsg::First {
                        stage,
                        value: r.value()?,
                    })
                }
                TAG_AGREE_SECOND => {
                    let stage = r.u64()?;
                    let value = match r.u8()? {
                        0 => None,
                        1 => Some(r.value()?),
                        t => return Err(WireError::BadTag(t)),
                    };
                    CommitKind::Agree(AgreementMsg::Second { stage, value })
                }
                TAG_DECIDED => CommitKind::Decided(r.value()?),
                TAG_PING => CommitKind::Ping,
                t => return Err(WireError::BadTag(t)),
            });
        }
        r.finish()?;
        Ok(CommitMsg { go, kinds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &CommitMsg) {
        let frame = Frame {
            from: ProcessorId::new(3),
            instance: 7,
            sent_at_tick: 41,
            sent_event: 1009,
            msg: msg.clone(),
        };
        let bytes = encode_frame(&frame);
        let (decoded, used) = try_decode_frame::<CommitMsg>(&bytes)
            .expect("valid frame")
            .expect("complete frame");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_kind_roundtrips() {
        let coins = Arc::new(CoinList::from_values(vec![
            Value::One,
            Value::Zero,
            Value::One,
        ]));
        roundtrip(&CommitMsg {
            go: Some(Arc::clone(&coins)),
            kinds: vec![
                CommitKind::Go,
                CommitKind::Vote(Value::Zero),
                CommitKind::Agree(AgreementMsg::First {
                    stage: 2,
                    value: Value::One,
                }),
                CommitKind::Agree(AgreementMsg::Second {
                    stage: 9,
                    value: None,
                }),
                CommitKind::Agree(AgreementMsg::Second {
                    stage: 9,
                    value: Some(Value::Zero),
                }),
                CommitKind::Decided(Value::One),
                CommitKind::Ping,
            ]
            .into(),
        });
        roundtrip(&CommitMsg {
            go: None,
            kinds: Vec::new().into(),
        });
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let frame = Frame {
            from: ProcessorId::new(0),
            instance: 0,
            sent_at_tick: 0,
            sent_event: 0,
            msg: CommitMsg {
                go: None,
                kinds: vec![CommitKind::Ping].into(),
            },
        };
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            assert_eq!(
                try_decode_frame::<CommitMsg>(&bytes[..cut]).expect("prefix is not an error"),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let frame = Frame {
            from: ProcessorId::new(1),
            instance: 0,
            sent_at_tick: 5,
            sent_event: 9,
            msg: CommitMsg {
                go: None,
                kinds: vec![CommitKind::Vote(Value::One)].into(),
            },
        };
        let mut bytes = encode_frame(&frame);
        // Corrupt the payload tag.
        let last = bytes.len() - 2;
        bytes[last] = 0xFF;
        assert!(try_decode_frame::<CommitMsg>(&bytes).is_err());

        // An absurd length prefix is rejected before any allocation.
        let mut huge = encode_frame(&frame);
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            try_decode_frame::<CommitMsg>(&huge),
            Err(WireError::Oversized(u32::MAX as usize))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = CommitMsg {
            go: None,
            kinds: vec![CommitKind::Ping].into(),
        };
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        payload.push(0x00);
        assert_eq!(
            CommitMsg::decode(&payload),
            Err(WireError::TrailingBytes(1))
        );
    }

    /// FNV-1a over bytes.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The two steps that carry the most kinds, taken from a run: a
    /// rejoiner's re-broadcast with its ping (five, one more than a
    /// message holds inline) and the catch-up reply it is owed.
    #[test]
    fn a_rejoiners_step_roundtrips_past_the_inline_kinds() {
        use rtc_core::{commit_population, CommitAutomaton, CommitConfig};
        use rtc_model::{
            Automaton, Delivery, LocalClock, Recoverable, SeedCollection, Send, TimingParams,
        };

        let n = 3;
        let p = ProcessorId::new;
        let cfg = CommitConfig::new(n, 1, TimingParams::default()).unwrap();
        let seeds = SeedCollection::new(0x51EE);
        let mut procs = commit_population(cfg, &[Value::One; 3]);
        let mut inboxes: Vec<Vec<Delivery<CommitMsg>>> = vec![Vec::new(); n];
        let mut round = 0;
        let lockstep = |procs: &mut Vec<CommitAutomaton>,
                        inboxes: &mut Vec<Vec<Delivery<CommitMsg>>>,
                        round: &mut u64| {
            let mut next = vec![Vec::new(); n];
            for (q, auto) in procs.iter_mut().enumerate() {
                let mut rng = seeds.step_rng(p(q), LocalClock::new(*round));
                for send in auto.step(&inboxes[q], &mut rng) {
                    next[send.to.index()].push(Delivery::new(p(q), send.msg));
                }
            }
            *inboxes = next;
            *round += 1;
        };
        // Until p1 is inside Protocol 1 with both stage-1 exchanges sent.
        while procs[1].agreement().is_none() {
            lockstep(&mut procs, &mut inboxes, &mut round);
        }
        lockstep(&mut procs, &mut inboxes, &mut round);
        assert!(procs[1].status().decision().is_none());

        // p1 crashes and comes back: GO, its vote, both stage-1 messages
        // and a ping, in one bundle.
        let mut rejoiner = CommitAutomaton::restore(&procs[1].snapshot());
        let mut rng = seeds.step_rng(p(1), LocalClock::new(round));
        let resent: Vec<Send<CommitMsg>> = rejoiner.step(&[], &mut rng);
        assert_eq!(
            format!("{:?}", resent[0].msg.kinds),
            "[Go, Vote(1), Agree(First { stage: 1, value: 1 }), \
             Agree(Second { stage: 1, value: Some(1) }), Ping]"
        );
        assert!(resent[0].msg.kinds.spilled());

        // The others decide; p0, pinged, owes p1 the decision directly.
        lockstep(&mut procs, &mut inboxes, &mut round);
        assert!(procs[0].status().decision().is_some());
        let ping = Delivery::new(p(1), resent[0].msg.clone());
        let mut rng = seeds.step_rng(p(0), LocalClock::new(round));
        let mut inbox = inboxes[0].clone();
        inbox.push(ping);
        let replied = procs[0].step(&inbox, &mut rng);
        let reply = replied.iter().find(|s| s.to == p(1)).expect("a reply");
        assert_eq!(
            format!("{:?}", reply.msg.kinds),
            "[Agree(Second { stage: 2, value: Some(1) }), Decided(1)]"
        );

        let mut all = Vec::new();
        for msg in [&resent[0].msg, &reply.msg] {
            roundtrip(msg);
            let mut bytes = Vec::new();
            msg.encode(&mut bytes);
            let decoded = CommitMsg::decode(&bytes).expect("decodes");
            let mut again = Vec::new();
            decoded.encode(&mut again);
            assert_eq!(again, bytes);
            assert_eq!(
                format!("{:?}", decoded.kinds),
                format!("{:?}", &msg.kinds[..])
            );
            all.extend(bytes);
        }
        // The frame payloads are what they were when the kinds were an
        // `Arc<[CommitKind]>` (captured there).
        assert_eq!(fnv(&all), 17_792_407_171_721_007_993);
    }
}
