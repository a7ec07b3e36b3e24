//! Length-prefixed wire framing.
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
//! [payload ...]               message bytes, per the message's Wire codec
//! ```
//!
//! All integers are little-endian. `sent_at_tick` feeds the
//! per-instance tick ledger (each
//! [`ClusterReport`](rtc_runtime::ClusterReport)'s `late_by_ticks`) and
//! `sent_event` the node loop's online lateness monitor (its
//! `late_deliveries`); `instance` multiplexes many concurrent commit
//! instances over one connection. The payload's codec is the message crate's own
//! [`Wire`] impl; framing knows no message type.
//!
//! Decoding is defensive: a frame longer than [`MAX_FRAME`] or a
//! payload that fails its codec poisons the connection (the reader
//! drops it and the sender reconnects) rather than the process.

use rtc_model::{ProcessorId, Wire, WireError};

/// Hard cap on the byte length of one frame. Protocol 2 messages are a
/// handful of kinds plus a coin list of `O(n)` coins, far below this;
/// anything larger is corruption or a framing bug, not traffic.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of frame header after the length prefix: from (4) +
/// instance (4) + sent_at_tick (8) + sent_event (8).
pub const HEADER: usize = 24;

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

#[cfg(test)]
mod tests {
    use rtc_core::{CommitKind, CommitMsg};
    use rtc_model::Value;

    use super::*;

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
}
