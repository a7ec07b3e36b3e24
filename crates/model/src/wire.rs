//! The codec seam between a message type and a substrate that carries
//! bytes.
//!
//! A message crate implements [`Wire`] next to its message (`rtc-core`
//! for `CommitMsg`), and a byte substrate (`rtc-net`) frames whatever
//! implements it. Neither side names the other.

use std::fmt;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced length.
    Truncated,
    /// A length prefix exceeded the substrate's frame cap.
    Oversized(usize),
    /// An enum tag byte had no meaning.
    BadTag(u8),
    /// Trailing bytes followed a complete payload.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized(len) => write!(f, "frame of {len} bytes exceeds MAX_FRAME"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// A message type that can cross a socket.
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
