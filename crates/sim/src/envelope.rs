//! In-flight message identities and metadata.

use std::fmt;

use rtc_model::{LocalClock, ProcessorId};

/// Uniquely identifies a message within one run.
///
/// Ids are assigned in send order, so they double as an index into the
/// run's [`crate::Trace`] message table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub(crate) u64);

impl MsgId {
    /// The dense index of this message in send order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Pattern-visible description of one buffered (sent, undelivered)
/// message: everything the adversary of Section 2.3 is allowed to see
/// about it. The store assembles it by value from the send-run that
/// holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHandle {
    /// Run-unique id (usable in [`crate::Action::Step`]'s `deliver`
    /// list).
    pub id: MsgId,
    /// Sender.
    pub from: ProcessorId,
    /// Destination (the processor whose buffer holds it).
    pub to: ProcessorId,
    /// Global index of the sending event.
    pub send_event: u64,
    /// Sender's clock immediately after the sending step.
    pub sender_clock: LocalClock,
}

/// A run of consecutive message ids: what one event sent. Ids are dense
/// in send order, so a step's sends are always such a range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdRun {
    first: u64,
    len: u32,
}

impl IdRun {
    /// The `len` ids starting at `first`.
    pub(crate) fn new(first: MsgId, len: u32) -> IdRun {
        IdRun {
            first: first.0,
            len,
        }
    }

    /// Number of ids in the run.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty (the event sent nothing).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ids, ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MsgId> + DoubleEndedIterator {
        let first = self.first;
        (0..self.len).map(move |k| MsgId(first + u64::from(k)))
    }

    /// The ids as an owned list.
    pub fn to_vec(&self) -> Vec<MsgId> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_orders_by_send_order() {
        assert!(MsgId(1) < MsgId(2));
        assert_eq!(MsgId(3).index(), 3);
        assert_eq!(format!("{:?}", MsgId(5)), "m5");
        let run = IdRun::new(MsgId(3), 2);
        assert_eq!(run.to_vec(), [MsgId(3), MsgId(4)]);
        assert!(IdRun::new(MsgId(3), 0).is_empty());
    }
}
