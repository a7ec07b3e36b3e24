//! Message bodies, stored once per send-group.
//!
//! The [`MsgStore`](crate::store::MsgStore) files what a step sent as
//! one send-run, owed to its destinations: that is what adversaries
//! schedule. The payload is a different matter — a broadcast says one
//! thing to `n − 1` destinations — so payloads live here, one *body*
//! per [`Outbox`](rtc_model::Outbox) broadcast or direct send, counted
//! by the messages that hold it:
//!
//! * a run carries the index of its body (a listed run, one per
//!   destination);
//! * a body's `remaining` counts its holds. [`BodySlab::store`] takes
//!   the count up front — a broadcast's whole run in one write — and a
//!   network duplicate adds one ([`BodySlab::retain`]);
//! * a broadcast run holds its one body by its whole count until it
//!   owes nobody, and a listed message its own body until it is taken.
//!   The take that ends a hold says so (`Taken::hold`), and the hold
//!   goes back in one [`BodySlab::release`]: for a delivery once the
//!   step has read the bodies (`release_holds`), for a crash-time drop
//!   at once, and for whatever a finished lane still buffers in its
//!   drain. At zero the message is dropped and the body recycled
//!   through a free list.

/// One stored message and the number of holds on it. Free (on the free
/// list) exactly when `msg` is `None`.
#[derive(Debug)]
struct Body<M> {
    msg: Option<M>,
    remaining: u32,
}

/// The body slab. See the module docs.
#[derive(Debug)]
pub(crate) struct BodySlab<M> {
    bodies: Vec<Body<M>>,
    /// LIFO recycling of freed bodies, shared across lanes.
    free: Vec<u32>,
}

impl<M> BodySlab<M> {
    pub(crate) fn new() -> BodySlab<M> {
        BodySlab {
            bodies: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Drops every message, keeping the allocations — the batch pool's
    /// reuse path.
    pub(crate) fn reset(&mut self) {
        self.bodies.clear();
        self.free.clear();
    }

    /// Stores `msg` for the `count` (at least one) messages about to be
    /// filed over it.
    pub(crate) fn store(&mut self, msg: M, count: u32) -> u32 {
        debug_assert!(count > 0, "a body nobody refers to would never be freed");
        let body = Body {
            msg: Some(msg),
            remaining: count,
        };
        match self.free.pop() {
            Some(idx) => {
                self.bodies[idx as usize] = body;
                idx
            }
            None => {
                self.bodies.push(body);
                (self.bodies.len() - 1) as u32
            }
        }
    }

    /// One more message now names the live `body` (a network
    /// duplicate).
    pub(crate) fn retain(&mut self, body: u32) {
        self.bodies[body as usize].remaining += 1;
    }

    /// The message stored in `body`, while any message refers to it.
    pub(crate) fn msg(&self, body: u32) -> Option<&M> {
        self.bodies.get(body as usize)?.msg.as_ref()
    }

    /// `count` holds on `body` ended; the last one drops the payload and
    /// frees the body.
    pub(crate) fn release(&mut self, body: u32, count: u32) {
        let b = &mut self.bodies[body as usize];
        debug_assert!(b.remaining >= count, "body {body} released past its hold");
        b.remaining -= count;
        if b.remaining == 0 {
            b.msg = None;
            self.free.push(body);
        }
    }

    /// Bodies currently holding a message.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.bodies.len() - self.free.len()
    }

    /// How many holds the live `body` has.
    #[cfg(test)]
    pub(crate) fn remaining(&self, body: u32) -> u32 {
        self.bodies[body as usize].remaining
    }

    /// Sum of `remaining` over live bodies — equals the messages that
    /// hold a body in the stores (`MsgStore::held`) when the accounting
    /// is right.
    #[cfg(test)]
    pub(crate) fn references(&self) -> usize {
        self.bodies
            .iter()
            .filter(|b| b.msg.is_some())
            .map(|b| b.remaining as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_lives_until_its_last_message_is_released() {
        let mut slab = BodySlab::new();
        let b = slab.store("hello", 2);
        slab.retain(b);
        assert_eq!((slab.live(), slab.references()), (1, 3));
        slab.release(b, 2);
        assert_eq!(slab.msg(b), Some(&"hello"));
        slab.release(b, 1);
        assert_eq!(slab.msg(b), None);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn freed_bodies_are_recycled_and_reset_keeps_nothing_alive() {
        let mut slab = BodySlab::new();
        let a = slab.store(1u8, 1);
        slab.release(a, 1);
        let b = slab.store(2u8, 1);
        assert_eq!(a, b, "LIFO free list");
        assert_eq!(slab.live(), 1);
        slab.reset();
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.msg(b), None);
    }
}
