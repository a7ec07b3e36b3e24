//! Message bodies, stored once per send-group.
//!
//! The [`MsgStore`](crate::store::MsgStore) files one slot per
//! (message, destination): that is what adversaries schedule and what
//! the trace records. The payload is a different matter — a broadcast
//! says one thing to `n − 1` destinations — so payloads live here, one
//! *body* per [`Outbox`](rtc_model::Outbox) broadcast or direct send,
//! counted by the store slots that still refer to it:
//!
//! * `slot → body` is a table parallel to the store's slots;
//! * a body's `remaining` is the number of buffered slots mapped to it.
//!   Filing a slot ([`BodySlab::attach`]) increments it — a network
//!   duplicate is just one more slot on the original's body — and
//!   whoever unlinks a slot from the store (delivery, a crash-time drop,
//!   a finished lane's drain) calls [`BodySlab::release`]; at zero the
//!   message is dropped and the body recycled through a free list.
//!
//! A removed slot's table entry goes stale; it is never read, because
//! every lookup starts from a slot the store reports as buffered.

/// One stored message and the number of buffered slots that refer to
/// it. Free (on the free list) exactly when `msg` is `None`.
#[derive(Debug)]
struct Body<M> {
    msg: Option<M>,
    remaining: u32,
}

/// The body slab plus the `slot → body` table. See the module docs.
#[derive(Debug)]
pub(crate) struct BodySlab<M> {
    bodies: Vec<Body<M>>,
    /// LIFO recycling of freed bodies, shared across lanes.
    free: Vec<u32>,
    /// `of_slot[slot]` is the body of the message the store keeps in
    /// `slot`.
    of_slot: Vec<u32>,
}

impl<M> BodySlab<M> {
    pub(crate) fn new() -> BodySlab<M> {
        BodySlab {
            bodies: Vec::new(),
            free: Vec::new(),
            of_slot: Vec::new(),
        }
    }

    /// Drops every message and forgets every mapping, keeping the
    /// allocations — the batch pool's reuse path.
    pub(crate) fn reset(&mut self) {
        self.bodies.clear();
        self.free.clear();
        self.of_slot.clear();
    }

    /// Stores `msg` with no slot referring to it yet. The caller
    /// attaches at least one slot or calls [`BodySlab::discard_unfiled`].
    pub(crate) fn store(&mut self, msg: M) -> u32 {
        let body = Body {
            msg: Some(msg),
            remaining: 0,
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

    /// Records that store slot `slot` now holds a message whose payload
    /// is `body`.
    pub(crate) fn attach(&mut self, slot: usize, body: u32) {
        if slot >= self.of_slot.len() {
            self.of_slot.resize(slot + 1, 0);
        }
        self.of_slot[slot] = body;
        self.bodies[body as usize].remaining += 1;
    }

    /// The body of the message buffered in `slot`.
    pub(crate) fn body_of(&self, slot: usize) -> u32 {
        self.of_slot[slot]
    }

    /// The message stored in `body`, while any slot refers to it.
    pub(crate) fn msg(&self, body: u32) -> Option<&M> {
        self.bodies.get(body as usize)?.msg.as_ref()
    }

    /// The payload of the message buffered in `slot`.
    pub(crate) fn msg_at(&self, slot: usize) -> Option<&M> {
        self.msg(*self.of_slot.get(slot)?)
    }

    /// One slot that referred to `body` left the store; the last one
    /// out drops the message and frees the body.
    pub(crate) fn release(&mut self, body: u32) {
        let b = &mut self.bodies[body as usize];
        b.remaining -= 1;
        if b.remaining == 0 {
            b.msg = None;
            self.free.push(body);
        }
    }

    /// [`BodySlab::release`] for the body of the message that was
    /// buffered in `slot`.
    pub(crate) fn release_slot(&mut self, slot: usize) {
        self.release(self.of_slot[slot]);
    }

    /// Frees a body that [`BodySlab::store`] created and no slot was
    /// attached to (a broadcast with nobody left to tell).
    pub(crate) fn discard_unfiled(&mut self, body: u32) {
        let b = &mut self.bodies[body as usize];
        if b.remaining == 0 && b.msg.take().is_some() {
            self.free.push(body);
        }
    }

    /// Bodies currently holding a message.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.bodies.len() - self.free.len()
    }

    /// Sum of `remaining` over live bodies — equals the store's
    /// buffered-message count when the accounting is right.
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
    fn a_body_lives_until_its_last_slot_is_released() {
        let mut slab = BodySlab::new();
        let b = slab.store("hello");
        for slot in [4, 0, 2] {
            slab.attach(slot, b);
        }
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.references(), 3);
        assert_eq!(slab.msg_at(2), Some(&"hello"));
        slab.release_slot(4);
        slab.release_slot(0);
        assert_eq!(slab.msg(b), Some(&"hello"));
        slab.release_slot(2);
        assert_eq!(slab.msg(b), None);
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn freed_bodies_are_recycled_and_reset_keeps_nothing_alive() {
        let mut slab = BodySlab::new();
        let a = slab.store(1u8);
        slab.attach(0, a);
        slab.release(a);
        let b = slab.store(2u8);
        assert_eq!(a, b, "LIFO free list");
        slab.attach(0, b);
        let unfiled = slab.store(3u8);
        slab.discard_unfiled(unfiled);
        assert_eq!(slab.live(), 1);
        slab.reset();
        assert_eq!(slab.live(), 0);
        assert_eq!(slab.msg_at(0), None);
    }
}
