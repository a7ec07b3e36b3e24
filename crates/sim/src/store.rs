//! Indexed store for in-flight messages, filed one send-run per step.
//!
//! Every message of the protocols is a broadcast, and the adversary
//! sees only the *pattern* — who sent to whom at which event — so what
//! a step's `n − 1` messages do not share is small: a place in one
//! destination's pending list. [`MsgStore`] keeps exactly that per
//! (message, destination), and everything else once per step:
//!
//! * a **send-run** is what one event sent: one [`RunHeader`] holding
//!   the sender, the send event, the sender's clock and the first id of
//!   the run's contiguous id range, plus a count of the run's slots
//!   still buffered (the header is recycled when it reaches zero);
//! * a **slot** links one message into its destination's intrusive
//!   doubly-linked list: the run it belongs to, its ordinal in the run
//!   (`id = first + ordinal`), the destination, its neighbours, and the
//!   body ([`crate::bodies`]) holding its payload.
//!
//! [`MsgHandle`]s are assembled by value from header + slot when
//! somebody asks. The operations the engine relies on:
//!
//! * **file_run** appends a whole run, each message at its
//!   destination's tail — O(1) per destination, one header write;
//! * **lookup** maps a dense [`MsgId`] to its slot through the lane's
//!   `slot_of` — O(1);
//! * **take_front** takes messages off the head of one destination's
//!   list while the caller wants the next id — per message only its
//!   header read and the slot's return to the free list, no lookup and
//!   no neighbour rewrite; a delivery that is a prefix of the list (the
//!   whole list under the well-behaved adversary and in every
//!   fairness-forced step) and a finished lane's drain go through it;
//! * **take** unlinks one slot anywhere in its list — O(1) through the
//!   lookup, for crash drops and for deliveries past the front prefix
//!   (partial, out-of-order, duplicated or foreign id lists, and every
//!   delivery while a partition is active);
//! * **iter_dest** walks one destination's list in insertion order,
//!   which is exactly the order a per-destination `Vec` would expose,
//!   so adversary visibility (and therefore every seeded schedule) does
//!   not depend on the representation.
//!
//! Slots and headers are recycled LIFO through free lists, so
//! steady-state runs stop allocating once the high-water mark of
//! concurrently buffered messages is reached.
//!
//! # Lanes
//!
//! One store can serve many independent commit *instances* at once: the
//! batch engine keys destinations by `(instance, dst)`, giving instance
//! `i` of population `n` the global destination range `i*n .. (i+1)*n`.
//! Everything instance-local lives in a [`StoreLane`]: the lane's base
//! offset into the destination tables plus its own dense `id → slot`
//! map (message ids are dense *per instance*, so the map cannot be
//! shared). The slots, headers, free lists, and per-destination list
//! tables are shared across lanes — freed envelopes from one instance
//! are recycled into the next without new allocation. A single-instance
//! [`crate::Sim`] is simply the one-lane case with base 0.

use rtc_model::{LocalClock, ProcessorId};

use crate::envelope::{MsgHandle, MsgId};

/// Sentinel for "no slot" / "no neighbour" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// What all messages of one send-run share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RunHeader {
    /// Sender.
    pub from: ProcessorId,
    /// Global index of the sending event.
    pub send_event: u64,
    /// The sender's clock immediately after the sending step.
    pub sender_clock: LocalClock,
    /// Id of the run's first message; the rest follow contiguously in
    /// filing order.
    pub first: MsgId,
}

/// A filed run: its header and how many of its slots are still linked.
/// Free (on the free list) exactly when `live` is zero.
#[derive(Clone, Copy, Debug)]
struct Run {
    header: RunHeader,
    live: u32,
}

/// One message's place in its destination's pending list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    run: u32,
    /// The body holding this message's payload.
    body: u32,
    prev: u32,
    next: u32,
    to: ProcessorId,
    /// Position in the run's id range.
    ord: u16,
}

/// What [`MsgStore::take`] and [`MsgStore::take_front`] hand back about
/// a message they unlinked:
/// the inputs of delivery (sender and body) and of lateness
/// classification (send event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Taken {
    pub from: ProcessorId,
    pub send_event: u64,
    pub body: u32,
}

/// One instance's view into a shared [`MsgStore`]: its base offset into
/// the `(instance, dst)`-keyed destination tables and its private dense
/// `id → slot` map. See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct StoreLane {
    /// `slot_of[id.index()]` is the slot currently holding this lane's
    /// `id`, or `NIL` once the message was delivered or dropped.
    slot_of: Vec<u32>,
    /// First global destination index of this lane in the shared store.
    base: u32,
}

impl StoreLane {
    /// A lane whose destinations start at global index `base`.
    pub(crate) fn new(base: u32) -> StoreLane {
        StoreLane {
            slot_of: Vec::new(),
            base,
        }
    }

    /// Re-aims a recycled lane at a new base, clearing its id map but
    /// keeping its capacity (the batch pool's reuse path).
    pub(crate) fn reset(&mut self, base: u32) {
        self.slot_of.clear();
        self.base = base;
    }

    /// The slot holding `id`, if it is still buffered.
    fn slot(&self, id: MsgId) -> Option<u32> {
        match *self.slot_of.get(id.index())? {
            NIL => None,
            slot => Some(slot),
        }
    }
}

/// Slab-backed store of buffered messages with per-destination
/// insertion-ordered lists, shared across instance lanes. See the
/// module docs for the invariants.
#[derive(Clone, Debug, Default)]
pub(crate) struct MsgStore {
    slots: Vec<Slot>,
    /// LIFO recycling of freed slots, shared across lanes.
    free: Vec<u32>,
    runs: Vec<Run>,
    /// LIFO recycling of headers whose last slot left the store.
    free_runs: Vec<u32>,
    /// Head slot of each global destination's pending list (`NIL` when
    /// empty).
    heads: Vec<u32>,
    /// Tail slot of each global destination's pending list (`NIL` when
    /// empty).
    tails: Vec<u32>,
    /// Pending-message count per global destination.
    lens: Vec<u32>,
}

impl MsgStore {
    /// An empty store for `total_dests` global destinations (`n` for a
    /// single instance, `B * n` for a batch of `B`).
    pub(crate) fn new(total_dests: usize) -> MsgStore {
        MsgStore {
            heads: vec![NIL; total_dests],
            tails: vec![NIL; total_dests],
            lens: vec![0; total_dests],
            ..MsgStore::default()
        }
    }

    /// Empties the store and re-sizes it for `total_dests` destinations
    /// while keeping the slabs' capacity — the batch pool's reuse path.
    /// All lanes must be dropped or reset alongside this.
    pub(crate) fn reset(&mut self, total_dests: usize) {
        self.slots.clear();
        self.free.clear();
        self.runs.clear();
        self.free_runs.clear();
        self.heads.clear();
        self.heads.resize(total_dests, NIL);
        self.tails.clear();
        self.tails.resize(total_dests, NIL);
        self.lens.clear();
        self.lens.resize(total_dests, 0);
    }

    /// Envelope slots the slab has ever grown to hold — the warm
    /// capacity a pooled reuse keeps.
    pub(crate) fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of messages currently buffered for `lane`'s local
    /// destination `dest`.
    pub(crate) fn len_of(&self, lane: &StoreLane, dest: usize) -> usize {
        self.lens[lane.base as usize + dest] as usize
    }

    /// Total number of buffered messages across all lanes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lens.iter().map(|len| *len as usize).sum()
    }

    /// Sum of the live-slot counts of all filed runs — equals
    /// [`MsgStore::len`] when the accounting is right.
    #[cfg(test)]
    pub(crate) fn run_references(&self) -> usize {
        self.runs.iter().map(|run| run.live as usize).sum()
    }

    /// Files one send-run: every `(destination, body)` of `dests`, in
    /// order, gets the run's next id and a slot at its destination's
    /// tail in `lane`. Returns how many messages were filed. Ids must
    /// be dense per lane and runs filed in increasing id order (the
    /// engine assigns them from a per-instance counter), which keeps
    /// `slot_of` an O(1) direct map.
    // rtc-hot-loop(per-instance): runs once per sending event; its loop
    // body is all that is left per (message, destination).
    pub(crate) fn file_run(
        &mut self,
        lane: &mut StoreLane,
        header: RunHeader,
        dests: impl Iterator<Item = (ProcessorId, u32)>,
    ) -> u32 {
        debug_assert!(
            lane.slot_of.len() <= header.first.index(),
            "message id buffered twice"
        );
        lane.slot_of.resize(header.first.index(), NIL);
        let run = match self.free_runs.pop() {
            Some(idx) => {
                self.runs[idx as usize].header = header;
                idx
            }
            None => {
                self.runs.push(Run { header, live: 0 });
                (self.runs.len() - 1) as u32
            }
        };
        let mut filed = 0u32;
        for (to, body) in dests {
            let dest = lane.base as usize + to.index();
            let tail = self.tails[dest];
            let slot = Slot {
                run,
                body,
                prev: tail,
                next: NIL,
                to,
                ord: filed as u16,
            };
            let idx = match self.free.pop() {
                Some(idx) => {
                    self.slots[idx as usize] = slot;
                    idx
                }
                None => {
                    self.slots.push(slot);
                    (self.slots.len() - 1) as u32
                }
            };
            lane.slot_of.push(idx);
            match tail {
                NIL => self.heads[dest] = idx,
                tail => self.slots[tail as usize].next = idx,
            }
            self.tails[dest] = idx;
            self.lens[dest] += 1;
            filed += 1;
        }
        debug_assert!(filed <= u32::from(u16::MAX) + 1, "run ordinals fit in u16");
        if filed == 0 {
            self.free_runs.push(run);
        } else {
            self.runs[run as usize].live = filed;
        }
        filed
    }

    /// The handle of the message in `slot`, assembled from its run's
    /// header.
    fn handle(&self, slot: &Slot) -> MsgHandle {
        let header = &self.runs[slot.run as usize].header;
        MsgHandle {
            id: MsgId(header.first.0 + u64::from(slot.ord)),
            from: header.from,
            to: slot.to,
            send_event: header.send_event,
            sender_clock: header.sender_clock,
        }
    }

    /// The handle of `lane`'s message `id` if it is still buffered.
    pub(crate) fn lookup(&self, lane: &StoreLane, id: MsgId) -> Option<MsgHandle> {
        let slot = lane.slot(id)?;
        Some(self.handle(&self.slots[slot as usize]))
    }

    /// The body of `lane`'s message `id` if it is still buffered.
    pub(crate) fn body_of(&self, lane: &StoreLane, id: MsgId) -> Option<u32> {
        let slot = lane.slot(id)?;
        Some(self.slots[slot as usize].body)
    }

    /// Takes `slot` out of `dest`'s list, leaving its own links stale.
    fn unlink(&mut self, dest: usize, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.heads[dest] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tails[dest] = prev,
            nx => self.slots[nx as usize].prev = prev,
        }
    }

    /// Unlinks `lane`'s message `id` from its destination's list and
    /// returns what the caller needs of it; the caller owes the body
    /// one [`crate::bodies::BodySlab::release`]. This is the removal
    /// path for anything but a list's front: crash-time drops
    /// (`Lane::apply_crash`) and the deliveries of a step past the
    /// prefix [`MsgStore::take_front`] took.
    pub(crate) fn take(&mut self, lane: &mut StoreLane, id: MsgId) -> Option<Taken> {
        let slot = lane.slot(id)?;
        Some(self.take_slot(lane, id, slot))
    }

    /// Like [`MsgStore::take`], but only succeeds when `id` is buffered
    /// at `lane`'s local destination `dest` — the delivery-path guard.
    pub(crate) fn take_for(
        &mut self,
        lane: &mut StoreLane,
        id: MsgId,
        dest: usize,
    ) -> Option<Taken> {
        let slot = lane.slot(id)?;
        if self.slots[slot as usize].to.index() != dest {
            return None;
        }
        Some(self.take_slot(lane, id, slot))
    }

    /// [`MsgStore::take`] of `id`, known to be buffered in `slot`.
    fn take_slot(&mut self, lane: &mut StoreLane, id: MsgId, slot: u32) -> Taken {
        lane.slot_of[id.index()] = NIL;
        let Slot { run, body, to, .. } = self.slots[slot as usize];
        let dest = lane.base as usize + to.index();
        self.unlink(dest, slot);
        self.free.push(slot);
        self.lens[dest] -= 1;
        let run_ref = &mut self.runs[run as usize];
        run_ref.live -= 1;
        if run_ref.live == 0 {
            self.free_runs.push(run);
        }
        Taken {
            from: run_ref.header.from,
            send_event: run_ref.header.send_event,
            body,
        }
    }

    /// Takes messages off the head of `lane`'s local destination
    /// `dest`'s list while `wanted(id)` says yes, handing each to `each`
    /// in list order; returns how many were taken. The caller owes
    /// every body one [`crate::bodies::BodySlab::release`].
    ///
    /// Unlike [`MsgStore::take`] it neither looks an id up nor splices:
    /// the taken slots are a prefix, so none has a neighbour left to
    /// rewrite, and the new head's `prev` and the list's length change
    /// once, at the end. Delivery of a front prefix (`Lane::apply_step`)
    /// and a finished lane's drain come through here.
    pub(crate) fn take_front(
        &mut self,
        lane: &mut StoreLane,
        dest: usize,
        mut wanted: impl FnMut(MsgId) -> bool,
        mut each: impl FnMut(Taken),
    ) -> usize {
        let dest = lane.base as usize + dest;
        let mut cursor = self.heads[dest];
        let mut taken = 0u32;
        // rtc-hot-loop(per-instance): runs once per delivering step and
        // per drained destination; its body is all that is left per
        // delivered message.
        while cursor != NIL {
            let Slot {
                run,
                body,
                next,
                ord,
                ..
            } = self.slots[cursor as usize];
            let run_ref = &mut self.runs[run as usize];
            let id = MsgId(run_ref.header.first.0 + u64::from(ord));
            if !wanted(id) {
                break;
            }
            lane.slot_of[id.index()] = NIL;
            self.free.push(cursor);
            run_ref.live -= 1;
            if run_ref.live == 0 {
                self.free_runs.push(run);
            }
            each(Taken {
                from: run_ref.header.from,
                send_event: run_ref.header.send_event,
                body,
            });
            taken += 1;
            cursor = next;
        }
        if taken > 0 {
            self.heads[dest] = cursor;
            match cursor {
                NIL => self.tails[dest] = NIL,
                head => self.slots[head as usize].prev = NIL,
            }
            self.lens[dest] -= taken;
        }
        taken as usize
    }

    /// Moves `lane`'s message `id` to the tail of its destination's
    /// pending list — the store-level realization of a network *reorder*
    /// fault. O(1): unlink in place, relink the same slot at the tail.
    /// Returns `false` when `id` is no longer buffered. Note that after
    /// a move the list is no longer sorted by send event, so callers
    /// relying on that invariant (the fairness fast path) must switch
    /// to full scans.
    pub(crate) fn move_to_back(&mut self, lane: &StoreLane, id: MsgId) -> bool {
        let Some(slot) = lane.slot(id) else {
            return false;
        };
        let dest = lane.base as usize + self.slots[slot as usize].to.index();
        if self.tails[dest] == slot {
            return true;
        }
        self.unlink(dest, slot);
        let tail = self.tails[dest];
        self.slots[tail as usize].next = slot;
        self.slots[slot as usize].prev = tail;
        self.slots[slot as usize].next = NIL;
        self.tails[dest] = slot;
        true
    }

    /// The earliest-filed message still buffered for `lane`'s local
    /// destination `dest`, if any.
    pub(crate) fn head(&self, lane: &StoreLane, dest: usize) -> Option<MsgHandle> {
        match self.heads[lane.base as usize + dest] {
            NIL => None,
            idx => Some(self.handle(&self.slots[idx as usize])),
        }
    }

    /// Iterates `lane`'s local destination `dest`'s buffered messages in
    /// insertion (= send-event) order — byte-for-byte the order a
    /// per-destination `Vec` would expose to adversaries.
    pub(crate) fn iter_dest(
        &self,
        lane: &StoreLane,
        dest: usize,
    ) -> impl Iterator<Item = MsgHandle> + '_ {
        self.iter_dest_bodies(lane, dest).map(|(handle, _)| handle)
    }

    /// Like [`MsgStore::iter_dest`], but also yields each message's
    /// body so callers can pair handles with payloads.
    pub(crate) fn iter_dest_bodies(&self, lane: &StoreLane, dest: usize) -> DestIter<'_> {
        DestIter {
            store: self,
            cursor: self.heads[lane.base as usize + dest],
        }
    }
}

/// Iterator over one destination's pending list yielding
/// `(handle, body)` pairs in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct DestIter<'a> {
    store: &'a MsgStore,
    cursor: u32,
}

impl Iterator for DestIter<'_> {
    type Item = (MsgHandle, u32);

    fn next(&mut self) -> Option<(MsgHandle, u32)> {
        if self.cursor == NIL {
            return None;
        }
        let slot = &self.store.slots[self.cursor as usize];
        self.cursor = slot.next;
        Some((self.store.handle(slot), slot.body))
    }
}

#[cfg(test)]
impl MsgStore {
    /// Files `handle` as a run of one over `body` — how tests describe
    /// a buffer message by message.
    pub(crate) fn file_one(&mut self, lane: &mut StoreLane, handle: MsgHandle, body: u32) {
        let header = RunHeader {
            from: handle.from,
            send_event: handle.send_event,
            sender_clock: handle.sender_clock,
            first: handle.id,
        };
        self.file_run(lane, header, std::iter::once((handle.to, body)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn header(first: u64, send_event: u64) -> RunHeader {
        RunHeader {
            from: ProcessorId::new(0),
            send_event,
            sender_clock: LocalClock::ZERO,
            first: MsgId(first),
        }
    }

    /// Files a run of `header(first, send_event)` to `dests` over body
    /// 0 and returns the handles it must have produced.
    fn file(
        s: &mut MsgStore,
        lane: &mut StoreLane,
        first: u64,
        send_event: u64,
        dests: &[usize],
    ) -> Vec<MsgHandle> {
        let h = header(first, send_event);
        let filed = s.file_run(lane, h, dests.iter().map(|d| (ProcessorId::new(*d), 0)));
        assert_eq!(filed as usize, dests.len());
        dests
            .iter()
            .enumerate()
            .map(|(k, d)| MsgHandle {
                id: MsgId(first + k as u64),
                from: h.from,
                to: ProcessorId::new(*d),
                send_event,
                sender_clock: h.sender_clock,
            })
            .collect()
    }

    fn ids_of(store: &MsgStore, lane: &StoreLane, dest: usize) -> Vec<u64> {
        store.iter_dest(lane, dest).map(|m| m.id.0).collect()
    }

    #[test]
    fn a_run_is_filed_in_order_and_read_back_by_value() {
        let mut s = MsgStore::new(3);
        let mut lane = StoreLane::new(0);
        let first = file(&mut s, &mut lane, 0, 7, &[1, 2]);
        let second = file(&mut s, &mut lane, 2, 9, &[1, 1, 0]);
        assert_eq!(ids_of(&s, &lane, 0), [4]);
        assert_eq!(ids_of(&s, &lane, 1), [0, 2, 3]);
        assert_eq!(ids_of(&s, &lane, 2), [1]);
        assert_eq!(s.len_of(&lane, 1), 3);
        assert_eq!((s.len(), s.run_references()), (5, 5));
        for m in first.iter().chain(&second) {
            assert_eq!(s.lookup(&lane, m.id), Some(*m));
        }
        // An empty run files nothing and keeps no header.
        assert_eq!(s.file_run(&mut lane, header(5, 11), std::iter::empty()), 0);
        assert_eq!(s.runs.len() - s.free_runs.len(), 2);
    }

    #[test]
    fn take_unlinks_head_middle_and_tail() {
        let mut s = MsgStore::new(1);
        let mut lane = StoreLane::new(0);
        for id in 0..5 {
            file(&mut s, &mut lane, id, id, &[0]);
        }
        assert!(s.take(&mut lane, MsgId(2)).is_some()); // middle
        assert_eq!(ids_of(&s, &lane, 0), [0, 1, 3, 4]);
        assert!(s.take(&mut lane, MsgId(0)).is_some()); // head
        assert_eq!(ids_of(&s, &lane, 0), [1, 3, 4]);
        assert!(s.take(&mut lane, MsgId(4)).is_some()); // tail
        assert_eq!(ids_of(&s, &lane, 0), [1, 3]);
        assert_eq!(s.head(&lane, 0).unwrap().id, MsgId(1));
        // Taking again is a no-op returning None.
        assert!(s.take(&mut lane, MsgId(2)).is_none());
        assert_eq!((s.len(), s.run_references()), (2, 2));
    }

    #[test]
    fn take_reports_sender_send_event_and_body() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        let h = RunHeader {
            from: ProcessorId::new(1),
            ..header(0, 6)
        };
        s.file_run(
            &mut lane,
            h,
            [(ProcessorId::new(0), 4), (ProcessorId::new(1), 9)].into_iter(),
        );
        assert_eq!(s.body_of(&lane, MsgId(1)), Some(9));
        // The delivery-path guard refuses the wrong destination.
        assert!(s.take_for(&mut lane, MsgId(0), 1).is_none());
        assert_eq!(s.len(), 2);
        let taken = s.take_for(&mut lane, MsgId(0), 0).unwrap();
        assert_eq!(
            taken,
            Taken {
                from: ProcessorId::new(1),
                send_event: 6,
                body: 4
            }
        );
        let mut front = Vec::new();
        assert_eq!(s.take_front(&mut lane, 1, |_| true, |t| front.push(t)), 1);
        assert_eq!(
            front,
            [Taken {
                from: ProcessorId::new(1),
                send_event: 6,
                body: 9
            }]
        );
        assert_eq!(s.take_front(&mut lane, 1, |_| true, |_| ()), 0);
        assert_eq!((s.len(), s.run_references()), (0, 0));
    }

    #[test]
    fn move_to_back_reorders_within_one_destination() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        for id in 0..4 {
            file(&mut s, &mut lane, id, id, &[0]);
        }
        file(&mut s, &mut lane, 4, 4, &[1]);
        assert!(s.move_to_back(&lane, MsgId(1)));
        assert_eq!(ids_of(&s, &lane, 0), [0, 2, 3, 1]);
        // Other destinations are untouched.
        assert_eq!(ids_of(&s, &lane, 1), [4]);
        // Moving the tail (or a singleton) is a no-op.
        assert!(s.move_to_back(&lane, MsgId(1)));
        assert_eq!(ids_of(&s, &lane, 0), [0, 2, 3, 1]);
        assert!(s.move_to_back(&lane, MsgId(4)));
        assert_eq!(ids_of(&s, &lane, 1), [4]);
        // The head can move too, and the list stays walkable both ways.
        assert!(s.move_to_back(&lane, MsgId(0)));
        assert_eq!(ids_of(&s, &lane, 0), [2, 3, 1, 0]);
        assert!(s.take(&mut lane, MsgId(1)).is_some());
        assert_eq!(ids_of(&s, &lane, 0), [2, 3, 0]);
        // A delivered message can no longer be reordered.
        assert!(!s.move_to_back(&lane, MsgId(1)));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn slots_and_headers_are_recycled_after_removal() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        file(&mut s, &mut lane, 0, 0, &[0, 1]);
        file(&mut s, &mut lane, 2, 1, &[0, 1]);
        let (slots, runs) = (s.slots.len(), s.runs.len());
        for id in 0..4 {
            s.take(&mut lane, MsgId(id)).unwrap();
        }
        file(&mut s, &mut lane, 4, 2, &[1, 0]);
        file(&mut s, &mut lane, 6, 3, &[1, 0]);
        assert_eq!(s.slots.len(), slots, "freed slots must be reused");
        assert_eq!(s.runs.len(), runs, "freed headers must be reused");
        assert_eq!(ids_of(&s, &lane, 0), [5, 7]);
        assert_eq!(ids_of(&s, &lane, 1), [4, 6]);
    }

    #[test]
    fn lanes_share_slots_but_stay_disjoint() {
        // Two lanes of n = 2 over one store: identical dense ids on both
        // lanes must not collide, and slots freed by one lane must be
        // recycled into the other.
        let n = 2;
        let mut s = MsgStore::new(2 * n);
        let mut a = StoreLane::new(0);
        let mut b = StoreLane::new(n as u32);
        for id in 0..3 {
            file(&mut s, &mut a, id, id, &[1]);
            file(&mut s, &mut b, id, id + 10, &[1]);
        }
        assert_eq!(ids_of(&s, &a, 1), [0, 1, 2]);
        assert_eq!(ids_of(&s, &b, 1), [0, 1, 2]);
        assert_eq!(s.len_of(&a, 1), 3);
        assert_eq!(s.len_of(&b, 1), 3);
        // Same id, different lanes: handles resolve per lane.
        assert_eq!(s.lookup(&a, MsgId(0)).unwrap().send_event, 0);
        assert_eq!(s.lookup(&b, MsgId(0)).unwrap().send_event, 10);
        // Lane a drains; its slots are recycled by lane b's next sends.
        let hwm = s.slots.len();
        assert_eq!(s.take_front(&mut a, 1, |_| true, |_| ()), 3);
        file(&mut s, &mut b, 3, 20, &[0, 0, 0]);
        assert_eq!(s.slots.len(), hwm, "cross-lane slot recycling");
        assert_eq!(ids_of(&s, &b, 0), [3, 4, 5]);
        assert_eq!(ids_of(&s, &b, 1), [0, 1, 2]);
        assert!(s.lookup(&a, MsgId(0)).is_none());
    }

    #[test]
    fn reset_keeps_capacity_and_empties_everything() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        file(&mut s, &mut lane, 0, 0, &[0, 1, 0, 1, 0, 1, 0, 1]);
        let cap = s.slots.capacity();
        s.reset(4);
        lane.reset(2);
        assert_eq!((s.len(), s.run_references()), (0, 0));
        assert!(s.slots.capacity() >= cap, "reset must keep the slab");
        // The recycled lane restarts with dense ids at its new base.
        file(&mut s, &mut lane, 0, 99, &[1]);
        assert_eq!(ids_of(&s, &lane, 1), [0]);
        assert_eq!(s.len_of(&lane, 0), 0);
    }

    proptest! {
        /// The store agrees with a naive `Vec<Vec<(MsgHandle, body)>>`
        /// model under arbitrary interleavings of everything the engine
        /// does to it: filing a run, delivering one message, duplicating
        /// one (a run of one on the original's body), reordering one,
        /// dropping part of the latest run, draining a destination,
        /// front-taking part of one.
        #[test]
        fn matches_naive_vec_model(ops in proptest::collection::vec((0..7u8, 0..64u64), 1..200)) {
            let n = 3;
            let mut store = MsgStore::new(n);
            let mut lane = StoreLane::new(0);
            let mut model: Vec<Vec<(MsgHandle, u32)>> = vec![Vec::new(); n];
            let mut next_id = 0u64;
            let mut next_body = 0u32;
            let mut latest: Vec<MsgId> = Vec::new();
            let forget = |model: &mut Vec<Vec<(MsgHandle, u32)>>, id: MsgId| {
                model.iter_mut().find_map(|b| {
                    b.iter().position(|(m, _)| m.id == id).map(|pos| b.remove(pos))
                })
            };
            let taken = |(m, body): (MsgHandle, u32)| Taken {
                from: m.from,
                send_event: m.send_event,
                body,
            };
            for (event, (op, sel)) in ops.into_iter().enumerate() {
                let live: Vec<MsgId> = model.iter().flatten().map(|(m, _)| m.id).collect();
                let pick = (!live.is_empty()).then(|| live[sel as usize % live.len().max(1)]);
                match (op, pick) {
                    // Deliver (or drop) one live message.
                    (1, Some(id)) => {
                        let want = forget(&mut model, id).map(taken);
                        prop_assert_eq!(store.take(&mut lane, id), want);
                    }
                    // Duplicate: a run of one, "sent" now, on the
                    // original's body.
                    (2, Some(id)) => {
                        let orig = store.lookup(&lane, id).unwrap();
                        let body = store.body_of(&lane, id).unwrap();
                        let copy = MsgHandle { id: MsgId(next_id), send_event: event as u64, ..orig };
                        next_id += 1;
                        store.file_one(&mut lane, copy, body);
                        model[orig.to.index()].push((copy, body));
                    }
                    (3, Some(id)) => {
                        prop_assert!(store.move_to_back(&lane, id));
                        let moved = forget(&mut model, id).unwrap();
                        model[moved.0.to.index()].push(moved);
                    }
                    // A crash dropping every other message of the
                    // latest run that is still buffered.
                    (4, _) => {
                        for id in latest.iter().step_by(2) {
                            let want = forget(&mut model, *id).map(|(_, body)| body);
                            prop_assert_eq!(store.take(&mut lane, *id).map(|t| t.body), want);
                        }
                    }
                    // A finished lane's drain of one destination.
                    (5, _) => {
                        let dest = sel as usize % n;
                        let mut got = Vec::new();
                        let took = store.take_front(&mut lane, dest, |_| true, |t| got.push(t));
                        let want: Vec<Taken> = model[dest].drain(..).map(taken).collect();
                        prop_assert_eq!(took, want.len());
                        prop_assert_eq!(got, want);
                    }
                    // A delivery whose first `k` ids are the list's
                    // front, then an id that is not next: a later one of
                    // the same list, or one never filed. Exactly the `k`
                    // come off, and the new head must stay walkable.
                    (6, _) => {
                        let dest = sel as usize % n;
                        let k = (sel as usize / n) % (model[dest].len() + 1);
                        let later = model[dest].get(k + 1..).and_then(<[_]>::last).map(|(m, _)| m.id);
                        let stray = match later {
                            Some(id) if sel & 32 == 0 => id,
                            _ => MsgId(next_id + 1_000),
                        };
                        let offered: Vec<MsgId> = model[dest][..k].iter().map(|(m, _)| m.id).chain([stray]).collect();
                        let mut offer = offered.into_iter();
                        let mut got = Vec::new();
                        let took = store.take_front(&mut lane, dest, |id| offer.next() == Some(id), |t| got.push(t));
                        let want: Vec<Taken> = model[dest].drain(..k).map(taken).collect();
                        prop_assert_eq!(took, k);
                        prop_assert_eq!(got, want);
                    }
                    // File a run: `sel`'s low bits choose the
                    // destinations (possibly none, possibly repeated),
                    // a broadcast body plus one direct body in place.
                    _ => {
                        let dests: Vec<usize> = (0..6).filter(|k| sel >> k & 1 == 1).map(|k| k % n).collect();
                        let h = RunHeader { from: ProcessorId::new(sel as usize % n), ..header(next_id, event as u64) };
                        let shared = next_body;
                        next_body += 2;
                        let bodies: Vec<u32> = (0..dests.len()).map(|k| if k == 1 { shared + 1 } else { shared }).collect();
                        let filed = store.file_run(
                            &mut lane,
                            h,
                            dests.iter().zip(&bodies).map(|(d, b)| (ProcessorId::new(*d), *b)),
                        );
                        prop_assert_eq!(filed as usize, dests.len());
                        latest.clear();
                        for (d, b) in dests.iter().zip(&bodies) {
                            let m = MsgHandle {
                                id: MsgId(next_id),
                                from: h.from,
                                to: ProcessorId::new(*d),
                                send_event: h.send_event,
                                sender_clock: h.sender_clock,
                            };
                            latest.push(m.id);
                            next_id += 1;
                            model[*d].push((m, *b));
                        }
                    }
                }
                for (d, buf) in model.iter().enumerate() {
                    let got: Vec<(MsgHandle, u32)> = store.iter_dest_bodies(&lane, d).collect();
                    prop_assert_eq!(&got, buf, "destination {} drifted", d);
                    prop_assert_eq!(store.len_of(&lane, d), buf.len());
                    prop_assert_eq!(store.head(&lane, d), buf.first().map(|(m, _)| *m));
                }
                for (m, body) in model.iter().flatten() {
                    prop_assert_eq!(store.lookup(&lane, m.id), Some(*m));
                    prop_assert_eq!(store.body_of(&lane, m.id), Some(*body));
                }
                // Live headers' slot counts sum to the pending count.
                prop_assert_eq!(store.run_references(), store.len());
                prop_assert_eq!(store.len(), model.iter().map(Vec::len).sum::<usize>());
            }
        }
    }
}
