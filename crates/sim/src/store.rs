//! Indexed store for in-flight message metadata.
//!
//! The engine used to keep one `Vec<MsgMeta>` per destination and pay a
//! linear scan plus an order-preserving `Vec::remove` shift for every
//! delivery and drop. [`MsgStore`] replaces that with a slab of slots
//! threaded by per-destination intrusive doubly-linked lists:
//!
//! * **insert** appends at the destination's tail — O(1);
//! * **lookup** maps a dense [`MsgId`] to its slot through the lane's
//!   `slot_of` — O(1);
//! * **remove** unlinks the slot in place — O(1), shared by the
//!   delivery and the crash-drop paths;
//! * **iter_dest** walks one destination's list in insertion order,
//!   which is exactly the order the old `Vec` exposed, so adversary
//!   visibility (and therefore every seeded schedule) is unchanged.
//!
//! Slots are recycled LIFO through a free list, so steady-state runs
//! stop allocating once the high-water mark of concurrently buffered
//! messages is reached.
//!
//! # Lanes
//!
//! One store can serve many independent commit *instances* at once: the
//! batch engine keys destinations by `(instance, dst)`, giving instance
//! `i` of population `n` the global destination range `i*n .. (i+1)*n`.
//! Everything instance-local lives in a [`StoreLane`]: the lane's base
//! offset into the destination tables plus its own dense `id → slot`
//! map (message ids are dense *per instance*, so the map cannot be
//! shared). The slots, the free list, and the per-destination list
//! tables are shared across lanes — freed envelopes from one instance
//! are recycled into the next without new allocation. A single-instance
//! [`crate::Sim`] is simply the one-lane case with base 0.

use crate::envelope::{MsgId, MsgMeta};

/// Sentinel for "no slot" / "no neighbour" in the intrusive lists.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    meta: MsgMeta,
    prev: u32,
    next: u32,
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
}

/// Slab-backed store of buffered messages with per-destination
/// insertion-ordered lists, shared across instance lanes. See the
/// module docs for the invariants.
#[derive(Clone, Debug, Default)]
pub(crate) struct MsgStore {
    slots: Vec<Slot>,
    /// LIFO recycling of freed slots, shared across lanes.
    free: Vec<u32>,
    /// Head slot of each global destination's pending list (`NIL` when
    /// empty).
    heads: Vec<u32>,
    /// Tail slot of each global destination's pending list (`NIL` when
    /// empty).
    tails: Vec<u32>,
    /// Pending-message count per global destination.
    lens: Vec<usize>,
    /// Total pending messages across all destinations.
    total: usize,
}

impl MsgStore {
    /// An empty store for `total_dests` global destinations (`n` for a
    /// single instance, `B * n` for a batch of `B`).
    pub(crate) fn new(total_dests: usize) -> MsgStore {
        MsgStore {
            slots: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; total_dests],
            tails: vec![NIL; total_dests],
            lens: vec![0; total_dests],
            total: 0,
        }
    }

    /// Empties the store and re-sizes it for `total_dests` destinations
    /// while keeping the slot slab's capacity — the batch pool's reuse
    /// path. All lanes must be dropped or reset alongside this.
    pub(crate) fn reset(&mut self, total_dests: usize) {
        self.slots.clear();
        self.free.clear();
        self.heads.clear();
        self.heads.resize(total_dests, NIL);
        self.tails.clear();
        self.tails.resize(total_dests, NIL);
        self.lens.clear();
        self.lens.resize(total_dests, 0);
        self.total = 0;
    }

    /// Envelope slots the slab has ever grown to hold — the warm
    /// capacity a pooled reuse keeps. The parallel batch plane reports
    /// this per worker shard so pool-slice amortization is observable.
    pub(crate) fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of messages currently buffered for `lane`'s local
    /// destination `dest`.
    pub(crate) fn len_of(&self, lane: &StoreLane, dest: usize) -> usize {
        self.lens[lane.base as usize + dest]
    }

    /// Total number of buffered messages across all lanes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    /// Buffers `meta` at the tail of its destination's list in `lane`
    /// and returns the slot index it landed in (so the engine can map
    /// the slot to the message's body). Ids must be dense per
    /// lane and inserted in increasing order (the engine assigns them
    /// from a per-instance counter), which keeps `slot_of` an O(1)
    /// direct map.
    pub(crate) fn insert(&mut self, lane: &mut StoreLane, meta: MsgMeta) -> usize {
        let dest = lane.base as usize + meta.to.index();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Slot {
                    meta,
                    prev: self.tails[dest],
                    next: NIL,
                };
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    meta,
                    prev: self.tails[dest],
                    next: NIL,
                });
                idx
            }
        };
        let id = meta.id.index();
        if id >= lane.slot_of.len() {
            lane.slot_of.resize(id + 1, NIL);
        }
        debug_assert_eq!(lane.slot_of[id], NIL, "message id buffered twice");
        lane.slot_of[id] = idx;
        match self.tails[dest] {
            NIL => self.heads[dest] = idx,
            tail => self.slots[tail as usize].next = idx,
        }
        self.tails[dest] = idx;
        self.lens[dest] += 1;
        self.total += 1;
        idx as usize
    }

    /// The metadata of `lane`'s message `id` if it is still buffered.
    pub(crate) fn lookup(&self, lane: &StoreLane, id: MsgId) -> Option<&MsgMeta> {
        let slot = *lane.slot_of.get(id.index())?;
        if slot == NIL {
            return None;
        }
        Some(&self.slots[slot as usize].meta)
    }

    /// Unlinks `lane`'s message `id` from its destination's list and
    /// returns the slot it occupied (so the engine can release the
    /// slot's hold on its body) together with its metadata. This is the
    /// single removal path shared by delivery (`Sim::apply_step`) and
    /// crash-time drops (`Sim::apply_crash`).
    pub(crate) fn remove(&mut self, lane: &mut StoreLane, id: MsgId) -> Option<(usize, MsgMeta)> {
        let slot = *lane.slot_of.get(id.index())?;
        if slot == NIL {
            return None;
        }
        lane.slot_of[id.index()] = NIL;
        let Slot { meta, prev, next } = self.slots[slot as usize];
        let dest = lane.base as usize + meta.to.index();
        match prev {
            NIL => self.heads[dest] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tails[dest] = prev,
            nx => self.slots[nx as usize].prev = prev,
        }
        self.free.push(slot);
        self.lens[dest] -= 1;
        self.total -= 1;
        Some((slot as usize, meta))
    }

    /// Like [`MsgStore::remove`], but only succeeds when `id` is
    /// buffered at `lane`'s local destination `dest` — the delivery-path
    /// guard.
    pub(crate) fn remove_for(
        &mut self,
        lane: &mut StoreLane,
        id: MsgId,
        dest: usize,
    ) -> Option<(usize, MsgMeta)> {
        match self.lookup(lane, id) {
            Some(meta) if meta.to.index() == dest => self.remove(lane, id),
            _ => None,
        }
    }

    /// Moves `lane`'s message `id` to the tail of its destination's
    /// pending list — the store-level realization of a network *reorder*
    /// fault. O(1): unlink in place, relink at the tail. Returns `false`
    /// when `id` is no longer buffered. Note that after a move the list
    /// is no longer sorted by send event, so callers relying on that
    /// invariant (the fairness fast path) must switch to full scans.
    pub(crate) fn move_to_back(&mut self, lane: &mut StoreLane, id: MsgId) -> bool {
        let Some((slot, meta)) = self.remove(lane, id) else {
            return false;
        };
        // `remove` pushed the slot onto the free list and `insert` pops
        // LIFO, so the message lands back in the very slot it occupied
        // and its `slot → body` mapping stays valid.
        let reused = self.insert(lane, meta);
        debug_assert_eq!(reused, slot, "reorder must recycle the same slot");
        true
    }

    /// The slot currently holding `lane`'s message `id`, if it is still
    /// buffered. Lets content views resolve payloads in O(1) through
    /// the body slab's `slot → body` table.
    pub(crate) fn slot_index(&self, lane: &StoreLane, id: MsgId) -> Option<usize> {
        match *lane.slot_of.get(id.index())? {
            NIL => None,
            slot => Some(slot as usize),
        }
    }

    /// The earliest-sent message still buffered for `lane`'s local
    /// destination `dest`, if any.
    pub(crate) fn head_meta(&self, lane: &StoreLane, dest: usize) -> Option<&MsgMeta> {
        match self.heads[lane.base as usize + dest] {
            NIL => None,
            idx => Some(&self.slots[idx as usize].meta),
        }
    }

    /// Iterates `lane`'s local destination `dest`'s buffered messages in
    /// insertion (= send-event) order — byte-for-byte the order the old
    /// per-destination `Vec` exposed to adversaries.
    pub(crate) fn iter_dest(&self, lane: &StoreLane, dest: usize) -> DestIter<'_> {
        DestIter {
            store: self,
            cursor: self.heads[lane.base as usize + dest],
        }
    }

    /// Like [`MsgStore::iter_dest`], but also yields each message's slot
    /// so callers can pair metadata with the slot's body.
    pub(crate) fn iter_dest_slots(&self, lane: &StoreLane, dest: usize) -> DestSlotIter<'_> {
        DestSlotIter {
            store: self,
            cursor: self.heads[lane.base as usize + dest],
        }
    }
}

/// Iterator over one destination's pending list in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct DestIter<'a> {
    store: &'a MsgStore,
    cursor: u32,
}

impl<'a> Iterator for DestIter<'a> {
    type Item = &'a MsgMeta;

    fn next(&mut self) -> Option<&'a MsgMeta> {
        if self.cursor == NIL {
            return None;
        }
        let slot = &self.store.slots[self.cursor as usize];
        self.cursor = slot.next;
        Some(&slot.meta)
    }
}

/// Iterator over one destination's pending list yielding
/// `(slot, metadata)` pairs in insertion order.
#[derive(Clone, Debug)]
pub(crate) struct DestSlotIter<'a> {
    store: &'a MsgStore,
    cursor: u32,
}

impl<'a> Iterator for DestSlotIter<'a> {
    type Item = (usize, &'a MsgMeta);

    fn next(&mut self) -> Option<(usize, &'a MsgMeta)> {
        if self.cursor == NIL {
            return None;
        }
        let idx = self.cursor as usize;
        let slot = &self.store.slots[idx];
        self.cursor = slot.next;
        Some((idx, &slot.meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtc_model::{LocalClock, ProcessorId};

    fn meta(id: u64, to: usize, send_event: u64) -> MsgMeta {
        MsgMeta {
            id: MsgId(id),
            from: ProcessorId::new(0),
            to: ProcessorId::new(to),
            send_event,
            sender_clock: LocalClock::ZERO,
            guaranteed: true,
        }
    }

    fn ids_of(store: &MsgStore, lane: &StoreLane, dest: usize) -> Vec<u64> {
        store.iter_dest(lane, dest).map(|m| m.id.0).collect()
    }

    #[test]
    fn insert_preserves_per_destination_order() {
        let mut s = MsgStore::new(3);
        let mut lane = StoreLane::new(0);
        for (id, dest) in [(0, 1), (1, 2), (2, 1), (3, 1), (4, 0)] {
            s.insert(&mut lane, meta(id, dest, id));
        }
        assert_eq!(ids_of(&s, &lane, 0), [4]);
        assert_eq!(ids_of(&s, &lane, 1), [0, 2, 3]);
        assert_eq!(ids_of(&s, &lane, 2), [1]);
        assert_eq!(s.len_of(&lane, 1), 3);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn remove_unlinks_head_middle_and_tail() {
        let mut s = MsgStore::new(1);
        let mut lane = StoreLane::new(0);
        for id in 0..5 {
            s.insert(&mut lane, meta(id, 0, id));
        }
        assert!(s.remove(&mut lane, MsgId(2)).is_some()); // middle
        assert_eq!(ids_of(&s, &lane, 0), [0, 1, 3, 4]);
        assert!(s.remove(&mut lane, MsgId(0)).is_some()); // head
        assert_eq!(ids_of(&s, &lane, 0), [1, 3, 4]);
        assert!(s.remove(&mut lane, MsgId(4)).is_some()); // tail
        assert_eq!(ids_of(&s, &lane, 0), [1, 3]);
        assert_eq!(s.head_meta(&lane, 0).unwrap().id, MsgId(1));
        // Removing again is a no-op returning None.
        assert!(s.remove(&mut lane, MsgId(2)).is_none());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_for_guards_the_destination() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        s.insert(&mut lane, meta(0, 1, 0));
        assert!(s.remove_for(&mut lane, MsgId(0), 0).is_none());
        assert_eq!(s.len(), 1);
        assert!(s.remove_for(&mut lane, MsgId(0), 1).is_some());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn move_to_back_reorders_within_one_destination() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        for id in 0..4 {
            s.insert(&mut lane, meta(id, 0, id));
        }
        s.insert(&mut lane, meta(4, 1, 4));
        let slot_before = s.slot_index(&lane, MsgId(1)).unwrap();
        assert!(s.move_to_back(&mut lane, MsgId(1)));
        assert_eq!(ids_of(&s, &lane, 0), [0, 2, 3, 1]);
        // The `slot → body` mapping stays valid: same slot after the move.
        assert_eq!(s.slot_index(&lane, MsgId(1)), Some(slot_before));
        // Other destinations are untouched.
        assert_eq!(ids_of(&s, &lane, 1), [4]);
        // Moving the tail (or a singleton) is a no-op.
        assert!(s.move_to_back(&mut lane, MsgId(1)));
        assert_eq!(ids_of(&s, &lane, 0), [0, 2, 3, 1]);
        assert!(s.move_to_back(&mut lane, MsgId(4)));
        assert_eq!(ids_of(&s, &lane, 1), [4]);
        // A delivered message can no longer be reordered.
        s.remove(&mut lane, MsgId(0)).unwrap();
        assert!(!s.move_to_back(&mut lane, MsgId(0)));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn slots_are_recycled_after_removal() {
        let mut s = MsgStore::new(1);
        let mut lane = StoreLane::new(0);
        for id in 0..4 {
            s.insert(&mut lane, meta(id, 0, id));
        }
        let hwm = s.slots.len();
        for id in 0..4 {
            s.remove(&mut lane, MsgId(id)).unwrap();
        }
        for id in 4..8 {
            s.insert(&mut lane, meta(id, 0, id));
        }
        assert_eq!(s.slots.len(), hwm, "freed slots must be reused");
        assert_eq!(ids_of(&s, &lane, 0), [4, 5, 6, 7]);
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
            s.insert(&mut a, meta(id, 1, id));
            s.insert(&mut b, meta(id, 1, id + 10));
        }
        assert_eq!(ids_of(&s, &a, 1), [0, 1, 2]);
        assert_eq!(ids_of(&s, &b, 1), [0, 1, 2]);
        assert_eq!(s.len_of(&a, 1), 3);
        assert_eq!(s.len_of(&b, 1), 3);
        // Same id, different lanes: metadata resolves per lane.
        assert_eq!(s.lookup(&a, MsgId(0)).unwrap().send_event, 0);
        assert_eq!(s.lookup(&b, MsgId(0)).unwrap().send_event, 10);
        // Lane a drains; its slots are recycled by lane b's next sends.
        let hwm = s.slots.len();
        for id in 0..3 {
            s.remove(&mut a, MsgId(id)).unwrap();
        }
        for id in 3..6 {
            s.insert(&mut b, meta(id, 0, id));
        }
        assert_eq!(s.slots.len(), hwm, "cross-lane slot recycling");
        assert_eq!(ids_of(&s, &b, 0), [3, 4, 5]);
        assert_eq!(ids_of(&s, &b, 1), [0, 1, 2]);
        assert!(s.lookup(&a, MsgId(0)).is_none());
    }

    #[test]
    fn reset_keeps_capacity_and_empties_everything() {
        let mut s = MsgStore::new(2);
        let mut lane = StoreLane::new(0);
        for id in 0..8 {
            s.insert(&mut lane, meta(id, (id % 2) as usize, id));
        }
        let cap = s.slots.capacity();
        s.reset(4);
        lane.reset(2);
        assert_eq!(s.len(), 0);
        assert!(s.slots.capacity() >= cap, "reset must keep the slab");
        // The recycled lane restarts with dense ids at its new base.
        s.insert(&mut lane, meta(0, 1, 99));
        assert_eq!(ids_of(&s, &lane, 1), [0]);
        assert_eq!(s.len_of(&lane, 0), 0);
    }

    proptest! {
        /// The store agrees with the naive `Vec<Vec<MsgMeta>>` model it
        /// replaced under arbitrary insert/remove interleavings.
        #[test]
        fn matches_naive_vec_model(ops in proptest::collection::vec((0..3usize, 0..40u64), 1..200)) {
            let n = 3;
            let mut store = MsgStore::new(n);
            let mut lane = StoreLane::new(0);
            let mut model: Vec<Vec<MsgMeta>> = vec![Vec::new(); n];
            let mut next_id = 0u64;
            for (dest, sel) in ops {
                if sel % 3 == 0 && model.iter().any(|b| !b.is_empty()) {
                    // Remove a pseudo-arbitrary live message.
                    let live: Vec<MsgId> = model.iter().flatten().map(|m| m.id).collect();
                    let id = live[(sel as usize) % live.len()];
                    let want = model.iter_mut().find_map(|b| {
                        b.iter().position(|m| m.id == id).map(|pos| b.remove(pos))
                    });
                    prop_assert_eq!(store.remove(&mut lane, id).map(|(_, m)| m), want);
                } else {
                    let m = meta(next_id, dest, sel);
                    next_id += 1;
                    model[dest].push(m);
                    store.insert(&mut lane, m);
                }
                for (d, buf) in model.iter().enumerate() {
                    let got: Vec<MsgId> = store.iter_dest(&lane, d).map(|m| m.id).collect();
                    let want: Vec<MsgId> = buf.iter().map(|m| m.id).collect();
                    prop_assert_eq!(got, want, "destination {} order drifted", d);
                    prop_assert_eq!(store.len_of(&lane, d), buf.len());
                }
                for buf in &model {
                    for m in buf {
                        prop_assert_eq!(store.lookup(&lane, m.id), Some(m));
                    }
                }
            }
        }
    }
}
