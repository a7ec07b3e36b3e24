//! The in-flight messages of one commit instance, one send-run per step.
//!
//! Every message of the protocols is a broadcast — Protocol 2's `GO`
//! rides on every one — and the adversary sees only the *pattern*: who
//! sent to whom at which event. So what one step sent is filed as one
//! thing, a **send-run**, and [`MsgStore`] keeps per instance:
//!
//! * the **runs**, oldest first in a deque. A run holds the header its
//!   messages share ([`RunHeader`]: sender, send event, sender clock,
//!   the first id of its dense id range), its body ([`crate::bodies`]) —
//!   or, when the step sent directly, a (destination, body) list in id
//!   order — and a bitset of the destinations it still owes, one bit per
//!   processor in `n.div_ceil(64)` words;
//! * a dense **id → run** map;
//! * per destination, a **pending count** and a **cursor**: the first
//!   run that still owes it a message.
//!
//! A destination's buffer is the runs from its cursor on whose bit for
//! it is set, in filing order — the order a per-destination `Vec` would
//! expose, so adversary visibility (and therefore every seeded schedule)
//! does not depend on the representation. [`MsgHandle`]s are assembled
//! by value from a run when somebody asks. The operations the engine
//! relies on:
//!
//! * **file_broadcast** and **file_listed** push one run: its bitset,
//!   its id range in the map, and each destination's count;
//! * **lookup** and **take_for** find an id's run and destination in
//!   O(1); a listed delivery clears one bit per id, with nothing to
//!   splice and no free list to feed;
//! * **take_all** serves Section 2.1's well-behaved event
//!   ([`crate::Action::StepAll`]) in one forward scan from the
//!   destination's cursor, in filing (= send-event) order;
//! * a network duplicate is a run of one, filed as sent now, so every
//!   destination's buffer stays sorted by send event. Ids,
//!   per-destination order and handles are what they would be with one
//!   list per destination;
//! * **drain** empties a finished lane in one pass over its runs.
//!
//! A run leaves the front of the deque once it owes nobody. A run that
//! still owes a crashed destination stays until the lane is drained,
//! and the runs behind it with it. The body holds ([`crate::bodies`])
//! end as the messages are taken, not as the runs leave: a broadcast
//! run holds its one body by its whole count until it owes nobody, a
//! listed message its own body until it is taken. A take says which
//! hold it ended ([`Taken::hold`]); the engine gives those back with
//! [`release_holds`] once the step has read the bodies, and a crash's
//! drop and `drain` give theirs back at once. Every buffer keeps its
//! capacity across [`MsgStore::reset`], which is how a finished lane's
//! store serves the next batch through [`crate::BatchPool`].

use std::collections::VecDeque;

use rtc_model::{LocalClock, ProcessorId};

use crate::bodies::BodySlab;
use crate::envelope::{MsgHandle, MsgId};

/// `run_of` entry of an id this store never filed.
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

/// One filed send-run; which destinations it still owes is its word
/// range in [`MsgStore::owed`].
#[derive(Clone, Copy, Debug)]
struct Run {
    send_event: u64,
    sender_clock: LocalClock,
    /// Id of the run's first message.
    first: u32,
    /// Messages filed in the run.
    count: u32,
    /// A broadcast's one body; for a listed run, the absolute index of
    /// its first entry in [`MsgStore::lists`].
    body: u32,
    from: ProcessorId,
    /// Whether the run lists its (destination, body) pairs; otherwise it
    /// went to everybody but the sender, ascending, on one body.
    listed: bool,
}

impl Run {
    /// The id of the run's message with ordinal `ord`.
    fn id(&self, ord: usize) -> MsgId {
        MsgId(u64::from(self.first) + ord as u64)
    }

    /// The handle of the run's message with ordinal `ord`, to `to`.
    fn handle(&self, ord: usize, to: ProcessorId) -> MsgHandle {
        MsgHandle {
            id: self.id(ord),
            from: self.from,
            to,
            send_event: self.send_event,
            sender_clock: self.sender_clock,
        }
    }

    /// What the store hands back of its message with ordinal `ord`, on
    /// `body`, whose take ended `hold`.
    fn taken(&self, ord: usize, body: u32, hold: u16) -> Taken {
        Taken {
            id: self.id(ord),
            from: self.from,
            send_event: self.send_event,
            body,
            hold,
        }
    }
}

/// What the store hands back about a message it gave up: its id, the
/// inputs of delivery (sender and body) and of lateness classification
/// (send event), and the body hold the take ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Taken {
    pub id: MsgId,
    pub from: ProcessorId,
    pub send_event: u64,
    pub body: u32,
    /// The hold on `body` this take ended, owed back to the slab
    /// ([`release_holds`]): a broadcast run's whole count when this was
    /// the last message it owed, 1 for a listed message, 0 otherwise.
    /// A run names each of at most 2¹⁶ processors once, so its count
    /// fits, and `Taken` stays three words.
    pub hold: u16,
}

/// Gives back to `bodies` the holds that the takes in `taken` ended.
/// The engine calls it once a step has read the bodies it took, so each
/// step frees exactly the bodies whose last message it took.
// rtc-hot-loop(per-instance): runs once per step over what it took; a
// broadcast run's body is released once, by its last message.
pub(crate) fn release_holds<M>(taken: &[Taken], bodies: &mut BodySlab<M>) {
    for t in taken {
        if t.hold > 0 {
            bodies.release(t.body, u32::from(t.hold));
        }
    }
}

/// One instance's buffered messages. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct MsgStore {
    /// The population: destinations are `0..n`.
    n: usize,
    /// Bitset words per run.
    words: usize,
    /// Runs that may still owe somebody, oldest first; `runs[k]` has
    /// sequence number `front + k`.
    runs: VecDeque<Run>,
    /// `words` words per run, parallel to `runs`: bit `d` is set while
    /// the run's message to `d` is buffered.
    owed: VecDeque<u64>,
    /// The (destination, body) entries of listed runs, in filing order.
    lists: VecDeque<(ProcessorId, u32)>,
    /// Sequence number of `runs[0]`.
    front: u32,
    /// Absolute index of `lists[0]`.
    lists_front: u32,
    /// `run_of[id]` is the sequence number of the run that holds (or
    /// held) message `id`, `NIL` for ids never filed here.
    run_of: Vec<u32>,
    /// Messages buffered per destination.
    pending: Vec<u32>,
    /// Per destination with a pending message: the sequence number of
    /// the first run that owes it one.
    cursor: Vec<u32>,
}

impl MsgStore {
    /// An empty store for a population of `n`.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> MsgStore {
        let mut store = MsgStore::default();
        store.reset(n);
        store
    }

    /// Empties the store for a population of `n`, keeping every buffer's
    /// capacity — the batch pool's reuse path.
    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        self.runs.clear();
        self.owed.clear();
        self.lists.clear();
        self.front = 0;
        self.lists_front = 0;
        self.run_of.clear();
        self.pending.clear();
        self.pending.resize(n, 0);
        self.cursor.clear();
        self.cursor.resize(n, 0);
    }

    /// Runs the deque has grown to hold — the warm capacity a pooled
    /// reuse keeps.
    #[cfg(test)]
    pub(crate) fn run_capacity(&self) -> usize {
        self.runs.capacity()
    }

    /// Number of messages currently buffered for `dest`.
    pub(crate) fn len_of(&self, dest: usize) -> usize {
        self.pending[dest] as usize
    }

    /// Total number of buffered messages.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending.iter().map(|len| *len as usize).sum()
    }

    /// Bits set across all runs — equals [`MsgStore::len`] when the
    /// accounting is right.
    #[cfg(test)]
    pub(crate) fn run_references(&self) -> usize {
        self.owed.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The holds this store's messages keep on their bodies, as (body,
    /// messages): a broadcast run that still owes somebody holds its one
    /// body by its whole count, a buffered listed message its own body
    /// once. The body slab's holds are exactly these when the
    /// accounting is right.
    #[cfg(test)]
    fn held_bodies(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.runs.iter().enumerate().flat_map(move |(pos, run)| {
            let owing = !self.owes_nobody(pos);
            let (broadcast, listed) = match run.listed {
                false => (owing.then_some((run.body, run.count)), 0..0),
                true => (None, 0..run.count as usize),
            };
            let entries = listed
                .map(move |ord| self.message(run, ord))
                .filter(move |(to, _)| self.owes(pos, to.index()))
                .map(|(_, body)| (body, 1));
            broadcast.into_iter().chain(entries)
        })
    }

    /// Messages holding a body ([`MsgStore::held_bodies`]): every message
    /// of a broadcast run that still owes somebody, delivered or not, and
    /// every buffered listed message.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held_bodies().map(|(_, count)| count as usize).sum()
    }

    /// Sequence number the next filed run gets.
    fn end(&self) -> u32 {
        self.front + self.runs.len() as u32
    }

    /// Whether the run at deque position `pos` owes `dest` a message.
    fn owes(&self, pos: usize, dest: usize) -> bool {
        self.owed[pos * self.words + dest / 64] >> (dest % 64) & 1 == 1
    }

    /// Whether the run at deque position `pos` owes nobody.
    fn owes_nobody(&self, pos: usize) -> bool {
        (0..self.words).all(|w| self.owed[pos * self.words + w] == 0)
    }

    /// The hold that taking a message of `run`, at deque position `pos`,
    /// ended ([`Taken::hold`]); `rest` is what is left of the bitset word
    /// the take cleared its bit in.
    #[inline(always)]
    fn hold_ended(&self, pos: usize, run: &Run, rest: u64) -> u16 {
        if run.listed {
            1
        } else if rest == 0 && self.owes_nobody(pos) {
            run.count as u16
        } else {
            0
        }
    }

    /// One more message for `dest`, in the run numbered `seq`.
    fn owe(&mut self, dest: usize, seq: u32) {
        if self.pending[dest] == 0 {
            self.cursor[dest] = seq;
        }
        self.pending[dest] += 1;
    }

    /// Points ids `first..first + count` at the run numbered `seq`. Ids
    /// are dense per lane and runs filed in increasing id order (the
    /// engine assigns them from a per-instance counter), which keeps the
    /// map a direct one.
    fn map_ids(&mut self, first: MsgId, count: u32, seq: u32) {
        debug_assert!(
            self.run_of.len() <= first.index(),
            "message id buffered twice"
        );
        self.run_of.resize(first.index(), NIL);
        self.run_of.resize(first.index() + count as usize, seq);
    }

    /// Pushes a run whose bitset the caller has already pushed.
    fn push_run(&mut self, header: RunHeader, count: u32, body: u32, listed: bool) -> u32 {
        let first = u32::try_from(header.first.0).expect("message ids fit in u32");
        self.runs.push_back(Run {
            send_event: header.send_event,
            sender_clock: header.sender_clock,
            first,
            count,
            body,
            from: header.from,
            listed,
        });
        self.end() - 1
    }

    /// Files a broadcast: one message to everybody but the sender,
    /// destination ascending, all on `body`. Returns how many messages
    /// were filed (none for a population of one).
    // rtc-hot-loop(per-instance): runs once per broadcasting step.
    pub(crate) fn file_broadcast(&mut self, header: RunHeader, body: u32) -> u32 {
        let (n, from) = (self.n, header.from.index());
        let count = n as u32 - 1;
        if count == 0 {
            return 0;
        }
        let seq = self.end();
        for w in 0..self.words {
            let width = (n - 64 * w).min(64);
            let mut word = u64::MAX >> (64 - width);
            if from / 64 == w {
                word &= !(1 << (from % 64));
            }
            self.owed.push_back(word);
        }
        for dest in (0..n).filter(|d| *d != from) {
            self.owe(dest, seq);
        }
        self.push_run(header, count, body, false);
        self.map_ids(header.first, count, seq);
        count
    }

    /// Files one send-run that lists its messages: every `(destination,
    /// body)` of `sends`, in order, gets the run's next id. A run names
    /// a destination at most once. Returns how many messages were filed.
    #[inline(never)]
    pub(crate) fn file_listed(
        &mut self,
        header: RunHeader,
        sends: impl Iterator<Item = (ProcessorId, u32)>,
    ) -> u32 {
        let seq = self.end();
        let start = self.lists_front + self.lists.len() as u32;
        let words = self.owed.len();
        let mut count = 0;
        for (to, body) in sends {
            if count == 0 {
                self.owed.resize(words + self.words, 0);
            }
            let dest = to.index();
            let word = &mut self.owed[words + dest / 64];
            debug_assert!(*word >> (dest % 64) & 1 == 0, "{to} named twice in a run");
            *word |= 1 << (dest % 64);
            self.lists.push_back((to, body));
            self.owe(dest, seq);
            count += 1;
        }
        if count > 0 {
            self.push_run(header, count, start, true);
        }
        self.map_ids(header.first, count, seq);
        count
    }

    /// The destination and body of `run`'s message with ordinal `ord`.
    fn message(&self, run: &Run, ord: usize) -> (ProcessorId, u32) {
        if run.listed {
            self.lists[(run.body - self.lists_front) as usize + ord]
        } else {
            let from = run.from.index();
            (ProcessorId::new(ord + usize::from(ord >= from)), run.body)
        }
    }

    /// The ordinal and body of `run`'s message to `dest`, which it owes.
    /// A broadcast's is arithmetic, inlined into every scan; a listed
    /// run's is a search, kept out of line.
    #[inline(always)]
    fn message_to(&self, run: &Run, dest: usize) -> (usize, u32) {
        if run.listed {
            return self.listed_message_to(run, dest);
        }
        (dest - usize::from(dest > run.from.index()), run.body)
    }

    /// [`MsgStore::message_to`] of a listed run: its entry for `dest`.
    #[cold]
    fn listed_message_to(&self, run: &Run, dest: usize) -> (usize, u32) {
        let start = (run.body - self.lists_front) as usize;
        let ord = self
            .lists
            .range(start..start + run.count as usize)
            .take_while(|(to, _)| to.index() != dest)
            .count();
        (ord, self.lists[start + ord].1)
    }

    /// Where `id` is buffered: its run's deque position, its ordinal in
    /// the run and its destination.
    fn locate(&self, id: MsgId) -> Option<(usize, usize, ProcessorId)> {
        let seq = *self.run_of.get(id.index())?;
        if seq == NIL {
            return None;
        }
        // A run that left the deque wraps past its end.
        let pos = seq.wrapping_sub(self.front) as usize;
        let run = self.runs.get(pos)?;
        let ord = id.index() - run.first as usize;
        let (to, _) = self.message(run, ord);
        self.owes(pos, to.index()).then_some((pos, ord, to))
    }

    /// The handle of message `id` if it is still buffered.
    pub(crate) fn lookup(&self, id: MsgId) -> Option<MsgHandle> {
        let (pos, ord, to) = self.locate(id)?;
        Some(self.runs[pos].handle(ord, to))
    }

    /// The body of message `id` if it is still buffered.
    pub(crate) fn body_of(&self, id: MsgId) -> Option<u32> {
        let (pos, ord, _) = self.locate(id)?;
        Some(self.message(&self.runs[pos], ord).1)
    }

    /// Takes message `id` out of the store for good and gives the hold
    /// it ended back to `bodies` at once: nobody reads its body. The
    /// removal path of a crash-time drop (`Lane::apply_crash`).
    pub(crate) fn take<M>(&mut self, id: MsgId, bodies: &mut BodySlab<M>) -> Option<Taken> {
        let (pos, ord, to) = self.locate(id)?;
        let taken = self.take_at(pos, ord, to.index());
        release_holds(&[taken], bodies);
        Some(taken)
    }

    /// Takes message `id` out of the store when it is buffered for
    /// `dest` — the path of each id a listed delivery names. The caller
    /// reads the body, then gives back the hold the take ended
    /// ([`release_holds`]).
    // rtc-hot-loop(per-instance): runs once per listed id of every
    // delivering step; one lookup and one bit clear.
    pub(crate) fn take_for(&mut self, id: MsgId, dest: usize) -> Option<Taken> {
        let (pos, ord, to) = self.locate(id)?;
        if to.index() != dest {
            return None;
        }
        Some(self.take_at(pos, ord, dest))
    }

    /// Gives up the `ord`th message of the run at `pos`, owed to `dest`.
    fn take_at(&mut self, pos: usize, ord: usize, dest: usize) -> Taken {
        let word = &mut self.owed[pos * self.words + dest / 64];
        *word &= !(1 << (dest % 64));
        let rest = *word;
        let run = &self.runs[pos];
        let (_, body) = self.message(run, ord);
        let taken = run.taken(ord, body, self.hold_ended(pos, run, rest));
        self.settle(pos, dest);
        taken
    }

    /// Books the message the run at `pos` no longer owes `dest`: its
    /// count, its cursor when that run was the first, and the front of
    /// the deque when it was the front run.
    fn settle(&mut self, pos: usize, dest: usize) {
        self.pending[dest] -= 1;
        if self.pending[dest] > 0 && self.cursor[dest] == self.front + pos as u32 {
            let next = (pos + 1..)
                .find(|at| self.owes(*at, dest))
                .expect("a pending message is in a later run");
            self.cursor[dest] = self.front + next as u32;
        }
        if pos == 0 {
            self.pop_settled();
        }
    }

    /// Drops the runs at the front of the deque that owe nobody. Their
    /// holds ended with the takes that settled them.
    // rtc-hot-loop(per-instance): runs after every take from the front
    // run; each run leaves the deque once.
    fn pop_settled(&mut self) {
        while let Some(run) = self.runs.front() {
            if !self.owes_nobody(0) {
                break;
            }
            if run.listed {
                self.lists.drain(..run.count as usize);
                self.lists_front += run.count;
            }
            self.owed.drain(..self.words);
            self.runs.pop_front();
            self.front += 1;
        }
    }

    /// Takes every message buffered for `dest`, in list order, handing
    /// each to `each`; returns how many were taken. The caller reads the
    /// bodies, then gives back the holds the takes ended
    /// ([`release_holds`]).
    ///
    /// One forward scan from `dest`'s cursor, a bit test per run and a
    /// bit clear per message: Section 2.1's well-behaved event
    /// ([`crate::Action::StepAll`]). Runs are filed in send-event order,
    /// so the messages come oldest first.
    #[inline(never)]
    pub(crate) fn take_all(&mut self, dest: usize, mut each: impl FnMut(Taken)) -> usize {
        let taken = self.pending[dest];
        if taken == 0 {
            return 0;
        }
        let (word, bit) = (dest / 64, 1u64 << (dest % 64));
        let start = (self.cursor[dest] - self.front) as usize;
        let (mut pos, mut left) = (start, taken);
        let mut last_sent = 0;
        // rtc-hot-loop(per-instance): runs once per delivering step; its
        // body is all that is left per delivered message.
        while left > 0 {
            let owed = &mut self.owed[pos * self.words + word];
            if *owed & bit != 0 {
                *owed &= !bit;
                let rest = *owed;
                let run = &self.runs[pos];
                debug_assert!(run.send_event >= last_sent, "a buffer out of send order");
                last_sent = run.send_event;
                let (ord, body) = self.message_to(run, dest);
                each(run.taken(ord, body, self.hold_ended(pos, run, rest)));
                left -= 1;
            }
            pos += 1;
        }
        self.pending[dest] = 0;
        if start == 0 {
            self.pop_settled();
        }
        taken as usize
    }

    /// Takes every buffered message, run by run, handing each with its
    /// destination to `each`, and gives every hold still kept back to
    /// `bodies` at once (the handed-back `hold`s are 0). A finished
    /// lane's drain.
    pub(crate) fn drain<M>(
        &mut self,
        bodies: &mut BodySlab<M>,
        mut each: impl FnMut(ProcessorId, Taken),
    ) {
        for (pos, run) in self.runs.iter().enumerate() {
            for w in 0..self.words {
                let mut owed = self.owed[pos * self.words + w];
                while owed != 0 {
                    let dest = 64 * w + owed.trailing_zeros() as usize;
                    owed &= owed - 1;
                    let (ord, body) = self.message_to(run, dest);
                    each(ProcessorId::new(dest), run.taken(ord, body, 0));
                    if run.listed {
                        bodies.release(body, 1);
                    }
                }
            }
            if !run.listed && !self.owes_nobody(pos) {
                bodies.release(run.body, run.count);
            }
        }
        self.front = self.end();
        self.lists_front += self.lists.len() as u32;
        self.runs.clear();
        self.owed.clear();
        self.lists.clear();
        self.pending.fill(0);
    }

    /// The earliest-filed message still buffered for `dest`, if any.
    pub(crate) fn head(&self, dest: usize) -> Option<MsgHandle> {
        self.iter_dest(dest).next()
    }

    /// Iterates `dest`'s buffered messages in filing (= send-event)
    /// order — the order a per-destination `Vec` would expose to
    /// adversaries.
    pub(crate) fn iter_dest(&self, dest: usize) -> impl Iterator<Item = MsgHandle> + '_ {
        self.iter_dest_bodies(dest).map(|(handle, _)| handle)
    }

    /// Like [`MsgStore::iter_dest`], but also yields each message's
    /// body so callers can pair handles with payloads.
    pub(crate) fn iter_dest_bodies(&self, dest: usize) -> DestIter<'_> {
        DestIter {
            store: self,
            dest,
            pos: self.cursor[dest].wrapping_sub(self.front) as usize,
            left: self.pending[dest],
        }
    }
}

/// Iterator over one destination's buffered messages yielding
/// `(handle, body)` pairs in filing order.
#[derive(Clone, Debug)]
pub(crate) struct DestIter<'a> {
    store: &'a MsgStore,
    dest: usize,
    /// Deque position of the next run to look at.
    pos: usize,
    /// Messages still to yield.
    left: u32,
}

impl Iterator for DestIter<'_> {
    type Item = (MsgHandle, u32);

    fn next(&mut self) -> Option<(MsgHandle, u32)> {
        if self.left == 0 {
            return None;
        }
        let store = self.store;
        while !store.owes(self.pos, self.dest) {
            self.pos += 1;
        }
        let run = &store.runs[self.pos];
        let (ord, body) = store.message_to(run, self.dest);
        self.pos += 1;
        self.left -= 1;
        Some((run.handle(ord, ProcessorId::new(self.dest)), body))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

/// Checks the body accounting of `stores` against the one slab they
/// file over — every body is held exactly as often as
/// [`MsgStore::held_bodies`] says, the live bodies are exactly the ones
/// held, and every buffered message's body is among them — and returns
/// (buffered messages, messages holding a body, live bodies).
#[cfg(test)]
pub(crate) fn assert_holds<'a, M>(
    bodies: &BodySlab<M>,
    stores: impl IntoIterator<Item = &'a MsgStore>,
) -> (usize, usize, usize) {
    let mut held = std::collections::BTreeMap::new();
    let (mut buffered, mut holding) = (0, 0);
    for store in stores {
        for (body, count) in store.held_bodies() {
            *held.entry(body).or_insert(0) += count;
        }
        for dest in 0..store.n {
            for (_, body) in store.iter_dest_bodies(dest) {
                assert!(held.contains_key(&body), "buffered on unheld body {body}");
            }
        }
        assert_eq!(store.run_references(), store.len());
        buffered += store.len();
        holding += store.held();
    }
    for (body, count) in &held {
        assert_eq!(bodies.remaining(*body), *count, "body {body}");
    }
    assert_eq!(bodies.references(), holding);
    assert_eq!(bodies.live(), held.len());
    (buffered, holding, held.len())
}

#[cfg(test)]
impl MsgStore {
    /// Files `handle` as a run of one over `body` — how tests describe
    /// a buffer message by message.
    pub(crate) fn file_one(&mut self, handle: MsgHandle, body: u32) {
        let header = RunHeader {
            from: handle.from,
            send_event: handle.send_event,
            sender_clock: handle.sender_clock,
            first: handle.id,
        };
        self.file_listed(header, std::iter::once((handle.to, body)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bodies::BodySlab;
    use proptest::prelude::*;

    fn header(from: usize, first: u64, send_event: u64) -> RunHeader {
        RunHeader {
            from: ProcessorId::new(from),
            send_event,
            sender_clock: LocalClock::new(send_event + 1),
            first: MsgId(first),
        }
    }

    fn ids_of(store: &MsgStore, dest: usize) -> Vec<u64> {
        store.iter_dest(dest).map(|m| m.id.0).collect()
    }

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    fn runs_are_filed_in_order_and_read_back_by_value() {
        let mut s = MsgStore::new(3);
        // p1 broadcasts (ids 0, 1 to p0, p2); p0 sends directly to p2,
        // then p1 (ids 2, 3).
        assert_eq!(s.file_broadcast(header(1, 0, 7), 5), 2);
        assert_eq!(
            s.file_listed(header(0, 2, 9), [(p(2), 6), (p(1), 8)].into_iter()),
            2
        );
        assert_eq!(ids_of(&s, 0), [0]);
        assert_eq!(ids_of(&s, 1), [3]);
        assert_eq!(ids_of(&s, 2), [1, 2]);
        assert_eq!((s.len(), s.run_references()), (4, 4));
        let m = s.lookup(MsgId(1)).unwrap();
        assert_eq!((m.from, m.to, m.send_event), (p(1), p(2), 7));
        assert_eq!(m.sender_clock, LocalClock::new(8));
        assert_eq!(s.lookup(MsgId(3)).unwrap().to, p(1));
        assert_eq!(
            [0, 1, 2, 3].map(|id| s.body_of(MsgId(id))),
            [Some(5), Some(5), Some(6), Some(8)]
        );
        assert_eq!(s.lookup(MsgId(4)), None);
        // An empty run files nothing and keeps nothing.
        assert_eq!(s.file_listed(header(2, 4, 11), std::iter::empty()), 0);
        assert_eq!(s.runs.len(), 2);
    }

    #[test]
    fn take_for_refuses_another_destination_and_repeats() {
        let mut s = MsgStore::new(3);
        let mut bodies = BodySlab::new();
        bodies.store('x', 2);
        let body = bodies.store('y', 2);
        s.file_broadcast(header(1, 0, 6), body);
        // Id 0 is p0's, not p2's.
        assert_eq!(s.take_for(MsgId(0), 2), None);
        let taken = s.take_for(MsgId(0), 0).unwrap();
        assert_eq!(
            taken,
            Taken {
                id: MsgId(0),
                from: p(1),
                send_event: 6,
                body: 1,
                hold: 0,
            },
            "the run still owes p2"
        );
        assert_eq!(s.take_for(MsgId(0), 0), None, "taken once");
        assert_eq!(s.take(MsgId(9), &mut bodies), None, "never filed");
        assert_eq!((s.len(), s.run_references()), (1, 1));
        assert_eq!(bodies.remaining(body), 2);
        // Taking the last message ends the run's hold, which a crash's
        // drop gives back at once, and lets the run go.
        assert_eq!(s.take(MsgId(1), &mut bodies).map(|t| t.hold), Some(2));
        assert!(s.runs.is_empty());
        assert_eq!((bodies.msg(body), bodies.live()), (None, 1));
    }

    #[test]
    fn take_all_scans_from_the_cursor_and_skips_what_it_does_not_owe() {
        let mut s = MsgStore::new(4);
        let mut bodies = BodySlab::new();
        for (k, from) in [1, 0, 2, 0].into_iter().enumerate() {
            let body = bodies.store(k, 3);
            s.file_broadcast(header(from, 3 * k as u64, k as u64), body);
        }
        // p0 is owed by the runs of p1 and p2 only.
        assert_eq!(ids_of(&s, 0), [0, 6]);
        assert_eq!(ids_of(&s, 1), [3, 7, 9]);
        // Take p1's second message first: the cursor stays.
        assert_eq!(s.take_for(MsgId(7), 1).map(|t| t.body), Some(2));
        let mut got = Vec::new();
        assert_eq!(s.take_all(1, |t| got.push((t.id.0, t.body))), 2);
        assert_eq!(got, [(3, 1), (9, 3)]);
        assert_eq!(s.take_all(1, |_| unreachable!()), 0);
        // Runs leave the front as they settle, and their last message
        // ends their hold.
        let mut got = Vec::new();
        s.take_all(0, |t| got.push(t));
        s.take_all(2, |t| got.push(t));
        assert!(got.iter().all(|t| t.hold == 0));
        assert_eq!(s.runs.len(), 4, "every run still owes p3");
        let last = s.take_for(MsgId(2), 3).unwrap();
        assert_eq!((last.body, last.hold), (0, 3));
        release_holds(&[last], &mut bodies);
        assert_eq!((s.runs.len(), bodies.live()), (3, 3));
        assert_eq!(ids_of(&s, 3), [5, 8, 11]);
        got.clear();
        s.take_all(3, |t| got.push(t));
        release_holds(&got, &mut bodies);
        assert!(s.runs.is_empty() && s.owed.is_empty());
        assert_eq!(bodies.live(), 0);
    }

    #[test]
    fn a_destination_that_never_takes_pins_the_runs_until_the_drain() {
        // p3 takes nothing (a crashed destination): every broadcast stays
        // owed to it, so the deque keeps every run, while the others'
        // cursors move on and their buffers stay short.
        let mut s = MsgStore::new(4);
        let mut bodies = BodySlab::new();
        for k in 0..50u64 {
            let from = (k % 3) as usize;
            s.file_broadcast(header(from, 3 * k, k), bodies.store(k, 3));
            for dest in (0..3).filter(|d| *d != from) {
                s.take_all(dest, |t| assert_eq!(t.hold, 0, "still owed to p3"));
            }
        }
        assert_eq!((s.runs.len(), bodies.live()), (50, 50));
        // A run that settles behind the pinned front gives its body back
        // at once; only its place in the deque waits for the front.
        s.file_broadcast(header(3, 150, 50), bodies.store(50, 3));
        let mut got = Vec::new();
        for dest in 0..3 {
            s.take_all(dest, |t| got.push(t));
        }
        assert_eq!(got.iter().map(|t| t.hold).collect::<Vec<_>>(), [0, 0, 3]);
        release_holds(&got, &mut bodies);
        assert_eq!((s.runs.len(), bodies.live()), (51, 50));
        assert_eq!((s.len_of(0), s.len_of(1), s.len_of(2)), (0, 0, 0));
        assert_eq!(s.len_of(3), 50);
        assert_eq!(s.head(3).map(|m| m.id), Some(MsgId(2)));
        let mut drained = 0;
        s.drain(&mut bodies, |to, _| {
            assert_eq!(to, p(3));
            drained += 1;
        });
        assert_eq!((drained, s.runs.len(), s.owed.len()), (50, 0, 0));
        assert_eq!((bodies.live(), bodies.references()), (0, 0));
    }

    #[test]
    fn drain_hands_back_everything_and_reset_keeps_capacity() {
        let mut s = MsgStore::new(3);
        let mut bodies = BodySlab::new();
        let [x, y, z] = [("x", 2), ("y", 1), ("z", 1)].map(|(msg, n)| bodies.store(msg, n));
        s.file_broadcast(header(0, 0, 0), x);
        s.file_listed(header(2, 2, 1), [(p(1), y), (p(2), z)].into_iter());
        assert_eq!(s.take_for(MsgId(0), 1).map(|t| t.hold), Some(0));
        assert_eq!((bodies.live(), bodies.references()), (3, 4));
        let mut got = Vec::new();
        s.drain(&mut bodies, |to, t| got.push((to.index(), t.id.0, t.body)));
        got.sort_unstable();
        assert_eq!(got, [(1, 2, y), (2, 1, x), (2, 3, z)]);
        assert_eq!((s.len(), s.run_references()), (0, 0));
        // Every hold went back, the taken message's with its run's.
        assert_eq!((bodies.live(), bodies.references()), (0, 0));
        assert_eq!(s.lookup(MsgId(1)), None);
        // Filing goes on with the next ids.
        s.file_broadcast(header(1, 4, 2), bodies.store("w", 2));
        assert_eq!(ids_of(&s, 2), [5]);

        let cap = s.run_capacity();
        s.reset(65);
        assert!(s.run_capacity() >= cap, "reset must keep the deque");
        assert_eq!((s.len(), s.len_of(64)), (0, 0));
        // The recycled store restarts with dense ids.
        s.file_broadcast(header(64, 0, 0), 0);
        assert_eq!((ids_of(&s, 0), ids_of(&s, 63)), (vec![0], vec![63]));
        assert_eq!(s.len_of(64), 0);
    }

    /// A buffered message as the model holds it.
    type Held = (MsgHandle, u32);

    /// The model's side of a store under test: one `Vec` per
    /// destination, plus the slab the takes give their holds back to.
    struct Model {
        dests: Vec<Vec<Held>>,
        bodies: BodySlab<u32>,
        next_id: u64,
        /// Ids of the latest run filed by a step, a crash's candidates.
        latest: Vec<MsgId>,
    }

    impl Model {
        fn forget(&mut self, id: MsgId) -> Option<Held> {
            self.dests.iter_mut().find_map(|buf| {
                let at = buf.iter().position(|(m, _)| m.id == id)?;
                Some(buf.remove(at))
            })
        }

        /// Records the run of `sends` filed from `header` as the latest.
        fn filed(&mut self, header: RunHeader, sends: &[(usize, u32)]) {
            self.latest.clear();
            for (to, body) in sends {
                let m = MsgHandle {
                    id: MsgId(self.next_id),
                    from: header.from,
                    to: p(*to),
                    send_event: header.send_event,
                    sender_clock: header.sender_clock,
                };
                self.latest.push(m.id);
                self.next_id += 1;
                self.dests[*to].push((m, *body));
            }
        }
    }

    fn taken((m, body): Held) -> Taken {
        Taken {
            id: m.id,
            from: m.from,
            send_event: m.send_event,
            body,
            hold: 0,
        }
    }

    /// What the model can say of a take: all but the hold it ended,
    /// which [`assert_holds`] checks in sum.
    fn lent(t: Taken) -> Taken {
        Taken { hold: 0, ..t }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The store agrees with one `Vec` per destination under
        /// arbitrary interleavings of everything the engine does to it,
        /// at populations on both sides of a bitset word: filing a
        /// broadcast; filing a listed run (direct sends in call order,
        /// some on a shared body); duplicating a message; a crash
        /// dropping part of the latest run; a listed
        /// delivery, which stops at the first id not buffered for its
        /// destination; a whole-buffer delivery; a drain.
        #[test]
        fn matches_naive_vec_model(
            n in (0..7usize).prop_map(|k| [1, 2, 3, 63, 64, 65, 130][k]),
            ops in proptest::collection::vec((0..7u8, any::<u64>()), 1..120),
        ) {
            let mut store = MsgStore::new(n);
            let mut model = Model {
                dests: vec![Vec::new(); n],
                bodies: BodySlab::new(),
                next_id: 0,
                latest: Vec::new(),
            };
            for (event, (op, sel)) in ops.into_iter().enumerate() {
                let event = event as u64;
                let live: Vec<MsgId> = model.dests.iter().flatten().map(|(m, _)| m.id).collect();
                let pick = (!live.is_empty()).then(|| live[(sel % live.len().max(1) as u64) as usize]);
                let dest = (sel % n as u64) as usize;
                match (op, pick) {
                    // A broadcast from `dest`.
                    (0, _) if n > 1 => {
                        let h = header(dest, model.next_id, event);
                        let body = model.bodies.store(0, n as u32 - 1);
                        prop_assert_eq!(store.file_broadcast(h, body), n as u32 - 1);
                        let sends: Vec<(usize, u32)> = (0..n).filter(|d| *d != dest).map(|d| (d, body)).collect();
                        model.filed(h, &sends);
                    }
                    // A listed run: up to eight distinct destinations
                    // from a rotating start, every other one on a shared
                    // body and the rest on bodies of their own.
                    (1, _) => {
                        let h = header(dest, model.next_id, event);
                        let k = (sel >> 8) as usize % 9;
                        let mut dests: Vec<usize> = (0..k).map(|j| (dest + j * 7) % n).collect();
                        dests.sort_unstable();
                        dests.dedup();
                        let turn = (sel >> 16) as usize % dests.len().max(1);
                        dests.rotate_left(turn);
                        if sel & 1 << 24 != 0 {
                            dests.reverse();
                        }
                        let shared = dests.len().div_ceil(2) as u32;
                        let shared = (shared > 0).then(|| model.bodies.store(1, shared));
                        let sends: Vec<(usize, u32)> = dests
                            .iter()
                            .enumerate()
                            .map(|(j, d)| match (j % 2, shared) {
                                (0, Some(body)) => (*d, body),
                                _ => (*d, model.bodies.store(2, 1)),
                            })
                            .collect();
                        let filed = store.file_listed(h, sends.iter().map(|(d, b)| (p(*d), *b)));
                        prop_assert_eq!(filed as usize, sends.len());
                        model.filed(h, &sends);
                    }
                    // Duplicate: a run of one, "sent" now, on the
                    // original's body.
                    (2, Some(id)) => {
                        let orig = store.lookup(id).unwrap();
                        let body = store.body_of(id).unwrap();
                        let h = RunHeader {
                            from: orig.from,
                            send_event: event,
                            sender_clock: orig.sender_clock,
                            first: MsgId(model.next_id),
                        };
                        model.bodies.retain(body);
                        store.file_listed(h, std::iter::once((orig.to, body)));
                        let latest = std::mem::take(&mut model.latest);
                        model.filed(h, &[(orig.to.index(), body)]);
                        model.latest = latest;
                    }
                    // A crash dropping every other message of the latest
                    // run that is still buffered.
                    (3, _) => {
                        for id in model.latest.clone().iter().step_by(2) {
                            let want = model.forget(*id).map(taken);
                            prop_assert_eq!(store.take(*id, &mut model.bodies).map(lent), want);
                        }
                    }
                    // A listed delivery to `dest`: every other buffered
                    // message, last first, then (sometimes) a message
                    // buffered for somebody else or never filed. It stops
                    // at the first refusal, as the engine does.
                    (4, _) => {
                        let mut ids: Vec<MsgId> = model.dests[dest].iter().map(|(m, _)| m.id).step_by(2).collect();
                        ids.reverse();
                        if sel & 1 << 40 != 0 {
                            let foreign = live.iter().copied().find(|id| {
                                model.dests[dest].iter().all(|(m, _)| m.id != *id)
                            });
                            ids.push(foreign.unwrap_or(MsgId(model.next_id + 7)));
                        }
                        let mut lent_out = Vec::new();
                        for id in ids {
                            let mine = model.dests[dest].iter().any(|(m, _)| m.id == id);
                            let want = if mine { model.forget(id).map(taken) } else { None };
                            let got = store.take_for(id, dest);
                            prop_assert_eq!(got.map(lent), want);
                            match got {
                                Some(t) => lent_out.push(t),
                                None => break,
                            }
                        }
                        release_holds(&lent_out, &mut model.bodies);
                    }
                    (5, _) => {
                        let mut got = Vec::new();
                        let took = store.take_all(dest, |t| got.push(t));
                        let want: Vec<Taken> = model.dests[dest].drain(..).map(taken).collect();
                        prop_assert_eq!(took, want.len());
                        prop_assert_eq!(got.iter().copied().map(lent).collect::<Vec<_>>(), want);
                        release_holds(&got, &mut model.bodies);
                    }
                    // A finished lane's drain, now and then.
                    (6, _) if sel % 4 == 0 => {
                        let mut got = Vec::new();
                        store.drain(&mut model.bodies, |to, t| got.push((to, t)));
                        let mut want: Vec<(ProcessorId, Taken)> = model
                            .dests
                            .iter_mut()
                            .flat_map(|buf| buf.drain(..))
                            .map(|held| (held.0.to, taken(held)))
                            .collect();
                        got.sort_unstable_by_key(|(_, t)| t.id);
                        want.sort_unstable_by_key(|(_, t)| t.id);
                        prop_assert_eq!(&got, &want);
                    }
                    _ => {}
                }
                for (d, buf) in model.dests.iter().enumerate() {
                    let got: Vec<Held> = store.iter_dest_bodies(d).collect();
                    prop_assert_eq!(&got, buf, "destination {} drifted", d);
                    prop_assert_eq!(store.len_of(d), buf.len());
                    prop_assert_eq!(store.head(d), buf.first().map(|(m, _)| *m));
                    for (m, body) in buf {
                        prop_assert_eq!(store.lookup(m.id), Some(*m));
                        prop_assert_eq!(store.body_of(m.id), Some(*body));
                    }
                }
                // Every body is held exactly as often as the store's
                // messages hold it, and the front run owes somebody.
                assert_holds(&model.bodies, [&store]);
                prop_assert!(store.runs.is_empty() || store.owed.iter().take(store.words).any(|w| *w != 0));
            }
        }
    }
}
