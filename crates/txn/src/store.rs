//! Transactions and the replicated key-value store.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use rtc_core::InlineVec;

/// Identifies a transaction; also fixes the deterministic apply order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// One operation of a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Set `key` to `value`.
    Put {
        /// The key.
        key: String,
        /// The value to install.
        value: i64,
    },
    /// Add `delta` to `key`, requiring the result to stay at or above
    /// `floor` — the classic account-balance constraint that makes a
    /// replica vote abort when the transfer would overdraw.
    Add {
        /// The key.
        key: String,
        /// Signed amount to add.
        delta: i64,
        /// Minimum allowed result.
        floor: i64,
    },
}

impl Op {
    /// Convenience constructor for [`Op::Put`].
    pub fn put(key: impl Into<String>, value: i64) -> Op {
        Op::Put {
            key: key.into(),
            value,
        }
    }

    /// Convenience constructor for [`Op::Add`] with a zero floor.
    pub fn add(key: impl Into<String>, delta: i64) -> Op {
        Op::Add {
            key: key.into(),
            delta,
            floor: 0,
        }
    }
}

/// A transaction: an identified batch of operations, committed or
/// aborted atomically across all replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The transaction id (also the apply-order key).
    pub id: TxId,
    /// The operations.
    pub ops: Vec<Op>,
}

impl Transaction {
    /// Creates a transaction.
    pub fn new(id: u64, ops: Vec<Op>) -> Transaction {
        Transaction { id: TxId(id), ops }
    }
}

/// Own writes a [`Store::validates`] call tracks without a heap object.
/// A transfer is two ops, the benchmark's widest transaction four, and
/// the proptest corpus tops out at eight; each write is looked up by a
/// scan of at most this many short keys, which at eight is cheaper than
/// the tree it replaces (docs/PERF.md "PR 19").
const OWN_WRITES_INLINE: usize = 8;

/// The key directory's hasher: SipHash under constant keys, the same
/// in every process, so nothing about a run depends on where it ran
/// (`RandomState` would seed it from process entropy). The table's
/// iteration order still depends on its growth history, which is why
/// the one walk over it, [`Store::entries`], sorts. A fixed key is not
/// collision-resistant against keys chosen to collide, which the tree
/// this replaced was (DESIGN.md §10).
type FixedHasher = BuildHasherDefault<DefaultHasher>;

/// The key-value store state of one replica.
///
/// A `Store` is a copy-on-write handle over two shared parts: a *key
/// directory* mapping each key to a slot, and a *value column* holding
/// the values by slot. Slots are handed out in insertion order and
/// never reused (there is no delete). A read or a write of a held key
/// is one hash and one compare, whatever the store's size. Cloning a
/// store is two reference bumps; the first write through a clone copies
/// the column — eight bytes per key, one allocation — and only a write
/// to a key the store has never held touches (and, if shared, copies)
/// the directory. An epoch's opening store is therefore one image shared
/// by every replica, every snapshot and the runner that carries it
/// forward, and the stores the replicas end the epoch with share its
/// directory.
///
/// Two stores are equal when they hold the same keys with the same
/// values, whatever order the keys arrived in.
#[derive(Clone, Default)]
pub struct Store {
    /// Key → slot in `values`; every slot below `values.len()` has
    /// exactly one key.
    keys: Arc<HashMap<Arc<str>, u32, FixedHasher>>,
    values: Arc<Vec<i64>>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// A store pre-loaded with the given entries (of entries with the
    /// same key, the last one counts).
    pub fn with_entries<I, K>(entries: I) -> Store
    where
        I: IntoIterator<Item = (K, i64)>,
        K: Into<String>,
    {
        let entries = entries.into_iter();
        // Sized once for the entries announced (all of them, for the
        // slices and arrays a store is opened from).
        let announced = entries.size_hint().0;
        let mut keys = HashMap::with_capacity_and_hasher(announced, FixedHasher::default());
        let mut values = Vec::with_capacity(announced);
        for (key, value) in entries {
            let slot = *keys.entry(Arc::from(key.into())).or_insert_with(|| {
                values.push(0);
                next_slot(values.len() - 1)
            });
            values[slot as usize] = value;
        }
        Store {
            keys: Arc::new(keys),
            values: Arc::new(values),
        }
    }

    /// Reads a key (absent keys read as 0, like an account that was
    /// never opened).
    pub fn get(&self, key: &str) -> i64 {
        self.keys
            .get(key)
            .map_or(0, |slot| self.values[*slot as usize])
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The entries, in key order: the directory collected and sorted,
    /// for `==` between diverged directories and for `Debug`. Nothing an
    /// epoch runs per transaction walks the directory.
    fn entries(&self) -> BTreeMap<&str, i64> {
        // rtc-allow(unordered-iter): sorted before use
        self.keys
            .iter()
            .map(|(key, slot)| (&**key, self.values[*slot as usize]))
            .collect()
    }

    /// Whether `tx` passes its constraints against this store state.
    /// This is the local validation a replica runs to form its initial
    /// vote.
    ///
    /// Constraints are checked against the cumulative effect of the
    /// transaction's own ops, in order. An `Add` whose result does not
    /// fit an `i64` fails validation (the vote is abort) rather than
    /// wrapping; [`Store::apply`] is only ever handed transactions that
    /// validated somewhere, and wraps (see there).
    pub fn validates(&self, tx: &Transaction) -> bool {
        // The transaction's own writes so far, over a read-through to
        // the store: the cost is in the ops, not in the store's size.
        let mut written: InlineVec<(&str, i64), OWN_WRITES_INLINE> = InlineVec::new();
        for op in &tx.ops {
            let (Op::Put { key, .. } | Op::Add { key, .. }) = op;
            let own = written.iter().position(|(k, _)| k == key);
            let next = match op {
                Op::Put { value, .. } => *value,
                Op::Add { delta, floor, .. } => {
                    let current = own.map_or_else(|| self.get(key), |at| written[at].1);
                    match current.checked_add(*delta) {
                        Some(next) if next >= *floor => next,
                        _ => return false,
                    }
                }
            };
            match own {
                Some(at) => written[at].1 = next,
                None => written.push((key, next)),
            }
        }
        true
    }

    /// Applies `tx` unconditionally (callers decide commit first).
    ///
    /// No constraint is re-checked: floors are ignored and an `Add`
    /// wraps on `i64` overflow, identically in debug and release, so
    /// replicas that apply the same committed set stay equal whatever
    /// they were handed. A transaction that [`Store::validates`] against
    /// the state it is applied to never wraps.
    pub fn apply(&mut self, tx: &Transaction) {
        for op in &tx.ops {
            match op {
                Op::Put { key, value } => self.write(key, |_| *value),
                Op::Add { key, delta, .. } => self.write(key, |old| old.wrapping_add(*delta)),
            }
        }
    }

    /// Replaces `key`'s value (0 if absent) by `f` of it. A write to a
    /// key the store holds copies the column if it is shared and leaves
    /// the directory alone; a key's first write gives it the next slot.
    fn write(&mut self, key: &str, f: impl FnOnce(i64) -> i64) {
        match self.keys.get(key) {
            Some(slot) => {
                let cell = &mut Arc::make_mut(&mut self.values)[*slot as usize];
                *cell = f(*cell);
            }
            None => {
                let values = Arc::make_mut(&mut self.values);
                Arc::make_mut(&mut self.keys).insert(Arc::from(key), next_slot(values.len()));
                values.push(f(0));
            }
        }
    }

    /// Rebuilds the store from an initial state plus a set of committed
    /// transactions, applied in [`TxId`] order — the deterministic
    /// apply rule that makes replicas with equal committed sets equal.
    pub fn rebuild(initial: &Store, committed: &BTreeMap<TxId, Transaction>) -> Store {
        initial.applying(committed.values())
    }

    /// This store with `txs` applied in the order given; the image
    /// itself when `txs` is empty.
    pub(crate) fn applying<'a>(&self, txs: impl IntoIterator<Item = &'a Transaction>) -> Store {
        let mut store = self.clone();
        for tx in txs {
            store.apply(tx);
        }
        store
    }
}

/// The slot of the `len + 1`th key.
fn next_slot(len: usize) -> u32 {
    u32::try_from(len).expect("fewer than 2^32 keys")
}

impl PartialEq for Store {
    /// Stores that share a directory — an epoch's replicas, a store and
    /// its snapshot — compare columns; others are walked in key order.
    fn eq(&self, other: &Store) -> bool {
        if Arc::ptr_eq(&self.keys, &other.keys) {
            // (`Arc`'s `==` is pointer equality first.)
            return self.values == other.values;
        }
        self.len() == other.len() && self.entries() == other.entries()
    }
}

impl Eq for Store {}

impl fmt::Debug for Store {
    /// The entries as a map, in key order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("data", &self.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The reference [`Store::validates`] is checked against: copy the
    /// whole store, apply op by op, test each floor on the way. It is
    /// what the crate shipped before validation went copy-free, with
    /// overflow defined (abort) instead of left to the build profile.
    fn validates_by_copy(store: &Store, tx: &Transaction) -> bool {
        let mut scratch: BTreeMap<Arc<str>, i64> = store
            .entries()
            .into_iter()
            .map(|(key, value)| (Arc::from(key), value))
            .collect();
        for op in &tx.ops {
            match op {
                Op::Put { key, value } => {
                    scratch.insert(Arc::from(key.as_str()), *value);
                }
                Op::Add { key, delta, floor } => {
                    let current = scratch.get(key.as_str()).copied().unwrap_or(0);
                    match current.checked_add(*delta) {
                        Some(next) if next >= *floor => {
                            scratch.insert(Arc::from(key.as_str()), next)
                        }
                        _ => return false,
                    };
                }
            }
        }
        true
    }

    /// Amounts that mostly stay small (so floors decide) and sometimes
    /// sit at the edge of `i64` (so overflow does).
    fn arb_amount() -> impl Strategy<Value = i64> {
        (0usize..8, -60i64..60, any::<bool>()).prop_map(|(pick, small, high)| match pick {
            0 if high => i64::MAX - small.abs(),
            0 => i64::MIN + small.abs(),
            _ => small,
        })
    }

    /// Ops over six keys, so a transaction of up to eight repeats keys,
    /// `Add`s onto its own `Put`s, and touches keys the store lacks.
    fn arb_op() -> impl Strategy<Value = Op> {
        (any::<bool>(), 0usize..6, arb_amount(), -30i64..30).prop_map(
            |(put, key, amount, floor)| {
                let key = format!("k{key}");
                if put {
                    Op::Put { key, value: amount }
                } else {
                    Op::Add {
                        key,
                        delta: amount,
                        floor,
                    }
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn validates_matches_the_copying_oracle(
            entries in proptest::collection::vec((0usize..4, arb_amount()), 0..5),
            ops in proptest::collection::vec(arb_op(), 0..9),
        ) {
            let store = Store::with_entries(entries.into_iter().map(|(k, v)| (format!("k{k}"), v)));
            let tx = Transaction::new(1, ops);
            prop_assert_eq!(store.validates(&tx), validates_by_copy(&store, &tx));
        }
    }

    /// One move in a history of store handles.
    #[derive(Clone, Debug)]
    enum Move {
        /// `handles[to] = handles[from].clone()`.
        Clone { from: usize, to: usize },
        /// `handles[on].apply(ops)`.
        Apply { on: usize, ops: Vec<Op> },
        /// `handles[to] = Store::rebuild(&handles[from], txs)`.
        Rebuild {
            from: usize,
            to: usize,
            txs: Vec<Vec<Op>>,
        },
    }

    fn arb_move() -> impl Strategy<Value = Move> {
        let ops = || proptest::collection::vec(arb_op(), 0..4);
        let txs = proptest::collection::vec(ops(), 0..3);
        (0usize..4, 0usize..3, 0usize..3, ops(), txs).prop_map(|(pick, from, to, ops, txs)| {
            match pick {
                0 => Move::Clone { from, to },
                1 => Move::Rebuild { from, to, txs },
                _ => Move::Apply { on: to, ops },
            }
        })
    }

    /// What [`Store::apply`] does, on the model.
    fn apply_to_model(model: &mut BTreeMap<String, i64>, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Put { key, value } => {
                    model.insert(key.clone(), *value);
                }
                Op::Add { key, delta, .. } => {
                    let cell = model.entry(key.clone()).or_insert(0);
                    *cell = cell.wrapping_add(*delta);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Three handles driven through clones, writes to held and to
        /// brand-new keys (`arb_op` draws from six, the opening store
        /// holds at most four) and rebuilds, against a plain map per
        /// handle: a write through one handle shows in no other, and
        /// equality, reads, length and `Debug` are the model's — also
        /// between handles that were handed the same keys in different
        /// orders.
        #[test]
        fn handles_match_a_plain_map_model(
            entries in proptest::collection::vec((0usize..4, arb_amount()), 0..7),
            moves in proptest::collection::vec(arb_move(), 0..12),
        ) {
            let entries: Vec<(String, i64)> =
                entries.into_iter().map(|(k, v)| (format!("k{k}"), v)).collect();
            // A repeated key keeps its last value, as collecting into a
            // map does.
            let opening_model: BTreeMap<String, i64> = entries.iter().cloned().collect();
            let opening = Store::with_entries(entries);
            let mut handles = vec![opening; 3];
            let mut models = vec![opening_model; 3];
            for mv in std::iter::once(None).chain(moves.iter().map(Some)) {
                match mv {
                    None => {}
                    Some(Move::Clone { from, to }) => {
                        handles[*to] = handles[*from].clone();
                        models[*to] = models[*from].clone();
                    }
                    Some(Move::Apply { on, ops }) => {
                        handles[*on].apply(&Transaction::new(1, ops.clone()));
                        apply_to_model(&mut models[*on], ops);
                    }
                    Some(Move::Rebuild { from, to, txs }) => {
                        // Handed over in descending id order; applied
                        // ascending.
                        let committed: BTreeMap<TxId, Transaction> = txs
                            .iter()
                            .enumerate()
                            .rev()
                            .map(|(id, ops)| (TxId(id as u64), Transaction::new(id as u64, ops.clone())))
                            .collect();
                        handles[*to] = Store::rebuild(&handles[*from], &committed);
                        let mut model = models[*from].clone();
                        for ops in txs {
                            apply_to_model(&mut model, ops);
                        }
                        models[*to] = model;
                    }
                }
                for (i, (handle, model)) in handles.iter().zip(&models).enumerate() {
                    prop_assert_eq!(handle.len(), model.len());
                    prop_assert_eq!(handle.is_empty(), model.is_empty());
                    for key in (0..7).map(|k| format!("k{k}")) {
                        prop_assert_eq!(handle.get(&key), model.get(&key).copied().unwrap_or(0));
                    }
                    prop_assert_eq!(format!("{handle:?}"), format!("Store {{ data: {model:?} }}"));
                    for (other, other_model) in handles.iter().zip(&models).skip(i) {
                        prop_assert_eq!(handle == other, model == other_model);
                        prop_assert_eq!(other == handle, model == other_model);
                    }
                }
            }
        }
    }

    #[test]
    fn stores_handed_the_same_keys_in_different_orders_are_equal() {
        let opening = Store::with_entries([("m", 1)]);
        let put = |key: &str, value| Transaction::new(1, vec![Op::put(key, value)]);
        let (mut a, mut b) = (opening.clone(), opening.clone());
        a.apply(&put("z", 26));
        a.apply(&put("a", 1));
        b.apply(&put("a", 1));
        assert_ne!(a, b);
        b.apply(&put("z", 26));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            format!("{a:?}"),
            r#"Store { data: {"a": 1, "m": 1, "z": 26} }"#
        );
        assert_eq!(
            a,
            Store::with_entries([("z", 0), ("a", 1), ("m", 1), ("z", 26)])
        );
        b.apply(&put("m", 2));
        assert_ne!(a, b);
        assert_eq!(opening, Store::with_entries([("m", 1)]));
    }

    /// Past the six-key corpus: a directory that grows through
    /// [`Store::apply`] from 100 keys to 2 100 (the table regrows five
    /// times) while older handles still share what it was, so every so
    /// often an insert copies the directory before writing to it.
    #[test]
    fn a_directory_grown_under_shared_handles_matches_the_model() {
        // Distinct for i < 2 500, in neither key nor slot order.
        let key = |i: usize| format!("acct{:05}", (i * 7_919) % 2_500);
        let entries = || (0..100).map(|i| (key(i), i as i64));
        let opening = Store::with_entries(entries());
        let mut model: BTreeMap<String, i64> = entries().collect();
        let mut grown = opening.clone();
        let mut held = vec![(opening.clone(), model.clone())];
        for i in 100..2_100 {
            if i % 300 == 0 {
                held.push((grown.clone(), model.clone()));
            }
            let ops = vec![Op::put(key(i), i as i64), Op::add(key(i - 100), 1)];
            apply_to_model(&mut model, &ops);
            grown.apply(&Transaction::new(i as u64, ops));
        }
        held.push((grown, model));
        for (store, model) in &held {
            assert_eq!(store.len(), model.len());
            for i in 0..2_500 {
                let key = key(i);
                assert_eq!(store.get(&key), model.get(&key).copied().unwrap_or(0));
            }
            assert_eq!(format!("{store:?}"), format!("Store {{ data: {model:?} }}"));
            // Handed the same entries in key order: another directory,
            // other slots, an equal store.
            let sorted = Store::with_entries(model.clone());
            for (other, other_model) in &held {
                assert_eq!(store == other, model == other_model);
                assert_eq!(other == store, model == other_model);
                assert_eq!(&sorted == other, model == other_model);
                assert_eq!(other == &sorted, model == other_model);
            }
        }
        assert_eq!(opening, Store::with_entries(entries()));
        assert_eq!(held.last().unwrap().0.len(), 2_100);
    }

    #[test]
    fn overflowing_add_votes_abort() {
        let s = Store::with_entries([("a", i64::MAX), ("b", i64::MIN)]);
        let up = Transaction::new(
            1,
            vec![Op::Add {
                key: "a".into(),
                delta: 1,
                floor: i64::MIN,
            }],
        );
        let down = Transaction::new(
            2,
            vec![Op::Add {
                key: "b".into(),
                delta: -1,
                floor: i64::MIN,
            }],
        );
        assert!(!s.validates(&up));
        assert!(!s.validates(&down));
        assert!(s.validates(&Transaction::new(3, vec![Op::add("a", 0)])));
        // Reaching the edge through the transaction's own writes counts.
        let own = Transaction::new(4, vec![Op::put("c", i64::MAX), Op::add("c", 1)]);
        assert!(!s.validates(&own));
    }

    #[test]
    fn writes_through_a_clone_leave_the_original_alone() {
        let original = Store::with_entries([("a", 1)]);
        let mut copy = original.clone();
        copy.apply(&Transaction::new(1, vec![Op::put("a", 2), Op::put("b", 3)]));
        assert_eq!((original.get("a"), original.get("b")), (1, 0));
        assert_eq!((copy.get("a"), copy.get("b")), (2, 3));
        assert_eq!(original.len(), 1);
    }

    fn transfer(id: u64, from: &str, to: &str, amount: i64) -> Transaction {
        Transaction::new(
            id,
            vec![
                Op::Add {
                    key: from.into(),
                    delta: -amount,
                    floor: 0,
                },
                Op::add(to, amount),
            ],
        )
    }

    #[test]
    fn absent_keys_read_zero() {
        let s = Store::new();
        assert_eq!(s.get("nope"), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn validation_respects_floors() {
        let s = Store::with_entries([("a", 100)]);
        assert!(s.validates(&transfer(1, "a", "b", 100)));
        assert!(!s.validates(&transfer(2, "a", "b", 101)));
    }

    #[test]
    fn validation_is_cumulative_within_a_transaction() {
        let s = Store::with_entries([("a", 100)]);
        let tx = Transaction::new(
            3,
            vec![
                Op::Add {
                    key: "a".into(),
                    delta: -80,
                    floor: 0,
                },
                Op::Add {
                    key: "a".into(),
                    delta: -80,
                    floor: 0,
                },
            ],
        );
        assert!(!s.validates(&tx), "second withdrawal must see the first");
    }

    #[test]
    fn apply_and_rebuild_agree() {
        let initial = Store::with_entries([("a", 50), ("b", 0)]);
        let t1 = transfer(1, "a", "b", 20);
        let t2 = transfer(2, "a", "b", 10);
        let mut direct = initial.clone();
        direct.apply(&t1);
        direct.apply(&t2);
        let committed: BTreeMap<TxId, Transaction> = [(t2.id, t2.clone()), (t1.id, t1.clone())]
            .into_iter()
            .collect();
        assert_eq!(Store::rebuild(&initial, &committed), direct);
    }

    #[test]
    fn rebuild_order_is_txid_not_insertion() {
        let initial = Store::with_entries([("x", 0)]);
        let a = Transaction::new(1, vec![Op::put("x", 1)]);
        let b = Transaction::new(2, vec![Op::put("x", 2)]);
        // Insert b first; rebuild must still apply tx1 before tx2.
        let committed: BTreeMap<TxId, Transaction> = [(b.id, b), (a.id, a)].into_iter().collect();
        assert_eq!(Store::rebuild(&initial, &committed).get("x"), 2);
    }
}
