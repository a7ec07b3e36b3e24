//! Transactions and the replicated key-value store.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

/// Replaces `key`'s value (0 if absent) by `f` of it. Only a key's
/// first write copies the key.
fn write(data: &mut BTreeMap<Arc<str>, i64>, key: &str, f: impl FnOnce(i64) -> i64) {
    match data.get_mut(key) {
        Some(cell) => *cell = f(*cell),
        None => {
            data.insert(Arc::from(key), f(0));
        }
    }
}

/// The key-value store state of one replica.
///
/// A `Store` is a copy-on-write handle: cloning it is a reference bump,
/// and the first write through a clone copies the map. An epoch's
/// opening store is therefore one image shared by every replica, every
/// snapshot and the runner that carries it forward.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Store {
    data: Arc<BTreeMap<Arc<str>, i64>>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// A store pre-loaded with the given entries.
    pub fn with_entries<I, K>(entries: I) -> Store
    where
        I: IntoIterator<Item = (K, i64)>,
        K: Into<String>,
    {
        Store {
            data: Arc::new(
                entries
                    .into_iter()
                    .map(|(k, v)| (Arc::from(k.into()), v))
                    .collect(),
            ),
        }
    }

    /// Reads a key (absent keys read as 0, like an account that was
    /// never opened).
    pub fn get(&self, key: &str) -> i64 {
        self.data.get(key).copied().unwrap_or(0)
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store has no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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
        let mut written: BTreeMap<&str, i64> = BTreeMap::new();
        for op in &tx.ops {
            match op {
                Op::Put { key, value } => {
                    written.insert(key, *value);
                }
                Op::Add { key, delta, floor } => {
                    let current = match written.get(key.as_str()) {
                        Some(v) => *v,
                        None => self.get(key),
                    };
                    match current.checked_add(*delta) {
                        Some(next) if next >= *floor => {
                            written.insert(key, next);
                        }
                        _ => return false,
                    }
                }
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
        let data = Arc::make_mut(&mut self.data);
        for op in &tx.ops {
            match op {
                Op::Put { key, value } => write(data, key, |_| *value),
                Op::Add { key, delta, .. } => write(data, key, |old| old.wrapping_add(*delta)),
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The reference [`Store::validates`] is checked against: copy the
    /// whole store, apply op by op, test each floor on the way. It is
    /// what the crate shipped before validation went copy-free, with
    /// overflow defined (abort) instead of left to the build profile.
    fn validates_by_copy(store: &Store, tx: &Transaction) -> bool {
        let mut scratch: BTreeMap<Arc<str>, i64> = (*store.data).clone();
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
