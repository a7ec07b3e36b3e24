//! The load generator: everything the system under test receives is
//! made here from `--seed`. The crates see only the generated batches,
//! votes and `SeedCollection`s.
//!
//! The generator also keeps its own model of the bank — a plain vector
//! of balances, never touching `rtc_txn::Store` — so that the expected
//! vote of every transfer and the expected store after every batch are
//! computed independently of the code being measured.

use rtc_model::Decision;
use rtc_txn::{Op, Store, Transaction};

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed (no `rand`, no host entropy).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ for
    /// the ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `permille / 1000`.
    pub fn chance(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

/// Derives an independent seed for stream `stream`, item `item` of a
/// run seeded with `seed`.
pub fn mix(seed: u64, stream: u64, item: u64) -> u64 {
    let mut g = SplitMix::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    g.next_u64() ^ SplitMix::new(item).next_u64()
}

/// One generated transfer, by account index, with the vote the model
/// expects every replica to form for it.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// Debited account.
    pub from: usize,
    /// Credited account.
    pub to: usize,
    /// Amount moved.
    pub amount: i64,
    /// Whether the debit leaves `from` at or above zero against the
    /// balances the batch starts from — i.e. the expected vote is `One`.
    pub funded: bool,
}

/// The shape of the transfers a [`Bank`] generates.
#[derive(Clone, Copy, Debug)]
pub struct BankShape {
    /// Number of accounts (the store's key count).
    pub keys: usize,
    /// Opening balance of every account.
    pub opening: i64,
    /// Transfers move `1..=max_amount`.
    pub max_amount: i64,
    /// Share of transfers made to overdraw on purpose (forced abort).
    pub overdraw_permille: u64,
}

/// The generator's bank: account names, the model balances, and the
/// transfer stream.
#[derive(Clone, Debug)]
pub struct Bank {
    shape: BankShape,
    names: Vec<String>,
    balances: Vec<i64>,
    rng: SplitMix,
    next_tx: u64,
}

impl Bank {
    /// A bank of `shape`, its transfer stream seeded with `seed`.
    pub fn new(shape: BankShape, seed: u64) -> Bank {
        Bank {
            shape,
            names: (0..shape.keys).map(|k| format!("acct{k:04}")).collect(),
            balances: vec![shape.opening; shape.keys],
            rng: SplitMix::new(seed),
            next_tx: 1,
        }
    }

    /// The store every replica starts from.
    pub fn opening_store(&self) -> Store {
        Store::with_entries(
            self.names
                .iter()
                .cloned()
                .zip(self.balances.iter().copied()),
        )
    }

    /// Generates the next batch of `size` two-key transfers with fresh,
    /// ascending transaction ids.
    pub fn next_batch(&mut self, size: usize) -> (Vec<Transaction>, Vec<Planned>) {
        let keys = self.shape.keys as u64;
        let mut txs = Vec::with_capacity(size);
        let mut plan = Vec::with_capacity(size);
        for _ in 0..size {
            let from = self.rng.below(keys) as usize;
            let to = (from + 1 + self.rng.below(keys - 1) as usize) % self.shape.keys;
            let amount = if self.rng.chance(self.shape.overdraw_permille) {
                // More than the account can hold, whatever it holds.
                self.balances[from].max(0) + self.shape.opening.max(1)
            } else {
                1 + self.rng.below(self.shape.max_amount as u64) as i64
            };
            txs.push(Transaction::new(
                self.next_tx,
                vec![
                    Op::Add {
                        key: self.names[from].clone(),
                        delta: -amount,
                        floor: 0,
                    },
                    Op::add(self.names[to].clone(), amount),
                ],
            ));
            self.next_tx += 1;
            plan.push(Planned {
                from,
                to,
                amount,
                funded: self.balances[from] >= amount,
            });
        }
        (txs, plan)
    }

    /// Applies the committed transfers of a batch to the model, in
    /// transaction order, and checks `store` (a replica's store after
    /// the batch) against it on every account the batch touched.
    ///
    /// # Errors
    ///
    /// The first account whose stored balance differs from the model.
    pub fn settle(
        &mut self,
        plan: &[Planned],
        decisions: impl IntoIterator<Item = Decision>,
        store: &Store,
    ) -> Result<(), String> {
        for (p, decision) in plan.iter().zip(decisions) {
            if decision == Decision::Commit {
                self.balances[p.from] -= p.amount;
                self.balances[p.to] += p.amount;
            }
        }
        for p in plan {
            for k in [p.from, p.to] {
                let stored = store.get(&self.names[k]);
                if stored != self.balances[k] {
                    return Err(format!(
                        "{}: store holds {stored}, model expects {}",
                        self.names[k], self.balances[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: BankShape = BankShape {
        keys: 16,
        opening: 100,
        max_amount: 50,
        overdraw_permille: 250,
    };

    #[test]
    fn same_seed_same_inputs() {
        let (a, _) = Bank::new(SHAPE, 7).next_batch(32);
        let (b, _) = Bank::new(SHAPE, 7).next_batch(32);
        let (c, _) = Bank::new(SHAPE, 8).next_batch(32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn planned_votes_match_store_validation() {
        let mut bank = Bank::new(SHAPE, 3);
        let store = bank.opening_store();
        let (txs, plan) = bank.next_batch(64);
        let mut overdrawn = 0;
        for (tx, p) in txs.iter().zip(&plan) {
            assert_ne!(p.from, p.to);
            assert_eq!(store.validates(tx), p.funded, "{tx:?}");
            overdrawn += usize::from(!p.funded);
        }
        assert!(overdrawn > 0, "a quarter of the transfers overdraw");
    }

    #[test]
    fn settle_tracks_the_store() {
        let mut bank = Bank::new(SHAPE, 5);
        let mut store = bank.opening_store();
        let (txs, plan) = bank.next_batch(8);
        let decisions: Vec<Decision> = plan
            .iter()
            .map(|p| {
                if p.funded {
                    Decision::Commit
                } else {
                    Decision::Abort
                }
            })
            .collect();
        for (tx, d) in txs.iter().zip(&decisions) {
            if *d == Decision::Commit {
                store.apply(tx);
            }
        }
        assert!(bank
            .settle(&plan, decisions.iter().copied(), &store)
            .is_ok());
        // A store that missed a commit is caught.
        let (_, plan) = bank.next_batch(1);
        let forced = [Decision::Commit];
        assert!(bank.settle(&plan, forced, &store).is_err());
    }
}
