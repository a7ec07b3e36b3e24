//! Epoch-based batch processing: commit one batch, carry the resulting
//! store into the next.
//!
//! A production database does not commit one batch and stop; it runs a
//! sequence of *epochs*, each validated against the state the previous
//! epochs produced. The [`EpochRunner`] owns that loop over the
//! simulator substrate: it materializes a replica population per epoch
//! (seeded with the carried store), runs it to decision under a caller-
//! supplied adversary, checks cross-replica convergence, and advances
//! its authoritative store. The carried store is a copy-on-write handle
//! the population shares; advancing it adopts a replica's result, it
//! copies nothing.

use std::collections::BTreeMap;
use std::fmt;

use rtc_core::CommitConfig;
use rtc_model::{Decision, ProcessorId, SeedCollection};
use rtc_sim::{Adversary, RunLimits, SimBuilder};

use crate::replica::replica_population;
use crate::store::{Store, Transaction, TxId};

/// The result of one epoch.
#[derive(Clone, Debug)]
pub struct EpochOutcome {
    /// Per-transaction fates (agreed by all surviving replicas).
    pub outcomes: BTreeMap<TxId, Decision>,
    /// The store after applying this epoch's committed set.
    pub store_after: Store,
    /// How many replicas crashed during the epoch.
    pub crashes: usize,
    /// Events the epoch took on the simulator.
    pub events: u64,
}

/// Errors an epoch can surface.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EpochError {
    /// The run hit its event cap before every surviving replica decided
    /// every transaction (possible only under inadmissible adversaries).
    Stalled,
    /// Surviving replicas disagreed — this would falsify the protocol
    /// and is checked on every epoch.
    Diverged {
        /// Description of the divergence.
        detail: String,
    },
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::Stalled => f.write_str("epoch stalled before all replicas decided"),
            EpochError::Diverged { detail } => write!(f, "replicas diverged: {detail}"),
        }
    }
}

impl std::error::Error for EpochError {}

/// Runs successive transaction batches, carrying the store forward.
#[derive(Clone, Debug)]
pub struct EpochRunner {
    cfg: CommitConfig,
    store: Store,
    epoch: u64,
}

impl EpochRunner {
    /// Creates a runner over `cfg` starting from `initial`.
    pub fn new(cfg: CommitConfig, initial: Store) -> EpochRunner {
        EpochRunner {
            cfg,
            store: initial,
            epoch: 0,
        }
    }

    /// The current authoritative store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Runs one epoch of `batch` under `adversary`.
    ///
    /// # Errors
    ///
    /// [`EpochError::Stalled`] if the run hits `limits`;
    /// [`EpochError::Diverged`] if surviving replicas disagree (which
    /// the protocol rules out — a failure here is a bug, and tests
    /// treat it as such).
    pub fn run_epoch(
        &mut self,
        batch: &[Transaction],
        seed: u64,
        adversary: &mut dyn Adversary,
        limits: RunLimits,
    ) -> Result<EpochOutcome, EpochError> {
        let procs = replica_population(self.cfg, &self.store, batch);
        let mut sim = SimBuilder::new(self.cfg.timing(), SeedCollection::new(seed))
            .fault_budget(self.cfg.fault_bound())
            .build(procs)
            .expect("valid population");
        let report = sim
            .run(adversary, limits)
            .expect("adversary respects the model");
        if !report.all_nonfaulty_decided() {
            return Err(EpochError::Stalled);
        }
        let survivors: Vec<ProcessorId> = ProcessorId::all(self.cfg.population())
            .filter(|p| !report.is_faulty(*p))
            .collect();
        let reference = sim.automaton(survivors[0]);
        let outcomes = reference.outcomes().clone();
        let store_after = reference.store();
        for p in &survivors[1..] {
            let r = sim.automaton(*p);
            if r.outcomes() != &outcomes {
                return Err(EpochError::Diverged {
                    detail: format!("{p} outcomes differ from {}", survivors[0]),
                });
            }
            if r.store() != store_after {
                return Err(EpochError::Diverged {
                    detail: format!("{p} store differs from {}", survivors[0]),
                });
            }
            if let Err(e) = r.wal().check_invariants() {
                return Err(EpochError::Diverged {
                    detail: format!("{p} WAL: {e}"),
                });
            }
        }
        self.store = store_after.clone();
        self.epoch += 1;
        Ok(EpochOutcome {
            outcomes,
            store_after,
            crashes: self.cfg.population() - survivors.len(),
            events: report.events(),
        })
    }
}

#[cfg(test)]
mod tests {
    use rtc_model::TimingParams;
    use rtc_sim::adversaries::{RandomAdversary, SynchronousAdversary};

    use super::*;
    use crate::store::Op;

    fn cfg() -> CommitConfig {
        CommitConfig::new(4, 1, TimingParams::default()).unwrap()
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
    fn epochs_carry_the_store_forward() {
        let mut runner = EpochRunner::new(cfg(), Store::with_entries([("a", 100)]));
        let mut adv = SynchronousAdversary::new(4);
        // Epoch 1: move 60 to b.
        let out1 = runner
            .run_epoch(
                &[transfer(1, "a", "b", 60)],
                1,
                &mut adv,
                RunLimits::default(),
            )
            .unwrap();
        assert_eq!(out1.outcomes[&TxId(1)], Decision::Commit);
        assert_eq!(runner.store().get("a"), 40);
        // Epoch 2: moving 50 from a now overdraws — aborted against the
        // *carried* store, even though the initial store would allow it.
        let mut adv = SynchronousAdversary::new(4);
        let out2 = runner
            .run_epoch(
                &[transfer(2, "a", "c", 50)],
                2,
                &mut adv,
                RunLimits::default(),
            )
            .unwrap();
        assert_eq!(out2.outcomes[&TxId(2)], Decision::Abort);
        assert_eq!(runner.store().get("a"), 40);
        assert_eq!(runner.epochs_run(), 2);
    }

    #[test]
    fn epochs_survive_random_adversaries() {
        let mut runner = EpochRunner::new(cfg(), Store::with_entries([("x", 1_000)]));
        for epoch in 0..5u64 {
            let batch = vec![
                transfer(epoch * 2 + 1, "x", "y", 10),
                transfer(epoch * 2 + 2, "y", "x", 5),
            ];
            let mut adv = RandomAdversary::new(epoch)
                .deliver_prob(0.6)
                .crash_prob(0.004);
            let out = runner
                .run_epoch(&batch, epoch, &mut adv, RunLimits::default())
                .unwrap();
            assert_eq!(out.outcomes.len(), 2, "epoch {epoch}");
        }
        assert_eq!(runner.epochs_run(), 5);
        // Conservation: money only moves between x and y.
        let total = runner.store().get("x") + runner.store().get("y");
        assert_eq!(total, 1_000);
    }

    #[test]
    fn stall_is_reported_not_hidden() {
        use rtc_sim::adversaries::{cut, SynchronousAdversary, Unfair};
        let mut runner = EpochRunner::new(cfg(), Store::with_entries([("a", 10)]));
        let group_a: Vec<ProcessorId> = ProcessorId::all(2).collect();
        let mut adv = Unfair(SynchronousAdversary::new(4).holding(cut(4, &group_a)));
        let err = runner
            .run_epoch(
                &[transfer(1, "a", "b", 1)],
                3,
                &mut adv,
                RunLimits::with_max_events(10_000),
            )
            .unwrap_err();
        assert_eq!(err, EpochError::Stalled);
        // The store must be untouched by a failed epoch.
        assert_eq!(runner.store().get("a"), 10);
        assert_eq!(runner.epochs_run(), 0);
    }
}
