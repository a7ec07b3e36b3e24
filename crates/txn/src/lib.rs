//! A replicated key-value transaction manager built on the commit
//! protocol — the distributed database system of the paper's
//! introduction, executable.
//!
//! "In a distributed database system a transaction may be processed
//! concurrently at several different processors. To maintain the
//! integrity of the database these processors must take consistent
//! action regarding the transaction." This crate supplies that database
//! layer:
//!
//! * [`Transaction`]s are batches of [`Op`]s over a string-keyed `i64`
//!   store, with a balance-floor constraint that gives replicas a real
//!   reason to vote abort;
//! * a [`Replica`] multiplexes one Coan–Lundelius commit instance per
//!   transaction over a single [`rtc_model::Automaton`], so a whole
//!   batch commits concurrently on any substrate (the discrete-event
//!   simulator or the threaded runtime);
//! * an epoch's opening [`Store`] and its batch are one shared
//!   copy-on-write image, so forming votes, building a population,
//!   taking snapshots and recovering cost what the batch costs, not
//!   what the store holds;
//! * every state transition is recorded in a [`Wal`] (write-ahead log)
//!   whose invariants — votes precede decisions, decisions never flip —
//!   are machine-checked, and whose durable encoding frames every
//!   record with a CRC32 so recovery truncates a torn or corrupt tail
//!   instead of failing ([`Replica::recover_from_bytes`]);
//! * committed transactions are applied in *transaction-id order*, so
//!   every replica that commits the same set reaches the same store,
//!   regardless of the order in which decisions arrived.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod epochs;
mod replica;
mod store;
mod wal;

pub use epochs::{EpochError, EpochOutcome, EpochRunner};
pub use replica::{replica_population, Replica, ReplicaSnapshot, TxBatchStatus, TxMsg};
pub use store::{Op, Store, Transaction, TxId};
pub use wal::{LogRecord, Wal, WalDamage};
