//! The randomized transaction commit protocol of Coan & Lundelius
//! (PODC 1986).
//!
//! This crate is the paper's primary contribution, executable:
//!
//! * [`Agreement`] / [`AgreementAutomaton`] — Protocol 1, the
//!   shared-coin modification of Ben-Or's asynchronous agreement
//!   protocol (Section 3.1). Expected stages to decision is a small
//!   constant (< 4, Lemma 8) when the coin list covers the stages run.
//! * [`CommitAutomaton`] — Protocol 2, the transaction commit wrapper
//!   (Section 3.2): coordinator-flipped shared coins flooded in `GO`
//!   messages (piggybacked on everything), `2K`-tick participation and
//!   vote windows, then Protocol 1 on the vote outcome.
//! * [`CommitConfig`] — deployment parameters, enforcing `n > 2t`
//!   (optimal by the paper's Theorem 14).
//! * [`InlineVec`] — the inline-then-spill sequence of `Copy` elements
//!   a commit instance keeps its per-peer bytes and a step's payload
//!   kinds in (its live stage boards are a ring of three in place), so
//!   that an instance of up to 16 processors owns no heap object but
//!   the shared coin list.
//! * [`properties`] — mechanical checkers for the Agreement /
//!   Abort-validity / Commit-validity conditions of Section 2.4, over
//!   the [`RunFacts`](rtc_model::RunFacts) any substrate states.
//! * [`CommitMsg`]'s [`Wire`](rtc_model::Wire) codec, the bytes a socket
//!   substrate frames.
//!
//! The crate depends on no substrate: the protocol and what executes it
//! meet only in `rtc-model`'s vocabulary.
//!
//! The protocol's headline guarantees, all reproduced as experiments in
//! this workspace (see `EXPERIMENTS.md`):
//!
//! * all nonfaulty processors decide in a constant expected number of
//!   asynchronous rounds (≤ 14, Theorem 10; → 12 with more coins);
//! * failure-free on-time runs decide within `8K` clock ticks;
//! * if more than `t` processors fail, the protocol never produces
//!   conflicting decisions — it merely fails to terminate (Theorem 11),
//!   leaving the opportunity to recover.
//!
//! # Quickstart
//!
//! ```
//! use rtc_core::{commit_population, CommitConfig};
//! use rtc_model::{Decision, SeedCollection, TimingParams, Value};
//! use rtc_sim::{adversaries::SynchronousAdversary, RunLimits, SimBuilder};
//!
//! let cfg = CommitConfig::new(5, 2, TimingParams::default())?;
//! let procs = commit_population(cfg, &[Value::One; 5]);
//! let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(1))
//!     .fault_budget(cfg.fault_bound())
//!     .build(procs)
//!     .unwrap();
//! let report = sim.run(&mut SynchronousAdversary::new(5), RunLimits::default()).unwrap();
//! assert!(report.statuses().iter().all(|s| s.decision() == Some(Decision::Commit)));
//! # Ok::<(), rtc_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod coins;
mod config;
mod hot;
mod inline;
pub mod properties;
mod protocol1;
mod protocol2;
mod wire;

pub use coins::CoinList;
pub use config::CommitConfig;
pub use hot::VoteBoard;
pub use inline::InlineVec;
pub use protocol1::{Agreement, AgreementAutomaton, AgreementMsg};
pub use protocol2::{
    commit_population, decisions_of, CommitAutomaton, CommitKind, CommitKinds, CommitMsg,
    CommitSnapshot,
};
