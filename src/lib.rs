//! # rtc — Transaction Commit in a Realistic Fault Model
//!
//! A full reproduction of Coan & Lundelius (PODC 1986): the randomized
//! transaction commit protocol for the *almost asynchronous* timing
//! model, together with the model itself as an executable simulator,
//! the baselines the paper compares against, a threaded real-time
//! runtime, and the experiment harness that regenerates every
//! quantitative claim (see `EXPERIMENTS.md`).
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on a single crate:
//!
//! * [`model`] — processor/value/clock vocabulary and the automaton
//!   abstraction (`rtc-model`);
//! * [`sim`] — the discrete-event simulator, adversary zoo, and
//!   asynchronous-round accountant (`rtc-sim`);
//! * [`core`] — Protocols 1 and 2 plus the correctness checkers
//!   (`rtc-core`);
//! * [`baselines`] — Ben-Or, Rabin-style, CMS-style, 2PC, 3PC
//!   (`rtc-baselines`);
//! * [`runtime`] — the threaded cluster over std `mpsc` channels
//!   (`rtc-runtime`);
//! * [`net`] — the socket substrate: the same automata over real
//!   localhost TCP with faults applied where frames land (`rtc-net`);
//! * [`experiments`] — the Monte-Carlo harness (`rtc-experiments`);
//! * [`chaos`] — seeded chaos campaigns with crashes, restarts, delay
//!   spikes, and link outages over every substrate, plus the supervised
//!   socket soak (`rtc-chaos`).
//!
//! # Quickstart
//!
//! ```
//! use rtc::prelude::*;
//!
//! // Five replicas, tolerating two crash faults, all voting to commit.
//! let cfg = CommitConfig::new(5, 2, TimingParams::default())?;
//! let procs = commit_population(cfg, &[Value::One; 5]);
//! let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(2026))
//!     .fault_budget(cfg.fault_bound())
//!     .build(procs)
//!     .unwrap();
//! let report = sim.run(&mut SynchronousAdversary::new(5), RunLimits::default()).unwrap();
//! assert!(report.statuses().iter().all(|s| s.decision() == Some(Decision::Commit)));
//! # Ok::<(), rtc::model::ModelError>(())
//! ```
//!
//! See the `examples/` directory for larger scenarios (a bank
//! settlement on the threaded runtime, a flaky-network comparison with
//! 2PC/3PC, an adversary gauntlet, and the lower-bound demonstrations).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtc_baselines as baselines;
pub use rtc_chaos as chaos;
pub use rtc_core as core;
pub use rtc_experiments as experiments;
pub use rtc_lockstep as lockstep;
pub use rtc_model as model;
pub use rtc_net as net;
pub use rtc_runtime as runtime;
pub use rtc_sim as sim;
pub use rtc_spec as spec;
pub use rtc_txn as txn;

/// The most common imports, bundled.
pub mod prelude {
    pub use rtc_core::{
        commit_population, Agreement, AgreementAutomaton, CoinList, CommitAutomaton, CommitConfig,
    };
    pub use rtc_model::{
        Automaton, Decision, LocalClock, ProcessorId, SeedCollection, Status, TimingParams, Value,
    };
    pub use rtc_runtime::{run_cluster, ClusterOptions, DelayModel, FaultPlan};
    pub use rtc_sim::adversaries::{
        cut, AdaptiveAdversary, CrashAdversary, CrashPlan, DropPolicy, RandomAdversary,
        SynchronousAdversary, Unfair,
    };
    pub use rtc_sim::{Adversary, RunLimits, RunReport, SimBuilder};
}
