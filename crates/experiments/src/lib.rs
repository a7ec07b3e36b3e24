//! The experiment harness: reproduces every quantitative claim of the
//! paper as a Monte-Carlo experiment over the simulator.
//!
//! Each public `tN_*` / `fN_*` function in [`experiments`] regenerates
//! one row-set of `EXPERIMENTS.md`; the `paper-tables` binary runs the
//! whole suite:
//!
//! ```bash
//! cargo run -p rtc-experiments --bin paper_tables --release          # full pass
//! cargo run -p rtc-experiments --bin paper_tables --release -- --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod diagram;
pub mod experiments;
mod stats;
mod table;
mod workloads;

pub use diagram::{render, DiagramOptions};
pub use experiments::{run_all, Effort};
pub use stats::{rate, Summary};
pub use table::{ExperimentResult, Table};
pub use workloads::{mixed_votes, run_commit, CommitRunResult};
