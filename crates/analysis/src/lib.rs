//! `rtc-analysis`: the workspace's homegrown lint engine for
//! determinism and protocol invariants.
//!
//! The repo's correctness story — golden-trace determinism,
//! seed-partitioned parallel drivers, the Theorem 11 chaos
//! classification — rests on source-level invariants that the compiler
//! does not check: no wall-clock reads in deterministic crates, no
//! entropy-ordered iteration, no panics on the protocol message path,
//! no fresh allocation in the batch-stepping hot regions, every receive
//! loop bounded by the paper's `2K`-tick deadline, and a wire
//! vocabulary in which every message kind is both sent and handled.
//! This crate checks them statically with a line/token scanner (no
//! external dependencies, no rustc plumbing) over the workspace source.
//!
//! # Usage
//!
//! ```text
//! cargo run -p rtc-analysis --             # human report
//! cargo run -p rtc-analysis -- --deny     # CI gate: nonzero exit on findings
//! cargo run -p rtc-analysis -- --json     # machine-readable report
//! cargo run -p rtc-analysis -- --rule wall-clock --rule panic-path
//! ```
//!
//! # Suppressions
//!
//! A true-but-benign finding carries an inline annotation on its line
//! or an immediately preceding comment line:
//!
//! ```text
//! // rtc-allow(buffer-linear-scan): bounded crash-plan list
//! ```
//!
//! The reason is recorded in the JSON report, so allowances stay
//! auditable. See `docs/ANALYSIS.md` for the rule catalog and how to
//! add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod diag;
pub mod engine;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, Report};
pub use engine::{run, Workspace};
pub use rules::{all_rules, Rule};
pub use source::ScanFile;
