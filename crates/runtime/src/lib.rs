//! A threaded real-time runtime for the protocol automata.
//!
//! The discrete-event simulator (`rtc-sim`) gives adversarial control;
//! this crate gives *realism*: every processor runs on its own OS
//! thread — the only thread it has — links are std `mpsc` channels,
//! local clocks advance with wall time, and a [`FaultPlan`] injects
//! crashes, restarts and network faults. The plan counts time in
//! ticks, so the simulator reads the
//! same plan. The same [`rtc_model::Automaton`] implementations run
//! unmodified on both substrates — the paper's "laptop" deployment of
//! its model.
//!
//! See [`run_cluster`] for the entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod fault;
mod recovery;
mod supervisor;

pub use cluster::{ClusterCore, ClusterOptions, ClusterReport, Envelope, Links};
pub use fault::{
    CrashAt, DelayModel, FaultPlan, FaultPlanError, FaultRouter, LinkOutage, NetPartition,
    RestartAt,
};
pub use recovery::run_cluster;
pub use supervisor::{
    run_cluster_supervised, supervise, ClusterHealth, SupervisorPolicy, SupervisorReport,
};
