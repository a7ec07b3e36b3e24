//! Seeded chaos-campaign harness for the Coan–Lundelius commit stack.
//!
//! The crates below this one prove properties run by run; this crate
//! proves them *in bulk and under fire*. A [`ChaosSchedule`] is one
//! commit run — population, votes, seed — and one
//! [`rtc_runtime::FaultPlan`], the one fault vocabulary of every
//! substrate: crashes, restarts (from snapshot or amnesiac), delay
//! regimes, link outages, partitions, duplication, reordering, resets.
//! Schedules are generated deterministically from a campaign seed. The
//! plan counts time in ticks, and each substrate reads it in its own
//! unit:
//!
//! * the discrete-event simulator (`rtc-sim`), where a
//!   [`ChaosAdversary`] realizes the plan as an admissible pattern-only
//!   scheduler, a tick is one round-robin rotation of `n` events, and
//!   restarts become [`rtc_sim::Sim::revive`] calls between run
//!   segments;
//! * the threaded runtime (`rtc-runtime`), where [`rtc_runtime::run_cluster`]
//!   runs the plan over real threads and channels at the cluster's
//!   `tick` of wall clock a tick (optionally under the self-healing
//!   supervisor instead of the scripted restarts);
//! * the socket substrate (`rtc-net`), where the same plan is injected
//!   by each node's readers on live localhost TCP traffic — including
//!   connection resets, which only sockets can express — and recovery
//!   is always the supervisor's ([`run_on_net`]).
//!
//! The [`run_soak`] harness closes the loop: it boots supervised
//! socket clusters under continuous fault injection, multiplexes many
//! seeded commit instances over each connection mesh, and checks every
//! instance's decision against the simulator's prediction for the same
//! schedule.
//!
//! Every run is classified ([`ChaosOutcome`]): it either *decided*
//! (with all of the paper's Section 2.4 conditions checked), *stalled
//! gracefully* (no decision but no safety violation — what Theorem 11
//! permits when more than `t` processors are down), or *violated*
//! safety, in which case [`shrink_schedule`] reduces the schedule to a
//! locally minimal reproducer.
//!
//! # One driver per substrate, one judge
//!
//! A schedule runs on the simulator one way — [`run_on_sim`], a `Sim`
//! of its own per schedule; the campaign's parallelism is chunk threads
//! over schedules, nothing inside one — and the wall-clock drivers
//! share one prelude (protocol config, seeds, the validated plan). Every
//! run is judged by one function,
//! [`rtc_core::properties::verify_commit`], over the
//! [`rtc_model::RunFacts`] its substrate's report states: statuses,
//! who is excused (crashed and not brought back), whether anything
//! crashed, and whether the run was *on-time*. A finished run is a
//! prefix, and a prefix is on-time when no on-time run is ruled out as
//! its extension:
//!
//! * on the simulator ([`rtc_sim::RunReport::facts`]), the lane's
//!   [`rtc_model::LatenessMonitor`] counted no late delivery and no
//!   message still pending to a live destination is already overdue —
//!   that one is late whenever it arrives;
//! * on channels and sockets ([`rtc_runtime::ClusterReport::facts`]),
//!   the run's `LatenessMonitor` counted no late delivery, the
//!   instance's tick ledger counted none, and nothing at all was still
//!   held at the end — a wall-clock substrate does not know a held
//!   message's age in steps, so any held message counts.
//!
//! Both judge at the `K` their run was built with, and take no
//! argument.
//!
//! Commit validity binds only on-time, failure-free, deciding runs, so
//! the clause is what separates a legitimate abort from a violation.
//!
//! The flagship scenario ([`run_theorem11`]) plays the paper's
//! Theorem 11 end to end on both substrates: crash `t + 1` processors,
//! assert a graceful stall, restart them, assert termination.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod adversary;
mod campaign;
mod net_driver;
mod outcome;
mod runtime_driver;
mod schedule;
mod shrink;
mod sim_driver;
mod soak;
mod theorem11;

pub use adversary::ChaosAdversary;
pub use campaign::{run_campaign, CampaignConfig, CampaignSummary, CampaignViolation};
pub use net_driver::run_on_net;
pub use outcome::{classify_verdict, ChaosOutcome, ChaosReport, Substrate};
pub use runtime_driver::{run_on_runtime, run_on_supervised};
pub use schedule::ChaosSchedule;
pub use shrink::{shrink_schedule, shrink_sim_violation};
pub use sim_driver::{lint_sim_schedule, run_on_sim, run_on_sim_with_decision, sim_trace_digest};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use theorem11::{run_theorem11, Theorem11Evidence};
