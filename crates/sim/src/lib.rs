//! Deterministic discrete-event simulator of the almost-asynchronous model.
//!
//! This crate is the testbed substrate for the Coan–Lundelius commit
//! protocol and all baselines: it realizes the formal model of the
//! paper's Section 2 as an executable system.
//!
//! * **Configurations, events, schedules, runs** (Section 2.1): the
//!   [`Sim`] engine holds one [`rtc_model::Automaton`] per processor plus
//!   a message buffer per processor; each *event* `(p, M, f)` steps one
//!   processor with a set of buffered messages and a fresh random number
//!   drawn from the run's [`rtc_model::SeedCollection`].
//! * **The adversary** (Section 2.3): an [`Adversary`] chooses which
//!   processor steps next, which buffered messages it receives, and which
//!   processors crash and when — seeing only the *message pattern*
//!   (who sent to whom at which events), never message contents, local
//!   states, or coin flips. A strictly stronger [`ContentAdversary`] that
//!   may inspect payloads exists for diagnostic experiments and is
//!   clearly marked as exceeding the paper's model. The paper's benign,
//!   slow and partitioned schedules are one round-robin scheduler,
//!   [`adversaries::SynchronousAdversary`], with a lag or a hold rule.
//!   A partition or a reorder is not an event: an adversary partitions
//!   the network by withholding the messages that cross its cut, and
//!   reorders it by withholding a message while younger traffic
//!   overtakes it. The engine knows no more of either than of any other
//!   held message. The one network-plane event is a duplicate
//!   ([`Action::Duplicate`]).
//! * **`t`-admissibility**: a fairness envelope of `64 · n` events forces
//!   overdue guaranteed messages to be delivered and starved processors
//!   to be stepped, so that every finite run the engine produces is a
//!   prefix of a `t`-admissible infinite run. Deliberately inadmissible adversaries
//!   (used to demonstrate the paper's lower bounds) opt out.
//! * **Asynchronous rounds** (Section 2.2): [`rounds::RoundAccountant`]
//!   computes the paper's inductive round definition post-hoc from the
//!   recorded [`Trace`].
//!
//! # Example
//!
//! ```
//! use rtc_model::{Automaton, Outbox, ProcessorId, SeedCollection, Status, StepRng,
//!                 TimingParams, Value};
//! use rtc_sim::{adversaries::SynchronousAdversary, RunLimits, SimBuilder};
//!
//! /// A toy automaton that decides its own input immediately.
//! struct Trivial(ProcessorId);
//! impl Automaton for Trivial {
//!     type Msg = ();
//!     fn id(&self) -> ProcessorId { self.0 }
//!     fn population(&self) -> usize { 3 }
//!     fn step_into<'a>(
//!         &mut self,
//!         _inbox: impl Iterator<Item = (ProcessorId, &'a ())>,
//!         _rng: &mut StepRng,
//!         _out: &mut Outbox<()>,
//!     ) {
//!     }
//!     fn status(&self) -> Status { Status::Decided(Value::One) }
//! }
//!
//! let procs: Vec<_> = ProcessorId::all(3).map(Trivial).collect();
//! let mut sim = SimBuilder::new(TimingParams::default(), SeedCollection::new(1))
//!     .fault_budget(1)
//!     .build(procs)
//!     .unwrap();
//! let report = sim.run(&mut SynchronousAdversary::new(3), RunLimits::default()).unwrap();
//! assert!(report.all_nonfaulty_decided());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adversaries;
mod adversary;
mod batch;
mod bodies;
mod engine;
mod envelope;
mod metrics;
mod pattern;
pub mod rounds;
mod store;
mod trace;

pub use adversary::{Action, Adversary, ContentAdversary, ContentView, PatternView};
pub use batch::{BatchPool, BatchSim, BatchSimBuilder};
pub use engine::{RunLimits, RunReport, Sim, SimBuilder, SimError, StopWhen};
pub use envelope::{IdRun, MsgHandle, MsgId};
pub use metrics::RunMetrics;
pub use pattern::{MessagePattern, PatternTriple};
pub use trace::{DecisionRecord, EventRecord, EventView, MsgRecord, Trace};
