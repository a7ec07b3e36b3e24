//! Core vocabulary for the Coan–Lundelius "realistic fault model".
//!
//! This crate defines the types shared by every other crate in the
//! workspace: processor identities, protocol values and decisions, local
//! clocks, the per-step randomness source of the paper's Section 2.1, and
//! the [`Automaton`] abstraction through which protocols are plugged into
//! both the discrete-event simulator (`rtc-sim`) and the threaded runtime
//! (`rtc-runtime`).
//!
//! It is the only crate the protocol side (`rtc-core`) and the substrate
//! side (`rtc-sim`, and `rtc-runtime` → `rtc-net`) share. Three seams
//! besides [`Automaton`] live here for that reason: [`Wire`], the codec
//! a message crate implements and a byte substrate frames;
//! [`LatenessMonitor`], the one classifier of the model's late messages
//! every substrate runs; and [`RunFacts`], what a substrate's report
//! states about a finished run for the protocol's correctness
//! conditions to judge.
//!
//! # The model in one paragraph
//!
//! A *processor* is a state machine with a message buffer and a random
//! number generator (paper, Section 2.1). At each step the environment
//! hands the processor a (possibly empty) set of buffered messages plus a
//! fresh random number; the processor updates its state and emits at most
//! one message per destination. An integer *clock* in each processor's
//! state counts the steps it has taken. Nothing in the model bounds
//! message delay or relative processor speed — instead a constant `K`
//! (see [`TimingParams`]) defines when a message counts as *late*, and the
//! correctness conditions of the transaction commit problem refer to that
//! notion.
//!
//! # Example
//!
//! ```
//! use rtc_model::{ProcessorId, Value, Decision};
//!
//! let coordinator = ProcessorId::COORDINATOR;
//! assert_eq!(coordinator.index(), 0);
//! assert_eq!(Decision::from(Value::One), Decision::Commit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod automaton;
mod clock;
mod error;
mod facts;
mod ids;
mod lateness;
mod rng;
pub mod sweep;
mod value;
mod wire;

pub use automaton::{Automaton, Delivery, Outbox, Recoverable, Send, Status};
pub use clock::{LocalClock, TimingParams};
pub use error::ModelError;
pub use facts::RunFacts;
pub use ids::ProcessorId;
pub use lateness::LatenessMonitor;
pub use rng::{SeedCollection, StepRng};
pub use sweep::single_crash_placements;
pub use value::{Decision, Value};
pub use wire::{Wire, WireError};
