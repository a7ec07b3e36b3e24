//! The socket substrate: the same protocol automata over real TCP.
//!
//! The workspace runs the Coan–Lundelius commit protocol on three
//! interchangeable substrates. The discrete-event simulator (`rtc-sim`)
//! gives adversarial control, the threaded runtime (`rtc-runtime`)
//! gives real time over in-process channels, and this crate closes the
//! gap to a deployment: every node listens on a localhost TCP socket,
//! every link is a real connection with length-prefixed frames, and
//! every connection can fail independently of the process behind it.
//!
//! What the sockets add that channels cannot model:
//!
//! * **Connection faults.** A link can be reset under the protocol; the
//!   sender runs a bounded reconnect loop (exponential backoff with
//!   seeded jitter, borrowed from the supervisor's
//!   [`SupervisorPolicy::backoff`](rtc_runtime::SupervisorPolicy::backoff)
//!   formula) and marks the peer down when its retry budget runs out.
//! * **Deadline-bounded I/O.** Every connect, read, and write carries a
//!   deadline derived from the model's timing constants
//!   (`tick × 8K`, the failure-free decision bound) instead of blocking
//!   forever. [`NetOptions`] are the runtime's own pacing options; the
//!   deadline is derived from them, not set.
//! * **Faults where frames land.** Each node's readers apply the
//!   [`FaultPlan`](rtc_runtime::FaultPlan)'s network faults to the real
//!   frames they decode, through the runtime's own
//!   [`FaultRouter`](rtc_runtime::FaultRouter) and delayer — partitions
//!   that heal, delay spikes, duplication, reordering — plus the
//!   socket-only connection reset, a clean close behind the frames
//!   already read.
//!
//! Many commit instances multiplex over one connection mesh: frames
//! carry an instance tag, and each node steps every instance once per
//! tick. The nodes are the runtime's
//! [`ClusterCore`](rtc_runtime::ClusterCore) — the paced loop, crash
//! snapshots, respawn and the online lateness monitor feed are the
//! channel substrate's, so a socket run reports the paper's
//! on-time/late classification exactly (in each instance's
//! [`ClusterReport`](rtc_runtime::ClusterReport)), and supervised runs
//! are the runtime's [`supervise`](rtc_runtime::supervise) loop over
//! that core.
//!
//! Framing is the only byte format this crate owns: a payload is
//! encoded by its message's own [`Wire`](rtc_model::Wire) impl, which
//! lives with the message (`rtc-core` for `CommitMsg`), so the crate
//! depends on no protocol.
//!
//! Entry points: [`run_net_cluster`] (scripted restarts) and
//! [`run_net_supervised`] (reactive supervisor).

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod options;
mod peer;
mod wire;

pub use cluster::{run_net_cluster, run_net_supervised, NetClusterCore, NetReport, NetRunStats};
pub use options::NetOptions;
pub use wire::{encode_frame, try_decode_frame, Frame, HEADER, MAX_FRAME};
