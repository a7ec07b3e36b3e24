//! The rule catalog.
//!
//! Every rule is a [`Rule`] over the whole [`Workspace`]: most scan
//! file-by-file, but cross-file rules (message exhaustiveness) need the
//! global view. Scoping lives inside each rule — a rule knows which
//! crates or files its invariant applies to — so fixtures can opt into
//! a rule simply by claiming an in-scope crate name and path.

use crate::diag::Diagnostic;
use crate::engine::Workspace;

mod buffer_scan;
mod channel_unwrap;
mod determinism;
mod exhaustive;
mod panic_path;
mod per_instance_alloc;
mod socket_deadline;
mod spec_coverage;
mod unbounded_recv;
mod unordered_iter;

pub use buffer_scan::BufferLinearScan;
pub use channel_unwrap::ChannelSendUnwrap;
pub use determinism::WallClock;
pub use exhaustive::MessageExhaustiveness;
pub use panic_path::PanicInProtocolPath;
pub use per_instance_alloc::PerInstanceAlloc;
pub use socket_deadline::SocketDeadline;
pub use spec_coverage::SpecCoverage;
pub use unbounded_recv::UnboundedRecv;
pub use unordered_iter::UnorderedIter;

/// A single lint rule.
pub trait Rule {
    /// Stable kebab-case rule name, used in diagnostics and
    /// `rtc-allow(name)` suppressions.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn summary(&self) -> &'static str;
    /// Scans the workspace and returns findings (unsuppressed; the
    /// engine applies `rtc-allow` afterwards).
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

/// The full rule set, in catalog order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(WallClock),
        Box::new(UnorderedIter),
        Box::new(PanicInProtocolPath),
        Box::new(PerInstanceAlloc),
        Box::new(BufferLinearScan),
        Box::new(UnboundedRecv),
        Box::new(SocketDeadline),
        Box::new(ChannelSendUnwrap),
        Box::new(MessageExhaustiveness),
        Box::new(SpecCoverage),
    ]
}

/// The crates whose behavior must be a pure function of seeds and
/// schedules: the simulator substrate, the protocol automata, the
/// model-checking engines, the chaos campaign driver, and the
/// replicated store (its replica is an automaton like any other, and
/// its hashed key directory must never leak an iteration order into
/// `==`, `Debug`, a WAL or a digest). Golden-trace replay and
/// seed-partitioned parallel determinism rest on these.
pub(crate) const DETERMINISTIC_CRATES: [&str; 6] = [
    "rtc-core",
    "rtc-sim",
    "rtc-lockstep",
    "rtc-model",
    "rtc-chaos",
    "rtc-txn",
];

pub(crate) fn in_deterministic_scope(crate_name: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&crate_name)
}
