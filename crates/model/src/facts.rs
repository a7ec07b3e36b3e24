//! What a finished run says about itself, whatever executed it.

use crate::Status;

/// What one finished run has to say for itself before Section 2.4 can
/// judge it — the facts every substrate can state, however it observed
/// them (each simulator lane and each wall-clock cluster runs a
/// [`LatenessMonitor`](crate::LatenessMonitor) at the run's own `K`).
/// Each substrate's report states them; `rtc_core::properties` judges
/// them.
#[derive(Clone, Debug)]
pub struct RunFacts<'a> {
    /// Final status per processor.
    pub statuses: &'a [Status],
    /// Which processors owe no decision: crashed and not brought back.
    /// A recovered processor is not excused — it owes again.
    pub excused: Vec<bool>,
    /// No processor crashed at any point of the run.
    pub failure_free: bool,
    /// No message of the run is late at the configured `K` — none
    /// delivered late, and none still held that can only arrive late.
    pub on_time: bool,
}
