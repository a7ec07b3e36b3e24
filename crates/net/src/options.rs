//! Pacing for a socket cluster run, and the I/O deadline derived from it.

use std::time::Duration;

use rtc_runtime::ClusterOptions;

/// Options for a socket cluster run: the runtime's pacing knobs. The
/// socket I/O deadline is not one of them: every connect (and a
/// redial's hello) is bounded by `tick × 8K` (floored at 25ms), derived
/// from these options when the cluster boots; reads and writes do not
/// block at all.
pub type NetOptions = ClusterOptions;

/// Floor for the I/O deadline: below this, scheduler noise on a loaded
/// CI host dominates the model-derived budget and healthy connections
/// get torn down spuriously.
const MIN_DEADLINE: Duration = Duration::from_millis(25);

/// Deadline on every socket connect, and on the one blocking write
/// behind it (a redial's hello). Blocking I/O without a deadline would
/// let one dead peer wedge a node past every timeout the protocol owns,
/// so no socket operation in this crate may outlive it (`rtc-analysis`
/// rule `socket-deadline` enforces this at the source level); the
/// nodes' reads and writes are non-blocking.
///
/// One failure-free decision takes at most `8K` ticks
/// ([`rtc_model::TimingParams::failure_free_decision_bound`]), so a read
/// or write that has made no progress for a whole decision window of
/// wall clock (`tick × 8K`, floored at 25ms) is past any deadline the
/// protocol could still meet.
pub(crate) fn io_deadline(opts: &NetOptions) -> Duration {
    let window = opts.tick * u32::try_from(opts.lateness_k.saturating_mul(8)).unwrap_or(u32::MAX);
    window.max(MIN_DEADLINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_model::TimingParams;

    #[test]
    fn deadlines_scale_with_tick_but_never_below_the_floor() {
        let timing = TimingParams::default(); // K = 4 => 8K = 32 ticks
        let fine = NetOptions::derived(Duration::from_micros(100), timing);
        // 32 × 100µs = 3.2ms, floored to 25ms.
        assert_eq!(io_deadline(&fine), Duration::from_millis(25));
        let coarse = NetOptions::derived(Duration::from_millis(2), timing);
        // 32 × 2ms = 64ms, above the floor.
        assert_eq!(io_deadline(&coarse), Duration::from_millis(64));
    }
}
