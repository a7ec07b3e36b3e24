//! Pacing and the I/O deadline for a socket cluster run.

use std::time::Duration;

use rtc_model::TimingParams;
use rtc_runtime::ClusterOptions;

/// Options for a socket cluster run: the runtime's pacing knobs plus
/// the socket-only I/O deadline.
#[derive(Clone, Copy, Debug)]
pub struct NetOptions {
    /// Real-time duration of one automaton step.
    pub tick: Duration,
    /// Hard cap on steps per node.
    pub max_steps: u64,
    /// Hard cap on wall-clock time for the whole run.
    pub wall_timeout: Duration,
    /// The model's `K`, which the run's lateness monitor classifies
    /// against ([`ClusterOptions::lateness_k`]).
    pub lateness_k: u64,
    /// Deadline on every socket connect, read and write. Blocking I/O
    /// without a deadline would let one dead peer wedge a node past
    /// every timeout the protocol owns, so no socket operation in this
    /// crate may outlive it (`rtc-analysis` rule `socket-deadline`
    /// enforces this at the source level).
    pub io_deadline: Duration,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions::derived(Duration::from_millis(1), TimingParams::default())
    }
}

impl NetOptions {
    /// Floor for derived I/O deadlines: below this, scheduler noise on
    /// a loaded CI host dominates the model-derived budget and healthy
    /// connections get torn down spuriously.
    const MIN_DEADLINE: Duration = Duration::from_millis(25);

    /// Options derived from the model's timing constants, mirroring
    /// [`ClusterOptions::derived`]: one failure-free decision takes at
    /// most `8K` ticks ([`TimingParams::failure_free_decision_bound`]),
    /// so a read or write that has made no progress for a whole
    /// decision window of wall clock (`tick × 8K`, floored at 25ms) is
    /// past any deadline the protocol could still meet. The wall
    /// timeout and step cap come from `ClusterOptions::derived`
    /// unchanged.
    pub fn derived(tick: Duration, timing: TimingParams) -> NetOptions {
        let base = ClusterOptions::derived(tick, timing);
        let window = tick * u32::try_from(timing.failure_free_decision_bound()).unwrap_or(u32::MAX);
        NetOptions {
            tick,
            max_steps: base.max_steps,
            wall_timeout: base.wall_timeout,
            lateness_k: base.lateness_k,
            io_deadline: window.max(Self::MIN_DEADLINE),
        }
    }

    /// The runtime-level pacing slice of these options.
    pub fn cluster(&self) -> ClusterOptions {
        ClusterOptions {
            tick: self.tick,
            max_steps: self.max_steps,
            wall_timeout: self.wall_timeout,
            lateness_k: self.lateness_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_scale_with_tick_but_never_below_the_floor() {
        let timing = TimingParams::default(); // K = 4 => 8K = 32 ticks
        let fine = NetOptions::derived(Duration::from_micros(100), timing);
        // 32 × 100µs = 3.2ms, floored to 25ms.
        assert_eq!(fine.io_deadline, Duration::from_millis(25));
        let coarse = NetOptions::derived(Duration::from_millis(2), timing);
        // 32 × 2ms = 64ms, above the floor.
        assert_eq!(coarse.io_deadline, Duration::from_millis(64));
        assert_eq!(coarse.cluster().tick, Duration::from_millis(2));
        assert!(coarse.wall_timeout > fine.wall_timeout);
    }
}
