//! The flagship end-to-end scenario: Theorem 11 on both substrates.
//!
//! The paper's Theorem 11 proves the protocol *cannot* be forced into
//! a wrong answer by crashing more than `t` processors — it simply
//! stops, "leaving the opportunity to recover". This module turns that
//! sentence into an executable claim, in four acts:
//!
//! 1. crash `t + 1` processors at their first step on the simulator:
//!    the run must stall with no decision and no safety violation;
//! 2. the same on the threaded runtime;
//! 3. restart every victim from its crash-time snapshot on the
//!    simulator: the run must now terminate, still safely;
//! 4. the same on the threaded runtime.

use rtc_runtime::ClusterOptions;

use crate::outcome::{ChaosOutcome, ChaosReport};
use crate::runtime_driver::run_on_runtime;
use crate::schedule::ChaosSchedule;
use crate::sim_driver::{run_on_sim, SIM_EVENT_CAP};

/// The four outcomes of the flagship scenario.
#[derive(Clone, Debug)]
pub struct Theorem11Evidence {
    /// Crash `t + 1`, no restarts, simulator.
    pub stall_sim: ChaosReport,
    /// Crash `t + 1`, no restarts, threaded runtime.
    pub stall_runtime: ChaosReport,
    /// Crash `t + 1`, restart all from snapshot, simulator.
    pub recover_sim: ChaosReport,
    /// Crash `t + 1`, restart all from snapshot, threaded runtime.
    pub recover_runtime: ChaosReport,
}

impl Theorem11Evidence {
    /// Whether every act played out as Theorem 11 demands: graceful
    /// stalls without restarts, safe termination with them.
    pub fn holds(&self) -> bool {
        self.stall_sim.outcome == ChaosOutcome::StalledGracefully
            && self.stall_runtime.outcome == ChaosOutcome::StalledGracefully
            && self.recover_sim.outcome == ChaosOutcome::Decided
            && self.recover_runtime.outcome == ChaosOutcome::Decided
    }
}

/// Runs the flagship scenario for a population of `n` with the given
/// seed. Each simulator act runs under the chaos event cap of 400 000
/// events; `cluster` paces the runtime acts (its
/// `wall_timeout`/`max_steps` bound the stall act, so keep them small).
pub fn run_theorem11(n: usize, seed: u64, cluster: ClusterOptions) -> Theorem11Evidence {
    let stall = ChaosSchedule::theorem11(n, seed, false);
    let recover = ChaosSchedule::theorem11(n, seed, true);
    Theorem11Evidence {
        stall_sim: run_on_sim(&stall, SIM_EVENT_CAP),
        stall_runtime: run_on_runtime(&stall, cluster).0,
        recover_sim: run_on_sim(&recover, SIM_EVENT_CAP),
        recover_runtime: run_on_runtime(&recover, cluster).0,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn theorem11_holds_end_to_end_on_both_substrates() {
        let cluster = ClusterOptions {
            tick: Duration::from_millis(1),
            max_steps: 300,
            wall_timeout: Duration::from_millis(1500),
            ..ClusterOptions::default()
        };
        let evidence = run_theorem11(3, 1986, cluster);
        assert!(
            evidence.holds(),
            "stall sim: {}, stall runtime: {}, recover sim: {}, recover runtime: {}",
            evidence.stall_sim.outcome,
            evidence.stall_runtime.outcome,
            evidence.recover_sim.outcome,
            evidence.recover_runtime.outcome,
        );
        // The stalls must be *graceful*: undecided, but agreement intact.
        assert!(evidence.stall_sim.verdict.agreement.ok());
        assert!(evidence.stall_runtime.verdict.agreement.ok());
        assert!(!evidence.stall_sim.verdict.deciding);
    }
}
