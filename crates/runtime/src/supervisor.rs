//! Self-healing cluster supervision.
//!
//! [`run_cluster`](crate::run_cluster) replays a
//! *scripted* recovery plan: every restart is listed in the
//! [`FaultPlan`](crate::FaultPlan) ahead of time. This module supplies the
//! reactive counterpart: a supervisor that *watches* node health and
//! restarts whatever crashes, with exponential backoff and seeded jitter,
//! giving up on a node after a bounded number of attempts. The run ends
//! with both the usual [`ClusterReport`] and a [`SupervisorReport`]
//! describing what the supervisor saw and did.
//!
//! Crashes themselves still come from the fault plan (scheduled crash
//! steps); what is no longer scripted is the *response*. This mirrors how
//! a deployment supervisor (systemd, a k8s kubelet) relates to the chaos
//! that hits it.
//!
//! The supervision loop is substrate-neutral: [`supervise`] drives a
//! [`ClusterCore`] over any [`Links`] — the channel cluster here, the
//! socket cluster in `rtc-net`. One loop, one backoff policy, one
//! health classification, regardless of what the links are made of.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rtc_model::{Recoverable, SeedCollection};

use crate::cluster::{ClusterCore, ClusterOptions, ClusterReport, Links};
use crate::fault::FaultPlan;
use crate::recovery::{boot_channels, finish_channels};

/// Tunables for the self-healing supervisor.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorPolicy {
    /// Delay before the first restart attempt of a node.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Restart attempts per node before it is declared permanently
    /// failed. `0` means the supervisor only observes.
    pub max_retries: u32,
    /// Jitter added to each backoff, as permille of the backoff (a value
    /// of `250` adds up to +25%). Drawn from a seeded RNG so supervised
    /// runs are reproducible given the same thread interleavings.
    pub jitter_permille: u32,
    /// Restart nodes from their crash snapshot (`true`) or amnesiac from
    /// the initial state (`false`).
    pub from_snapshot: bool,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(64),
            max_retries: 5,
            jitter_permille: 250,
            from_snapshot: true,
            seed: 0x5E1F_4EA1,
        }
    }
}

impl SupervisorPolicy {
    /// The delay before restart attempt number `attempt` (0-based):
    /// `min(base_backoff * 2^attempt, max_backoff)` plus seeded jitter
    /// of up to `jitter_permille`/1000 of the backoff. The same formula
    /// paces peer reconnects in the socket substrate, so one knob set
    /// governs both recovery paths.
    pub fn backoff(&self, attempt: u32, rng: &mut SmallRng) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(20));
        let backoff = exp.min(self.max_backoff);
        let jitter = if self.jitter_permille == 0 {
            Duration::ZERO
        } else {
            backoff.mul_f64(f64::from(rng.gen_range(0..=self.jitter_permille)) / 1000.0)
        };
        backoff + jitter
    }
}

/// Cluster health as the supervisor classifies it, against the fault
/// tolerance `t` the protocol was instantiated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterHealth {
    /// Every node is up.
    Healthy,
    /// Some nodes are down, but no more than `t`.
    Degraded {
        /// How many more simultaneous failures the run can absorb
        /// (`t` minus the number of nodes currently down).
        quorum_margin: usize,
    },
    /// More than `t` nodes are down at once; progress is not guaranteed
    /// until restarts bring the cluster back within tolerance.
    Stalled,
}

impl ClusterHealth {
    /// Classifies a population where `down[i]` marks nodes currently
    /// crashed and `permanent[i]` nodes given up on, against fault
    /// bound `t`.
    pub fn classify(down: &[bool], permanent: &[bool], t: usize) -> ClusterHealth {
        let down_count = down
            .iter()
            .zip(permanent)
            .filter(|(d, p)| **d || **p)
            .count();
        if down_count == 0 {
            ClusterHealth::Healthy
        } else if down_count <= t {
            ClusterHealth::Degraded {
                quorum_margin: t - down_count,
            }
        } else {
            ClusterHealth::Stalled
        }
    }
}

/// What the supervisor observed and did over the run.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Restart attempts issued per processor.
    pub restarts: Vec<u32>,
    /// Processors that exhausted their retry budget.
    pub permanent_failures: Vec<bool>,
    /// Every health transition, as (elapsed, health) pairs. The first
    /// entry is always `Healthy` at zero elapsed.
    pub health_log: Vec<(Duration, ClusterHealth)>,
    /// Health at the end of the run.
    pub final_health: ClusterHealth,
}

impl SupervisorReport {
    /// Total restart attempts across all processors.
    pub fn total_restarts(&self) -> u32 {
        self.restarts.iter().sum()
    }

    /// Whether the supervisor ever classified the cluster as stalled.
    pub fn ever_stalled(&self) -> bool {
        self.health_log
            .iter()
            .any(|(_, h)| matches!(h, ClusterHealth::Stalled))
    }
}

/// Drives a booted cluster until every owed decision is in or
/// `wall_timeout` passes: observe crashes, schedule restarts under the
/// policy's backoff, mark nodes permanent after `max_retries`, log every
/// health transition against `t`.
///
/// Returns the supervisor's report, which nodes were ever respawned,
/// and whether the loop ended by decision (vs timeout). Polls once per
/// tick of `core`.
pub fn supervise<A, L>(
    core: &mut ClusterCore<A, L>,
    t: usize,
    policy: SupervisorPolicy,
    wall_timeout: Duration,
) -> (SupervisorReport, Vec<bool>, bool)
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
    L: Links<A::Msg>,
{
    let n = core.population();
    let mut rng = SmallRng::seed_from_u64(policy.seed);
    let mut attempts = vec![0u32; n];
    let mut permanent = vec![false; n];
    // Restart due-times for nodes the supervisor has seen down.
    let mut due: Vec<Option<Duration>> = vec![None; n];
    let mut recovered = vec![false; n];
    let mut health_log = vec![(Duration::ZERO, ClusterHealth::Healthy)];
    let mut decided_in_time = false;

    while core.elapsed() < wall_timeout {
        let now = core.elapsed();
        let down_now = core.down();
        for idx in 0..n {
            if permanent[idx] || !down_now[idx] {
                // A node that came back on its own (or was never down)
                // has no pending restart.
                if !down_now[idx] {
                    due[idx] = None;
                }
                continue;
            }
            match due[idx] {
                None => {
                    // Newly observed crash: schedule a restart.
                    if attempts[idx] >= policy.max_retries {
                        permanent[idx] = true;
                        continue;
                    }
                    due[idx] = Some(now + policy.backoff(attempts[idx], &mut rng));
                }
                Some(at) if now >= at => {
                    attempts[idx] += 1;
                    recovered[idx] = true;
                    due[idx] = None;
                    core.respawn(idx, policy.from_snapshot);
                }
                Some(_) => {}
            }
        }

        let health = ClusterHealth::classify(&down_now, &permanent, t);
        if health_log.last().map(|(_, h)| *h) != Some(health) {
            health_log.push((now, health));
        }

        // Permanently failed nodes owe nothing. Everyone else must be
        // up (no crash awaiting its backoff) and hold a decision.
        if core.all_up_and_decided(&permanent) {
            decided_in_time = true;
            break;
        }
        std::thread::sleep(core.tick());
    }

    let final_health = ClusterHealth::classify(&core.down(), &permanent, t);
    (
        SupervisorReport {
            restarts: attempts,
            permanent_failures: permanent,
            health_log,
            final_health,
        },
        recovered,
        decided_in_time,
    )
}

/// Runs a cluster of [`Recoverable`] automata under a self-healing
/// supervisor.
///
/// Crashes come from `faults` (scheduled crash steps, hostile network
/// settings); any `restarts` in the plan are ignored — the supervisor
/// owns recovery. `t` is the fault tolerance bound used to classify
/// health. Nodes that crash are restarted after
/// `min(base_backoff * 2^attempt, max_backoff)` plus seeded jitter; a
/// node that exhausts `max_retries` is marked permanently failed and the
/// run no longer waits on it for a decision.
pub fn run_cluster_supervised<A>(
    procs: Vec<A>,
    seeds: SeedCollection,
    faults: FaultPlan,
    opts: ClusterOptions,
    t: usize,
    policy: SupervisorPolicy,
) -> (ClusterReport, SupervisorReport)
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
{
    let mut core = boot_channels(procs, seeds, &faults, &opts);
    let (sup, recovered, decided_in_time) = supervise(&mut core, t, policy, opts.wall_timeout);
    (finish_channels(core, recovered, decided_in_time), sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{ProcessorId, TimingParams, Value};

    fn cfg(n: usize) -> CommitConfig {
        CommitConfig::new(n, CommitConfig::max_tolerated(n), TimingParams::default()).unwrap()
    }

    fn opts() -> ClusterOptions {
        ClusterOptions {
            tick: Duration::from_micros(300),
            max_steps: 200_000,
            wall_timeout: Duration::from_secs(30),
            ..ClusterOptions::default()
        }
    }

    #[test]
    fn supervisor_restarts_a_crashed_node_and_the_cluster_decides() {
        let c = cfg(5); // t = 2
        let faults = FaultPlan::none().with_crash(ProcessorId::new(2), 3);
        let (report, sup) = run_cluster_supervised(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(71),
            faults,
            opts(),
            c.fault_bound(),
            SupervisorPolicy::default(),
        );
        assert!(report.decided_in_time, "{report:?}\n{sup:?}");
        assert!(report.statuses[2].is_decided(), "{report:?}");
        assert!(report.agreement_holds());
        assert!(sup.restarts[2] >= 1, "victim should have been restarted");
        assert!(!sup.permanent_failures.iter().any(|p| *p));
        assert_eq!(sup.final_health, ClusterHealth::Healthy);
        assert!(sup.health_log.len() >= 2, "crash must show up in the log");
    }

    #[test]
    fn amnesiac_respawn_of_a_decided_victim_is_awaited() {
        // p1 dies before its first step and stays down for the whole
        // backoff, which keeps the run open while p0 and p2 decide
        // without it and p2 then crashes, decided, at step 100. p2's
        // amnesiac successor starts undecided, and the run must wait
        // for it rather than read the dead incarnation's status.
        let c = cfg(3);
        let backoff = Duration::from_millis(300);
        let (report, sup) = run_cluster_supervised(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(73),
            FaultPlan::none()
                .with_crash(ProcessorId::new(1), 0)
                .with_crash(ProcessorId::new(2), 100)
                .degraded(),
            opts(),
            c.fault_bound(),
            SupervisorPolicy {
                base_backoff: backoff,
                max_backoff: backoff,
                jitter_permille: 0,
                from_snapshot: false,
                ..SupervisorPolicy::default()
            },
        );
        assert!(report.decided_in_time, "{report:?}\n{sup:?}");
        assert!(report.crashed[2] && report.recovered[2], "{report:?}");
        assert!(report.statuses[2].is_decided(), "{report:?}");
        assert!(report.steps[2] > 100, "{report:?}");
        assert!(report.agreement_holds());
    }

    #[test]
    fn exhausted_retries_mark_a_node_permanently_failed() {
        let c = cfg(5); // t = 2
                        // Crash immediately and forbid retries entirely.
        let faults = FaultPlan::none().with_crash(ProcessorId::new(1), 0);
        let policy = SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        };
        let (report, sup) = run_cluster_supervised(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(72),
            faults,
            opts(),
            c.fault_bound(),
            policy,
        );
        assert!(sup.permanent_failures[1], "retry budget of 0 => permanent");
        assert_eq!(sup.restarts[1], 0);
        assert!(report.decided_in_time, "{report:?}\n{sup:?}");
        // The survivors still decide consistently without the dead node.
        assert!(report.agreement_holds());
        assert_eq!(
            sup.final_health,
            ClusterHealth::Degraded { quorum_margin: 1 }
        );
    }

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let policy = SupervisorPolicy {
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
            jitter_permille: 0,
            ..SupervisorPolicy::default()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let grown: Vec<Duration> = (0..4).map(|a| policy.backoff(a, &mut rng)).collect();
        assert_eq!(
            grown,
            vec![
                Duration::from_millis(2),
                Duration::from_millis(4),
                Duration::from_millis(8),
                Duration::from_millis(10),
            ]
        );
        // With jitter, the delay stays within [backoff, backoff * 1.25].
        let jittery = SupervisorPolicy {
            jitter_permille: 250,
            ..policy
        };
        for attempt in 0..4 {
            let base = policy.backoff(attempt, &mut rng);
            let d = jittery.backoff(attempt, &mut rng);
            assert!(d >= base && d <= base.mul_f64(1.25), "{d:?} vs {base:?}");
        }
    }

    #[test]
    fn health_classification_tracks_t() {
        assert_eq!(
            ClusterHealth::classify(&[false; 4], &[false; 4], 1),
            ClusterHealth::Healthy
        );
        assert_eq!(
            ClusterHealth::classify(&[true, false, false, false], &[false; 4], 2),
            ClusterHealth::Degraded { quorum_margin: 1 }
        );
        assert_eq!(
            ClusterHealth::classify(&[true, true, false, false], &[false; 4], 1),
            ClusterHealth::Stalled
        );
        // Permanent failures count against health too.
        assert_eq!(
            ClusterHealth::classify(&[false; 3], &[true, false, false], 1),
            ClusterHealth::Degraded { quorum_margin: 0 }
        );
    }
}
