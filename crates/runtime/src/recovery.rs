//! The channel substrate: std `mpsc` channels as links, one delayer
//! thread for held messages, and crash–recovery from persisted state.
//!
//! The paper's faults are fail-stop — a crashed processor never takes
//! another step — but Theorem 11 deliberately leaves the door open:
//! with more than `t` crashes the protocol never decides wrongly, it
//! merely stalls, *"leaving the opportunity to recover"*.
//! [`run_cluster`] walks through that door. Each processor's
//! [`Recoverable`] snapshot plays the role of stable storage: at the
//! scripted crash the dying thread persists its snapshot, and a
//! scripted [`RestartAt`](crate::RestartAt), `at` ticks into the run,
//! respawns the thread from it (or, for an amnesiac restart, from the
//! processor's initial snapshot, in which case the automaton rejoins as
//! a non-participating observer — see
//! [`Recoverable::restore_amnesiac`]).
//!
//! Two properties make the restart sound:
//!
//! * **Inboxes survive crashes.** A node's successive incarnations
//!   share one channel receiver; the restarted thread inherits every
//!   message queued while the processor was down, preserving the
//!   model's eventual-delivery guarantee across the fault.
//! * **Snapshots are crash-consistent.** The snapshot is taken at the
//!   crash itself, before the step's messages are sent, so a restored
//!   automaton can never contradict anything already on the wire — it
//!   resumes deterministically and re-broadcasts its current protocol
//!   position once (receivers deduplicate by sender).
//!
//! Network faults live in [`ChannelLinks`]: every message of a step's
//! outbox goes through the run's [`FaultRouter`], straight to the
//! receiver's inbox or, when held, through the router's delayer — the
//! same router and delayer the socket substrate's readers use. Nothing
//! waits for the tick's flush, and teardown waits for no poll: once the
//! links are dropped, finishing the router disconnects the delayer.

use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::{Outbox, ProcessorId, Recoverable, SeedCollection};

use crate::cluster::{ClusterCore, ClusterOptions, ClusterReport, Envelope, Inbound, Links};
use crate::fault::{FaultPlan, FaultRouter};

/// The channel substrate's [`Links`]: in-memory envelopes, the fault
/// plan's network faults applied at the sender.
pub(crate) struct ChannelLinks<M> {
    inbox_tx: Vec<Sender<Inbound<M>>>,
    router: Arc<FaultRouter<M>>,
    /// One fault-dice stream per sender; only node `i` locks `rngs[i]`.
    rngs: Vec<Mutex<SmallRng>>,
}

impl<M: Clone + Send + 'static> Links<M> for ChannelLinks<M> {
    fn send(&self, step: Envelope<&Outbox<M>>, n: usize) {
        let from = step.from;
        let at = self.router.elapsed();
        let mut rng = self.rngs[from.index()]
            .lock()
            .expect("no node panics holding its fault dice");
        for (to, msg) in step.msg.sends(from, n) {
            // An envelope owns its message, so this is where a
            // broadcast becomes one message per destination.
            let env = Envelope {
                from,
                instance: step.instance,
                sent_at_tick: step.sent_at_tick,
                sent_event: step.sent_event,
                msg: msg.clone(),
            };
            // Channels have no connection to reset; that die is inert here.
            if let (Some(env), _reset) = self.router.route(env, to, at, &mut rng) {
                // A send can fail only during teardown.
                let _ = self.inbox_tx[to.index()].send(Inbound::Msgs(vec![env]));
            }
        }
    }

    /// Every message moved when it was filed.
    fn flush(&self, _from: ProcessorId) {}
}

/// Sender `i`'s fault-dice stream in a channel cluster seeded with
/// `seeds`: the `k`-th envelope node `i` routes rolls the `k`-th dice.
pub(crate) fn fault_dice(seeds: SeedCollection, i: usize) -> SmallRng {
    SmallRng::seed_from_u64(seeds.master() ^ (0xC0FFEE + i as u64))
}

/// A booted channel cluster: the core plus the router to finish at the
/// end.
pub(crate) struct ChannelCluster<A: Recoverable> {
    pub(crate) core: ClusterCore<A, ChannelLinks<A::Msg>>,
    router: Arc<FaultRouter<A::Msg>>,
}

impl<A> ChannelCluster<A>
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
{
    /// Builds the channels and the router, and spawns the first
    /// incarnation of every node.
    pub(crate) fn boot(
        procs: Vec<A>,
        seeds: SeedCollection,
        faults: &FaultPlan,
        opts: &ClusterOptions,
    ) -> ChannelCluster<A> {
        let n = procs.len();
        let inboxes: Vec<_> = (0..n).map(|_| channel()).collect();
        let inbox_tx: Vec<_> = inboxes.iter().map(|(tx, _)| tx.clone()).collect();
        let done = Arc::new(AtomicBool::new(false));
        let router = Arc::new(FaultRouter::new(
            faults.clone(),
            opts.tick,
            inbox_tx.clone(),
            Arc::clone(&done),
        ));
        let links = ChannelLinks {
            inbox_tx,
            router: Arc::clone(&router),
            rngs: (0..n).map(|i| Mutex::new(fault_dice(seeds, i))).collect(),
        };
        let core = ClusterCore::boot(vec![procs], vec![seeds], faults, opts, done, inboxes, links);
        ChannelCluster { core, router }
    }

    /// Stops every thread and assembles the report.
    pub(crate) fn finish(self, recovered: Vec<bool>, decided_in_time: bool) -> ClusterReport {
        let router = self.router;
        let teardown = || {
            let router = Arc::into_inner(router).expect("the links are dropped");
            router.finish()
        };
        self.core
            .finish(recovered, decided_in_time, teardown)
            .pop()
            .expect("a channel cluster runs one instance")
    }
}

/// Runs a population of [`Recoverable`] automata on threads, with
/// std `mpsc` channels as links, honouring the fault plan's scripted
/// crashes *and restarts*, until every owed decision is in or the caps
/// are hit.
///
/// * At its scripted crash step a node persists its snapshot and its
///   thread exits without sending that step's messages.
/// * A scripted [`RestartAt`](crate::RestartAt) respawns the victim's
///   thread once it is actually down and `tick × at` of wall clock has
///   passed (whichever is later) — from the crash snapshot when
///   `from_snapshot` is set, otherwise amnesiac from the initial
///   snapshot. A plan without restarts is the paper's fail-stop model.
/// * The run ends when every processor that is not *currently* down has
///   decided and no restart is still pending, or at `wall_timeout`.
/// * In the report, `crashed` records crashes that actually fired and
///   `recovered` the restarts that did; a crashed-then-recovered
///   processor owes a decision like everyone else
///   ([`ClusterReport::all_nonfaulty_decided`]).
///
/// Degraded plans (more than `t` crashes) are exactly the Theorem 11
/// experiment: the cluster must stall *without* a wrong answer, then
/// terminate after enough restarts. See
/// [`FaultPlan::validate`](crate::FaultPlan::validate).
///
/// # Example
///
/// ```
/// use rtc_core::{commit_population, CommitConfig};
/// use rtc_model::{Decision, SeedCollection, TimingParams, Value};
/// use rtc_runtime::{run_cluster, ClusterOptions, FaultPlan};
///
/// let cfg = CommitConfig::new(3, 1, TimingParams::default())?;
/// let report = run_cluster(
///     commit_population(cfg, &[Value::One; 3]),
///     SeedCollection::new(7),
///     FaultPlan::none(),
///     ClusterOptions::default(),
/// );
/// assert!(report.all_nonfaulty_decided());
/// assert!(report.statuses.iter().all(|s| s.decision() == Some(Decision::Commit)));
/// # Ok::<(), rtc_model::ModelError>(())
/// ```
pub fn run_cluster<A>(
    procs: Vec<A>,
    seeds: SeedCollection,
    faults: FaultPlan,
    opts: ClusterOptions,
) -> ClusterReport
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
{
    let mut cluster = ChannelCluster::boot(procs, seeds, &faults, &opts);
    let (recovered, decided_in_time) = cluster
        .core
        .run_scripted(faults.restarts, opts.wall_timeout);
    cluster.finish(recovered, decided_in_time)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{TimingParams, Value};

    use super::*;

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
    fn faultfree_plans_recover_nobody() {
        let c = cfg(3);
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(41),
            FaultPlan::none(),
            opts(),
        );
        assert!(report.decided_in_time, "{report:?}");
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
        assert_eq!(report.recovered, vec![false; 3]);
    }

    #[test]
    fn tolerated_crash_with_snapshot_restart_rejoins_and_decides() {
        let c = cfg(5); // t = 2
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(3), 6)
            .with_restart(ProcessorId::new(3), 100, true);
        plan.validate(5, c.fault_bound()).unwrap();
        let report = run_cluster(
            commit_population(c, &[Value::One; 5]),
            SeedCollection::new(42),
            plan,
            opts(),
        );
        assert!(report.decided_in_time, "{report:?}");
        assert!(report.crashed[3] && report.recovered[3]);
        // The restarted processor owes — and reaches — a decision.
        assert!(report.statuses[3].is_decided(), "{report:?}");
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
    }

    #[test]
    fn amnesiac_restart_catches_up_as_observer() {
        let c = cfg(3); // t = 1
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(2), 4)
            .with_restart(ProcessorId::new(2), 100, false);
        plan.validate(3, c.fault_bound()).unwrap();
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(43),
            plan,
            opts(),
        );
        assert!(report.decided_in_time, "{report:?}");
        // The observer adopts the decision the others reached.
        assert!(report.statuses[2].is_decided(), "{report:?}");
        assert!(report.agreement_holds());
    }

    #[test]
    fn restart_of_a_victim_that_decided_before_its_crash_is_awaited() {
        // p2 decides long before step 150; the pending restart keeps
        // the run open until the crash fires. The amnesiac successor
        // starts undecided, and the run must wait for *it*: a respawn
        // that marked the node up while the dead incarnation's
        // `Decided` was still published would end the run at once.
        let c = cfg(3);
        let plan = FaultPlan::none()
            .with_crash(ProcessorId::new(2), 150)
            .with_restart(ProcessorId::new(2), 66, false);
        plan.validate(3, c.fault_bound()).unwrap();
        let report = run_cluster(
            commit_population(c, &[Value::One; 3]),
            SeedCollection::new(45),
            plan,
            opts(),
        );
        assert!(report.decided_in_time, "{report:?}");
        assert!(report.crashed[2] && report.recovered[2], "{report:?}");
        assert!(report.statuses[2].is_decided(), "{report:?}");
        assert!(report.steps[2] > 150, "{report:?}");
    }

    #[test]
    fn degraded_crashes_stall_without_wrong_answer_then_recover() {
        // Theorem 11, end to end on real threads: crash t+1 processors
        // (more than the bound), observe a graceful stall — nobody
        // decides anything, let alone anything wrong — then restart the
        // crashed pair from their snapshots and watch the protocol
        // terminate.
        //
        // Crashing at step 0 (before a single send) makes the stall
        // deterministic: the survivor's GO quorum times out, its abort
        // vote feeds Protocol 1 input 0, and the `n - t = 2` First
        // quorum can never assemble with one processor alive. Early
        // abort is disabled so the survivor cannot short-circuit to a
        // lone abort decision.
        const N: usize = 3;
        let c = cfg(N).with_early_abort(false); // t = 1; crashing 2 exceeds it
        let stall_plan = FaultPlan::none()
            .with_crash(ProcessorId::new(1), 0)
            .with_crash(ProcessorId::new(2), 0)
            .degraded();
        stall_plan.validate(N, c.fault_bound()).unwrap();
        let mut stall_opts = opts();
        stall_opts.wall_timeout = Duration::from_millis(400);
        let stalled = run_cluster(
            commit_population(c, &[Value::One; N]),
            SeedCollection::new(44),
            stall_plan.clone(),
            stall_opts,
        );
        // Graceful degradation: the run times out rather than deciding,
        // and the survivor holds no decision at all.
        assert!(!stalled.decided_in_time, "{stalled:?}");
        assert!(!stalled.statuses[0].is_decided(), "{stalled:?}");
        assert!(stalled.agreement_holds());

        // Same schedule, plus restarts: termination is recovered.
        let recover_plan = stall_plan
            .with_restart(ProcessorId::new(1), 200, true)
            .with_restart(ProcessorId::new(2), 300, true);
        recover_plan.validate(N, c.fault_bound()).unwrap();
        let report = run_cluster(
            commit_population(c, &[Value::One; N]),
            SeedCollection::new(44),
            recover_plan,
            opts(),
        );
        assert!(report.decided_in_time, "{report:?}");
        assert_eq!(report.crashed, vec![false, true, true]);
        assert_eq!(report.recovered, vec![false, true, true]);
        assert!(report.all_nonfaulty_decided());
        assert!(report.agreement_holds());
    }
}
