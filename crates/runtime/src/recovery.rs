//! The channel substrate: std `mpsc` channels as links, held messages
//! in their receiver's own queue, and crash–recovery from persisted
//! state.
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
//!   share one channel receiver and one hold queue; the restarted
//!   thread inherits every message queued or held while the processor
//!   was down, preserving the model's eventual-delivery guarantee
//!   across the fault.
//! * **Snapshots are crash-consistent.** The snapshot is taken at the
//!   crash itself, before the step's messages are sent, so a restored
//!   automaton can never contradict anything already on the wire — it
//!   resumes deterministically and re-broadcasts its current protocol
//!   position once (receivers deduplicate by sender).
//!
//! Network faults live in [`ChannelLinks`]: every message of a step's
//! outbox goes through the run's [`FaultRouter`] at the sender and into
//! the receiver's inbox with the instant it is due. The receiver drains
//! its inbox at its tick and keeps what is not yet due in its own hold
//! queue, the one the socket substrate's nodes use, so a run spawns no
//! thread but its nodes and teardown waits for nothing.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rtc_model::{Outbox, ProcessorId, Recoverable, SeedCollection};

use crate::cluster::{ClusterCore, ClusterOptions, ClusterReport, Envelope, Links};
use crate::fault::{FaultPlan, FaultRouter};

/// An envelope on its way to a node, and the instant it is due.
type Posted<M> = (Instant, Envelope<M>);

/// The channel substrate's [`Links`]: in-memory envelopes, the fault
/// plan's network faults applied at the sender.
pub(crate) struct ChannelLinks<M> {
    inbox_tx: Vec<Sender<Posted<M>>>,
    router: FaultRouter,
}

/// Node `i`'s end of the channel links: its inbox, and the fault dice
/// it rolls for what it sends.
pub(crate) struct ChannelEnd<M> {
    inbox: Receiver<Posted<M>>,
    dice: SmallRng,
}

impl<M: Clone + Send + 'static> Links<M> for ChannelLinks<M> {
    type End = ChannelEnd<M>;

    fn receive(
        &self,
        end: &mut ChannelEnd<M>,
        _to: ProcessorId,
        _now: Instant,
        mut land: impl FnMut(Instant, Envelope<M>),
    ) {
        for (due, env) in end.inbox.try_iter() {
            land(due, env);
        }
    }

    fn send(&self, end: &mut ChannelEnd<M>, step: Envelope<&Outbox<M>>, n: usize) {
        let from = step.from;
        let now = Instant::now();
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
            let inbox = &self.inbox_tx[to.index()];
            // Channels have no connection to reset; that die is inert
            // here. A send can fail only during teardown.
            let _reset = self.router.route(env, to, now, &mut end.dice, |due, env| {
                let _ = inbox.send((due, env));
            });
        }
    }

    /// Every message moved when it was filed.
    fn flush(&self, _end: &mut ChannelEnd<M>, _from: ProcessorId) {}
}

/// Sender `i`'s fault-dice stream in a channel cluster seeded with
/// `seeds`: the `k`-th envelope node `i` routes rolls the `k`-th dice.
pub(crate) fn fault_dice(seeds: SeedCollection, i: usize) -> SmallRng {
    SmallRng::seed_from_u64(seeds.master() ^ (0xC0FFEE + i as u64))
}

/// Builds the channels and the router, and spawns the first
/// incarnation of every node.
pub(crate) fn boot_channels<A>(
    procs: Vec<A>,
    seeds: SeedCollection,
    faults: &FaultPlan,
    opts: &ClusterOptions,
) -> ClusterCore<A, ChannelLinks<A::Msg>>
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
{
    let (inbox_tx, ends) = (0..procs.len())
        .map(|i| {
            let (tx, inbox) = channel();
            let dice = fault_dice(seeds, i);
            (tx, ChannelEnd { inbox, dice })
        })
        .unzip();
    let links = ChannelLinks {
        inbox_tx,
        router: FaultRouter::new(faults.clone(), opts.tick),
    };
    ClusterCore::boot(vec![procs], vec![seeds], faults, opts, links, ends)
}

/// Stops every thread of a channel cluster and assembles its report.
/// Envelopes still in an inbox whose hold outlived the run count as
/// undelivered, as those in a node's hold queue do.
pub(crate) fn finish_channels<A>(
    core: ClusterCore<A, ChannelLinks<A::Msg>>,
    recovered: Vec<bool>,
    decided_in_time: bool,
) -> ClusterReport
where
    A: Recoverable + Send + 'static,
    A::Msg: Send + 'static,
{
    let teardown = |_links, ends: Vec<ChannelEnd<A::Msg>>| {
        let now = Instant::now();
        let held = ends.iter().flat_map(|e| e.inbox.try_iter());
        held.filter(|(due, _)| *due > now).count() as u64
    };
    core.finish(recovered, decided_in_time, teardown)
        .pop()
        .expect("a channel cluster runs one instance")
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
    let mut core = boot_channels(procs, seeds, &faults, &opts);
    let (recovered, decided_in_time) = core.run_scripted(faults.restarts, opts.wall_timeout);
    finish_channels(core, recovered, decided_in_time)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use rtc_core::{commit_population, CommitConfig};
    use rtc_model::{TimingParams, Value};

    use super::*;
    use std::sync::{Arc, Mutex};

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

    /// Node 0 sends node 1 its step count at every step; node 1 logs,
    /// at each of its own steps, every count it heard. The log is
    /// shared, so a successor restored from a snapshot logs into it
    /// too.
    #[derive(Clone, Debug)]
    struct Tally {
        id: ProcessorId,
        steps: u64,
        heard: Arc<Mutex<Vec<(u64, u64)>>>,
    }

    impl rtc_model::Automaton for Tally {
        type Msg = u64;

        fn id(&self) -> ProcessorId {
            self.id
        }

        fn population(&self) -> usize {
            2
        }

        fn step_into<'a>(
            &mut self,
            inbox: impl Iterator<Item = (ProcessorId, &'a u64)>,
            _rng: &mut rtc_model::StepRng,
            out: &mut Outbox<u64>,
        ) {
            let mut heard = self.heard.lock().unwrap();
            heard.extend(inbox.map(|(_, count)| (self.steps, *count)));
            if self.id == ProcessorId::COORDINATOR {
                out.send(ProcessorId::new(1), self.steps);
            }
            self.steps += 1;
        }

        fn status(&self) -> rtc_model::Status {
            rtc_model::Status::Undecided
        }
    }

    impl Recoverable for Tally {
        type Snapshot = Tally;

        fn snapshot(&self) -> Tally {
            self.clone()
        }

        fn restore(snapshot: &Tally) -> Tally {
            snapshot.clone()
        }
    }

    #[test]
    fn a_held_envelope_reaches_the_crashed_receivers_successor_over_channels() {
        // The p0–p1 link is cut for the first 20 ticks (40 ms), so every
        // count p0 sends in it is held until the heal. p1 crashes at its
        // step 3 (about 7 ms in), holding the first counts in its queue
        // and with the rest on their way, and its snapshot successor
        // starts at tick 35 (70 ms), after the heal. Every count arrives
        // exactly once and in order, none sent inside the window before
        // the successor, and each is a classified delivery; the run
        // spawns only its two node threads and the successor's.
        const CRASH: u64 = 3;
        let heard = Arc::new(Mutex::new(Vec::new()));
        let population = (0..2)
            .map(|i| Tally {
                id: ProcessorId::new(i),
                steps: 0,
                heard: Arc::clone(&heard),
            })
            .collect();
        let o = ClusterOptions {
            tick: Duration::from_millis(2),
            wall_timeout: Duration::from_millis(140),
            ..opts()
        };
        let p = ProcessorId::new;
        let plan = FaultPlan::none()
            .with_link_outage(p(0), p(1), 0, 20)
            .with_crash(p(1), CRASH)
            .with_restart(p(1), 35, true);
        let mut core = boot_channels(population, SeedCollection::new(46), &plan, &o);
        let (recovered, _) = core.run_scripted(plan.restarts, o.wall_timeout);
        assert_eq!(core.threads_spawned(), 3);
        let report = finish_channels(core, recovered, false);
        assert!(report.crashed[1] && report.recovered[1], "{report:?}");
        let heard = heard.lock().unwrap().clone();
        let counts: Vec<u64> = heard.iter().map(|(_, c)| *c).collect();
        assert_eq!(
            counts,
            (0..counts.len() as u64).collect::<Vec<_>>(),
            "{heard:?}"
        );
        assert!(counts.len() > 30, "{heard:?}");
        assert!(
            heard
                .iter()
                .filter(|(_, c)| *c <= 15)
                .all(|(step, _)| *step >= CRASH),
            "a count held by the cut reached the victim before its crash: {heard:?}"
        );
        assert_eq!(report.deliveries, heard.len() as u64, "{report:?}");
    }
}
