//! Executes a [`ChaosSchedule`] on the discrete-event simulator.
//!
//! Crashes and network misbehaviour are realized by a
//! [`ChaosAdversary`]; restarts are realized by running the simulation
//! in segments and calling [`rtc_sim::Sim::revive`] at each restart's
//! due event. A `from_snapshot` restart restores the victim's
//! crash-time state (preserved inside the engine) — sound, because a
//! crashed automaton sent nothing after that state. An amnesiac
//! restart restores the victim's *initial* state via
//! [`rtc_model::Recoverable::restore_amnesiac`], which rejoins it as a
//! non-participating observer that pings peers for the decision.

use rtc_core::properties::verify_commit_run;
use rtc_core::{commit_population, CommitAutomaton, CommitConfig, CommitMsg};
use rtc_model::{ProcessorId, Recoverable, SeedCollection, TimingParams, Value};
use rtc_sim::{
    BatchPool, BatchSimBuilder, LatenessMonitor, RunReport, Sim, SimBuilder, StopWhen, Trace,
};
use rtc_spec::{Conformance, ConformanceError, ReviveKind, RunSpec, SpecConfig};

use crate::adversary::ChaosAdversary;
use crate::outcome::{classify_verdict, ChaosOutcome, ChaosReport, Substrate};
use crate::schedule::{ChaosRestart, ChaosSchedule};

/// Runs `schedule` on the simulator with a hard cap of `max_events`
/// scheduler events, classifying the outcome.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`CommitConfig`] — generated schedules never are.
pub fn run_on_sim(schedule: &ChaosSchedule, max_events: u64) -> ChaosReport {
    run_on_sim_with_decision(schedule, max_events).0
}

/// The protocol configuration a schedule runs under.
fn commit_config(schedule: &ChaosSchedule) -> CommitConfig {
    CommitConfig::new(schedule.n, schedule.t, TimingParams::default())
        .expect("schedule population accepts its fault bound")
        .with_early_abort(schedule.early_abort)
}

/// The engine configuration a schedule runs under.
fn sim_builder(schedule: &ChaosSchedule, cfg: &CommitConfig) -> SimBuilder {
    SimBuilder::new(cfg.timing(), SeedCollection::new(schedule.seed))
        // Degraded schedules intentionally exceed t; give the engine
        // the budget to execute them (admissibility of the *plan* is
        // tracked by `ChaosSchedule::degraded`).
        .fault_budget(schedule.crashes.len().max(schedule.t))
}

/// Mirrors the implementation's [`CommitConfig`] into the spec's
/// vocabulary, for the conformance hook.
fn spec_config(cfg: &CommitConfig) -> SpecConfig {
    SpecConfig {
        n: cfg.population(),
        t: cfg.fault_bound(),
        k: cfg.timing().k(),
        coin_count: cfg.coin_count(),
        piggyback_go: cfg.piggyback_go(),
        early_abort: cfg.early_abort(),
        decision_broadcast: cfg.decision_broadcast(),
    }
}

/// One instance's scripted restarts on their way to being realized:
/// the drivers run the engine in segments that end where the next
/// restart is due and revive the victims between segments.
struct Restarts {
    /// Events in one round-robin rotation of the instance: its `n`.
    rotation: u64,
    /// The restarts not yet realized, each with the event it is due at.
    pending: Vec<(ChaosRestart, u64)>,
    /// The kinds of the realized ones, in realization order — the
    /// linter's per-`Revive` hints, which the trace's `Revive` event
    /// does not carry.
    realized: Vec<ReviveKind>,
}

impl Restarts {
    /// A restart becomes due a fixed number of abstract steps after its
    /// crash trigger; one step is one rotation.
    fn new(schedule: &ChaosSchedule) -> Restarts {
        let rotation = schedule.n as u64;
        let pending = schedule
            .restarts
            .iter()
            .map(|r| {
                let crash_step = schedule.crash_of(r.victim).map(|c| c.at_step).unwrap_or(0);
                (r.clone(), (crash_step + r.delay_steps) * rotation)
            })
            .collect();
        Restarts {
            rotation,
            pending,
            realized: Vec::new(),
        }
    }

    /// The event the next segment runs to: the earliest due restart,
    /// or `cap` if none comes first.
    fn segment_cap(&mut self, cap: u64) -> u64 {
        self.pending.sort_by_key(|(_, due)| *due);
        self.pending
            .first()
            .map_or(cap, |(_, due)| (*due).min(cap))
            .max(1)
    }

    /// Takes the next restart that is due at `event` and whose victim
    /// is down, noting its kind. A due restart whose crash trigger has
    /// not fired yet (the victim's clock lags the abstract-step
    /// estimate) is retried a couple of rotations later, or dropped if
    /// `max_events` arrives first.
    fn take_due(
        &mut self,
        event: u64,
        max_events: u64,
        is_crashed: impl Fn(ProcessorId) -> bool,
    ) -> Option<ChaosRestart> {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1 > event {
                i += 1;
            } else if is_crashed(self.pending[i].0.victim) {
                let (restart, _) = self.pending.remove(i);
                self.realized.push(match restart.from_snapshot {
                    true => ReviveKind::Snapshot,
                    false => ReviveKind::Amnesiac,
                });
                return Some(restart);
            } else {
                self.pending[i].1 = event + 2 * self.rotation;
                if self.pending[i].1 >= max_events {
                    self.pending.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        None
    }
}

/// The automaton `restart` brings its victim back as: `crashed` (the
/// victim's crash-time state, preserved inside the engine) restored
/// from its snapshot, or the victim's initial state as an amnesiac
/// observer.
fn replacement(
    schedule: &ChaosSchedule,
    cfg: CommitConfig,
    restart: &ChaosRestart,
    crashed: &CommitAutomaton,
) -> CommitAutomaton {
    if restart.from_snapshot {
        CommitAutomaton::restore(&crashed.snapshot())
    } else {
        let vote = schedule.votes[restart.victim.index()];
        let fresh = CommitAutomaton::new(cfg, restart.victim, vote);
        CommitAutomaton::restore_amnesiac(&fresh.snapshot())
    }
}

/// A finished schedule-at-a-time chaos run: the simulator (holding the
/// trace), the final report, and the restart kinds in trace `Revive`
/// order.
struct FinishedRun {
    sim: Sim<CommitAutomaton>,
    cfg: CommitConfig,
    report: RunReport,
    revives: Vec<ReviveKind>,
}

/// Executes `schedule` on a [`Sim`] of its own, realizing restarts
/// between run segments, and returns the finished run.
fn execute_on_sim(schedule: &ChaosSchedule, max_events: u64) -> FinishedRun {
    let cfg = commit_config(schedule);
    let mut sim = sim_builder(schedule, &cfg)
        .build(commit_population(cfg, &schedule.votes))
        .expect("population matches config");
    let mut adv = ChaosAdversary::new(schedule);
    let mut restarts = Restarts::new(schedule);
    let report = loop {
        let segment_cap = restarts.segment_cap(max_events);
        // The per-segment report is only built once, after the loop.
        let met = sim
            .run_until(&mut adv, segment_cap, StopWhen::AllNonfaultyDecided)
            .expect("chaos adversary stays within the model");
        if met || segment_cap >= max_events {
            break sim.report(!met, true);
        }
        let event = sim.events_executed();
        while let Some(r) = restarts.take_due(event, max_events, |p| sim.is_crashed(p)) {
            let auto = replacement(schedule, cfg, &r, sim.automaton(r.victim));
            sim.revive(r.victim, auto)
                .expect("victim is crashed at its restart");
        }
    };
    FinishedRun {
        sim,
        cfg,
        report,
        revives: restarts.realized,
    }
}

/// Lints a finished run's trace against the executable spec.
fn lint(
    schedule: &ChaosSchedule,
    cfg: &CommitConfig,
    trace: &Trace,
    revives: &[ReviveKind],
) -> Result<Conformance, ConformanceError> {
    let spec_run = RunSpec::new(
        spec_config(cfg),
        SeedCollection::new(schedule.seed),
        schedule.votes.clone(),
    );
    rtc_spec::lint_trace(&spec_run, trace, revives)
}

/// Executes `schedule` on the simulator and lints the recorded trace
/// against the executable spec ([`rtc_spec::lint_trace`]), returning
/// the conformance summary or the first non-conforming event. The
/// net-soak suite runs one schedule through this before trusting the
/// simulator's decision as the socket substrate's prediction.
///
/// # Errors
///
/// The first non-conforming trace event, as a
/// [`ConformanceError`] — with the schedule, a replayable witness.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`CommitConfig`] — generated schedules never are.
pub fn lint_sim_schedule(
    schedule: &ChaosSchedule,
    max_events: u64,
) -> Result<Conformance, ConformanceError> {
    let run = execute_on_sim(schedule, max_events);
    lint(schedule, &run.cfg, run.sim.trace(), &run.revives)
}

/// Classifies one finished simulator run, however it was driven: the
/// paper's commit conditions over the report and the trace
/// ([`verify_commit_run`]), and — for every run those call safe — the
/// trace linted against the executable spec: a trace the spec's
/// transition relation cannot reproduce is a
/// [`ChaosOutcome::Violation`] even when the classical safety
/// conditions hold. Also returns the value the run decided (`None`
/// when it stalled without any decision).
fn classify(
    schedule: &ChaosSchedule,
    cfg: &CommitConfig,
    report: &RunReport,
    trace: &Trace,
    revives: &[ReviveKind],
    lateness: &LatenessMonitor,
) -> (ChaosReport, Option<Value>) {
    let verdict = verify_commit_run(&schedule.votes, report, trace, cfg.timing());
    let mut outcome = classify_verdict(&verdict);
    if outcome.is_safe() {
        if let Err(e) = lint(schedule, cfg, trace, revives) {
            outcome = ChaosOutcome::Violation(format!("spec conformance: {e}"));
        }
    }
    (
        ChaosReport {
            substrate: Substrate::Sim,
            outcome,
            verdict,
            late_messages: lateness.late_count(),
        },
        report.decided_values().first().copied(),
    )
}

/// Like [`run_on_sim`], but also returns the value the run decided
/// (`None` when the run stalled without any decision). Soak runs use
/// this as the simulator's *prediction* for the same schedule executed
/// over real sockets.
///
/// Every safe run is additionally linted against the executable spec
/// (see `classify`).
pub fn run_on_sim_with_decision(
    schedule: &ChaosSchedule,
    max_events: u64,
) -> (ChaosReport, Option<Value>) {
    let run = execute_on_sim(schedule, max_events);
    classify(
        schedule,
        &run.cfg,
        &run.report,
        run.sim.trace(),
        &run.revives,
        run.sim.lateness(),
    )
}

/// Events an instance may run inside a batch before
/// [`run_batch_on_sim`] reruns it on a [`Sim`] of its own — see the
/// function docs for why.
const SERIAL_CUTOVER_EVENTS: u64 = 2048;

/// Runs a whole group of schedules — all with the same population —
/// as ONE batched simulation over shared scheduler infrastructure,
/// recycling `pool`'s allocations, and returns per-schedule reports
/// plus the spent batch's pool for the next group.
///
/// Semantically this is `schedules.map(run_on_sim_with_decision)`:
/// each instance is byte-identical to its standalone run (the engine
/// steps a lane the same way whatever the batch size), including the
/// restart machinery — per-instance segment caps reproduce exactly the
/// segment boundaries the schedule-at-a-time driver computes, because
/// each lane's boundaries depend only on that lane's own due times and
/// event counter — and every lane is verified and linted by the same
/// `classify`.
///
/// An instance still undecided after `SERIAL_CUTOVER_EVENTS` events is
/// abandoned and rerun from the start by [`run_on_sim_with_decision`]
/// (byte-identical, same engine). The reason is memory, not speed per
/// event, which is the same in a batch and alone: a schedule that
/// grinds to `max_events` records a trace and hoards undeliverable
/// messages in proportion to its 400 000 events, a batch keeps every
/// lane's until the whole batch is classified, and the pool then keeps
/// the capacity; the rerun holds one straggler at a time and frees it.
/// A 2 000-schedule sim-only campaign (73 such schedules, `workers: 1`,
/// 2-core host) peaks at 473 MB and takes 134 000 page faults without
/// the cutover, 77 MB and 36 000 with it, on every run. In time that is
/// whatever the host charges per fault — 0.25 s to 4.5 s of system time
/// across sessions — against the 5 % of user time the abandoned
/// prefixes cost: the cutover won every pair of two sessions (by 14 %
/// and 25 %) and lost seven of ten narrowly in a third (docs/PERF.md
/// "PR 17"). The threshold is far above the deciding population's
/// event counts, so reruns stay rare.
///
/// # Panics
///
/// Panics if the schedules disagree on population (callers group by
/// `n` first) or a schedule's population/fault-bound combination is
/// rejected by [`CommitConfig`].
pub fn run_batch_on_sim(
    schedules: &[&ChaosSchedule],
    max_events: u64,
    pool: BatchPool<CommitMsg>,
) -> (Vec<(ChaosReport, Option<Value>)>, BatchPool<CommitMsg>) {
    let b = schedules.len();
    if b == 0 {
        return (Vec::new(), pool);
    }
    let cutover = SERIAL_CUTOVER_EVENTS
        .max(2 * schedules[0].n as u64)
        .min(max_events);
    let cfgs: Vec<CommitConfig> = schedules.iter().map(|s| commit_config(s)).collect();
    let mut builder = BatchSimBuilder::from_pool(pool);
    for (schedule, cfg) in schedules.iter().zip(&cfgs) {
        builder
            .instance(
                sim_builder(schedule, cfg),
                commit_population(*cfg, &schedule.votes),
            )
            .expect("schedules of one batch group share a population");
    }
    let mut batch = builder.build();
    let mut advs: Vec<ChaosAdversary> = schedules.iter().map(|s| ChaosAdversary::new(s)).collect();
    let mut restarts: Vec<Restarts> = schedules.iter().map(|s| Restarts::new(s)).collect();

    /// How a lane left the batch.
    #[derive(Clone)]
    enum Left {
        Finished(RunReport),
        CutOver,
    }
    let mut left: Vec<Option<Left>> = vec![None; b];
    let mut caps = vec![0u64; b];
    while left.iter().any(Option::is_none) {
        for l in 0..b {
            // A lane's counter is past 0 by the time it leaves, so the
            // segment executes nothing for it.
            caps[l] = match left[l] {
                Some(_) => 0,
                None => restarts[l].segment_cap(cutover),
            };
        }
        let met = batch
            .run_segment(&mut advs, &caps, StopWhen::AllNonfaultyDecided)
            .expect("chaos adversary stays within the model");
        for l in 0..b {
            if left[l].is_some() {
                continue;
            }
            if met[l] || caps[l] >= max_events {
                left[l] = Some(Left::Finished(batch.report(l, !met[l], true)));
                continue;
            }
            let event = batch.events_executed(l);
            if event >= cutover {
                left[l] = Some(Left::CutOver);
                continue;
            }
            while let Some(r) = restarts[l].take_due(event, max_events, |p| batch.is_crashed(l, p))
            {
                let auto = replacement(schedules[l], cfgs[l], &r, batch.automaton(l, r.victim));
                batch
                    .revive(l, r.victim, auto)
                    .expect("victim is crashed at its restart");
            }
        }
    }

    let out = (0..b)
        .map(|l| match left[l].as_ref().expect("every lane left") {
            Left::CutOver => run_on_sim_with_decision(schedules[l], max_events),
            Left::Finished(report) => classify(
                schedules[l],
                &cfgs[l],
                report,
                batch.lane_trace(l),
                &restarts[l].realized,
                batch.lateness(l),
            ),
        })
        .collect();
    (out, batch.into_pool())
}

#[cfg(test)]
mod tests {
    use rtc_model::ProcessorId;
    use rtc_model::Value;

    use super::*;
    use crate::outcome::ChaosOutcome;
    use crate::schedule::{ChaosCrash, ChaosDelay, ScheduleParams};

    fn plain(n: usize, seed: u64) -> ChaosSchedule {
        ChaosSchedule {
            seed,
            n,
            t: CommitConfig::max_tolerated(n),
            votes: vec![Value::One; n],
            early_abort: true,
            delay: ChaosDelay::None,
            crashes: Vec::new(),
            restarts: Vec::new(),
            flaps: Vec::new(),
            partitions: Vec::new(),
            duplicate_permille: 0,
            reset_permille: 0,
            reorder_permille: 0,
        }
    }

    #[test]
    fn faultfree_schedule_decides_cleanly() {
        let rep = run_on_sim(&plain(4, 11), 200_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
        assert!(rep.verdict.failure_free);
    }

    #[test]
    fn tolerated_crash_with_snapshot_restart_decides() {
        let mut s = plain(4, 12);
        s.crashes.push(ChaosCrash {
            victim: ProcessorId::new(2),
            at_step: 3,
            drop_final_sends: true,
        });
        s.restarts.push(ChaosRestart {
            victim: ProcessorId::new(2),
            delay_steps: 10,
            from_snapshot: true,
        });
        let rep = run_on_sim(&s, 200_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
    }

    #[test]
    fn amnesiac_restart_catches_up_by_observation() {
        let mut s = plain(3, 13);
        s.crashes.push(ChaosCrash {
            victim: ProcessorId::new(1),
            at_step: 2,
            drop_final_sends: false,
        });
        s.restarts.push(ChaosRestart {
            victim: ProcessorId::new(1),
            delay_steps: 8,
            from_snapshot: false,
        });
        let rep = run_on_sim(&s, 200_000);
        // The observer must adopt the survivors' decision: the run is
        // deciding (the revived processor owes a decision again) and
        // agreement holds.
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
    }

    #[test]
    fn hostile_network_schedule_decides_and_reports_lateness() {
        use crate::schedule::ChaosPartition;
        let mut s = plain(5, 17);
        s.partitions.push(ChaosPartition {
            side: vec![ProcessorId::new(0), ProcessorId::new(1)],
            from_step: 1,
            heal_step: 6,
        });
        s.duplicate_permille = 200;
        s.reorder_permille = 200;
        let rep = run_on_sim(&s, 400_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{rep:?}");
        // A five-step cut across the quorum boundary forces at least
        // one delivery past the K-window.
        assert!(rep.late_messages > 0, "{rep:?}");
        assert!(!rep.verdict.on_time);
    }

    #[test]
    fn theorem11_stall_is_graceful_and_recovery_terminates() {
        let stall = run_on_sim(&ChaosSchedule::theorem11(3, 5, false), 40_000);
        assert_eq!(stall.outcome, ChaosOutcome::StalledGracefully);
        assert!(stall.verdict.agreement.ok());

        let recover = run_on_sim(&ChaosSchedule::theorem11(3, 5, true), 400_000);
        assert_eq!(recover.outcome, ChaosOutcome::Decided);
    }

    #[test]
    fn generated_batch_is_safe_on_sim() {
        let params = ScheduleParams::default();
        for i in 0..25 {
            let s = ChaosSchedule::generate(&params, 99, i);
            let rep = run_on_sim(&s, 400_000);
            assert!(
                rep.outcome.is_safe(),
                "schedule {i} violated safety: {} ({s:?})",
                rep.outcome
            );
        }
    }
}
