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

use rtc_core::properties::verify_commit;
use rtc_core::{commit_population, CommitAutomaton, CommitConfig};
use rtc_model::{Recoverable, SeedCollection, Value};
use rtc_runtime::RestartAt;
use rtc_sim::{RunReport, Sim, SimBuilder, StopWhen};
use rtc_spec::{Conformance, ConformanceError, ReviveKind, RunSpec, SpecConfig};

use crate::adversary::ChaosAdversary;
use crate::outcome::{classify_verdict, ChaosOutcome, ChaosReport, Substrate};
use crate::schedule::ChaosSchedule;

/// The simulator's event cap in the campaign, the soak's predictions
/// and the Theorem 11 scenario: far past any run that decides, so only
/// a stall reaches it.
pub(crate) const SIM_EVENT_CAP: u64 = 400_000;

/// Runs `schedule` on the simulator with a hard cap of `max_events`
/// scheduler events, classifying the outcome.
///
/// # Panics
///
/// Panics if the schedule's population/fault-bound combination is
/// rejected by [`CommitConfig`], or if its fault plan is invalid
/// ([`rtc_runtime::FaultPlan::validate`]) — generated schedules never
/// do either.
pub fn run_on_sim(schedule: &ChaosSchedule, max_events: u64) -> ChaosReport {
    run_on_sim_with_decision(schedule, max_events).0
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

/// The automaton `restart` brings its victim back as: `crashed` (the
/// victim's crash-time state, preserved inside the engine) restored
/// from its snapshot, or the victim's initial state as an amnesiac
/// observer.
fn replacement(
    schedule: &ChaosSchedule,
    cfg: CommitConfig,
    restart: &RestartAt,
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

/// A finished chaos run: the simulator (holding the trace), the final
/// report, and the restart kinds in trace `Revive` order.
struct FinishedRun {
    sim: Sim<CommitAutomaton>,
    cfg: CommitConfig,
    report: RunReport,
    revives: Vec<ReviveKind>,
}

impl FinishedRun {
    /// Lints the run's trace against the executable spec.
    fn lint(&self, schedule: &ChaosSchedule) -> Result<Conformance, ConformanceError> {
        let spec_run = RunSpec::new(
            spec_config(&self.cfg),
            SeedCollection::new(schedule.seed),
            schedule.votes.clone(),
        );
        rtc_spec::lint_trace(&spec_run, self.sim.trace(), &self.revives)
    }
}

/// Executes `schedule` on a [`Sim`] of its own and returns the finished
/// run. Scripted restarts are realized between run segments: a segment
/// ends where the next restart is due, and the victims due by then are
/// revived before the next one starts.
fn execute_on_sim(schedule: &ChaosSchedule, max_events: u64) -> FinishedRun {
    schedule
        .faults
        .validate(schedule.n, schedule.t)
        .expect("generated schedules carry valid fault plans");
    let cfg = schedule.commit_config();
    let mut sim = SimBuilder::new(cfg.timing(), SeedCollection::new(schedule.seed))
        // Degraded schedules intentionally exceed t; give the engine
        // the budget to execute them (admissibility of the *plan* is
        // tracked by `FaultPlan::degraded`).
        .fault_budget(schedule.faults.crashes.len().max(schedule.t))
        .build(commit_population(cfg, &schedule.votes))
        .expect("population matches config");
    let mut adv = ChaosAdversary::new(schedule);
    // A restart is due at its tick; one tick is one round-robin
    // rotation, `n` events.
    let rotation = schedule.n as u64;
    let mut pending: Vec<(&RestartAt, u64)> = schedule
        .faults
        .restarts
        .iter()
        .map(|r| (r, r.at * rotation))
        .collect();
    // The kinds of the realized restarts, in realization order — the
    // linter's per-`Revive` hints, which the trace's `Revive` event does
    // not carry.
    let mut revives = Vec::new();
    let report = loop {
        pending.sort_by_key(|(_, due)| *due);
        let segment_cap = pending
            .first()
            .map_or(max_events, |(_, due)| (*due).min(max_events))
            .max(1);
        // The per-segment report is only built once, after the loop.
        let met = sim
            .run_until(&mut adv, segment_cap, StopWhen::AllNonfaultyDecided)
            .expect("chaos adversary stays within the model");
        if met || segment_cap >= max_events {
            break sim.report(!met, true);
        }
        let event = sim.events_executed();
        pending.retain_mut(|(restart, due)| {
            if *due > event {
                return true;
            }
            if sim.is_crashed(restart.victim) {
                let auto = replacement(schedule, cfg, restart, sim.automaton(restart.victim));
                sim.revive(restart.victim, auto)
                    .expect("victim is crashed at its restart");
                revives.push(match restart.from_snapshot {
                    true => ReviveKind::Snapshot,
                    false => ReviveKind::Amnesiac,
                });
                return false;
            }
            // The crash trigger has not fired yet (the victim's clock
            // lags the tick estimate): retry a couple of rotations
            // later, unless `max_events` arrives first.
            *due = event + 2 * rotation;
            *due < max_events
        });
    };
    FinishedRun {
        sim,
        cfg,
        report,
        revives,
    }
}

/// The digest ([`rtc_sim::Trace::digest`]) of the trace `schedule`
/// records on the simulator in at most `max_events` events: two
/// schedules run the same on the simulator exactly when their digests
/// agree.
///
/// # Panics
///
/// As [`run_on_sim`].
pub fn sim_trace_digest(schedule: &ChaosSchedule, max_events: u64) -> u64 {
    execute_on_sim(schedule, max_events).sim.trace().digest()
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
/// As [`run_on_sim`].
pub fn lint_sim_schedule(
    schedule: &ChaosSchedule,
    max_events: u64,
) -> Result<Conformance, ConformanceError> {
    execute_on_sim(schedule, max_events).lint(schedule)
}

/// Like [`run_on_sim`], but also returns the value the run decided
/// (`None` when the run stalled without any decision). Soak runs use
/// this as the simulator's *prediction* for the same schedule executed
/// over real sockets.
///
/// The run is judged by the paper's commit conditions over its report
/// and trace ([`RunReport::facts`]) and — when those call it safe —
/// its trace is linted against the executable spec: a trace the spec's
/// transition relation cannot reproduce is a
/// [`ChaosOutcome::Violation`] even when the classical safety
/// conditions hold.
pub fn run_on_sim_with_decision(
    schedule: &ChaosSchedule,
    max_events: u64,
) -> (ChaosReport, Option<Value>) {
    let run = execute_on_sim(schedule, max_events);
    let verdict = verify_commit(&schedule.votes, &run.report.facts());
    let mut outcome = classify_verdict(&verdict);
    if outcome.is_safe() {
        if let Err(e) = run.lint(schedule) {
            outcome = ChaosOutcome::Violation(format!("spec conformance: {e}"));
        }
    }
    (
        ChaosReport {
            substrate: Substrate::Sim,
            outcome,
            verdict,
            late_messages: run.sim.lateness().late_count(),
        },
        run.report.decided_values().first().copied(),
    )
}

#[cfg(test)]
mod tests {
    use rtc_core::properties::Condition;
    use rtc_model::ProcessorId;
    use rtc_model::Value;
    use rtc_runtime::{CrashAt, DelayModel};

    use super::*;
    use crate::outcome::ChaosOutcome;
    use crate::runtime_driver::run_on_runtime;

    #[test]
    fn faultfree_schedule_decides_cleanly() {
        let rep = run_on_sim(
            &ChaosSchedule::fault_free(4, 11, vec![Value::One; 4]),
            200_000,
        );
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
        assert!(rep.verdict.failure_free);
    }

    #[test]
    fn tolerated_crash_with_snapshot_restart_decides() {
        let mut s = ChaosSchedule::fault_free(4, 12, vec![Value::One; 4]);
        s.faults.crashes.push(CrashAt {
            victim: ProcessorId::new(2),
            at_step: 3,
            drop_final_sends: true,
        });
        s.faults = s.faults.with_restart(ProcessorId::new(2), 13, true);
        let rep = run_on_sim(&s, 200_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
    }

    #[test]
    fn amnesiac_restart_catches_up_by_observation() {
        let mut s = ChaosSchedule::fault_free(3, 13, vec![Value::One; 3]);
        s.faults = s.faults.with_crash(ProcessorId::new(1), 2).with_restart(
            ProcessorId::new(1),
            10,
            false,
        );
        let rep = run_on_sim(&s, 200_000);
        // The observer must adopt the survivors' decision: the run is
        // deciding (the revived processor owes a decision again) and
        // agreement holds.
        assert_eq!(rep.outcome, ChaosOutcome::Decided);
    }

    #[test]
    fn hostile_network_schedule_decides_and_reports_lateness() {
        let mut s = ChaosSchedule::fault_free(5, 17, vec![Value::One; 5]);
        s.faults = s
            .faults
            .with_partition(vec![1, 1, 0, 0, 0], 1, 6)
            .with_duplication(200)
            .with_reordering(200);
        let rep = run_on_sim(&s, 400_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{rep:?}");
        // A five-step cut across the quorum boundary forces at least
        // one delivery past the K-window.
        assert!(rep.late_messages > 0, "{rep:?}");
        assert!(!rep.verdict.on_time);
    }

    /// A reorder is a hold of one to three ticks, not a move within
    /// the buffer: when every message is reordered, none arrives
    /// sooner than one tick (`n` events) after its send.
    #[test]
    fn a_reorder_holds_a_message_one_to_three_ticks() {
        for seed in 0..20 {
            let mut s = ChaosSchedule::fault_free(4, seed, vec![Value::One; 4]);
            s.faults = s.faults.with_reordering(1000);
            let run = execute_on_sim(&s, 200_000);
            assert!(run.report.all_nonfaulty_decided(), "seed {seed}");
            let fewest = run
                .sim
                .trace()
                .messages()
                .iter()
                .filter_map(|m| Some(m.recv_event? - m.send_event))
                .min();
            assert!(
                fewest >= Some(4),
                "seed {seed}: fewest events in flight {fewest:?}"
            );
        }
    }

    /// A delay past the end of time saturates on the simulator as
    /// [`DelayModel::sample`] saturates it on the wall clock: the
    /// fairness envelope delivers what the plan would hold forever.
    #[test]
    fn unbounded_delays_saturate_and_the_run_stays_safe() {
        for delay in [
            DelayModel::Uniform {
                min: 0,
                max: u64::MAX,
            },
            DelayModel::Spike {
                permille: 1000,
                spike: u64::MAX,
            },
        ] {
            for reorder in [0, 1000] {
                let mut s = ChaosSchedule::fault_free(4, 21, vec![Value::One; 4]);
                s.faults = s.faults.with_delay(delay).with_reordering(reorder);
                let rep = run_on_sim(&s, 200_000);
                assert!(
                    rep.outcome.is_safe(),
                    "{delay:?}, reorder {reorder}: {rep:?}"
                );
            }
        }
    }

    /// A plan naming a processor outside the population is refused on
    /// the simulator as on the wall-clock substrates, not run with the
    /// stray outage ignored.
    #[test]
    fn an_invalid_plan_is_refused_on_every_substrate() {
        let mut s = ChaosSchedule::fault_free(3, 14, vec![Value::One; 3]);
        let stray = ProcessorId::new(7);
        s.faults = s.faults.with_link_outage(ProcessorId::new(0), stray, 0, 5);
        let sim = std::panic::catch_unwind(|| run_on_sim(&s, 1_000));
        let runtime =
            std::panic::catch_unwind(|| run_on_runtime(&s, rtc_runtime::ClusterOptions::default()));
        assert!(sim.is_err() && runtime.is_err());
    }

    #[test]
    fn theorem11_stall_is_graceful_and_recovery_terminates() {
        let stall = run_on_sim(&ChaosSchedule::theorem11(3, 5, false), 40_000);
        assert_eq!(stall.outcome, ChaosOutcome::StalledGracefully);
        assert!(stall.verdict.agreement.ok());

        let recover = run_on_sim(&ChaosSchedule::theorem11(3, 5, true), 400_000);
        assert_eq!(recover.outcome, ChaosOutcome::Decided);
    }

    /// The two schedules a 2 000-schedule campaign used to report as
    /// `commit validity` violations: all-commit votes, no crash, nothing
    /// delivered late — and an abort, decided while a cut (a link outage
    /// in the first, a partition in the second) still held a message
    /// more than `K` steps old. That message is late whenever it
    /// arrives, so the prefix is not on-time and commit validity does
    /// not bind it.
    fn assert_overdue_message_excuses_the_abort(campaign_seed: u64, index: u64) {
        let s = ChaosSchedule::generate(campaign_seed, index);
        assert!(s.faults.crashes.is_empty() && s.votes.iter().all(|v| *v == Value::One));
        let (rep, decided) = run_on_sim_with_decision(&s, 400_000);
        assert_eq!(rep.outcome, ChaosOutcome::Decided, "{rep:?}");
        assert_eq!(decided, Some(Value::Zero));
        assert_eq!(rep.late_messages, 0, "no delivery was late");
        assert!(rep.verdict.failure_free && !rep.verdict.on_time, "{rep:?}");
        assert_eq!(rep.verdict.commit_validity, Condition::NotApplicable);
    }

    #[test]
    fn default_seed_schedule_1488_is_not_a_commit_validity_violation() {
        assert_overdue_message_excuses_the_abort(0xC0A7_1986, 1488);
    }

    #[test]
    fn seed_5eed_schedule_1689_is_not_a_commit_validity_violation() {
        assert_overdue_message_excuses_the_abort(0x5EED, 1689);
    }

    #[test]
    fn generated_batch_is_safe_on_sim() {
        for i in 0..25 {
            let s = ChaosSchedule::generate(99, i);
            let rep = run_on_sim(&s, 400_000);
            assert!(
                rep.outcome.is_safe(),
                "schedule {i} violated safety: {} ({s:?})",
                rep.outcome
            );
        }
    }
}
