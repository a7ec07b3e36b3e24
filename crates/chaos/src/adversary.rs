//! The simulator-side realization of a [`ChaosSchedule`]: a
//! pattern-only adversary that steps processors round-robin, holds
//! messages according to the plan's delay regime, reordering dice, link
//! outages and partitions, and fires the scripted crashes.
//!
//! A partition and a reorder are not events of the run. A partition,
//! like an outage, is a cut this adversary keeps by withholding every
//! message that crosses it while its window is open
//! ([`FaultPlan::cut_until`]). A reorder is one to three ticks of extra
//! hold on a message ([`FaultPlan::reorder_ticks`]), so younger traffic
//! overtakes it — the buffer is a set, and which messages an event
//! withholds is the pattern Section 2.3's adversary picks.
//!
//! The plan counts time in ticks, and one round-robin rotation gives
//! each processor one step, so a tick here is `n` scheduler events:
//! outage and partition windows, delays and reorder holds scale by `n`.
//! Delays are drawn in events, not in the wall-clock substrates'
//! nanoseconds, so this sampler stays apart from
//! [`rtc_runtime::DelayModel::sample`]; like it, it saturates.
//!
//! It claims admissibility, so the engine's fairness envelope still
//! forces overdue deliveries and starved steps — a message held longer
//! than the envelope allows is delivered whatever holds it, so every
//! hold is bounded interference, never a permanent cut, exactly as in
//! the paper's model.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtc_model::ProcessorId;
use rtc_runtime::{CrashAt, DelayModel, FaultPlan};
use rtc_sim::{Action, Adversary, MsgHandle, PatternView};

use crate::schedule::ChaosSchedule;

/// Executes one [`ChaosSchedule`] on the discrete-event simulator.
#[derive(Debug)]
pub struct ChaosAdversary {
    n: usize,
    cursor: usize,
    rng: SmallRng,
    plan: FaultPlan,
    /// The plan's crashes that have not fired yet.
    pending_crashes: Vec<CrashAt>,
    /// Per-message delivery event, sampled once on first sight.
    /// `MsgId`s are dense run-unique integers, so this is a direct map
    /// indexed by id (`u64::MAX` = not yet sampled) — the adversary
    /// touches every buffered message of the stepping processor on
    /// every event, and a hash lookup per message dominated the
    /// scheduler hot path.
    due: Vec<u64>,
}

/// Sentinel for "delivery event not yet sampled".
const UNSAMPLED: u64 = u64::MAX;

impl ChaosAdversary {
    /// Builds the adversary for `schedule`. The network dice are
    /// driven by a dedicated rng derived from the schedule seed,
    /// keeping the run reproducible.
    pub fn new(schedule: &ChaosSchedule) -> ChaosAdversary {
        ChaosAdversary {
            n: schedule.n,
            cursor: 0,
            rng: SmallRng::seed_from_u64(schedule.seed ^ 0x5EED_CAFE),
            plan: schedule.faults.clone(),
            pending_crashes: schedule.faults.crashes.clone(),
            due: Vec::new(),
        }
    }

    fn due_of(&mut self, m: &MsgHandle) -> u64 {
        let idx = m.id.index();
        if idx >= self.due.len() {
            self.due.resize(idx + 1, UNSAMPLED);
        }
        if self.due[idx] == UNSAMPLED {
            let n = self.n as u64;
            let lag = match self.plan.delay {
                DelayModel::None => 0,
                DelayModel::Uniform { min, max } if max <= min => min.saturating_mul(n),
                DelayModel::Uniform { min, max } => min
                    .saturating_mul(n)
                    .saturating_add(self.rng.gen_range(0..=(max - min).saturating_mul(n))),
                DelayModel::Spike { permille, spike } => {
                    if self.rng.gen_range(0..1000u32) < permille {
                        spike.saturating_mul(n)
                    } else {
                        0
                    }
                }
            };
            let reorder = u64::from(self.plan.reorder_ticks(&mut self.rng)) * n;
            // A hold past the end of time stays sampled: the fairness
            // envelope delivers the message.
            self.due[idx] = m
                .send_event
                .saturating_add(lag)
                .saturating_add(reorder)
                .min(UNSAMPLED - 1);
        }
        self.due[idx]
    }
}

impl Adversary for ChaosAdversary {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        // Scripted crashes fire as soon as the victim's clock reaches
        // the trigger step.
        if let Some(pos) = self.pending_crashes.iter().position(|c| {
            !view.is_crashed(c.victim) && view.clock_of(c.victim).ticks() >= c.at_step
        }) {
            // Not a message buffer: the scripted crash plan holds at
            // most a handful of one-shot entries, and order matters.
            // rtc-allow(buffer-linear-scan): bounded crash-plan list
            let c = self.pending_crashes.remove(pos);
            let drop = if c.drop_final_sends {
                view.last_sends_of(c.victim)
                    .into_iter()
                    .map(|m| m.id)
                    .collect()
            } else {
                Vec::new()
            };
            return Action::Crash { p: c.victim, drop };
        }

        // Otherwise round-robin step the next alive processor,
        // delivering every pending message that is both due and not
        // crossing a cut.
        let mut p = ProcessorId::new(self.cursor % self.n);
        for _ in 0..self.n {
            p = ProcessorId::new(self.cursor % self.n);
            self.cursor = (self.cursor + 1) % self.n;
            if !view.is_crashed(p) {
                break;
            }
        }
        let event = view.event();

        // Hostile-network coin flip: occasionally duplicate one of the
        // stepping processor's buffered messages instead of stepping
        // it. The copy is guaranteed like every message, so the
        // fairness envelope still bounds the interference.
        if self.plan.duplicate_permille > 0
            && view.pending_count(p) > 0
            && self.rng.gen_range(0..1000u32) < self.plan.duplicate_permille
        {
            let pick = self.rng.gen_range(0..view.pending_count(p));
            if let Some(m) = view.pending_iter(p).nth(pick) {
                return Action::Duplicate { id: m.id };
            }
        }

        let n = self.n as u64;
        let mut deliver = Vec::with_capacity(view.pending_count(p));
        for m in view.pending_iter(p) {
            if self.plan.cut_until(m.from, p, event, n).is_none() && event >= self.due_of(&m) {
                deliver.push(m.id);
            }
        }
        Action::Step { p, deliver }
    }
}
