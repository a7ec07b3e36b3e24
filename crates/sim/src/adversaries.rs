//! A zoo of reusable adversary strategies.
//!
//! Each strategy is a scheduling policy over the pattern view: which
//! processor steps next and which buffered messages it receives. None of
//! them inspects message contents — content-aware diagnostic schedulers
//! live next to the protocols that need them (e.g. the Ben-Or split-vote
//! scheduler in `rtc-baselines`).

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rtc_model::ProcessorId;

use crate::adversary::{Action, Adversary, PatternView};
use crate::envelope::{MsgHandle, MsgId};

/// Picks the next alive processor in round-robin order starting from
/// `cursor`, advancing the cursor.
fn next_alive(view: &PatternView<'_>, cursor: &mut usize) -> Option<ProcessorId> {
    let n = view.population();
    for _ in 0..n {
        let p = ProcessorId::new(*cursor % n);
        *cursor = (*cursor + 1) % n;
        if !view.is_crashed(p) {
            return Some(p);
        }
    }
    None
}

/// The benign scheduler and every slowed-down variant of it: processors
/// step in round-robin order, and a pending message is delivered at its
/// destination's next step once it has waited at least `lag` global
/// events and the hold rule, if any, does not hold it back.
///
/// With `lag = 0` and no rule this realizes the paper's well-behaved
/// case: all message delays are one "cycle", so every run is
/// failure-free and on-time for any `K ≥ 1`. Each of its events is then
/// [`Action::StepAll`] — the processor steps with its whole buffer —
/// and the adversary lists no ids. Otherwise it lists the messages it
/// delivers in an [`Action::Step`].
///
/// The paper's slow and partitioned scenarios are a lag or a rule:
///
/// | Scenario | Scheduler |
/// |---|---|
/// | Theorem 17: an `x`-slow run | `with_lag(x * n)` — `x` rotations |
/// | one late message | `holding(move \|m, now\| late(m) && now - m.send_event < hold)` |
/// | recovery after a healed partition | `holding(move \|m, now\| now < heal_at && cut(m, now))` |
/// | Theorem 14: a permanent partition | `Unfair(new(n).holding(cut(n, &group_a)))` |
///
/// A permanent partition withholds guaranteed messages forever, so it
/// is inadmissible, and [`Unfair`] says so.
pub struct SynchronousAdversary {
    cursor: usize,
    lag: u64,
    hold: Option<HoldRule>,
}

/// Whether a pending message is held back at global event `now`.
type HoldRule = Box<dyn Fn(&MsgHandle, u64) -> bool + Send>;

impl SynchronousAdversary {
    /// A synchronous scheduler over `n` processors delivering messages
    /// at the first opportunity.
    pub fn new(_n: usize) -> SynchronousAdversary {
        SynchronousAdversary::with_lag(0)
    }

    /// A synchronous scheduler that holds every message for at least
    /// `lag` global events before delivery.
    pub fn with_lag(lag: u64) -> SynchronousAdversary {
        SynchronousAdversary {
            cursor: 0,
            lag,
            hold: None,
        }
    }

    /// Also holds back every pending message for which `rule(m, now)`
    /// is true at global event `now`. The rule sees only
    /// pattern-visible metadata ([`MsgHandle`]), so the scheduler stays
    /// within the Section-2.3 model.
    #[must_use]
    pub fn holding(
        mut self,
        rule: impl Fn(&MsgHandle, u64) -> bool + Send + 'static,
    ) -> SynchronousAdversary {
        self.hold = Some(Box::new(rule));
        self
    }
}

/// The hold rule of a network cut: holds every message between
/// `group_a` and the rest of the `n` processors.
pub fn cut(n: usize, group_a: &[ProcessorId]) -> impl Fn(&MsgHandle, u64) -> bool + Send + 'static {
    let mut in_group_a = vec![false; n];
    for p in group_a {
        in_group_a[p.index()] = true;
    }
    move |m, _| in_group_a[m.from.index()] != in_group_a[m.to.index()]
}

impl Adversary for SynchronousAdversary {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        let p = next_alive(view, &mut self.cursor).expect("some processor is alive");
        if self.lag == 0 && self.hold.is_none() {
            return Action::StepAll { p };
        }
        let now = view.event();
        let held = |m: &MsgHandle| self.hold.as_ref().is_some_and(|rule| rule(m, now));
        let deliver = view
            .pending_iter(p)
            .filter(|m| now.saturating_sub(m.send_event) >= self.lag && !held(m))
            .map(|m| m.id)
            .collect();
        Action::Step { p, deliver }
    }
}

impl fmt::Debug for SynchronousAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SynchronousAdversary")
            .field("cursor", &self.cursor)
            .field("lag", &self.lag)
            .field("holding", &self.hold.is_some())
            .finish()
    }
}

/// A randomized scheduler: steps a uniformly random alive processor,
/// delivers each of its pending messages with probability
/// `deliver_prob`, and (while the fault budget lasts) crashes a random
/// processor with probability `crash_prob` per event, dropping a random
/// subset of its final sends.
///
/// This is the workhorse for statistical soundness tests: it explores a
/// broad cross-section of admissible schedules.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: SmallRng,
    deliver_prob: f64,
    crash_prob: f64,
    /// Which processors have received at least one message so far —
    /// used to honour the paper's t-admissibility clause that some
    /// nonfaulty processor receives a message (crashes must not create
    /// the degenerate nobody-ever-hears-anything run).
    received: Vec<bool>,
}

impl RandomAdversary {
    /// A random scheduler with delivery probability 0.5 and no crashes.
    pub fn new(seed: u64) -> RandomAdversary {
        RandomAdversary {
            rng: SmallRng::seed_from_u64(seed),
            deliver_prob: 0.5,
            crash_prob: 0.0,
            received: Vec::new(),
        }
    }

    /// Sets the per-message delivery probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn deliver_prob(mut self, p: f64) -> RandomAdversary {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.deliver_prob = p;
        self
    }

    /// Sets the per-event crash probability (crashes stop once the fault
    /// budget is spent).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn crash_prob(mut self, p: f64) -> RandomAdversary {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.crash_prob = p;
        self
    }
}

impl Adversary for RandomAdversary {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        if self.received.len() < view.population() {
            self.received.resize(view.population(), false);
        }
        let alive: Vec<ProcessorId> = view.alive().collect();
        debug_assert!(!alive.is_empty());
        if view.crashes_remaining() > 0 && alive.len() > 1 && self.rng.gen_bool(self.crash_prob) {
            let victim = alive[self.rng.gen_range(0..alive.len())];
            // Admissibility guard: after the crash, some alive processor
            // must still have received a message, or at least hold a
            // pending message from a processor other than the victim —
            // otherwise the run could degenerate into the excluded
            // nobody-ever-hears-anything schedule.
            let still_live = alive.iter().any(|p| {
                *p != victim
                    && (self.received[p.index()] || view.pending_iter(*p).any(|m| m.from != victim))
            });
            if still_live {
                let drop: Vec<MsgId> = view
                    .last_sends_of(victim)
                    .into_iter()
                    .filter(|_| self.rng.gen_bool(0.5))
                    .map(|m| m.id)
                    .collect();
                return Action::Crash { p: victim, drop };
            }
        }
        let p = alive[self.rng.gen_range(0..alive.len())];
        let prob = self.deliver_prob;
        let rng = &mut self.rng;
        let deliver: Vec<MsgId> = view
            .pending_iter(p)
            .filter(|_| rng.gen_bool(prob))
            .map(|m| m.id)
            .collect();
        if !deliver.is_empty() {
            self.received[p.index()] = true;
        }
        Action::Step { p, deliver }
    }
}

/// What to do with the unguaranteed final-step messages of a scripted
/// crash victim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropPolicy {
    /// Deliver them all anyway.
    KeepAll,
    /// Drop them all (the classic "failed mid-broadcast" scenario).
    DropAll,
    /// Drop only those addressed to the listed processors.
    DropTo(Vec<ProcessorId>),
}

/// One scripted crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash once the global event counter reaches this value.
    pub at_event: u64,
    /// The victim.
    pub victim: ProcessorId,
    /// What happens to the victim's final-step sends.
    pub drop: DropPolicy,
}

/// Runs an inner adversary but injects crashes according to a script.
///
/// Used to reproduce targeted failure scenarios: the coordinator dying
/// mid-`GO`-broadcast, a majority dying just before the vote, etc.
pub struct CrashAdversary<A> {
    inner: A,
    plans: Vec<CrashPlan>,
}

impl<A: Adversary> CrashAdversary<A> {
    /// Wraps `inner`, executing `plans` (in order) when their trigger
    /// events arrive.
    pub fn new(inner: A, plans: Vec<CrashPlan>) -> CrashAdversary<A> {
        CrashAdversary { inner, plans }
    }
}

impl<A: Adversary> Adversary for CrashAdversary<A> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        if let Some(pos) = self
            .plans
            .iter()
            .position(|plan| view.event() >= plan.at_event && !view.is_crashed(plan.victim))
        {
            let plan = self.plans.remove(pos);
            let drop = match plan.drop {
                DropPolicy::KeepAll => Vec::new(),
                DropPolicy::DropAll => view
                    .last_sends_of(plan.victim)
                    .into_iter()
                    .map(|m| m.id)
                    .collect(),
                DropPolicy::DropTo(targets) => view
                    .last_sends_of(plan.victim)
                    .into_iter()
                    .filter(|m| targets.contains(&m.to))
                    .map(|m| m.id)
                    .collect(),
            };
            return Action::Crash {
                p: plan.victim,
                drop,
            };
        }
        self.inner.next(view)
    }

    fn admissible(&self) -> bool {
        self.inner.admissible()
    }
}

impl<A: fmt::Debug> fmt::Debug for CrashAdversary<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashAdversary")
            .field("inner", &self.inner)
            .field("pending_plans", &self.plans.len())
            .finish()
    }
}

/// An *adaptive* pattern-only adversary: it uses everything Section 2.3
/// lets it see — clocks, the send/receive pattern, crash budget — to
/// make life hard without ever reading a payload.
///
/// Heuristics (all pattern-derived):
///
/// * **Starve the leaders**: preferentially schedule the processor with
///   the *lowest* clock, so the population stays maximally skewed and
///   quorum formation is as slow as the fairness envelope permits.
/// * **Withhold fresh messages**: deliver only messages older than a
///   pattern-visible age threshold, keeping everyone near the timeout
///   boundaries.
/// * **Assassinate talkers**: spend the crash budget on the processors
///   that have *sent the most messages* (pattern-visible), at moments
///   when they have just broadcast — dropping their final-step sends,
///   the classic mid-broadcast failure.
///
/// Stays admissible: it never exceeds the budget and the engine's
/// fairness envelope bounds its starvation, so `t`-nonblocking runs
/// must still decide. Used in the gauntlet tests as the strongest
/// in-model stress we can write.
#[derive(Debug)]
pub struct AdaptiveAdversary {
    rng: SmallRng,
    sent_counts: Vec<u64>,
}

/// Global events [`AdaptiveAdversary`] holds every message before it
/// delivers it.
const HOLD_EVENTS: u64 = 24;
/// Global events [`AdaptiveAdversary`] waits before it spends its crash
/// budget.
const CRASH_AFTER_EVENTS: u64 = 40;

impl AdaptiveAdversary {
    /// An adaptive adversary whose crash choices are drawn from `seed`.
    /// It holds every message for 24 global events and starts to spend
    /// its crash budget after 40.
    pub fn new(seed: u64) -> AdaptiveAdversary {
        AdaptiveAdversary {
            rng: SmallRng::seed_from_u64(seed),
            sent_counts: Vec::new(),
        }
    }
}

impl Adversary for AdaptiveAdversary {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        let n = view.population();
        if self.sent_counts.len() < n {
            self.sent_counts.resize(n, 0);
        }
        // Track send volume from the pattern (messages pending anywhere
        // were sent by someone; last_sends tells us recent activity).
        for p in view.alive() {
            for m in view.pending_iter(p) {
                // Count each pending message once per observation is
                // noisy but pattern-legal; decay keeps it bounded.
                self.sent_counts[m.from.index()] =
                    self.sent_counts[m.from.index()].saturating_add(1);
            }
        }
        // Assassination: after the warm-up, crash the loudest talker
        // that just broadcast, dropping everything it sent last step.
        if view.event() >= CRASH_AFTER_EVENTS
            && view.crashes_remaining() > 0
            && self.rng.gen_bool(0.15)
        {
            let victim = view
                .alive()
                .filter(|p| !view.last_sends_of(*p).is_empty())
                .max_by_key(|p| self.sent_counts[p.index()]);
            if let Some(victim) = victim {
                if view.alive().count() > 1 {
                    let drop = view
                        .last_sends_of(victim)
                        .into_iter()
                        .map(|m| m.id)
                        .collect();
                    return Action::Crash { p: victim, drop };
                }
            }
        }
        // Starvation: step the processor with the lowest clock.
        let p = view
            .alive()
            .min_by_key(|p| (view.clock_of(*p), p.index()))
            .expect("some processor is alive");
        let deliver = view
            .pending_iter(p)
            .filter(|m| view.event().saturating_sub(m.send_event) >= HOLD_EVENTS)
            .map(|m| m.id)
            .collect();
        Action::Step { p, deliver }
    }
}

/// Strips the admissibility promise from an inner adversary.
///
/// Used for the paper's degradation experiments (Theorem 11, Theorem 14
/// mechanism): the engine stops enforcing the fault budget and the
/// fairness envelope, so the wrapped strategy may crash more than `t`
/// processors or starve messages forever. Reports flag such runs as
/// inadmissible.
#[derive(Debug)]
pub struct Unfair<A>(pub A);

impl<A: Adversary> Adversary for Unfair<A> {
    fn next(&mut self, view: &PatternView<'_>) -> Action {
        self.0.next(view)
    }

    fn admissible(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_model::LocalClock;

    use crate::envelope::IdRun;
    use crate::store::MsgStore;

    /// Owns the engine-side state a [`PatternView`] borrows from, built
    /// from the per-destination buffer contents a test describes.
    struct Fixture {
        store: MsgStore,
        last_run: Vec<IdRun>,
        clocks: Vec<LocalClock>,
        crashed: Vec<bool>,
        last: Vec<Option<u64>>,
        event: u64,
    }

    fn fixture(
        buffers: &[Vec<MsgHandle>],
        clocks: &[LocalClock],
        crashed: &[bool],
        last: &[Option<u64>],
        event: u64,
    ) -> Fixture {
        let n = buffers.len();
        let mut store = MsgStore::new(n);
        for metas in buffers {
            for m in metas {
                store.file_one(*m, 0);
            }
        }
        // Rebuild each processor's droppable run the way the engine
        // maintains it: the id range of its last-step sends.
        let mut last_run = vec![IdRun::new(MsgId(0), 0); n];
        for (p, run) in last_run.iter_mut().enumerate() {
            let ids = buffers
                .iter()
                .flatten()
                .filter(|m| m.from.index() == p && Some(m.send_event) == last[p])
                .map(|m| m.id);
            if let (Some(first), Some(end)) = (ids.clone().min(), ids.max()) {
                *run = IdRun::new(first, (end.index() - first.index() + 1) as u32);
            }
        }
        Fixture {
            store,
            last_run,
            clocks: clocks.to_vec(),
            crashed: crashed.to_vec(),
            last: last.to_vec(),
            event,
        }
    }

    impl Fixture {
        fn view(&self) -> PatternView<'_> {
            PatternView {
                store: &self.store,
                last_run: &self.last_run,
                clocks: &self.clocks,
                crashed: &self.crashed,
                last_step_event: &self.last,
                event: self.event,
                fault_budget: 1,
                crashes_used: 0,
            }
        }
    }

    fn meta(id: u64, from: usize, to: usize, send_event: u64) -> MsgHandle {
        MsgHandle {
            id: MsgId(id),
            from: ProcessorId::new(from),
            to: ProcessorId::new(to),
            send_event,
            sender_clock: LocalClock::new(1),
        }
    }

    #[test]
    fn synchronous_rotates_and_delivers_everything() {
        let buffers = vec![vec![meta(0, 1, 0, 0)], vec![]];
        let clocks = vec![LocalClock::ZERO; 2];
        let crashed = vec![false, false];
        let last = vec![None, Some(0)];
        let mut adv = SynchronousAdversary::new(2);
        let fx = fixture(&buffers, &clocks, &crashed, &last, 1);
        let v = fx.view();
        let p = ProcessorId::new;
        assert_eq!(adv.next(&v), Action::StepAll { p: p(0) });
        assert_eq!(adv.next(&v), Action::StepAll { p: p(1) });
        // With a lag it lists what is old enough.
        let mut lagged = SynchronousAdversary::with_lag(1);
        let step = |deliver: Vec<MsgId>| Action::Step { p: p(0), deliver };
        assert_eq!(lagged.next(&v), step(vec![MsgId(0)]));
        let mut lagged = SynchronousAdversary::with_lag(2);
        assert_eq!(lagged.next(&v), step(vec![]));
    }

    #[test]
    fn round_robin_skips_crashed() {
        let buffers = vec![vec![], vec![]];
        let clocks = vec![LocalClock::ZERO; 2];
        let crashed = vec![true, false];
        let last = vec![None, None];
        let mut adv = SynchronousAdversary::new(2);
        let fx = fixture(&buffers, &clocks, &crashed, &last, 0);
        let v = fx.view();
        for _ in 0..3 {
            assert_eq!(
                adv.next(&v),
                Action::StepAll {
                    p: ProcessorId::new(1)
                }
            );
        }
    }

    #[test]
    fn x_slow_is_a_lag_of_x_rotations() {
        let buffers = vec![vec![meta(0, 1, 0, 0)], vec![]];
        let clocks = vec![LocalClock::ZERO; 2];
        let crashed = vec![false, false];
        let last = vec![None, Some(0)];
        // x = 3 rotations of n = 2 processors: held for 6 events.
        let step = |deliver: Vec<MsgId>| Action::Step {
            p: ProcessorId::new(0),
            deliver,
        };
        let early_fx = fixture(&buffers, &clocks, &crashed, &last, 5);
        let mut adv = SynchronousAdversary::with_lag(3 * 2);
        assert_eq!(adv.next(&early_fx.view()), step(vec![]));
        let due_fx = fixture(&buffers, &clocks, &crashed, &last, 6);
        let mut adv = SynchronousAdversary::with_lag(3 * 2);
        assert_eq!(adv.next(&due_fx.view()), step(vec![MsgId(0)]));
    }

    #[test]
    fn a_cut_holds_messages_across_it_by_their_endpoints() {
        // p0 | p1 p2: p0 holds one message from each side, p1 one from
        // its own side.
        let buffers = vec![
            vec![meta(0, 1, 0, 0), meta(1, 0, 0, 0)],
            vec![meta(2, 2, 1, 0)],
            vec![],
        ];
        let clocks = vec![LocalClock::ZERO; 3];
        let crashed = vec![false; 3];
        let last = vec![Some(0), None, Some(0)];
        let fx = fixture(&buffers, &clocks, &crashed, &last, 1);
        let v = fx.view();
        let p = ProcessorId::new;
        let mut adv = Unfair(SynchronousAdversary::new(3).holding(cut(3, &[p(0)])));
        assert!(!Adversary::admissible(&adv));
        let step = |p, deliver: Vec<MsgId>| Action::Step { p, deliver };
        assert_eq!(adv.next(&v), step(p(0), vec![MsgId(1)]));
        assert_eq!(adv.next(&v), step(p(1), vec![MsgId(2)]));
        // A cut that heals at event 1 holds nothing from then on.
        let rule = cut(3, &[p(0)]);
        let mut healed =
            SynchronousAdversary::new(3).holding(move |m, now| now < 1 && rule(m, now));
        assert!(Adversary::admissible(&healed));
        assert_eq!(healed.next(&v), step(p(0), vec![MsgId(0), MsgId(1)]));
    }

    #[test]
    fn a_rule_holds_only_what_it_matches_and_only_while_young() {
        let buffers = vec![vec![meta(0, 1, 0, 0), meta(1, 0, 0, 0)], vec![]];
        let clocks = vec![LocalClock::ZERO; 2];
        let crashed = vec![false, false];
        let last = vec![Some(0), Some(0)];
        let late = |hold: u64| {
            SynchronousAdversary::new(2).holding(move |m: &MsgHandle, now| {
                m.from == ProcessorId::new(1) && now - m.send_event < hold
            })
        };
        let deliver_at = |adv: &mut SynchronousAdversary, event| match adv
            .next(&fixture(&buffers, &clocks, &crashed, &last, event).view())
        {
            Action::Step { deliver, .. } => deliver,
            other => panic!("unexpected action {other:?}"),
        };
        assert_eq!(deliver_at(&mut late(100), 5), vec![MsgId(1)]);
        assert_eq!(deliver_at(&mut late(5), 5), vec![MsgId(0), MsgId(1)]);
        // A lag applies on top of the rule.
        let mut lagged = SynchronousAdversary::with_lag(6).holding(|_, _| false);
        assert_eq!(deliver_at(&mut lagged, 5), vec![]);
    }

    #[test]
    fn adaptive_adversary_steps_the_slowest_processor() {
        let buffers = vec![vec![], vec![]];
        let clocks = vec![LocalClock::new(5), LocalClock::new(2)];
        let crashed = vec![false, false];
        let last = vec![None, None];
        let mut adv = AdaptiveAdversary::new(1);
        let fx = fixture(&buffers, &clocks, &crashed, &last, 0);
        let v = fx.view();
        match adv.next(&v) {
            Action::Step { p, .. } => assert_eq!(p, ProcessorId::new(1)),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn adaptive_adversary_holds_young_messages() {
        let buffers = vec![vec![meta(0, 1, 0, 90)], vec![]];
        let clocks = vec![LocalClock::ZERO, LocalClock::new(9)];
        let crashed = vec![false, false];
        let last = vec![None, Some(90)];
        let mut adv = AdaptiveAdversary::new(2);
        let fx = fixture(&buffers, &clocks, &crashed, &last, 100);
        let v = fx.view();
        match adv.next(&v) {
            Action::Step { p, deliver } => {
                assert_eq!(p, ProcessorId::new(0));
                assert!(
                    deliver.is_empty(),
                    "message aged only 10 < {HOLD_EVENTS} events"
                );
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn crash_adversary_fires_plans_in_order() {
        let buffers = vec![vec![], vec![]];
        let clocks = vec![LocalClock::ZERO; 2];
        let crashed = vec![false, false];
        let last = vec![None, None];
        let mut adv = CrashAdversary::new(
            SynchronousAdversary::new(2),
            vec![CrashPlan {
                at_event: 3,
                victim: ProcessorId::new(1),
                drop: DropPolicy::DropAll,
            }],
        );
        let before_fx = fixture(&buffers, &clocks, &crashed, &last, 2);
        let before = before_fx.view();
        assert!(matches!(adv.next(&before), Action::StepAll { .. }));
        let at_fx = fixture(&buffers, &clocks, &crashed, &last, 3);
        let at = at_fx.view();
        match adv.next(&at) {
            Action::Crash { p, .. } => assert_eq!(p, ProcessorId::new(1)),
            other => panic!("unexpected action {other:?}"),
        }
    }
}
