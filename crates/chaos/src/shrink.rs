//! Greedy delta-debugging shrinker for violating schedules.
//!
//! Given a schedule on which a predicate holds (normally "this
//! schedule produces a safety violation on the simulator"), the
//! shrinker repeatedly tries structure-removing simplifications of its
//! fault plan — dropping an outage, simplifying the delay regime,
//! dropping a restart, dropping a crash together with its restart —
//! and keeps any simplification under which the predicate still holds,
//! until no single removal preserves it. The result is a locally
//! minimal reproducer.

use rtc_runtime::DelayModel;

use crate::outcome::ChaosOutcome;
use crate::schedule::ChaosSchedule;
use crate::sim_driver::run_on_sim;

/// All schedules reachable from `s` by removing one element.
fn candidates(s: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    for i in 0..s.faults.outages.len() {
        let mut c = s.clone();
        c.faults.outages.remove(i);
        out.push(c);
    }
    for i in 0..s.faults.partitions.len() {
        let mut c = s.clone();
        c.faults.partitions.remove(i);
        out.push(c);
    }
    if s.faults.duplicate_permille > 0 {
        let mut c = s.clone();
        c.faults.duplicate_permille = 0;
        out.push(c);
    }
    if s.faults.reorder_permille > 0 {
        let mut c = s.clone();
        c.faults.reorder_permille = 0;
        out.push(c);
    }
    if s.faults.reset_permille > 0 {
        let mut c = s.clone();
        c.faults.reset_permille = 0;
        out.push(c);
    }
    if s.faults.delay != DelayModel::None {
        let mut c = s.clone();
        c.faults.delay = DelayModel::None;
        out.push(c);
    }
    for i in 0..s.faults.restarts.len() {
        let mut c = s.clone();
        c.faults.restarts.remove(i);
        out.push(c);
    }
    for i in 0..s.faults.crashes.len() {
        let mut c = s.clone();
        let victim = c.faults.crashes.remove(i).victim;
        c.faults.restarts.retain(|r| r.victim != victim);
        out.push(c);
    }
    if !s.early_abort {
        let mut c = s.clone();
        c.early_abort = true;
        out.push(c);
    }
    out
}

/// Shrinks `start` while `fails` keeps holding, returning a locally
/// minimal schedule on which it still holds.
///
/// The predicate is re-evaluated on every candidate, so it should be
/// deterministic (chaos runs are: a schedule fixes every seed).
pub fn shrink_schedule<F>(start: &ChaosSchedule, mut fails: F) -> ChaosSchedule
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let mut current = start.clone();
    loop {
        let mut improved = false;
        for candidate in candidates(&current) {
            if fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Shrinks a schedule that violates safety on the simulator to a
/// locally minimal violating schedule. If `start` does not actually
/// violate (e.g. the violation was runtime-only timing), `start` is
/// returned unchanged.
pub fn shrink_sim_violation(start: &ChaosSchedule, max_events: u64) -> ChaosSchedule {
    let violates = |s: &ChaosSchedule| {
        matches!(
            run_on_sim(s, max_events).outcome,
            ChaosOutcome::Violation(_)
        )
    };
    if !violates(start) {
        return start.clone();
    }
    shrink_schedule(start, violates)
}

#[cfg(test)]
mod tests {
    use rtc_model::ProcessorId;

    use super::*;

    #[test]
    fn shrinks_to_a_minimal_reproducer_for_a_synthetic_predicate() {
        // Find a busy generated schedule and pretend the "bug" needs
        // only one specific ingredient: some crash of processor p.
        let start = (0..200)
            .map(|i| ChaosSchedule::generate(77, i))
            .find(|s| {
                let f = &s.faults;
                !f.crashes.is_empty() && (!f.outages.is_empty() || f.delay != DelayModel::None)
            })
            .expect("the campaign generates busy schedules");
        let p: ProcessorId = start.faults.crashes[0].victim;
        let fails = |s: &ChaosSchedule| s.faults.crashes.iter().any(|c| c.victim == p);

        let min = shrink_schedule(&start, fails);
        assert!(fails(&min), "shrinking must preserve the predicate");
        let f = &min.faults;
        assert_eq!(f.crashes.len(), 1, "only the needed crash survives");
        assert_eq!(f.crashes[0].victim, p);
        assert!(f.outages.is_empty());
        assert!(f.restarts.is_empty());
        assert_eq!(f.delay, DelayModel::None);
        assert!(f.partitions.is_empty());
        assert_eq!(f.duplicate_permille, 0);
        assert_eq!(f.reorder_permille, 0);
    }

    #[test]
    fn non_violating_schedule_is_returned_unchanged() {
        let s = ChaosSchedule::generate(3, 0);
        assert_eq!(shrink_sim_violation(&s, 300_000), s);
    }
}
