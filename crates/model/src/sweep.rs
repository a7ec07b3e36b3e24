//! Shared machinery for sweeps: an enumerator for bounded exhaustive
//! ones and an ordered parallel map for seeded ones.
//!
//! The lockstep model checker (`rtc-lockstep`) and the asynchronous
//! spec checker (`rtc-spec`) both compose their schedule spaces with
//! "every single-crash placement": one processor crashing at one slot
//! of the explored horizon, plus the no-crash case. Keeping the
//! enumerator here makes the two sweeps provably cover the same crash
//! space — and keeps its order stable, since the lockstep suite pins
//! path counts derived from it.
//!
//! The Monte-Carlo experiments (`rtc-experiments`) and the chaos
//! campaign (`rtc-chaos`) both run many independent seeded trials and
//! fold the results; [`par_map`] spreads the trials over threads and
//! hands the results back in index order, so any fold over them is the
//! serial loop's.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use crate::ids::ProcessorId;

/// Every single-crash placement for a population of `n` over `slots`
/// schedule slots, the no-crash case first: `None`, then
/// `Some((p, slot))` for each processor in id order, each slot in
/// ascending order within a processor (`1 + n * slots` entries).
///
/// What a *slot* means is the sweep's choice — the lockstep checker
/// crashes the victim at branch cycle `slot`; the async spec checker
/// crashes it after its `slot`-th step.
pub fn single_crash_placements(n: usize, slots: usize) -> Vec<Option<(ProcessorId, usize)>> {
    let mut v = Vec::with_capacity(1 + n * slots);
    v.push(None);
    for p in ProcessorId::all(n) {
        for slot in 0..slots {
            v.push(Some((p, slot)));
        }
    }
    v
}

/// Maps `f` over `0..count` on `workers` threads and returns the
/// results in index order, exactly as `(0..count).map(f)` would.
///
/// `workers: 0` sizes to the machine (`available_parallelism`), `1`
/// runs everything on the calling thread; never more threads than
/// indices. The threads steal *chunks* of consecutive indices off a
/// shared cursor. A fixed `i % workers` stride would pin each index to
/// one thread up front, so a single slow trial (a chaos campaign's
/// schedules vary by three orders of magnitude) strands the rest of
/// that thread's stride while its siblings sit idle; eight chunks per
/// thread keep the cursor uncontended without recreating that
/// imbalance.
///
/// `f` runs once per index on an unspecified thread. The results are
/// the serial loop's for any worker count as long as `f` derives
/// everything from its index argument.
pub fn par_map<T, F>(count: u64, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = match workers {
        0 => thread::available_parallelism().map_or(1, NonZeroUsize::get),
        workers => workers,
    }
    .min(usize::try_from(count.max(1)).unwrap_or(usize::MAX));
    let chunk = (count / (workers as u64 * 8)).max(1);
    // The cursor hands out indices and publishes nothing else: each
    // thread's results come back through its join.
    let next = AtomicU64::new(0);
    let steal = || {
        let mut out = Vec::new();
        loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= count {
                break out;
            }
            let hi = lo.saturating_add(chunk).min(count);
            out.extend((lo..hi).map(|i| (i, f(i))));
        }
    };
    // The calling thread is the first worker, so `workers: 1` spawns
    // nothing.
    let mut results = thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(steal)).collect();
        let mut results = steal();
        for handle in others {
            results.extend(handle.join().expect("sweep worker panicked"));
        }
        results
    });
    results.sort_unstable_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_every_worker_count() {
        let serial: Vec<u64> = (0..100).map(|i| i * 3).collect();
        for workers in [0, 1, 2, 3, 8, 200] {
            assert_eq!(
                par_map(100, workers, |i| i * 3),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn zero_and_one_indices_work() {
        assert!(par_map(0, 0, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i), vec![0]);
    }

    #[test]
    fn no_crash_comes_first_and_count_is_exact() {
        let placements = single_crash_placements(3, 5);
        assert_eq!(placements.len(), 1 + 3 * 5);
        assert_eq!(placements[0], None);
        assert_eq!(placements[1], Some((ProcessorId::new(0), 0)));
        assert_eq!(placements[2], Some((ProcessorId::new(0), 1)));
        assert_eq!(placements[6], Some((ProcessorId::new(1), 0)));
        assert_eq!(*placements.last().unwrap(), Some((ProcessorId::new(2), 4)));
    }

    #[test]
    fn zero_slots_degenerates_to_no_crash() {
        assert_eq!(single_crash_placements(4, 0), vec![None]);
    }
}
