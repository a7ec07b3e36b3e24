//! A counting global allocator for the exact `*allocs_per_*` metrics.
//!
//! The counter is a plain thread-local cell, not an atomic: it costs
//! about a nanosecond per allocation, so it stays installed in the
//! untraced runs too (identically on every commit measured), and it
//! counts only the calling thread — the driver thread, which is where
//! every simulated workload runs. Threads the system under test spawns
//! (`rtc-net`) count into their own cells and are not reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls to `alloc` and
/// `realloc` on the calling thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump. The counter is const-initialised and has
// no destructor, so touching it cannot allocate or run during thread
// teardown (`try_with` covers the teardown window regardless).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the calling thread since it started.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
