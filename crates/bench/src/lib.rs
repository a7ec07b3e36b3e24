//! Exact-cost pins. There is no library code here.
//!
//! `tests/` pins costs that are exact functions of the seed, through a
//! per-thread counting allocator: the message hot path
//! (`hot_path_counts.rs`) and a transaction's independence of the store
//! size (`txn_alloc_independence.rs`). They are `assert!`s, the same in
//! debug and release.
//!
//! Performance claims are read from `benchmark/` (`BENCHMARK.json`),
//! whose paired runs are the repository's one benchmark system.

#![forbid(unsafe_code)]
