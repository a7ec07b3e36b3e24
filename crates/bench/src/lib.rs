//! Criterion kernels and exact-cost pins. There is no library code here.
//!
//! * `benches/paper.rs` and `benches/substrates.rs` hold one kernel per
//!   experiment of `EXPERIMENTS.md` and per substrate (DESIGN.md S14):
//!   `cargo bench -p rtc-bench` times them, and `-- --test` runs each
//!   once. They commit no numbers and gate nothing.
//! * `tests/` pins costs that are exact functions of the seed, through a
//!   per-thread counting allocator: the message hot path
//!   (`hot_path_counts.rs`) and a transaction's independence of the
//!   store size (`txn_alloc_independence.rs`).
//!
//! Performance claims are read from `benchmark/` (`BENCHMARK.json`),
//! whose paired runs are the repository's one benchmark system.

#![forbid(unsafe_code)]
