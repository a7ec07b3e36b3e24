//! The reference kernel: a fixed piece of work, built on nothing but
//! `std`, run between batches to gauge how fast the host is *right
//! now*.
//!
//! The host this benchmark was written on drifts by a fifth between
//! fast and slow minutes (a bare spin loop shows it), so a wall-clock
//! figure says as much about the minute it was taken in as about the
//! code. The kernel's own time tracks that drift, so every timed
//! end-to-end figure of a CPU-bound workload is reported **at reference
//! speed**: scaled to a host that runs the kernel in exactly
//! [`REFERENCE`]. The raw per-round rates and speeds are kept in the
//! run file. The kernel uses no code of the repository, so no change to
//! the repository can move the yardstick.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host.
pub const REFERENCE: Duration = Duration::from_micros(60);

/// The kernel is run whenever this much time has passed since its last
/// run: often enough to see a burst of a tenth of a second, seldom
/// enough to cost a few percent.
pub const EVERY: Duration = Duration::from_millis(5);

/// The kernel's data: an ordered map of string keys the size of the
/// largest store a workload carries (cloned and updated, as the
/// transaction layer does), a run of small short-lived allocations (as
/// the protocol's fan-out makes), and a byte buffer (checksummed bit by
/// bit, as the WAL does). Memory- and allocator-bound on purpose: that
/// is what the workloads are, and what a slow minute of the host slows
/// most.
struct Kernel {
    map: BTreeMap<String, i64>,
    keys: Vec<String>,
    buf: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        let keys: Vec<String> = (0..1024).map(|k| format!("ref{k:04}")).collect();
        Kernel {
            map: keys.iter().cloned().map(|k| (k, 1000)).collect(),
            keys,
            buf: vec![0u8; 4096],
        }
    }

    /// One unit of reference work.
    fn run(&mut self) -> u64 {
        let mut scratch = self.map.clone();
        for (i, k) in self.keys.iter().enumerate().step_by(32) {
            *scratch.entry(k.clone()).or_default() += i as i64;
        }
        let mut acc = scratch.values().sum::<i64>() as u64;
        let bundles: Vec<Vec<u64>> = (0..256u64).map(|i| vec![i ^ acc; 15]).collect();
        acc = acc.wrapping_add(bundles.iter().map(|b| b[7]).sum::<u64>());
        let mut crc = u32::MAX;
        for b in &mut self.buf {
            *b = b.wrapping_add(acc as u8);
            crc ^= u32::from(*b);
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
        black_box(acc.wrapping_add(u64::from(crc)))
    }

    /// Runs the kernel twice and times the second pass: the first pulls
    /// the kernel's own data back into cache, so the figure depends on
    /// the host's speed and not on what the workload left in the cache.
    fn timed(&mut self) -> Duration {
        self.run();
        let started = Instant::now();
        self.run();
        started.elapsed()
    }
}

/// Host slowness from kernel passes: the mean pass time over
/// [`REFERENCE`] — above 1 on a host (or in a minute) slower than the
/// reference. With no passes the figure is 1: nothing is rescaled.
fn slowness(total: Duration, passes: u64) -> f64 {
    if passes == 0 {
        1.0
    } else {
        total.as_secs_f64() / passes as f64 / REFERENCE.as_secs_f64()
    }
}

/// Reference-kernel passes since the last reading: how slow the host
/// was while they ran, and how much time they took out of the round.
pub struct Gauge {
    kernel: Kernel,
    timed: Duration,
    passes: u64,
    spent: Duration,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            kernel: Kernel::new(),
            timed: Duration::ZERO,
            passes: 0,
            spent: Duration::ZERO,
        }
    }

    /// One kernel pass.
    pub fn pass(&mut self) {
        let started = Instant::now();
        self.timed += self.kernel.timed();
        self.passes += 1;
        self.spent += started.elapsed();
    }

    /// The host's slowness over the passes since the last reading, and
    /// the time they took; starts the next reading.
    pub fn read(&mut self) -> (f64, Duration) {
        let reading = (slowness(self.timed, self.passes), self.spent);
        (self.timed, self.passes, self.spent) = (Duration::ZERO, 0, Duration::ZERO);
        reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_slowness_is_relative_to_reference() {
        assert_eq!(Kernel::new().run(), Kernel::new().run());
        assert_eq!(slowness(Duration::ZERO, 0), 1.0);
        assert!((slowness(REFERENCE * 6, 3) - 2.0).abs() < 1e-9);
        assert!(Kernel::new().timed() > Duration::ZERO);
    }
}
