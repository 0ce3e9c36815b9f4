//! The clock seam: wall time for ops, manual time for deterministic tests.
//!
//! This is the workspace's one clock trait: `ebird-runtime` re-exports it,
//! and `Pool::timed_parts_mut` takes the paper's Listing-1 stamps from it.
//! This file is the **only** place in `ebird-obs` that reads the wall clock,
//! and it is waived as such in `lint.toml` (`no-wall-clock`). Everything
//! else in the crate takes time as data through [`TimeSource`], so tests
//! drive a [`ManualClock`] by metered work units and stay bit-deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// The paper stamps with `clock_gettime(CLOCK_MONOTONIC)`, which is ordered
/// per core but **not** comparable across cores, and this trait promises no
/// more: two reads from the same thread never go backwards. Consumers
/// subtract a thread's own stamps (`ebird_core::ThreadSample::new`) and never
/// compare two threads' raw readings.
pub trait TimeSource: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin. Must be monotonic.
    fn now_ns(&self) -> u64;
}

/// Wall time (`std::time::Instant`, `CLOCK_MONOTONIC` on Linux), anchored
/// at construction so readings stay small. The ops-side implementation.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-advanced clock for work-metered deterministic tests.
///
/// Tests advance it by whatever "work unit" they meter (operations, bytes,
/// iterations), so recorded durations — and therefore every histogram
/// bucket and span event — are bit-identical across runs and hosts.
#[derive(Debug, Default)]
pub struct ManualClock {
    ns: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `delta_ns` nanoseconds of metered work.
    pub fn advance(&self, delta_ns: u64) {
        self.ns.fetch_add(delta_ns, Ordering::Relaxed);
    }

    /// Set the clock to an absolute nanosecond reading.
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }
}

impl TimeSource for ManualClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_and_sets() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(250);
        c.advance(250);
        assert_eq!(c.now_ns(), 500);
        c.set(42);
        assert_eq!(c.now_ns(), 42);
    }

    #[test]
    fn wall_clock_is_monotonic_and_measures_real_time() {
        let c = WallClock::new();
        let mut prev = c.now_ns();
        for _ in 0..10_000 {
            let now = c.now_ns();
            assert!(now >= prev);
            prev = now;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        let elapsed_ns = c.now_ns() - prev;
        // A generous upper bound: loaded hosts oversleep.
        assert!(
            (9_000_000..2_000_000_000).contains(&elapsed_ns),
            "{elapsed_ns} ns"
        );
    }
}
