//! Per-thread timing samples and the dense 4-D index arithmetic.

use serde::{Deserialize, Serialize};

/// One thread's measurement for one parallel region execution: the raw
/// enter/exit timestamps from a per-core monotonic clock.
///
/// Raw stamps are **not** comparable across threads; use
/// [`compute_time_ns`](ThreadSample::compute_time_ns), which cancels per-core
/// clock offsets by subtraction — the paper's derived metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ThreadSample {
    /// Timestamp when the thread entered the work-sharing loop (after the
    /// synchronizing barrier of Listing 1).
    pub enter_ns: u64,
    /// Timestamp when the thread left the loop (`nowait`: no barrier first).
    pub exit_ns: u64,
}

impl ThreadSample {
    /// Creates a sample; debug-asserts monotonicity.
    pub fn new(enter_ns: u64, exit_ns: u64) -> Self {
        debug_assert!(exit_ns >= enter_ns, "exit {exit_ns} < enter {enter_ns}");
        ThreadSample { enter_ns, exit_ns }
    }

    /// The paper's *compute time*: elapsed nanoseconds inside the loop.
    /// Saturates at zero if the sample is corrupt rather than panicking in
    /// release analysis runs.
    #[inline]
    pub fn compute_time_ns(&self) -> u64 {
        self.exit_ns.saturating_sub(self.enter_ns)
    }

    /// Compute time in milliseconds (the paper's reporting unit).
    #[inline]
    pub fn compute_time_ms(&self) -> f64 {
        ns_to_ms(self.compute_time_ns())
    }

    /// `true` when `exit ≥ enter` (what a monotonic clock guarantees).
    #[inline]
    pub fn is_monotone(&self) -> bool {
        self.exit_ns >= self.enter_ns
    }
}

/// Nanoseconds as `f64` milliseconds — the one definition of the conversion,
/// so code that orders integer nanosecond keys first and converts afterwards
/// (the normality sweep) yields the bits [`ThreadSample::compute_time_ms`]
/// does. Monotone non-decreasing: both the rounding `u64 → f64` cast and the
/// division by a positive constant preserve order.
#[inline]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

/// Logical coordinates of one sample in a job's data set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleIndex {
    /// Which trial (job repetition); paper: 0..10.
    pub trial: usize,
    /// Which MPI-rank analogue; paper: 0..8.
    pub rank: usize,
    /// Which application iteration; paper: 0..200.
    pub iteration: usize,
    /// Which thread in the rank's pool; paper: 0..48.
    pub thread: usize,
}

impl SampleIndex {
    /// Convenience constructor.
    pub fn new(trial: usize, rank: usize, iteration: usize, thread: usize) -> Self {
        SampleIndex {
            trial,
            rank,
            iteration,
            thread,
        }
    }
}

impl std::fmt::Display for SampleIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t{}/r{}/i{}/th{}",
            self.trial, self.rank, self.iteration, self.thread
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_is_difference() {
        let s = ThreadSample::new(1_000, 3_500_000);
        assert_eq!(s.compute_time_ns(), 3_499_000);
        assert!((s.compute_time_ms() - 3.499).abs() < 1e-12);
        assert!(s.is_monotone());
    }

    #[test]
    fn compute_time_saturates_on_corrupt_sample() {
        let s = ThreadSample {
            enter_ns: 100,
            exit_ns: 50,
        };
        assert_eq!(s.compute_time_ns(), 0);
        assert!(!s.is_monotone());
    }

    #[test]
    fn zero_length_sample_is_valid() {
        let s = ThreadSample::new(42, 42);
        assert_eq!(s.compute_time_ns(), 0);
        assert!(s.is_monotone());
    }

    #[test]
    fn index_display_is_compact() {
        let idx = SampleIndex::new(1, 2, 3, 4);
        assert_eq!(idx.to_string(), "t1/r2/i3/th4");
    }

    #[test]
    fn sample_serde_roundtrip() {
        let s = ThreadSample::new(7, 19);
        let json = serde_json::to_string(&s).unwrap();
        let back: ThreadSample = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
