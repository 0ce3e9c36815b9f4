//! Per-thread timing samples and the dense 4-D index arithmetic.

/// One thread's measurement for one parallel region execution: its *compute
/// time*, the nanoseconds between the enter and exit stamps a per-core
/// monotonic clock took around the work-sharing loop.
///
/// Raw stamps are **not** comparable across threads, so they are not kept:
/// [`new`](ThreadSample::new) subtracts them once, where they are taken,
/// which cancels the per-core clock offset — the paper's derived metric and
/// the only number any analysis stage reads. A sample is one machine word,
/// and a sample with `exit < enter` cannot be represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadSample {
    compute_ns: u64,
}

impl ThreadSample {
    /// Creates a sample from the stamp taken when the thread entered the
    /// work-sharing loop (after the synchronizing barrier of Listing 1) and
    /// the one taken when it left (`nowait`: no barrier first).
    /// Debug-asserts monotonicity; a release build stores zero for a corrupt
    /// pair rather than panicking in an analysis run.
    #[inline]
    pub fn new(enter_ns: u64, exit_ns: u64) -> Self {
        debug_assert!(exit_ns >= enter_ns, "exit {exit_ns} < enter {enter_ns}");
        ThreadSample {
            compute_ns: exit_ns.saturating_sub(enter_ns),
        }
    }

    /// The paper's *compute time*: elapsed nanoseconds inside the loop.
    #[inline]
    pub fn compute_time_ns(&self) -> u64 {
        self.compute_ns
    }

    /// Compute time in milliseconds (the paper's reporting unit).
    #[inline]
    pub fn compute_time_ms(&self) -> f64 {
        ns_to_ms(self.compute_ns)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    }

    /// `new` debug-asserts `exit ≥ enter`; where that is compiled out, the
    /// corrupt pair stores zero.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exit 50 < enter 100"))]
    fn corrupt_stamps_saturate_to_zero() {
        assert_eq!(ThreadSample::new(100, 50).compute_time_ns(), 0);
    }

    #[test]
    fn zero_length_sample_is_valid() {
        let s = ThreadSample::new(42, 42);
        assert_eq!(s.compute_time_ns(), 0);
        assert_eq!(s, ThreadSample::default());
    }

    #[test]
    fn index_display_is_compact() {
        let idx = SampleIndex::new(1, 2, 3, 4);
        assert_eq!(idx.to_string(), "t1/r2/i3/th4");
    }
}
