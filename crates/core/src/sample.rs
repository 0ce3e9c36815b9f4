//! Per-thread timing samples and the dense 4-D index arithmetic: the
//! coordinates that name one sample and the shape of the space they span.

use serde::{Deserialize, Serialize};

use crate::CoreError;

/// One thread's measurement for one parallel region execution: its *compute
/// time*, the nanoseconds between the enter and exit stamps a per-core
/// monotonic clock took around the work-sharing loop.
///
/// Raw stamps are **not** comparable across threads, so they are not kept:
/// [`new`](ThreadSample::new) subtracts them once, where they are taken,
/// which cancels the per-core clock offset — the paper's derived metric and
/// the only number any analysis stage reads. A sample is half a machine
/// word, a `u32` of nanoseconds, and a sample with `exit < enter` cannot be
/// represented.
///
/// # The ceiling
/// A `u32` holds [`CEILING_NS`](ThreadSample::CEILING_NS) ≈ 4.29 s, 40×
/// the largest paper-scale sample (102.1 ms, MiniQMC at the default seed):
/// the paper's samples are millisecond-scale loop timings. Nothing past it
/// is clipped silently; each way a sample enters a trace has one rule:
/// - [`new`](ThreadSample::new) saturates at the ceiling, as it saturates
///   at 0 for a corrupt pair, so a reader can tell a clipped sample by its
///   value;
/// - synthetic generation clamps each draw above at the ceiling, beside
///   its clamp below at 0.01 × the median — only an inline model whose
///   draws pass 4.29 s reaches it;
/// - a measured campaign (`ebird_cluster::run_real_campaign`, wall-clock or
///   work-metered) refuses a sample at the ceiling with a typed error
///   instead of filing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadSample {
    compute_ns: u32,
}

impl ThreadSample {
    /// The largest compute time a sample holds, in nanoseconds (`u32::MAX`,
    /// ≈ 4.29 s); [`new`](Self::new) saturates here.
    pub const CEILING_NS: u64 = u32::MAX as u64;

    /// Creates a sample from the stamp taken when the thread entered the
    /// work-sharing loop (after the synchronizing barrier of Listing 1) and
    /// the one taken when it left (`nowait`: no barrier first).
    /// Debug-asserts monotonicity; a release build stores zero for a corrupt
    /// pair rather than panicking in an analysis run. A compute time past
    /// [`CEILING_NS`](Self::CEILING_NS) saturates there.
    #[inline]
    pub fn new(enter_ns: u64, exit_ns: u64) -> Self {
        debug_assert!(exit_ns >= enter_ns, "exit {exit_ns} < enter {enter_ns}");
        let compute_ns = exit_ns.saturating_sub(enter_ns);
        ThreadSample {
            compute_ns: u32::try_from(compute_ns).unwrap_or(u32::MAX),
        }
    }

    /// The paper's *compute time*: elapsed nanoseconds inside the loop.
    #[inline]
    pub fn compute_time_ns(&self) -> u64 {
        u64::from(self.compute_ns)
    }

    /// The compute time as the sample holds it: a `u32` of nanoseconds,
    /// at most [`CEILING_NS`](Self::CEILING_NS). The normality sweep sorts
    /// these as its keys.
    #[inline]
    pub fn compute_ns(&self) -> u32 {
        self.compute_ns
    }

    /// Compute time in milliseconds (the paper's reporting unit).
    #[inline]
    pub fn compute_time_ms(&self) -> f64 {
        ns_to_ms(self.compute_time_ns())
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

/// The four dimension sizes of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceShape {
    /// Number of job repetitions (paper: 10).
    pub trials: usize,
    /// Number of ranks per job (paper: 8).
    pub ranks: usize,
    /// Number of application iterations (paper: 200).
    pub iterations: usize,
    /// Number of threads per rank (paper: 48).
    pub threads: usize,
}

impl TraceShape {
    /// Creates a shape.
    ///
    /// # Errors
    /// [`CoreError::EmptyShape`] if any dimension is zero.
    pub fn new(
        trials: usize,
        ranks: usize,
        iterations: usize,
        threads: usize,
    ) -> Result<Self, CoreError> {
        if trials == 0 || ranks == 0 || iterations == 0 || threads == 0 {
            return Err(CoreError::EmptyShape);
        }
        Ok(TraceShape {
            trials,
            ranks,
            iterations,
            threads,
        })
    }

    /// Total number of samples (`trials × ranks × iterations × threads`).
    pub fn total_samples(&self) -> usize {
        self.trials * self.ranks * self.iterations * self.threads
    }

    /// Number of process-iteration units (`trials × ranks × iterations`).
    pub fn process_iterations(&self) -> usize {
        self.trials * self.ranks * self.iterations
    }

    /// Samples contributing to one application iteration
    /// (`trials × ranks × threads`; paper: 3,840).
    pub fn samples_per_app_iteration(&self) -> usize {
        self.trials * self.ranks * self.threads
    }

    /// Decodes a flat process-iteration index in `0..process_iterations()`
    /// (trace order: trial-major, iteration innermost) into
    /// `(trial, rank, iteration)`.
    pub fn unit_coords(&self, unit: usize) -> (usize, usize, usize) {
        let iteration = unit % self.iterations;
        let rest = unit / self.iterations;
        (rest / self.ranks, rest % self.ranks, iteration)
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

    /// Past the ceiling, `new` saturates rather than wrapping.
    #[test]
    fn an_over_ceiling_compute_time_saturates() {
        assert_eq!(ThreadSample::CEILING_NS, 4_294_967_295);
        let s = ThreadSample::new(0, 5_000_000_000);
        assert_eq!(s.compute_time_ns(), ThreadSample::CEILING_NS);
        assert_eq!(ThreadSample::new(7, 7 + ThreadSample::CEILING_NS), s);
        let below = ThreadSample::new(0, ThreadSample::CEILING_NS - 1);
        assert_eq!(below.compute_time_ns(), ThreadSample::CEILING_NS - 1);
        assert_eq!(std::mem::size_of::<ThreadSample>(), 4);
    }

    #[test]
    fn zero_length_sample_is_valid() {
        let s = ThreadSample::new(42, 42);
        assert_eq!(s.compute_time_ns(), 0);
        assert_eq!(s, ThreadSample::default());
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_ms(1_500_000), 1.5);
        assert_eq!(ns_to_ms(0), 0.0);
    }

    #[test]
    fn shape_arithmetic() {
        let s = TraceShape::new(2, 3, 4, 5).unwrap();
        assert_eq!(s.total_samples(), 120);
        assert_eq!(s.process_iterations(), 24);
        assert_eq!(s.samples_per_app_iteration(), 30);
        // The paper's full-scale shape.
        let paper = TraceShape::new(10, 8, 200, 48).unwrap();
        assert_eq!(paper.total_samples(), 768_000);
        assert_eq!(paper.process_iterations(), 16_000);
        assert_eq!(paper.samples_per_app_iteration(), 3_840);
    }

    #[test]
    fn shape_rejects_zero_dimension() {
        assert!(matches!(
            TraceShape::new(0, 1, 1, 1),
            Err(CoreError::EmptyShape)
        ));
        assert!(matches!(
            TraceShape::new(1, 1, 1, 0),
            Err(CoreError::EmptyShape)
        ));
    }
}
