//! `TimingTrace`: the dense `(trial, rank, iteration, thread)` sample store.
//!
//! The paper's data set per application is 10 trials × 8 ranks ×
//! 200 iterations × 48 threads = 768,000 samples. The trace stores them as
//! one dense column of compute times — 8 bytes a sample, 5.9 MiB per
//! application at that scale — with *thread* innermost, so one
//! **process-iteration** — the paper's finest aggregation unit (one rank's
//! thread pool in one iteration) — is a contiguous slice, and one
//! **application iteration** is a strided gather.

use serde::{Deserialize, Serialize};

use crate::sample::{SampleIndex, ThreadSample};
use crate::CoreError;

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

    /// The paper's full-scale shape: 10 × 8 × 200 × 48.
    pub fn paper_scale() -> Self {
        TraceShape {
            trials: 10,
            ranks: 8,
            iterations: 200,
            threads: 48,
        }
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

    /// Flat offset of a sample (thread innermost, trial outermost).
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] naming the offending dimension.
    pub fn flat(&self, idx: SampleIndex) -> Result<usize, CoreError> {
        let check = |dim: &'static str, index: usize, size: usize| {
            if index < size {
                Ok(())
            } else {
                Err(CoreError::IndexOutOfBounds { dim, index, size })
            }
        };
        check("trial", idx.trial, self.trials)?;
        check("rank", idx.rank, self.ranks)?;
        check("iteration", idx.iteration, self.iterations)?;
        check("thread", idx.thread, self.threads)?;
        Ok(
            ((idx.trial * self.ranks + idx.rank) * self.iterations + idx.iteration) * self.threads
                + idx.thread,
        )
    }

    /// Decodes a flat process-iteration index in `0..process_iterations()`
    /// (trace order: trial-major, iteration innermost) into
    /// `(trial, rank, iteration)`.
    pub fn unit_coords(&self, unit: usize) -> (usize, usize, usize) {
        let iteration = unit % self.iterations;
        let rest = unit / self.iterations;
        (rest / self.ranks, rest % self.ranks, iteration)
    }

    /// Inverse of [`flat`](TraceShape::flat).
    pub fn unflat(&self, flat: usize) -> SampleIndex {
        let (trial, rank, iteration) = self.unit_coords(flat / self.threads);
        SampleIndex {
            trial,
            rank,
            iteration,
            thread: flat % self.threads,
        }
    }
}

/// A complete timing data set for one application run campaign. Holds
/// exactly `shape.total_samples()` samples: every constructor sizes or checks
/// the column.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingTrace {
    app: String,
    shape: TraceShape,
    samples: Vec<ThreadSample>,
}

impl TimingTrace {
    /// Allocates a zero-filled trace for `shape`.
    pub fn new(app: impl Into<String>, shape: TraceShape) -> Self {
        TimingTrace {
            app: app.into(),
            shape,
            samples: vec![ThreadSample::default(); shape.total_samples()],
        }
    }

    /// Wraps an already-filled sample column (thread innermost, the layout of
    /// [`samples`](Self::samples)) without copying it — how a bulk producer
    /// that pushes each sample once (parallel generation) hands its storage
    /// over.
    ///
    /// # Errors
    /// [`CoreError::ShapeMismatch`] unless `samples` holds exactly
    /// `shape.total_samples()` entries.
    pub fn from_samples(
        app: impl Into<String>,
        shape: TraceShape,
        samples: Vec<ThreadSample>,
    ) -> Result<Self, CoreError> {
        if samples.len() != shape.total_samples() {
            return Err(CoreError::ShapeMismatch);
        }
        Ok(TimingTrace {
            app: app.into(),
            shape,
            samples,
        })
    }

    /// Builds a trace by evaluating `f` at every index (used by the synthetic
    /// generators, which compute each sample independently).
    pub fn from_fn(
        app: impl Into<String>,
        shape: TraceShape,
        mut f: impl FnMut(SampleIndex) -> ThreadSample,
    ) -> Self {
        let mut samples = Vec::with_capacity(shape.total_samples());
        for flat in 0..shape.total_samples() {
            samples.push(f(shape.unflat(flat)));
        }
        TimingTrace {
            app: app.into(),
            shape,
            samples,
        }
    }

    /// Application name this trace belongs to (e.g. `"MiniFE"`).
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The trace's shape.
    pub fn shape(&self) -> TraceShape {
        self.shape
    }

    /// Reads one sample.
    pub fn get(&self, idx: SampleIndex) -> Result<ThreadSample, CoreError> {
        Ok(self.samples[self.shape.flat(idx)?])
    }

    /// Writes one sample.
    pub fn set(&mut self, idx: SampleIndex, s: ThreadSample) -> Result<(), CoreError> {
        let flat = self.shape.flat(idx)?;
        self.samples[flat] = s;
        Ok(())
    }

    /// All samples, flat (thread innermost).
    pub fn samples(&self) -> &[ThreadSample] {
        &self.samples
    }

    /// The contiguous slice of one process-iteration's per-thread samples.
    pub fn process_iteration(
        &self,
        trial: usize,
        rank: usize,
        iteration: usize,
    ) -> Result<&[ThreadSample], CoreError> {
        let start = self
            .shape
            .flat(SampleIndex::new(trial, rank, iteration, 0))?;
        Ok(&self.samples[start..start + self.shape.threads])
    }

    /// Mutable variant of [`process_iteration`](Self::process_iteration),
    /// where a campaign runner writes one iteration's per-thread samples.
    pub fn process_iteration_mut(
        &mut self,
        trial: usize,
        rank: usize,
        iteration: usize,
    ) -> Result<&mut [ThreadSample], CoreError> {
        let start = self
            .shape
            .flat(SampleIndex::new(trial, rank, iteration, 0))?;
        let threads = self.shape.threads;
        Ok(&mut self.samples[start..start + threads])
    }

    /// Compute times (ms) of one process-iteration, in thread order.
    pub fn process_iteration_ms(
        &self,
        trial: usize,
        rank: usize,
        iteration: usize,
    ) -> Result<Vec<f64>, CoreError> {
        Ok(self
            .process_iteration(trial, rank, iteration)?
            .iter()
            .map(ThreadSample::compute_time_ms)
            .collect())
    }

    /// Compute times (ms) of one application iteration, gathered across all
    /// trials and ranks (paper: 3,840 values per iteration).
    pub fn app_iteration_ms(&self, iteration: usize) -> Result<Vec<f64>, CoreError> {
        if iteration >= self.shape.iterations {
            return Err(CoreError::IndexOutOfBounds {
                dim: "iteration",
                index: iteration,
                size: self.shape.iterations,
            });
        }
        let mut out = Vec::with_capacity(self.shape.samples_per_app_iteration());
        for trial in 0..self.shape.trials {
            for rank in 0..self.shape.ranks {
                out.extend(
                    self.process_iteration(trial, rank, iteration)?
                        .iter()
                        .map(ThreadSample::compute_time_ms),
                );
            }
        }
        Ok(out)
    }

    /// All compute times (ms), application-level aggregation
    /// (paper: 768,000 values).
    pub fn all_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(ThreadSample::compute_time_ms)
            .collect()
    }

    /// Iterates over every process-iteration as
    /// `(trial, rank, iteration, samples)`.
    pub fn iter_process_iterations(
        &self,
    ) -> impl Iterator<Item = (usize, usize, usize, &[ThreadSample])> {
        let shape = self.shape;
        (0..shape.trials).flat_map(move |t| {
            (0..shape.ranks).flat_map(move |r| {
                (0..shape.iterations).map(move |i| {
                    let slice = self
                        .process_iteration(t, r, i)
                        .expect("in-range by construction");
                    (t, r, i, slice)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> TraceShape {
        TraceShape::new(2, 3, 4, 5).unwrap()
    }

    #[test]
    fn shape_arithmetic() {
        let s = small_shape();
        assert_eq!(s.total_samples(), 120);
        assert_eq!(s.process_iterations(), 24);
        assert_eq!(s.samples_per_app_iteration(), 30);
        let paper = TraceShape::paper_scale();
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

    #[test]
    fn flat_unflat_roundtrip() {
        let s = small_shape();
        for flat in 0..s.total_samples() {
            let idx = s.unflat(flat);
            assert_eq!(s.flat(idx).unwrap(), flat);
        }
    }

    #[test]
    fn flat_checks_bounds_per_dimension() {
        let s = small_shape();
        let e = s.flat(SampleIndex::new(2, 0, 0, 0)).unwrap_err();
        assert!(e.to_string().contains("trial index 2"));
        let e = s.flat(SampleIndex::new(0, 3, 0, 0)).unwrap_err();
        assert!(e.to_string().contains("rank index 3"));
        let e = s.flat(SampleIndex::new(0, 0, 4, 0)).unwrap_err();
        assert!(e.to_string().contains("iteration index 4"));
        let e = s.flat(SampleIndex::new(0, 0, 0, 5)).unwrap_err();
        assert!(e.to_string().contains("thread index 5"));
    }

    #[test]
    fn thread_is_innermost() {
        let s = small_shape();
        let a = s.flat(SampleIndex::new(0, 0, 0, 0)).unwrap();
        let b = s.flat(SampleIndex::new(0, 0, 0, 1)).unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut tr = TimingTrace::new("test", small_shape());
        let idx = SampleIndex::new(1, 2, 3, 4);
        tr.set(idx, ThreadSample::new(10, 30)).unwrap();
        assert_eq!(tr.get(idx).unwrap(), ThreadSample::new(10, 30));
        assert_eq!(tr.app(), "test");
    }

    #[test]
    fn from_fn_populates_every_sample() {
        let tr = TimingTrace::from_fn("f", small_shape(), |idx| {
            ThreadSample::new(0, (idx.thread + 1) as u64 * 1000)
        });
        for (_, _, _, slice) in tr.iter_process_iterations() {
            for (t, s) in slice.iter().enumerate() {
                assert_eq!(s.compute_time_ns(), (t + 1) as u64 * 1000);
            }
        }
    }

    #[test]
    fn process_iteration_is_contiguous_thread_order() {
        let tr = TimingTrace::from_fn("f", small_shape(), |idx| {
            ThreadSample::new(0, idx.thread as u64)
        });
        let pi = tr.process_iteration(1, 1, 1).unwrap();
        assert_eq!(pi.len(), 5);
        for (t, s) in pi.iter().enumerate() {
            assert_eq!(s.compute_time_ns(), t as u64);
        }
    }

    #[test]
    fn app_iteration_gathers_all_ranks_and_trials() {
        let shape = small_shape();
        let tr = TimingTrace::from_fn("f", shape, |idx| {
            ThreadSample::new(0, (idx.iteration as u64 + 1) * 1_000_000)
        });
        let ms = tr.app_iteration_ms(2).unwrap();
        assert_eq!(ms.len(), shape.samples_per_app_iteration());
        assert!(ms.iter().all(|&v| (v - 3.0).abs() < 1e-12));
        assert!(tr.app_iteration_ms(4).is_err());
    }

    #[test]
    fn all_ms_has_total_len() {
        let tr = TimingTrace::new("f", small_shape());
        assert_eq!(tr.all_ms().len(), 120);
    }

    #[test]
    fn from_samples_checks_the_length_and_keeps_the_storage() {
        let shape = small_shape();
        let column: Vec<ThreadSample> = (0..120).map(|ns| ThreadSample::new(0, ns)).collect();
        let storage = column.as_ptr();
        let tr = TimingTrace::from_samples("f", shape, column).unwrap();
        assert_eq!(tr.samples().as_ptr(), storage, "no copy");
        let last = tr.get(SampleIndex::new(1, 2, 3, 4)).unwrap();
        assert_eq!(last.compute_time_ns(), 119);
        for len in [0, 119, 121] {
            assert!(matches!(
                TimingTrace::from_samples("f", shape, vec![ThreadSample::default(); len]),
                Err(CoreError::ShapeMismatch)
            ));
        }
    }

    #[test]
    fn iter_process_iterations_covers_everything_once() {
        let tr = TimingTrace::new("f", small_shape());
        let count = tr.iter_process_iterations().count();
        assert_eq!(count, 24);
        let mut seen = std::collections::HashSet::new();
        for (unit, (t, r, i, _)) in tr.iter_process_iterations().enumerate() {
            assert!(seen.insert((t, r, i)));
            assert_eq!(tr.shape().unit_coords(unit), (t, r, i), "trace order");
        }
    }
}
