//! `TimingTrace`: the dense `(trial, rank, iteration, thread)` sample store.
//!
//! The paper's data set per application is 10 trials × 8 ranks ×
//! 200 iterations × 48 threads = 768,000 samples. The trace stores them as
//! one dense column of compute times — 4 bytes a sample, 2.9 MiB per
//! application at that scale — with *thread* innermost, so one
//! **process-iteration** — the paper's finest aggregation unit (one rank's
//! thread pool in one iteration) — is a contiguous slice, and one
//! **application iteration** is a strided gather.
//!
//! The trace is a store, not a reader: it holds the column and its shape.
//! A group of one of the paper's three levels is named as
//! `(AggregationLevel, index)` and read through [`crate::view`]; a walk over
//! every process-iteration is `samples().chunks(shape().threads)`, in
//! [`TraceShape::unit_coords`] order.

use crate::sample::{SampleIndex, ThreadSample, TraceShape};
use crate::CoreError;

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

    /// Builds a trace by evaluating `f` at every index, once each, in the
    /// column's order (thread innermost).
    pub fn from_fn(
        app: impl Into<String>,
        shape: TraceShape,
        mut f: impl FnMut(SampleIndex) -> ThreadSample,
    ) -> Self {
        let mut samples = Vec::with_capacity(shape.total_samples());
        for unit in 0..shape.process_iterations() {
            let (trial, rank, iteration) = shape.unit_coords(unit);
            samples.extend((0..shape.threads).map(|thread| {
                f(SampleIndex {
                    trial,
                    rank,
                    iteration,
                    thread,
                })
            }));
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

    /// All samples, flat (thread innermost).
    pub fn samples(&self) -> &[ThreadSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> TraceShape {
        TraceShape::new(2, 3, 4, 5).unwrap()
    }

    #[test]
    fn from_fn_visits_every_index_once_in_column_order() {
        let s = small_shape();
        let mut visited = Vec::new();
        let tr = TimingTrace::from_fn("f", s, |idx| {
            visited.push(idx);
            ThreadSample::new(0, visited.len() as u64)
        });
        assert_eq!(tr.app(), "f");
        assert_eq!(visited.len(), s.total_samples());
        for (flat, (idx, sample)) in visited.iter().zip(tr.samples()).enumerate() {
            // Thread innermost; units in `unit_coords` order.
            assert_eq!(idx.thread, flat % s.threads);
            assert_eq!(
                (idx.trial, idx.rank, idx.iteration),
                s.unit_coords(flat / s.threads)
            );
            assert_eq!(sample.compute_time_ns(), flat as u64 + 1);
        }
    }

    #[test]
    fn from_samples_checks_the_length_and_keeps_the_storage() {
        let shape = small_shape();
        let column: Vec<ThreadSample> = (0..120).map(|ns| ThreadSample::new(0, ns)).collect();
        let storage = column.as_ptr();
        let tr = TimingTrace::from_samples("f", shape, column).unwrap();
        assert_eq!(tr.samples().as_ptr(), storage, "no copy");
        assert_eq!(tr.samples()[119].compute_time_ns(), 119);
        for len in [0, 119, 121] {
            assert!(matches!(
                TimingTrace::from_samples("f", shape, vec![ThreadSample::default(); len]),
                Err(CoreError::ShapeMismatch)
            ));
        }
    }
}
