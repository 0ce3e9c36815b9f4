//! # ebird-core
//!
//! The instrumentation core of the `early-bird` workspace: the half-word
//! sample of the paper's Listing 1 (`clock_gettime` around an
//! `omp for nowait` loop) plus the in-memory store and indexing machinery
//! for the resulting data set. The stamps themselves are taken by
//! `ebird-runtime`'s `Pool::timed_parts_mut`, which reads a `TimeSource`
//! (the workspace's one clock trait, defined in `ebird-obs` and re-exported
//! by the runtime) and hands each team member's sample back at the join.
//!
//! The paper's measurement model:
//!
//! * Each thread records an **enter** and an **exit** timestamp around the
//!   work-sharing loop body of an instrumented parallel region.
//! * Because `CLOCK_MONOTONIC` is only ordered per-core (no `tsc_reliable` on
//!   the test platform), raw timestamps are never compared across threads.
//!   Instead the derived **compute time** `exit − enter` is the unit of
//!   analysis — subtraction cancels per-core offsets. The subtraction happens
//!   once, where the stamps are taken ([`ThreadSample::new`]); a stored
//!   sample *is* its compute time, one `u32` of nanoseconds (≈ 4.29 s at
//!   most; see [`ThreadSample::CEILING_NS`]).
//! * The full data set is indexed by `(trial, rank, iteration, thread)`:
//!   10 × 8 × 200 × 48 = 768,000 samples per application in the paper
//!   (2.9 MiB resident).
//!
//! Modules:
//!
//! * [`sample`] — `ThreadSample` (a compute time) and the dense index
//!   arithmetic: `SampleIndex`, the `(trial, rank, iteration, thread)`
//!   coordinates of one sample, and `TraceShape`, the four dimension sizes.
//! * [`trace`] — `TimingTrace`, the store: one dense sample column and its
//!   shape. It defines no traversal of its own.
//! * [`view`] — the one way to read a group of the paper's three analysis
//!   levels (application / app-iteration / process-iteration): a group is
//!   `(AggregationLevel, index)`, read as trace slices or `f64`
//!   milliseconds for the stats layer.

#![warn(missing_docs)]

pub mod sample;
pub mod trace;
pub mod view;

pub use sample::{SampleIndex, ThreadSample, TraceShape};
pub use trace::TimingTrace;
pub use view::AggregationLevel;

/// The workspace-wide default seed for regenerated experiments. Changing it
/// changes every regenerated number, so it is fixed here at the base of the
/// crate graph and referenced everywhere — the `repro` CLI, the scenario
/// campaign, and the campaign service all default to it.
pub const DEFAULT_SEED: u64 = 20230421;

/// Errors produced by the instrumentation core.
#[derive(Debug)]
pub enum CoreError {
    /// Trace shapes must have every dimension nonzero.
    EmptyShape,
    /// A sample column does not match the trace's shape.
    ShapeMismatch,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::EmptyShape => write!(f, "trace shape has a zero dimension"),
            CoreError::ShapeMismatch => write!(f, "trace shapes do not match"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        assert!(CoreError::EmptyShape.to_string().contains("zero dimension"));
        assert!(CoreError::ShapeMismatch
            .to_string()
            .contains("do not match"));
    }
}
