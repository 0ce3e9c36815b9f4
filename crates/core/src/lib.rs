//! # ebird-core
//!
//! The instrumentation core of the `early-bird` workspace: the Rust analogue
//! of the paper's Listing 1 (`clock_gettime` around an `omp for nowait` loop)
//! plus the storage and indexing machinery for the resulting data set.
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
//!   sample *is* its compute time, one `u64` of nanoseconds.
//! * The full data set is indexed by `(trial, rank, iteration, thread)`:
//!   10 × 8 × 200 × 48 = 768,000 samples per application in the paper
//!   (5.9 MiB resident).
//!
//! Modules:
//!
//! * [`clock`] — the `Clock` trait, a real monotonic clock and a virtual one.
//! * [`sample`] — `ThreadSample` (a compute time) and the dense index
//!   arithmetic.
//! * [`trace`] — `TimingTrace`, the dense 4-D sample store with aggregation
//!   accessors for the paper's three analysis levels.
//! * [`collector`] — lock-free, cache-padded per-thread recording slots used
//!   inside parallel regions.
//! * [`region`] — the `TimedRegion` API mirroring the paper's Listing 1.
//! * [`io`] — JSON, CSV and compact binary persistence for traces.
//! * [`view`] — aggregation-level views (application / app-iteration /
//!   process-iteration) that produce plain `f64` millisecond samples for the
//!   stats layer.

#![warn(missing_docs)]

pub mod clock;
pub mod collector;
pub mod io;
pub mod region;
pub mod sample;
pub mod trace;
pub mod view;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use collector::IterationCollector;
pub use region::TimedRegion;
pub use sample::{SampleIndex, ThreadSample};
pub use trace::{TimingTrace, TraceShape};
pub use view::AggregationLevel;

/// The workspace-wide default seed for regenerated experiments. Changing it
/// changes every regenerated number, so it is fixed here at the base of the
/// crate graph and referenced everywhere — the `repro` CLI, the scenario
/// campaign, and the campaign service all default to it.
pub const DEFAULT_SEED: u64 = 20230421;

/// Errors produced by the instrumentation core.
#[derive(Debug)]
pub enum CoreError {
    /// An index was outside the trace shape.
    IndexOutOfBounds {
        /// Which dimension overflowed ("trial", "rank", "iteration", "thread").
        dim: &'static str,
        /// The offending index.
        index: usize,
        /// The dimension's size.
        size: usize,
    },
    /// Trace shapes must have every dimension nonzero.
    EmptyShape,
    /// Two traces with different shapes/apps were combined.
    ShapeMismatch,
    /// Underlying I/O failure during persistence.
    Io(std::io::Error),
    /// JSON (de)serialisation failure during persistence.
    Json(serde_json::Error),
    /// A CSV line or a binary trace header failed to parse.
    Parse(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::IndexOutOfBounds { dim, index, size } => {
                write!(f, "{dim} index {index} out of bounds (size {size})")
            }
            CoreError::EmptyShape => write!(f, "trace shape has a zero dimension"),
            CoreError::ShapeMismatch => write!(f, "trace shapes do not match"),
            CoreError::Io(e) => write!(f, "I/O error: {e}"),
            CoreError::Json(e) => write!(f, "JSON error: {e}"),
            CoreError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io(e) => Some(e),
            CoreError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<serde_json::Error> for CoreError {
    fn from(e: serde_json::Error) -> Self {
        CoreError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = CoreError::IndexOutOfBounds {
            dim: "thread",
            index: 48,
            size: 48,
        };
        assert!(e.to_string().contains("thread index 48"));
        assert!(CoreError::EmptyShape.to_string().contains("zero dimension"));
        assert!(CoreError::ShapeMismatch
            .to_string()
            .contains("do not match"));
    }

    #[test]
    fn io_error_conversion_preserves_source() {
        use std::error::Error as _;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: CoreError = io.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("gone"));
    }
}
