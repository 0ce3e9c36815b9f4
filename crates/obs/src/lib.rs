//! Observability substrate for the early-bird workspace.
//!
//! The paper's whole premise is *measuring thread timing*; this crate is the
//! reproduction's own stopwatch. It provides, with zero dependencies:
//!
//! * [`Registry`] — a named-metric registry handing out striped
//!   [`Counter`]s, [`Gauge`]s and log2 latency [`Histogram`]s, with
//!   deterministic (`BTreeMap`-ordered) [`Snapshot`]s.
//! * [`HistogramSnapshot`] — fixed-bucket log2 histograms whose quantile
//!   estimates come with provable bucket-edge bounds (the property tests
//!   pin them).
//! * [`SpanGuard`] — an RAII stopwatch around a scope: dropping it, also
//!   during unwinding, records the scope's duration into the
//!   `span.{name}.ns` histogram, so a panicking job still books its time.
//! * [`TimeSource`] — the clock seam: [`WallClock`] for ops use (the *only*
//!   wall-clock read in the crate lives in `clock.rs`, behind the
//!   `ebird-lint` allowlist), [`ManualClock`] for work-metered deterministic
//!   tests, mirroring PR 5's metered timing model.
//!
//! Instrumentation must never change what a service *serves*: everything in
//! here is write-side-effect-free with respect to the instrumented
//! computation, and the CI metrics-smoke byte-diffs served rows to prove it.

#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod registry;
pub mod span;

pub use clock::{ManualClock, TimeSource, WallClock};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry, Snapshot};
pub use span::SpanGuard;
