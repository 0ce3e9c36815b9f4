//! # ebird-analysis
//!
//! The paper's Section 4 analysis pipeline, as a library over
//! [`ebird_core::TimingTrace`]:
//!
//! * [`normality`] — the three-test battery swept over the three aggregation
//!   levels; produces Table 1 (process-iteration pass rates), the
//!   application-level verdicts, and the per-iteration results including the
//!   paper's "eight MiniQMC iterations pass D'Agostino only" phenomenon.
//!   Two routes: the three-level task kernel production runs (through
//!   [`engine::sweep_levels_parallel_with_arenas`]) and the per-level
//!   reference [`normality::sweep`] it is tested bit-identical to.
//! * [`laggard`] — laggard census and distribution-class assignment
//!   (the no-laggard / laggard split of Figures 5 and 7, plus MiniMD's
//!   initial-phase class).
//! * [`reclaim`] — reclaimable time, idle ratio and mean-median arrival
//!   (§4.2's headline metrics), computed from the paper's definitions.
//! * [`percentile_series`] — per-application-iteration percentile summaries
//!   (Figures 4, 6, 8) and their IQR statistics.
//! * [`figures`] — histogram builders for Figures 3, 5, 7, 9 with the
//!   paper's bin widths, including exemplar selection.
//! * [`report`] — plain-text table rendering and CSV export so the `repro`
//!   binary can print paper-shaped artifacts.
//! * [`engine`] — the analysis engine: one entry point per pipeline stage
//!   ([`engine::STAGES`]: generate, normality sweep, trace scan, delivery
//!   sweep) on `ebird-runtime`'s own thread pool, outputs bit-identical for
//!   any pool size, plus a `Moments::merge`-based campaign reduction.
//!   Long-lived per-worker scratch lives in [`engine::EngineArenas`]; a
//!   one-thread pool runs every stage's loop inline (zero fork/join
//!   overhead). Everything `repro` and the benchmark compute goes through
//!   these entries.
//! * [`scan`] — the trace-scan stage: one traversal fusing the laggard
//!   census, the reclaim metrics and the campaign moments, bit-identical to
//!   the three standalone reference traversals
//!   ([`laggard::laggard_census`], [`reclaim::reclaim_metrics`],
//!   `Moments::from_slice`).

#![warn(missing_docs)]

pub mod engine;
pub mod figures;
pub mod laggard;
pub mod normality;
pub mod percentile_series;
pub mod reclaim;
pub mod report;
pub mod scan;
mod unit;

pub use engine::{campaign_moments, EngineArenas};
pub use laggard::{laggard_census, LaggardCensus};
pub use normality::{NormalitySweep, Table1};
pub use percentile_series::{percentile_series, IqrStats};
pub use reclaim::{reclaim_metrics, ReclaimMetrics};
pub use scan::TraceScan;
