//! # ebird-analysis
//!
//! The paper's Section 4 analysis pipeline, as a library over
//! [`ebird_core::TimingTrace`]:
//!
//! * [`normality`] — the three-test battery swept over the three aggregation
//!   levels; produces Table 1 (process-iteration pass rates), the
//!   application-level verdicts, and the per-iteration results including the
//!   paper's "eight MiniQMC iterations pass D'Agostino only" phenomenon.
//! * [`laggard`] — laggard census and distribution-class assignment
//!   (the no-laggard / laggard split of Figures 5 and 7, plus MiniMD's
//!   initial-phase class).
//! * [`reclaim`] — reclaimable time, idle ratio and mean-median arrival
//!   (§4.2's headline metrics), computed from the paper's definitions.
//! * [`percentile_series`] — per-application-iteration percentile summaries
//!   (Figures 4, 6, 8) and their IQR statistics.
//! * [`figures`] — histogram builders for Figures 3, 5, 7, 9 with the
//!   paper's bin widths, including exemplar selection.
//! * [`overlap`] — Figure 2's overlap windows quantified: per-thread hideable
//!   time and the bandwidth-bound fraction of a buffer that early-bird
//!   transmission could hide before the join.
//! * [`report`] — plain-text table rendering and CSV export so the `repro`
//!   binary can print paper-shaped artifacts.
//! * [`engine`] — the analysis engine: one entry point per pipeline stage
//!   (generate, normality sweep, delivery sweep) on `ebird-runtime`'s own
//!   thread pool, outputs bit-identical for any pool size, plus a
//!   `Moments::merge`-based campaign reduction. Long-lived per-worker
//!   scratch lives in [`engine::EngineArenas`]; a one-thread pool runs every
//!   stage's loop inline (zero fork/join overhead).
//! * [`scan`] — the single-pass trace scan fusing the laggard census, the
//!   reclaim metrics and the campaign moments into one traversal,
//!   bit-identical to the three standalone traversals.

#![warn(missing_docs)]

pub mod engine;
pub mod figures;
pub mod laggard;
pub mod normality;
pub mod overlap;
pub mod percentile_series;
pub mod reclaim;
pub mod report;
pub mod scan;

pub use engine::{campaign_moments, sweep_parallel, table1_parallel, EngineArenas};
pub use laggard::{laggard_census, LaggardCensus};
pub use normality::{table1, NormalitySweep, Table1};
pub use percentile_series::{percentile_series, IqrStats};
pub use reclaim::{reclaim_metrics, ReclaimMetrics};
pub use scan::TraceScan;
