//! # ebird-bench
//!
//! Experiment regenerators. (Measurement lives in the standalone
//! `benchmark/` package, not here.)
//!
//! * The **`repro` binary** (`cargo run -p ebird-bench --bin repro --release`)
//!   regenerates every table and figure of the paper from the calibrated
//!   synthetic models (or, with `--source real`, from live runs of the Rust
//!   proxy apps at reduced scale). See `repro --help`.
//! * The **scenario campaign** (`ebird_serve::scenario`, which lives there
//!   so the campaign service can price the same cells) sweeps a
//!   config-driven apps × strategies × links × noise × ranks matrix through
//!   the multi-rank fabric simulator (`repro scenarios`, or served live via
//!   `repro serve` / `repro submit`).
//!
//! This library crate holds what `repro` renders with: the real-app trace
//! runner and the profile renderer. `examples/calibrate.rs` (workspace root)
//! is the models' tuning harness.

#![warn(missing_docs)]

pub mod profile;

use ebird_cluster::{JobConfig, RealKernelParams, RealTiming, BUILTIN_WORKLOAD_NAMES};
use ebird_core::TimingTrace;

/// Runs the real Rust proxy apps at test scale under the wall clock and
/// returns their traces in paper order, labelled `MiniFE`, `MiniMD` and
/// `MiniQMC`. Problem sizes are fixed small so this finishes in seconds on
/// a laptop; the synthetic source is the one calibrated to paper shapes.
pub fn all_real_traces(cfg: &JobConfig, seed: u64) -> Vec<TimingTrace> {
    let params = RealKernelParams::default();
    BUILTIN_WORKLOAD_NAMES
        .iter()
        .map(|app| {
            params
                .run_campaign(app, cfg, seed, RealTiming::Wall)
                .unwrap_or_else(|e| panic!("{app} campaign: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_traces_at_tiny_scale() {
        let cfg = JobConfig::new(1, 1, 3, 2);
        let traces = all_real_traces(&cfg, 5);
        let labels: Vec<&str> = traces.iter().map(|t| t.app()).collect();
        assert_eq!(labels, ["MiniFE", "MiniMD", "MiniQMC"]);
        for t in &traces {
            assert!(t.samples().iter().all(|s| s.compute_time_ns() > 0));
        }
    }
}
