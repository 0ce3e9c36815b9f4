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
//! This library crate holds the pieces the binaries share: the real-app
//! trace runner, the profile renderer, seeds, and scale presets.

#![warn(missing_docs)]

pub mod profile;

use ebird_cluster::JobConfig;
use ebird_core::TimingTrace;

/// The workspace-wide default seed for regenerated experiments
/// (re-exported from `ebird-core`, its home at the base of the crate graph).
pub use ebird_core::DEFAULT_SEED;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's 10 × 8 × 200 × 48 campaign (768,000 samples per app).
    Paper,
    /// CI-friendly 2 × 2 × 50 × 8 campaign (3,200 samples per app).
    Ci,
}

impl Scale {
    /// The corresponding job configuration.
    pub fn config(&self) -> JobConfig {
        match self {
            Scale::Paper => JobConfig::paper_scale(),
            Scale::Ci => JobConfig::ci_scale(),
        }
    }

    /// Parses `"paper"` / `"ci"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "paper" => Some(Scale::Paper),
            "ci" => Some(Scale::Ci),
            _ => None,
        }
    }
}

/// Runs the real Rust proxy apps at test scale and returns their traces in
/// paper order. Problem sizes are fixed small so this finishes in seconds on
/// a laptop; the synthetic source is the one calibrated to paper shapes.
pub fn all_real_traces(cfg: &JobConfig, seed: u64) -> Vec<TimingTrace> {
    use ebird_apps::{MiniFe, MiniFeParams, MiniMd, MiniMdParams, MiniQmc, MiniQmcParams};
    let fe = ebird_cluster::run_real_campaign(cfg, |_, _| {
        Box::new(MiniFe::new(MiniFeParams::test_scale()))
    })
    .expect("MiniFE campaign");
    let md = ebird_cluster::run_real_campaign(cfg, |trial, rank| {
        let mut p = MiniMdParams::test_scale();
        p.seed = seed ^ ((trial as u64) << 32 | rank as u64);
        Box::new(MiniMd::new(p))
    })
    .expect("MiniMD campaign");
    let qmc = ebird_cluster::run_real_campaign(cfg, |trial, rank| {
        let mut p = MiniQmcParams::test_scale();
        p.seed = seed ^ ((trial as u64) << 32 | rank as u64);
        Box::new(MiniQmc::new(p))
    })
    .expect("MiniQMC campaign");
    vec![fe, md, qmc]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("CI"), Some(Scale::Ci));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn real_traces_at_tiny_scale() {
        let cfg = JobConfig::new(1, 1, 3, 2);
        let traces = all_real_traces(&cfg, 5);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert!(t.samples().iter().all(|s| s.compute_time_ns() > 0));
        }
    }
}
