//! Fitting a generative timing model *from* a measured trace.
//!
//! The paper's contribution is "a methodology for evaluating application
//! thread behavior for multithreaded communication models". This module makes
//! the methodology executable end-to-end: point it at any
//! [`TimingTrace`] — live measurements of your own application included —
//! and it extracts the paper's characterization (phases, medians, spreads,
//! laggard statistics, skew direction) and can synthesize a calibrated
//! [`AppModel`] whose regenerated traces mimic the original.
//!
//! Estimation is deliberately robust (medians of per-iteration statistics)
//! because the quantities of interest — laggards, turbulence — are exactly
//! the outliers that would poison moment-based fits.

use ebird_core::{ThreadSample, TimingTrace};
use ebird_stats::percentile::PercentileSummary;
use ebird_stats::timeseries::change_points;
use serde::{Deserialize, Serialize};

use crate::noise::{Contamination, LaggardProcess, Turbulence};
use crate::synthetic::{AppModel, Phase};

/// Per-phase characterization extracted from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedPhase {
    /// First iteration (0-based) of the phase.
    pub from_iteration: usize,
    /// Robust location: median of per-process-iteration medians (ms).
    pub median_ms: f64,
    /// Typical per-process-iteration IQR (median over iterations, ms).
    pub iqr_ms: f64,
    /// Gaussian-equivalent σ implied by the IQR (`IQR / 1.349`).
    pub sigma_ms: f64,
    /// Fraction of process-iterations whose `max − median` exceeds the
    /// laggard threshold.
    pub laggard_rate: f64,
    /// Mean laggard magnitude (`max − median`, ms) among laggard iterations.
    pub laggard_magnitude_ms: f64,
    /// Tail asymmetry: `(p50 − p5) − (p95 − p50)`, positive ⇒ early-arrival
    /// heavy (MiniFE's signature), in ms.
    pub tail_asymmetry_ms: f64,
    /// Fraction of iterations with an IQR > 3× the typical (turbulence).
    pub turbulence_rate: f64,
}

/// A complete fitted characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedModel {
    /// Application name from the trace.
    pub app: String,
    /// Laggard threshold used (ms).
    pub threshold_ms: f64,
    /// Detected phases, ordered.
    pub phases: Vec<FittedPhase>,
}

/// Per-iteration robust statistics used by the fit.
fn iteration_stats(trace: &TimingTrace) -> Vec<(usize, PercentileSummary)> {
    trace
        .iter_process_iterations()
        .map(|(_, _, iteration, samples)| {
            let ms: Vec<f64> = samples.iter().map(ThreadSample::compute_time_ms).collect();
            (
                iteration,
                PercentileSummary::from_sample(&ms).expect("threads ≥ 1"),
            )
        })
        .collect()
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Fits a model from `trace` with the paper's 1 ms laggard threshold.
pub fn fit(trace: &TimingTrace) -> FittedModel {
    fit_with_threshold(trace, 1.0)
}

/// Fits a model with an explicit laggard threshold (ms).
fn fit_with_threshold(trace: &TimingTrace, threshold_ms: f64) -> FittedModel {
    assert!(threshold_ms > 0.0);
    let stats = iteration_stats(trace);
    let iterations = trace.shape().iterations;

    // Phase boundaries from the per-iteration IQR profile (median across
    // ranks/trials per iteration index), which is the paper's phase signal.
    let mut iqr_by_iter: Vec<Vec<f64>> = vec![Vec::new(); iterations];
    for (iter, s) in &stats {
        iqr_by_iter[*iter].push(s.iqr());
    }
    let iqr_profile: Vec<f64> = iqr_by_iter.into_iter().map(median_of).collect();
    let boundaries = if iterations >= 16 {
        change_points(&iqr_profile, 0.3, 4).unwrap_or_default()
    } else {
        Vec::new()
    };

    let mut starts = vec![0usize];
    starts.extend(&boundaries);
    let mut phases = Vec::with_capacity(starts.len());
    for (pi, &start) in starts.iter().enumerate() {
        let end = starts.get(pi + 1).copied().unwrap_or(iterations);
        let in_phase: Vec<&PercentileSummary> = stats
            .iter()
            .filter(|(it, _)| (start..end).contains(it))
            .map(|(_, s)| s)
            .collect();
        if in_phase.is_empty() {
            continue;
        }
        let median_ms = median_of(in_phase.iter().map(|s| s.p50).collect());
        let iqr_ms = median_of(in_phase.iter().map(|s| s.iqr()).collect());
        let laggards: Vec<f64> = in_phase
            .iter()
            .map(|s| s.laggard_magnitude())
            .filter(|&m| m > threshold_ms)
            .collect();
        let laggard_rate = laggards.len() as f64 / in_phase.len() as f64;
        let laggard_magnitude_ms = if laggards.is_empty() {
            0.0
        } else {
            laggards.iter().sum::<f64>() / laggards.len() as f64
        };
        let tail_asymmetry_ms = median_of(
            in_phase
                .iter()
                .map(|s| (s.p50 - s.p5) - (s.p95 - s.p50))
                .collect(),
        );
        let turbulent = in_phase.iter().filter(|s| s.iqr() > 3.0 * iqr_ms).count();
        phases.push(FittedPhase {
            from_iteration: start,
            median_ms,
            iqr_ms,
            sigma_ms: iqr_ms / 1.349,
            laggard_rate,
            laggard_magnitude_ms,
            tail_asymmetry_ms,
            turbulence_rate: turbulent as f64 / in_phase.len() as f64,
        });
    }
    FittedModel {
        app: trace.app().to_string(),
        threshold_ms,
        phases,
    }
}

impl FittedModel {
    /// Synthesizes a generative [`AppModel`] from the fit, so a measured
    /// application can be replayed at arbitrary scale.
    ///
    /// Heuristics: strong negative tail asymmetry becomes an early-arrival
    /// exponential (its mean recovered from the asymmetry); laggard
    /// magnitudes map to the shifted-lognormal process; turbulence keeps the
    /// fitted rate with a moderate 3–10× inflation band.
    pub fn to_app_model(&self, name: impl Into<String>) -> AppModel {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                // Early-arrival component from asymmetry: for N − Exp(e) the
                // tail difference ≈ e·(ln 20 − ln 2) ≈ 2.3 e.
                let early = (p.tail_asymmetry_ms / 2.3).max(0.0);
                // Remaining spread after removing the exponential's IQR share.
                let expo_iqr = 1.0986 * early;
                let resid_iqr = (p.iqr_ms * p.iqr_ms - expo_iqr * expo_iqr).max(0.0).sqrt();
                let laggards = if p.laggard_rate > 0.0 {
                    LaggardProcess {
                        rate: p.laggard_rate,
                        shift_ms: self.threshold_ms,
                        // mean of shift + LogNormal(mu, 0.8) matches the
                        // fitted magnitude: e^{mu + 0.32} = mag − shift.
                        mu: ((p.laggard_magnitude_ms - self.threshold_ms).max(0.2)).ln() - 0.32,
                        sigma: 0.8,
                    }
                } else {
                    LaggardProcess::off()
                };
                let turbulence = if p.turbulence_rate > 0.0 {
                    Turbulence {
                        rate: p.turbulence_rate,
                        scale_lo: 3.0,
                        scale_hi: 10.0,
                    }
                } else {
                    Turbulence::off()
                };
                Phase {
                    from_iteration: p.from_iteration,
                    median_ms: p.median_ms + 0.693 * early, // undo expo median shift
                    sigma_ms: resid_iqr / 1.349,
                    sigma_jitter_lognorm: 0.0,
                    uniform_halfwidth_ms: 0.0,
                    early_expo_ms: early,
                    tail_rate: 0.0,
                    tail_expo_ms: 0.0,
                    laggards,
                    turbulence,
                    contamination: Contamination::off(),
                }
            })
            .collect();
        AppModel {
            name: name.into(),
            rank_speed_sigma: 0.0,
            iter_wander_ms: 0.0,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobConfig;
    use crate::synthetic::SyntheticApp;

    fn campaign() -> JobConfig {
        JobConfig::new(2, 4, 100, 48)
    }

    #[test]
    fn fit_recovers_minife_characteristics() {
        let trace = SyntheticApp::minife().generate(&campaign(), 21);
        let m = fit(&trace);
        assert_eq!(m.app, "MiniFE");
        assert_eq!(m.phases.len(), 1, "MiniFE is single-phase");
        let p = &m.phases[0];
        assert!((p.median_ms - 26.30).abs() < 0.3, "median {}", p.median_ms);
        assert!((0.10..0.40).contains(&p.iqr_ms), "IQR {}", p.iqr_ms);
        assert!(
            (0.15..0.30).contains(&p.laggard_rate),
            "laggards {}",
            p.laggard_rate
        );
        assert!(
            p.tail_asymmetry_ms > 0.05,
            "early-heavy: {}",
            p.tail_asymmetry_ms
        );
    }

    #[test]
    fn fit_recovers_minimd_phases() {
        let trace = SyntheticApp::minimd().generate(&campaign(), 22);
        let m = fit(&trace);
        assert_eq!(m.phases.len(), 2, "MiniMD has two phases: {:?}", m.phases);
        let boundary = m.phases[1].from_iteration;
        assert!((17..=21).contains(&boundary), "boundary {boundary}");
        assert!(m.phases[0].iqr_ms > 3.0 * m.phases[1].iqr_ms);
        assert!((m.phases[1].median_ms - 24.74).abs() < 0.3);
        assert!(m.phases[1].laggard_rate < 0.12);
    }

    #[test]
    fn fit_recovers_miniqmc_spread() {
        let trace = SyntheticApp::miniqmc().generate(&campaign(), 23);
        let m = fit(&trace);
        assert_eq!(m.phases.len(), 1);
        let p = &m.phases[0];
        assert!((p.median_ms - 60.91).abs() < 1.0);
        assert!((7.0..12.0).contains(&p.iqr_ms), "IQR {}", p.iqr_ms);
        // Everything is a "laggard" at 1 ms for a 9 ms-IQR distribution.
        assert!(p.laggard_rate > 0.9);
    }

    #[test]
    fn fitted_model_synthesizes_similar_traces() {
        // Round trip: generate → fit → synthesize → re-fit; key statistics
        // must survive both hops.
        let original = SyntheticApp::minife().generate(&campaign(), 24);
        let fitted = fit(&original);
        let replay_app = SyntheticApp::from_model(fitted.to_app_model("Replay"));
        let replay = replay_app.generate(&campaign(), 25);
        let refit = fit(&replay);
        let (a, b) = (&fitted.phases[0], &refit.phases[0]);
        assert!(
            (a.median_ms - b.median_ms).abs() < 0.5,
            "median drift {} vs {}",
            a.median_ms,
            b.median_ms
        );
        assert!(
            (a.laggard_rate - b.laggard_rate).abs() < 0.08,
            "laggard drift {} vs {}",
            a.laggard_rate,
            b.laggard_rate
        );
        assert!(
            b.iqr_ms > 0.4 * a.iqr_ms && b.iqr_ms < 2.5 * a.iqr_ms,
            "IQR drift {} vs {}",
            a.iqr_ms,
            b.iqr_ms
        );
        // Skew direction preserved.
        assert!(b.tail_asymmetry_ms > 0.0);
    }

    #[test]
    fn fit_handles_short_traces_without_phase_detection() {
        let trace = SyntheticApp::minife().generate(&JobConfig::new(1, 1, 8, 16), 26);
        let m = fit(&trace);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].from_iteration, 0);
    }

    #[test]
    fn threshold_scales_laggard_census() {
        let trace = SyntheticApp::minife().generate(&campaign(), 27);
        let loose = fit_with_threshold(&trace, 10.0);
        let tight = fit_with_threshold(&trace, 0.2);
        assert!(loose.phases[0].laggard_rate < fit(&trace).phases[0].laggard_rate);
        assert!(tight.phases[0].laggard_rate > fit(&trace).phases[0].laggard_rate);
    }
}
