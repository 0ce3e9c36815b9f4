//! OS-noise building blocks for the synthetic timing models.
//!
//! The paper attributes laggard threads to OS noise (citing Morari et al.'s
//! quantitative noise analysis) and observes three distinct disturbance
//! shapes in its data. Each is modelled here as an independent, seeded
//! process:
//!
//! * [`LaggardProcess`] — per process-iteration, with probability `rate`, one
//!   victim thread is delayed by `shift + LogNormal` milliseconds (OS noise
//!   events are multiplicative and heavy-tailed). Produces Figures 5b/7c.
//! * [`Turbulence`] — rare whole-iteration variance inflation (e.g. daemon
//!   activity perturbing every core), responsible for the IQR spikes in the
//!   percentile plots (max IQR 4.24 ms for MiniFE vs 0.18 ms average).
//! * [`Contamination`] — a per-thread heavy-tail scale mixture
//!   (`rate` of threads draw their jitter at `scale×` the base σ), which
//!   nudges per-iteration kurtosis; calibrated to move Table 1 pass rates
//!   from ~95% (pure normal) down to the observed 74–77% for MiniMD.

use ebird_stats::dist::{LogNormal, Normal, Rng64, Sample};
use serde::{Deserialize, Serialize};

/// A named noise environment for scenario campaigns: which disturbance
/// process dominates a run. Applied on top of a calibrated app model via
/// [`SyntheticApp::with_noise_regime`], so one config string selects the
/// whole disturbance shape (the paper's §4.2 attributes each shape to a
/// distinct OS-noise cause).
///
/// [`SyntheticApp::with_noise_regime`]: crate::SyntheticApp::with_noise_regime
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseRegime {
    /// The calibrated model untouched.
    Baseline,
    /// Laggard-dominated: most process-iterations contain one late victim
    /// thread (the Figure 5b/7c shape, amplified).
    Laggard,
    /// Turbulence-dominated: frequent whole-iteration variance inflation
    /// (daemon activity perturbing every core).
    Turbulent,
    /// Contamination-dominated: a heavy per-thread scale mixture fattening
    /// every iteration's tails.
    Contaminated,
}

impl NoiseRegime {
    /// All regimes, scenario-matrix order.
    #[cfg(test)]
    fn all() -> [NoiseRegime; 4] {
        [
            NoiseRegime::Baseline,
            NoiseRegime::Laggard,
            NoiseRegime::Turbulent,
            NoiseRegime::Contaminated,
        ]
    }

    /// Stable label for configs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            NoiseRegime::Baseline => "baseline",
            NoiseRegime::Laggard => "laggard",
            NoiseRegime::Turbulent => "turbulent",
            NoiseRegime::Contaminated => "contaminated",
        }
    }

    /// Parses a label (case-insensitive).
    pub fn parse(s: &str) -> Option<NoiseRegime> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Some(NoiseRegime::Baseline),
            "laggard" => Some(NoiseRegime::Laggard),
            "turbulent" => Some(NoiseRegime::Turbulent),
            "contaminated" => Some(NoiseRegime::Contaminated),
            _ => None,
        }
    }

    /// The laggard process this regime forces (`None` keeps the model's).
    pub fn laggards(&self) -> Option<LaggardProcess> {
        match self {
            NoiseRegime::Laggard => Some(LaggardProcess {
                rate: 0.85,
                shift_ms: 2.0,
                mu: 0.5,
                sigma: 0.8,
            }),
            _ => None,
        }
    }

    /// The turbulence process this regime forces (`None` keeps the model's).
    pub fn turbulence(&self) -> Option<Turbulence> {
        match self {
            NoiseRegime::Turbulent => Some(Turbulence {
                rate: 0.5,
                scale_lo: 4.0,
                scale_hi: 18.0,
            }),
            _ => None,
        }
    }

    /// The contamination process this regime forces (`None` keeps the
    /// model's).
    pub fn contamination(&self) -> Option<Contamination> {
        match self {
            NoiseRegime::Contaminated => Some(Contamination {
                rate: 0.25,
                scale: 4.0,
            }),
            _ => None,
        }
    }
}

/// Bernoulli laggard injection (one victim thread per affected iteration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaggardProcess {
    /// Probability a process-iteration contains a laggard.
    pub rate: f64,
    /// Deterministic minimum delay (ms) — keeps affected iterations above the
    /// paper's 1 ms laggard threshold.
    pub shift_ms: f64,
    /// Log-scale mean of the additional lognormal delay.
    pub mu: f64,
    /// Log-scale sigma of the additional lognormal delay.
    pub sigma: f64,
}

impl LaggardProcess {
    /// A disabled process (never fires).
    pub fn off() -> Self {
        LaggardProcess {
            rate: 0.0,
            shift_ms: 0.0,
            mu: 0.0,
            sigma: 0.0,
        }
    }

    /// Draws the laggard plan for one process-iteration over `threads`
    /// threads: `Some((victim, delay_ms))` if one fires.
    pub fn draw(&self, threads: usize, rng: &mut Rng64) -> Option<(usize, f64)> {
        if self.rate <= 0.0 || !rng.bernoulli(self.rate) {
            return None;
        }
        let victim = rng.next_below(threads as u64) as usize;
        let extra = LogNormal::new(self.mu, self.sigma).sample(rng);
        Some((victim, self.shift_ms + extra))
    }
}

/// Rare whole-iteration variance inflation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Turbulence {
    /// Probability a process-iteration is turbulent.
    pub rate: f64,
    /// Inflation factor range `[lo, hi)` applied to the iteration's σ.
    pub scale_lo: f64,
    /// Upper bound of the inflation factor.
    pub scale_hi: f64,
}

impl Turbulence {
    /// A disabled process.
    pub fn off() -> Self {
        Turbulence {
            rate: 0.0,
            scale_lo: 1.0,
            scale_hi: 1.0,
        }
    }

    /// Draws this iteration's σ multiplier (1.0 when calm).
    pub fn draw(&self, rng: &mut Rng64) -> f64 {
        if self.rate > 0.0 && rng.bernoulli(self.rate) {
            self.scale_lo + (self.scale_hi - self.scale_lo) * rng.next_f64()
        } else {
            1.0
        }
    }
}

/// Per-thread heavy-tail scale mixture on the jitter term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Contamination {
    /// Fraction of threads drawing at the inflated scale.
    pub rate: f64,
    /// Scale multiplier for contaminated draws.
    pub scale: f64,
}

impl Contamination {
    /// A disabled process.
    pub fn off() -> Self {
        Contamination {
            rate: 0.0,
            scale: 1.0,
        }
    }

    /// One jitter draw: `N(0, σ)` or `N(0, scale·σ)` with probability `rate`.
    pub fn jitter(&self, sigma: f64, rng: &mut Rng64) -> f64 {
        let s = if self.rate > 0.0 && rng.bernoulli(self.rate) {
            sigma * self.scale
        } else {
            sigma
        };
        Normal::new(0.0, s).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_regime_labels_roundtrip() {
        for r in NoiseRegime::all() {
            assert_eq!(NoiseRegime::parse(r.label()), Some(r));
        }
        assert_eq!(NoiseRegime::parse("BASELINE"), Some(NoiseRegime::Baseline));
        assert!(NoiseRegime::parse("quiet").is_none());
    }

    #[test]
    fn noise_regime_overrides_are_exclusive() {
        assert!(NoiseRegime::Baseline.laggards().is_none());
        assert!(NoiseRegime::Baseline.turbulence().is_none());
        assert!(NoiseRegime::Baseline.contamination().is_none());
        assert!(NoiseRegime::Laggard.laggards().unwrap().rate > 0.5);
        assert!(NoiseRegime::Turbulent.turbulence().unwrap().rate > 0.1);
        assert!(NoiseRegime::Contaminated.contamination().unwrap().rate > 0.1);
    }

    #[test]
    fn laggard_rate_is_respected() {
        let lp = LaggardProcess {
            rate: 0.224,
            shift_ms: 1.0,
            mu: 0.5,
            sigma: 0.6,
        };
        let mut rng = Rng64::new(1);
        let n = 20_000;
        let fired = (0..n).filter(|_| lp.draw(48, &mut rng).is_some()).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.224).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn laggard_delay_exceeds_shift_and_victim_in_range() {
        let lp = LaggardProcess {
            rate: 1.0,
            shift_ms: 1.0,
            mu: 0.0,
            sigma: 1.0,
        };
        let mut rng = Rng64::new(2);
        for _ in 0..1_000 {
            let (victim, delay) = lp.draw(48, &mut rng).expect("rate 1 always fires");
            assert!(victim < 48);
            assert!(delay > 1.0, "delay {delay} must exceed the shift");
        }
    }

    #[test]
    fn laggard_off_never_fires() {
        let mut rng = Rng64::new(3);
        assert!((0..1000).all(|_| LaggardProcess::off().draw(8, &mut rng).is_none()));
    }

    #[test]
    fn turbulence_scales_within_range() {
        let t = Turbulence {
            rate: 1.0,
            scale_lo: 3.0,
            scale_hi: 15.0,
        };
        let mut rng = Rng64::new(4);
        for _ in 0..1000 {
            let s = t.draw(&mut rng);
            assert!((3.0..15.0).contains(&s));
        }
        assert_eq!(Turbulence::off().draw(&mut rng), 1.0);
    }

    #[test]
    fn turbulence_rate_is_respected() {
        let t = Turbulence {
            rate: 0.03,
            scale_lo: 3.0,
            scale_hi: 15.0,
        };
        let mut rng = Rng64::new(5);
        let inflated = (0..50_000).filter(|_| t.draw(&mut rng) > 1.0).count();
        let rate = inflated as f64 / 50_000.0;
        assert!((rate - 0.03).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn contamination_inflates_tail_variance() {
        let c = Contamination {
            rate: 0.05,
            scale: 3.0,
        };
        let pure = Contamination::off();
        let mut rng = Rng64::new(6);
        let var = |c: &Contamination, rng: &mut Rng64| {
            let n = 100_000;
            let mut s2 = 0.0;
            for _ in 0..n {
                let x = c.jitter(1.0, rng);
                s2 += x * x;
            }
            s2 / n as f64
        };
        let v_mixed = var(&c, &mut rng);
        let v_pure = var(&pure, &mut rng);
        // Mixture variance = (1-r) + r·scale² = 0.95 + 0.45 = 1.4.
        assert!((v_pure - 1.0).abs() < 0.03, "pure var {v_pure}");
        assert!((v_mixed - 1.4).abs() < 0.05, "mixed var {v_mixed}");
    }
}
