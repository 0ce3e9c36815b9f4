//! Calibrated synthetic per-application thread-timing generators.
//!
//! **This module is the documented substitution for the paper's cluster.**
//! The paper's data comes from 48-thread runs on 2 × 24-core Cascade Lake
//! nodes; this workspace runs anywhere (CI included), so paper-scale arrival
//! *shapes* are regenerated from seeded generative models instead of
//! wall-clock measurement. Each model is mechanistic — its components map to
//! causes the paper names — and calibrated against every distribution-shape
//! statistic reported in Section 4:
//!
//! | App | Mechanisms | Calibration targets |
//! |---|---|---|
//! | MiniFE | tight gaussian core **minus** an exponential early-arrival component (static-schedule work imbalance: early finishers are common, per §4.2.1); Bernoulli laggards; rare turbulence | median 26.30 ms, IQR ≈ 0.18 ms (max ≈ 4.24), laggards in ≈ 22.4% of process-iterations, Table 1 pass ≈ 3%/<1%/<1% |
//! | MiniMD | two phases at iteration 19: wide uniform spread (un-equilibrated lattice) then a tight gaussian with heavy-tail contamination, sporadic high-magnitude laggards | phase-1 IQR ≈ 0.93 ms (median 25–26 ms), steady median 24.74 ms, IQR ≈ 0.15 ms, laggards ≈ 4.8%, Table 1 pass ≈ 74–77% |
//! | MiniQMC | wide gaussian per-thread work variance (per-walker Metropolis histories) with per-process-iteration scale jitter | median 60.91 ms, IQR ≈ 9.05 ms, Table 1 pass ≈ 95–96%, app-iteration level still rejecting |
//!
//! The reclaimable-time and idle-ratio columns of §4.2 are **not** calibration
//! targets: the paper's reported values cannot be reconciled with its own
//! medians and IQRs under its stated definitions (e.g. a 0.50 idle ratio
//! requires the mean arrival to be half the maximum, impossible with a
//! 0.15 ms IQR around a 24.74 ms median). We compute those metrics from their
//! *definitions* (the `ebird-analysis` crate's `reclaim` module) and `repro
//! metrics` prints the divergence.
//!
//! Determinism: every sample is derived from `(seed, app, trial, rank,
//! iteration)` through hash-seeded [`Rng64`] streams, so any sub-range of a
//! campaign can be regenerated independently and bit-identically.

use ebird_core::{ThreadSample, TimingTrace};
use ebird_runtime::{static_block, Pool};
use ebird_stats::dist::{Exponential, Normal, Rng64, Sample, Uniform};
use serde::{Deserialize, Serialize};

use crate::job::JobConfig;
use crate::noise::{Contamination, LaggardProcess, NoiseRegime, Turbulence};

/// One regime of an application's arrival behaviour (MiniMD has two).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// First iteration (0-based) this phase governs.
    pub from_iteration: usize,
    /// Median thread compute time (ms).
    pub median_ms: f64,
    /// Gaussian jitter σ (ms).
    pub sigma_ms: f64,
    /// Log-σ of a per-process-iteration multiplicative jitter on `sigma_ms`
    /// (0 disables). Within one process-iteration the scale is constant, so
    /// group-level normality is untouched; pooled aggregation levels become
    /// scale mixtures with elevated kurtosis — the mechanism that makes
    /// MiniQMC reject at the application-iteration level while ~95% of its
    /// process-iterations stay normal (§4.1).
    pub sigma_jitter_lognorm: f64,
    /// Half-width of an additional uniform spread (ms); 0 disables.
    pub uniform_halfwidth_ms: f64,
    /// Mean of an exponential *early-arrival* component subtracted from each
    /// thread (ms); 0 disables. Models static-schedule work imbalance.
    pub early_expo_ms: f64,
    /// Probability a thread draws an additive exponential tail.
    pub tail_rate: f64,
    /// Mean of that additive tail (ms).
    pub tail_expo_ms: f64,
    /// Laggard injection for this phase.
    pub laggards: LaggardProcess,
    /// Whole-iteration variance inflation for this phase.
    pub turbulence: Turbulence,
    /// Per-thread heavy-tail contamination for this phase.
    pub contamination: Contamination,
}

/// A complete per-application generative model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppModel {
    /// Application name ("MiniFE", "MiniMD", "MiniQMC", or any label for
    /// inline models).
    pub name: String,
    /// σ of the persistent per-(trial, rank) multiplicative speed factor
    /// (hardware heterogeneity across nodes/sockets).
    pub rank_speed_sigma: f64,
    /// σ of the per-process-iteration base wander (ms).
    pub iter_wander_ms: f64,
    /// Phases ordered by `from_iteration`; the first must start at 0.
    pub phases: Vec<Phase>,
}

impl AppModel {
    /// The phase governing `iteration`.
    fn phase_for(&self, iteration: usize) -> &Phase {
        self.phases
            .iter()
            .rev()
            .find(|p| p.from_iteration <= iteration)
            .expect("first phase starts at 0")
    }
}

/// A synthetic application: a named, calibrated [`AppModel`] that can
/// generate full campaign traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticApp {
    model: AppModel,
}

/// Domain-separation constants for the hash-seeded RNG streams.
const STREAM_SAMPLES: u64 = 0x01;
const STREAM_RANK_FACTOR: u64 = 0x02;

/// The largest compute time a sample holds ([`ThreadSample::CEILING_NS`],
/// ≈ 4.29 s), in milliseconds: the bound every generated draw is clamped
/// to.
const CEILING_MS: f64 = ThreadSample::CEILING_NS as f64 / 1.0e6;

/// Mixes words into a single 64-bit seed (SplitMix64 finalizer chain).
/// Crate-visible so the workload mixture picker can derive its own
/// domain-separated streams from the same primitive.
pub(crate) fn mix(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h ^= w.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

impl SyntheticApp {
    /// Wraps a custom model.
    ///
    /// # Panics
    /// On an invalid phase structure; use
    /// [`try_from_model`](Self::try_from_model) for config-driven models.
    pub fn from_model(model: AppModel) -> Self {
        match Self::try_from_model(model) {
            Ok(app) => app,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Validating constructor for config-driven models: the fallible
    /// counterpart of [`from_model`](Self::from_model), used by
    /// `WorkloadSpec::Synthetic` resolution so bad matrix JSON surfaces as
    /// an error instead of a panic — including parameters that would only
    /// fail later as non-finite arrival times (overflow-scale sigmas and
    /// lognormal exponents), which must never reach a cached row.
    ///
    /// # Errors
    /// A human-readable description of the structural violation.
    pub fn try_from_model(model: AppModel) -> Result<Self, String> {
        /// Sanity ceiling for millisecond-scale and multiplier parameters:
        /// generous beyond any physical workload, tight enough that no
        /// product of in-range parameters can overflow to infinity.
        const MAX_MS: f64 = 1.0e9;
        /// Ceiling for lognormal/exponent-scale parameters (`exp` of a few
        /// hundred stays finite; `exp(1e3)` does not).
        const MAX_LOG: f64 = 100.0;
        let bounded = |context: &str, label: &str, v: f64, max: f64| -> Result<(), String> {
            if v.is_finite() && (0.0..=max).contains(&v) {
                Ok(())
            } else {
                Err(format!(
                    "{context}: {label} {v} must be finite in [0, {max:e}]"
                ))
            }
        };
        let rate = |context: &str, label: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{context}: {label} {v} outside [0, 1]"))
            }
        };
        if model.name.is_empty() {
            return Err("synthetic model name must be nonempty".into());
        }
        bounded("model", "rank_speed_sigma", model.rank_speed_sigma, MAX_LOG)?;
        bounded("model", "iter_wander_ms", model.iter_wander_ms, MAX_MS)?;
        if model.phases.first().map(|p| p.from_iteration) != Some(0) {
            return Err("first phase must start at iteration 0".into());
        }
        if !model
            .phases
            .windows(2)
            .all(|w| w[0].from_iteration < w[1].from_iteration)
        {
            return Err("phases must be strictly ordered".into());
        }
        for phase in &model.phases {
            let ctx = format!("phase at iteration {}", phase.from_iteration);
            for (label, v) in [
                ("median_ms", phase.median_ms),
                ("sigma_ms", phase.sigma_ms),
                ("uniform_halfwidth_ms", phase.uniform_halfwidth_ms),
                ("early_expo_ms", phase.early_expo_ms),
                ("tail_expo_ms", phase.tail_expo_ms),
                ("laggards.shift_ms", phase.laggards.shift_ms),
            ] {
                bounded(&ctx, label, v, MAX_MS)?;
            }
            if phase.median_ms <= 0.0 {
                return Err(format!("{ctx}: median_ms must be positive"));
            }
            bounded(
                &ctx,
                "sigma_jitter_lognorm",
                phase.sigma_jitter_lognorm,
                MAX_LOG,
            )?;
            rate(&ctx, "tail_rate", phase.tail_rate)?;
            rate(&ctx, "laggards.rate", phase.laggards.rate)?;
            rate(&ctx, "turbulence.rate", phase.turbulence.rate)?;
            rate(&ctx, "contamination.rate", phase.contamination.rate)?;
            // Lognormal exponents: |mu| and sigma bounded so exp() stays
            // finite (the delay itself is then ≤ exp(~350), finite).
            if !(phase.laggards.mu.is_finite() && phase.laggards.mu.abs() <= MAX_LOG) {
                return Err(format!(
                    "{ctx}: laggards.mu {} must be finite in [-{MAX_LOG}, {MAX_LOG}]",
                    phase.laggards.mu
                ));
            }
            bounded(&ctx, "laggards.sigma", phase.laggards.sigma, MAX_LOG)?;
            bounded(
                &ctx,
                "turbulence.scale_lo",
                phase.turbulence.scale_lo,
                MAX_MS,
            )?;
            bounded(
                &ctx,
                "turbulence.scale_hi",
                phase.turbulence.scale_hi,
                MAX_MS,
            )?;
            if phase.turbulence.scale_lo > phase.turbulence.scale_hi {
                return Err(format!(
                    "{ctx}: turbulence scale_lo {} exceeds scale_hi {}",
                    phase.turbulence.scale_lo, phase.turbulence.scale_hi
                ));
            }
            bounded(
                &ctx,
                "contamination.scale",
                phase.contamination.scale,
                MAX_MS,
            )?;
        }
        Ok(SyntheticApp { model })
    }

    /// The calibrated MiniFE model (see module docs for targets).
    pub fn minife() -> Self {
        Self::from_model(AppModel {
            name: "MiniFE".into(),
            rank_speed_sigma: 0.002,
            iter_wander_ms: 0.05,
            phases: vec![Phase {
                // 26.42 − ln2·0.17 (the early-arrival component's median
                // shift) lands the observed median at the paper's 26.30.
                from_iteration: 0,
                median_ms: 26.42,
                sigma_ms: 0.02,
                sigma_jitter_lognorm: 0.0,
                uniform_halfwidth_ms: 0.0,
                early_expo_ms: 0.17,
                tail_rate: 0.0,
                tail_expo_ms: 0.0,
                laggards: LaggardProcess {
                    rate: 0.205,
                    shift_ms: 1.0,
                    mu: 0.2,
                    sigma: 0.8,
                },
                turbulence: Turbulence {
                    rate: 0.02,
                    scale_lo: 4.0,
                    scale_hi: 18.0,
                },
                contamination: Contamination::off(),
            }],
        })
    }

    /// The calibrated MiniMD model: wide uniform first phase (iterations
    /// 0–18), tight contaminated-gaussian steady state with sporadic
    /// high-magnitude laggards afterwards.
    pub fn minimd() -> Self {
        Self::from_model(AppModel {
            name: "MiniMD".into(),
            rank_speed_sigma: 0.002,
            iter_wander_ms: 0.03,
            phases: vec![
                Phase {
                    from_iteration: 0,
                    median_ms: 25.5,
                    sigma_ms: 0.05,
                    sigma_jitter_lognorm: 0.0,
                    uniform_halfwidth_ms: 0.93,
                    early_expo_ms: 0.0,
                    tail_rate: 0.0,
                    tail_expo_ms: 0.0,
                    laggards: LaggardProcess::off(),
                    turbulence: Turbulence::off(),
                    contamination: Contamination::off(),
                },
                Phase {
                    from_iteration: 19,
                    median_ms: 24.74,
                    sigma_ms: 0.111,
                    sigma_jitter_lognorm: 0.0,
                    uniform_halfwidth_ms: 0.0,
                    early_expo_ms: 0.0,
                    tail_rate: 0.0,
                    tail_expo_ms: 0.0,
                    laggards: LaggardProcess {
                        rate: 0.035,
                        shift_ms: 1.0,
                        mu: 0.3,
                        sigma: 0.9,
                    },
                    turbulence: Turbulence {
                        rate: 0.008,
                        scale_lo: 15.0,
                        scale_hi: 35.0,
                    },
                    contamination: Contamination {
                        rate: 0.045,
                        scale: 2.3,
                    },
                },
            ],
        })
    }

    /// The calibrated MiniQMC model: wide per-thread gaussian with a thin
    /// exponential tail.
    pub fn miniqmc() -> Self {
        Self::from_model(AppModel {
            name: "MiniQMC".into(),
            rank_speed_sigma: 0.001,
            iter_wander_ms: 0.3,
            phases: vec![Phase {
                from_iteration: 0,
                median_ms: 60.91,
                sigma_ms: 6.71,
                sigma_jitter_lognorm: 0.20,
                uniform_halfwidth_ms: 0.0,
                early_expo_ms: 0.0,
                tail_rate: 0.0,
                tail_expo_ms: 0.0,
                laggards: LaggardProcess::off(),
                turbulence: Turbulence::off(),
                contamination: Contamination::off(),
            }],
        })
    }

    /// Looks a model up by its paper name through the canonical workload
    /// name table (case-insensitive).
    ///
    /// # Errors
    /// The did-you-mean message from
    /// [`canonical_workload_name`](crate::workload::canonical_workload_name)
    /// for unknown names.
    pub fn by_name(name: &str) -> Result<Self, String> {
        Ok(match crate::workload::canonical_workload_name(name)? {
            "MiniFE" => Self::minife(),
            "MiniMD" => Self::minimd(),
            "MiniQMC" => Self::miniqmc(),
            other => unreachable!("canonical table returned unbuildable name {other}"),
        })
    }

    /// All three calibrated apps in paper order.
    pub fn all() -> [Self; 3] {
        [Self::minife(), Self::minimd(), Self::miniqmc()]
    }

    /// Re-skins this app under a [`NoiseRegime`]: every phase's disturbance
    /// processes are replaced by the regime's (baseline keeps the calibrated
    /// ones). The deterministic arrival core — medians, jitter, phase
    /// structure, RNG streams — is untouched, so scenario campaigns vary one
    /// disturbance axis at a time.
    pub fn with_noise_regime(&self, regime: NoiseRegime) -> Self {
        let mut model = self.model.clone();
        for phase in &mut model.phases {
            if let Some(l) = regime.laggards() {
                phase.laggards = l;
            }
            if let Some(t) = regime.turbulence() {
                phase.turbulence = t;
            }
            if let Some(c) = regime.contamination() {
                phase.contamination = c;
            }
        }
        Self::from_model(model)
    }

    /// The underlying model.
    pub fn model(&self) -> &AppModel {
        &self.model
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.model.name
    }

    fn app_tag(&self) -> u64 {
        // Byte 4 disambiguates the three paper names ("MiniFE"/"MiniMD"/
        // "MiniQMC" share their first four bytes); the formula is frozen —
        // it seeds every stream, so changing it changes every trace. Inline
        // custom models may carry names shorter than 5 bytes, which fall
        // back to 0.
        mix(&[
            self.model.name.len() as u64,
            self.model.name.as_bytes().get(4).copied().unwrap_or(0) as u64,
        ])
    }

    /// Persistent speed factor of `(trial, rank)`.
    fn rank_factor(&self, seed: u64, trial: usize, rank: usize) -> f64 {
        let mut rng = Rng64::new(mix(&[
            seed,
            self.app_tag(),
            STREAM_RANK_FACTOR,
            trial as u64,
            rank as u64,
        ]));
        1.0 + self.model.rank_speed_sigma * Normal::standard_draw(&mut rng)
    }

    /// Generates the per-thread compute times (ms) of one process-iteration.
    pub fn process_iteration_ms(
        &self,
        seed: u64,
        trial: usize,
        rank: usize,
        iteration: usize,
        threads: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; threads];
        self.process_iteration_into(seed, trial, rank, iteration, &mut out);
        out
    }

    /// Fills `out` (one slot per thread) with one process-iteration's compute
    /// times — the allocation-free core of [`process_iteration_ms`] that the
    /// campaign generators call with a reused per-worker scratch buffer.
    fn process_iteration_into(
        &self,
        seed: u64,
        trial: usize,
        rank: usize,
        iteration: usize,
        out: &mut [f64],
    ) {
        let threads = out.len();
        let phase = self.model.phase_for(iteration);
        let mut rng = Rng64::new(mix(&[
            seed,
            self.app_tag(),
            STREAM_SAMPLES,
            trial as u64,
            rank as u64,
            iteration as u64,
        ]));
        let rank_factor = self.rank_factor(seed, trial, rank);
        let base = phase.median_ms * rank_factor
            + self.model.iter_wander_ms * Normal::standard_draw(&mut rng);
        let turb = phase.turbulence.draw(&mut rng);
        let sigma_scale = if phase.sigma_jitter_lognorm > 0.0 {
            // Truncated at ±2.5σ: keeps the pooled-kurtosis effect while
            // bounding the extreme per-iteration IQRs near the paper's max.
            let z = Normal::standard_draw(&mut rng).clamp(-2.5, 2.5);
            (phase.sigma_jitter_lognorm * z).exp()
        } else {
            1.0
        };
        let sigma_eff = phase.sigma_ms * turb * sigma_scale;
        for slot in out.iter_mut() {
            let mut x = base;
            x += phase.contamination.jitter(sigma_eff, &mut rng);
            if phase.uniform_halfwidth_ms > 0.0 {
                let hw = phase.uniform_halfwidth_ms * turb;
                x += Uniform::new(-hw, hw).sample(&mut rng);
            }
            if phase.early_expo_ms > 0.0 {
                x -= Exponential::new(1.0 / (phase.early_expo_ms * turb)).sample(&mut rng);
            }
            if phase.tail_rate > 0.0 && rng.bernoulli(phase.tail_rate) {
                x += Exponential::new(1.0 / phase.tail_expo_ms).sample(&mut rng);
            }
            // Compute times are physically positive; clamp far below any
            // calibrated median so the clamp never engages in practice.
            // Above, a sample holds at most `CEILING_MS` (≈ 4.29 s, 40× the
            // largest calibrated draw): only an inline model whose draws
            // pass it engages that clamp, and its trace then reads the
            // ceiling where the draw went past.
            *slot = x.max(0.01 * phase.median_ms).min(CEILING_MS);
        }
        if let Some((victim, delay_ms)) = phase.laggards.draw(threads, &mut rng) {
            out[victim] = (out[victim] + delay_ms).min(CEILING_MS);
        }
    }

    /// Appends one generated process-iteration (ms per thread) to a sample
    /// column as nanosecond compute times.
    fn push_unit(scratch: &[f64], samples: &mut Vec<ThreadSample>) {
        samples.extend(
            scratch
                .iter()
                .map(|&ms| ThreadSample::new(0, (ms * 1.0e6).round() as u64)),
        );
    }

    /// Generates a full campaign trace for `cfg` under `seed` — the pool-free
    /// reference implementation; production goes through the analysis
    /// engine's generation stage (`generate_campaign_parallel`, which lands
    /// in [`generate_parallel`](Self::generate_parallel)), tested
    /// bit-identical to this loop.
    pub fn generate(&self, cfg: &JobConfig, seed: u64) -> TimingTrace {
        let shape = cfg.shape();
        let mut samples = Vec::with_capacity(shape.total_samples());
        let mut scratch = vec![0.0; cfg.threads];
        for trial in 0..cfg.trials {
            for rank in 0..cfg.ranks {
                for iteration in 0..cfg.iterations {
                    self.process_iteration_into(seed, trial, rank, iteration, &mut scratch);
                    Self::push_unit(&scratch, &mut samples);
                }
            }
        }
        TimingTrace::from_samples(self.model.name.as_str(), shape, samples)
            .expect("one unit pushed per process-iteration")
    }

    /// Generates a full campaign trace with the process-iteration units
    /// fanned out over `pool` — bit-identical to [`generate`](Self::generate)
    /// for any pool size, because every unit's samples derive from its own
    /// `(seed, app, trial, rank, iteration)` hash stream and units never
    /// share state.
    ///
    /// Every sample is written once: each member pushes the units of its
    /// [`static_block`] onto a column of its own, reusing one scratch buffer,
    /// and the trace takes the columns in member order. Member 0's column is
    /// sized for the whole trace and becomes its storage, so the other
    /// members' samples are the only ones copied. The caller allocates the
    /// columns: a block a member allocated would stay behind in that
    /// thread's malloc arena (3 MB of `pipeline_paper`'s peak).
    pub fn generate_parallel(&self, cfg: &JobConfig, seed: u64, pool: &Pool) -> TimingTrace {
        let shape = cfg.shape();
        let units = shape.process_iterations();
        let threads = shape.threads;
        let workers = pool.threads();
        let mut columns: Vec<Vec<ThreadSample>> = (0..workers)
            .map(|member| {
                Vec::with_capacity(match member {
                    0 => shape.total_samples(),
                    _ => static_block(units, workers, member).len() * threads,
                })
            })
            .collect();
        pool.parallel_chunks_mut(&mut columns, |column, _member, ctx| {
            let mut scratch = vec![0.0; threads];
            for unit in static_block(units, ctx.nthreads(), ctx.thread()) {
                let (trial, rank, iteration) = shape.unit_coords(unit);
                self.process_iteration_into(seed, trial, rank, iteration, &mut scratch);
                Self::push_unit(&scratch, &mut column[0]);
            }
        });
        let mut columns = columns.into_iter();
        let mut samples = columns.next().expect("pool has at least one thread");
        for column in columns {
            samples.extend_from_slice(&column);
        }
        TimingTrace::from_samples(self.model.name.as_str(), shape, samples)
            .expect("the members' blocks cover every process-iteration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_core::view::fill_group_ms;
    use ebird_core::AggregationLevel;
    use ebird_stats::percentile::PercentileSummary;

    /// Every compute time of `trace` (ms): its application group.
    fn all_ms(trace: &TimingTrace) -> Vec<f64> {
        let mut all = Vec::new();
        fill_group_ms(trace, AggregationLevel::Application, 0, &mut all);
        all
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = JobConfig::new(1, 2, 5, 8);
        let a = SyntheticApp::minife().generate(&cfg, 42);
        let b = SyntheticApp::minife().generate(&cfg, 42);
        assert_eq!(a, b);
        let c = SyntheticApp::minife().generate(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_serial() {
        // The acceptance bar for the parallel engine: same bytes out for any
        // pool size, across apps and odd shapes (including unit counts that
        // do not divide evenly among workers).
        let shapes = [
            JobConfig::new(1, 1, 1, 3),
            JobConfig::new(2, 2, 7, 5),
            JobConfig::new(1, 3, 11, 8),
        ];
        for app in SyntheticApp::all() {
            for cfg in &shapes {
                let serial = app.generate(cfg, 314);
                for workers in [1, 2, 3, 8] {
                    let pool = Pool::new(workers);
                    let parallel = app.generate_parallel(cfg, 314, &pool);
                    assert_eq!(
                        serial,
                        parallel,
                        "{} {:?} with {workers} workers",
                        app.name(),
                        cfg
                    );
                }
            }
        }
    }

    #[test]
    fn apps_have_distinct_streams() {
        let cfg = JobConfig::new(1, 1, 3, 4);
        let fe = SyntheticApp::minife().generate(&cfg, 1);
        let md = SyntheticApp::minimd().generate(&cfg, 1);
        assert_ne!(fe.samples(), md.samples());
    }

    #[test]
    fn sub_range_regeneration_matches_campaign() {
        // Hierarchical seeding: one process-iteration regenerated in
        // isolation must equal its slice of the full campaign.
        let cfg = JobConfig::new(2, 2, 6, 8);
        let app = SyntheticApp::miniqmc();
        let trace = app.generate(&cfg, 7);
        let standalone = app.process_iteration_ms(7, 1, 0, 3, 8);
        // (trial 1, rank 0, iteration 3) is unit (1 × 2 + 0) × 6 + 3 = 15.
        let mut from_trace = Vec::new();
        fill_group_ms(
            &trace,
            AggregationLevel::ProcessIteration,
            15,
            &mut from_trace,
        );
        for (a, b) in standalone.iter().zip(&from_trace) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b} (ns rounding only)");
        }
    }

    #[test]
    fn minife_median_and_iqr_bands() {
        let cfg = JobConfig::new(2, 2, 40, 48);
        let trace = SyntheticApp::minife().generate(&cfg, 11);
        let all = all_ms(&trace);
        let s = PercentileSummary::from_sample(&all).unwrap();
        assert!((s.p50 - 26.30).abs() < 0.3, "median {}", s.p50);
        // Left skew: early arrivals more common than late (excluding
        // laggards, p50 − p5 > p95 − p50).
        assert!(s.p50 - s.p5 > s.p95 - s.p50, "skew direction: {s:?}");
    }

    #[test]
    fn minife_per_iteration_iqr_is_tight() {
        let app = SyntheticApp::minife();
        // Collect calm-iteration IQRs (turbulence is rare; median over many
        // iterations is robust to it).
        let mut iqrs: Vec<f64> = (0..200)
            .map(|i| {
                let ms = app.process_iteration_ms(3, 0, 0, i, 48);
                PercentileSummary::from_sample(&ms).unwrap().iqr()
            })
            .collect();
        iqrs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_iqr = iqrs[100];
        assert!(
            (0.08..0.35).contains(&median_iqr),
            "typical IQR {median_iqr} (target ≈ 0.18)"
        );
    }

    #[test]
    fn minife_laggard_rate_matches_paper_band() {
        let app = SyntheticApp::minife();
        let mut laggards = 0usize;
        const N: usize = 4000;
        for i in 0..N {
            let ms = app.process_iteration_ms(5, i / 200, (i / 100) % 2, i % 200, 48);
            let s = PercentileSummary::from_sample(&ms).unwrap();
            if s.max - s.p50 > 1.0 {
                laggards += 1;
            }
        }
        let rate = laggards as f64 / N as f64;
        assert!(
            (0.17..0.29).contains(&rate),
            "laggard rate {rate} (paper: 0.224)"
        );
    }

    #[test]
    fn minimd_has_two_phases() {
        let app = SyntheticApp::minimd();
        let early: Vec<f64> = (0..19)
            .map(|i| {
                let ms = app.process_iteration_ms(9, 0, 0, i, 48);
                PercentileSummary::from_sample(&ms).unwrap().iqr()
            })
            .collect();
        let late: Vec<f64> = (19..100)
            .map(|i| {
                let ms = app.process_iteration_ms(9, 0, 0, i, 48);
                PercentileSummary::from_sample(&ms).unwrap().iqr()
            })
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let early_mean = mean(&early);
        // Median of the late IQRs (robust to rare turbulence).
        let mut l = late.clone();
        l.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let late_typ = l[l.len() / 2];
        assert!(
            (0.6..1.3).contains(&early_mean),
            "phase-1 IQR {early_mean} (paper ≈ 0.93)"
        );
        assert!(
            (0.08..0.25).contains(&late_typ),
            "steady IQR {late_typ} (paper ≈ 0.15)"
        );
        assert!(early_mean > 3.0 * late_typ, "phase contrast");
    }

    #[test]
    fn minimd_laggard_rate_matches_paper_band() {
        let app = SyntheticApp::minimd();
        let mut laggards = 0usize;
        const N: usize = 4000;
        for i in 0..N {
            // Steady-state iterations only (the paper's 4.8% covers those).
            let iter = 19 + (i % 181);
            let ms = app.process_iteration_ms(13, i / 181, 0, iter, 48);
            let s = PercentileSummary::from_sample(&ms).unwrap();
            if s.max - s.p50 > 1.0 {
                laggards += 1;
            }
        }
        let rate = laggards as f64 / N as f64;
        assert!(
            (0.03..0.09).contains(&rate),
            "laggard rate {rate} (paper: 0.048)"
        );
    }

    #[test]
    fn miniqmc_median_and_iqr_bands() {
        let cfg = JobConfig::new(1, 2, 30, 48);
        let trace = SyntheticApp::miniqmc().generate(&cfg, 17);
        let all = all_ms(&trace);
        let s = PercentileSummary::from_sample(&all).unwrap();
        assert!((s.p50 - 60.91).abs() < 1.0, "median {}", s.p50);
        assert!(
            (7.5..11.0).contains(&s.iqr()),
            "IQR {} (paper 9.05)",
            s.iqr()
        );
        // Breadth of arrivals exceeds 30 ms (paper: over 40 ms at full scale).
        assert!(s.max - s.min > 30.0, "breadth {}", s.max - s.min);
    }

    #[test]
    fn noise_regimes_reshape_disturbances_only() {
        let base = SyntheticApp::minife();
        // Baseline is the identity.
        assert_eq!(base.with_noise_regime(NoiseRegime::Baseline), base);
        let noisy = base.with_noise_regime(NoiseRegime::Laggard);
        assert_eq!(noisy.name(), base.name());
        // The laggard-heavy regime fires far more often than the calibrated
        // 20.5% rate (its floor delay is 2 ms, well past the 1 ms threshold).
        let lag_count = |app: &SyntheticApp| -> usize {
            (0..300)
                .filter(|&i| {
                    let ms = app.process_iteration_ms(3, 0, 0, i, 32);
                    let s = PercentileSummary::from_sample(&ms).unwrap();
                    s.max - s.p50 > 1.0
                })
                .count()
        };
        let base_lagged = lag_count(&base);
        let noisy_lagged = lag_count(&noisy);
        assert!(
            noisy_lagged > 200 && noisy_lagged > 2 * base_lagged,
            "laggard regime fired {noisy_lagged}/300 vs baseline {base_lagged}/300"
        );
        // The arrival core is untouched: medians stay in the calibrated band.
        let ms = noisy.process_iteration_ms(3, 0, 0, 7, 48);
        let s = PercentileSummary::from_sample(&ms).unwrap();
        assert!((s.p50 - 26.30).abs() < 1.0, "median {}", s.p50);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(SyntheticApp::by_name("minife").unwrap().name(), "MiniFE");
        assert_eq!(SyntheticApp::by_name("MiniMD").unwrap().name(), "MiniMD");
        assert_eq!(SyntheticApp::by_name("MINIQMC").unwrap().name(), "MiniQMC");
        let err = SyntheticApp::by_name("hpcg").unwrap_err();
        assert!(err.contains("hpcg"), "{err}");
        assert!(err.contains("MiniFE"), "{err}");
    }

    #[test]
    fn try_from_model_rejects_bad_configs() {
        let mut m = SyntheticApp::minife().model().clone();
        m.phases[0].median_ms = -1.0;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("median_ms"));
        let mut m = SyntheticApp::minife().model().clone();
        m.phases[0].tail_rate = 1.5;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("tail_rate"));
        let mut m = SyntheticApp::minife().model().clone();
        m.phases.clear();
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("iteration 0"));
        // Overflow-scale parameters that would only fail later as
        // non-finite arrivals are rejected up front.
        let mut m = SyntheticApp::minife().model().clone();
        m.rank_speed_sigma = 1.0e308;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("rank_speed_sigma"));
        let mut m = SyntheticApp::minife().model().clone();
        m.phases[0].laggards.rate = 50.0;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("laggards.rate"));
        let mut m = SyntheticApp::minife().model().clone();
        m.phases[0].laggards.mu = f64::NAN;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("laggards.mu"));
        let mut m = SyntheticApp::minife().model().clone();
        m.phases[0].turbulence.scale_lo = 9.0;
        m.phases[0].turbulence.scale_hi = 2.0;
        assert!(SyntheticApp::try_from_model(m)
            .unwrap_err()
            .contains("scale_lo"));
        // Every built-in model passes its own validator.
        for app in SyntheticApp::all() {
            SyntheticApp::try_from_model(app.model().clone()).unwrap();
        }
    }

    /// `try_from_model` admits medians far past what a sample holds; the
    /// generator clamps every draw at the ceiling rather than letting the
    /// sample constructor cut it, on any pool.
    #[test]
    fn an_inline_model_past_the_ceiling_generates_the_ceiling() {
        let mut m = SyntheticApp::minife().model().clone();
        m.name = "slow".into();
        m.phases[0].median_ms = 5_000.0;
        let app = SyntheticApp::try_from_model(m).unwrap();
        let cfg = JobConfig::new(1, 2, 3, 8);
        let shape = cfg.shape();
        let draws: Vec<f64> = (0..shape.process_iterations())
            .flat_map(|unit| {
                let (trial, rank, iteration) = shape.unit_coords(unit);
                app.process_iteration_ms(11, trial, rank, iteration, cfg.threads)
            })
            .collect();
        assert!(draws.iter().all(|&ms| ms <= CEILING_MS));
        let clamped = draws.iter().filter(|&&ms| ms == CEILING_MS).count();
        assert!(clamped > 0, "a 5 s median reaches the ceiling");

        let serial = app.generate(&cfg, 11);
        let at_ceiling = |trace: &TimingTrace| {
            trace
                .samples()
                .iter()
                .filter(|s| s.compute_time_ns() == ThreadSample::CEILING_NS)
                .count()
        };
        assert_eq!(at_ceiling(&serial), clamped);
        assert_eq!(app.generate_parallel(&cfg, 11, &Pool::new(3)), serial);
    }

    #[test]
    fn phase_lookup() {
        let md = SyntheticApp::minimd();
        assert_eq!(md.model().phase_for(0).median_ms, 25.5);
        assert_eq!(md.model().phase_for(18).median_ms, 25.5);
        assert_eq!(md.model().phase_for(19).median_ms, 24.74);
        assert_eq!(md.model().phase_for(199).median_ms, 24.74);
    }

    #[test]
    #[should_panic(expected = "first phase must start at iteration 0")]
    fn model_rejects_late_first_phase() {
        let mut model = SyntheticApp::minife().model().clone();
        model.phases[0].from_iteration = 5;
        SyntheticApp::from_model(model);
    }

    #[test]
    fn samples_are_positive() {
        let cfg = JobConfig::new(1, 1, 20, 16);
        for app in SyntheticApp::all() {
            let trace = app.generate(&cfg, 23);
            assert!(trace.samples().iter().all(|s| s.compute_time_ns() > 0));
        }
    }
}
