//! The pluggable workload engine: arrival shapes as data.
//!
//! PR 4 made the *network* axis of the scenario campaign pluggable
//! ([`NetModelSpec`] naming any [`NetModel`]); this module does the same
//! for the *workload* axis — the per-thread completion-time shapes the
//! paper measures on MiniMD, MiniQMC and MiniFE. A [`Workload`] is anything
//! that can generate a campaign [`TimingTrace`] on the workspace [`Pool`]
//! (bit-identically for any pool size) and supply one process-iteration's
//! per-rank arrival sets for delivery pricing. A [`WorkloadSpec`] is the
//! serde shape that names one in matrix JSON:
//!
//! * [`WorkloadSpec::Named`] — the three calibrated paper apps by
//!   (case-insensitive) name;
//! * [`WorkloadSpec::Synthetic`] — a full inline [`AppModel`] with explicit
//!   phases, so new arrival shapes are config entries, not code;
//! * [`WorkloadSpec::RealKernel`] — a scaled-down run of one of the *real*
//!   Rust proxy kernels (`ebird-apps`), built by
//!   [`RealKernelParams::run_campaign`] and run through
//!   [`run_real_campaign`] under the deterministic work-metered clock
//!   ([`RealTiming::Metered`]), connecting the live kernels to the
//!   scenario/serve pipeline with cache-stable bytes;
//! * [`WorkloadSpec::Mixture`] — a weighted blend of other specs: every
//!   `(trial, rank, iteration)` unit draws one component from a seeded
//!   hash stream in proportion to its weight, modelling heterogeneous jobs
//!   (phase mixes across applications).
//!
//! Specs [`resolve`](WorkloadSpec::resolve) into [`ResolvedWorkload`]
//! handles (name lookups and range checks happen once, per PR 3's
//! resolve() pattern); the handles implement [`Workload`].
//!
//! [`NetModelSpec`]: ebird_partcomm::NetModelSpec
//! [`NetModel`]: ebird_partcomm::NetModel

use ebird_apps::{MiniFe, MiniFeParams, MiniMd, MiniMdParams, MiniQmc, MiniQmcParams, ProxyApp};
use ebird_core::view::group_slices;
use ebird_core::{AggregationLevel, ThreadSample, TimingTrace};
use ebird_runtime::Pool;
use serde::{Deserialize, Serialize};

use crate::job::JobConfig;
use crate::noise::NoiseRegime;
use crate::runner::{run_real_campaign, RealTiming};
use crate::synthetic::{mix, AppModel, SyntheticApp};

/// The built-in calibrated workload names, paper order — THE canonical
/// spelling table every resolution path (synthetic models, real kernels,
/// calibration targets) shares.
pub const BUILTIN_WORKLOAD_NAMES: [&str; 3] = ["MiniFE", "MiniMD", "MiniQMC"];

/// Domain-separation constant for the mixture component picker's hash
/// stream (disjoint from `synthetic`'s sample/rank-factor streams).
const STREAM_MIXTURE: u64 = 0x4D;

/// Resolves a workload/application name against
/// [`BUILTIN_WORKLOAD_NAMES`], case-insensitively, returning the canonical
/// spelling.
///
/// # Errors
/// A did-you-mean message naming the nearest valid workload (when one is
/// plausibly close) and listing every known name — so `by_name("minifee")`
/// tells the operator about `MiniFE` instead of failing silently.
pub fn canonical_workload_name(name: &str) -> Result<&'static str, String> {
    for canon in BUILTIN_WORKLOAD_NAMES {
        if canon.eq_ignore_ascii_case(name) {
            return Ok(canon);
        }
    }
    let known = BUILTIN_WORKLOAD_NAMES.join(", ");
    let lower = name.to_ascii_lowercase();
    let nearest = BUILTIN_WORKLOAD_NAMES
        .iter()
        .map(|c| (c, edit_distance(&lower, &c.to_ascii_lowercase())))
        .min_by_key(|&(_, d)| d)
        .filter(|&(_, d)| d <= 3);
    Err(match nearest {
        Some((suggestion, _)) => format!(
            "unknown workload `{name}` — did you mean `{suggestion}`? (known workloads: {known})"
        ),
        None => format!("unknown workload `{name}` (known workloads: {known})"),
    })
}

/// Levenshtein distance over bytes — small inputs only (name suggestions).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Anything that can produce campaign traces and per-rank arrival sets —
/// the workload counterpart of [`ebird_partcomm::NetModel`]. Implemented by
/// [`SyntheticApp`] (the calibrated generative models) and
/// [`ResolvedWorkload`] (everything matrix JSON can name). Object-safe, so
/// sweeps and pipelines take `&dyn Workload`.
pub trait Workload: Send + Sync {
    /// Stable canonical label: the generated trace's app name and the
    /// scenario row's `app` column.
    fn label(&self) -> String;

    /// Generates a full campaign trace for `cfg` under `seed` on `pool` —
    /// **bit-identical** for any pool size. (Workloads that are inherently
    /// sequential, like real-kernel runs whose pool lives inside the
    /// campaign runner, ignore `pool`.)
    ///
    /// # Errors
    /// A human-readable description of the failure (real-kernel invariant
    /// violations; synthetic workloads never fail).
    fn generate_trace_parallel(
        &self,
        cfg: &JobConfig,
        seed: u64,
        pool: &Pool,
    ) -> Result<TimingTrace, String>;

    /// One process-iteration's per-thread arrival times (ms) for each of
    /// `ranks` concurrent ranks (trial 0) — the inputs the scenario
    /// campaign prices through the delivery kernel. For synthetic
    /// workloads these are the raw `f64` draws (bit-identical to the
    /// pre-workload-engine scenario path); real kernels report their
    /// metered, ns-rounded times.
    ///
    /// # Errors
    /// As [`generate_trace_parallel`](Self::generate_trace_parallel).
    fn rank_arrivals_ms(
        &self,
        seed: u64,
        ranks: usize,
        iteration: usize,
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String>;
}

impl Workload for SyntheticApp {
    fn label(&self) -> String {
        self.name().to_string()
    }

    fn generate_trace_parallel(
        &self,
        cfg: &JobConfig,
        seed: u64,
        pool: &Pool,
    ) -> Result<TimingTrace, String> {
        Ok(self.generate_parallel(cfg, seed, pool))
    }

    fn rank_arrivals_ms(
        &self,
        seed: u64,
        ranks: usize,
        iteration: usize,
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String> {
        Ok((0..ranks)
            .map(|rank| self.process_iteration_ms(seed, 0, rank, iteration, threads))
            .collect())
    }
}

/// Serde default for [`RealKernelParams::ns_per_op`]: 100 ns per metered
/// inner-loop operation lands test-scale kernels in the sub-millisecond
/// arrival band.
fn default_ns_per_op() -> f64 {
    100.0
}

/// Per-app problem-size knobs for a [`WorkloadSpec::RealKernel`] run. Every
/// field is serde-defaulted, so `{"RealKernel":{"app":"MiniFE"}}` is a
/// complete spec (test-scale sizes, the documented scaled-down substitution
/// for cluster-scale problems).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealKernelParams {
    /// Nanoseconds charged per inner-loop operation by the deterministic
    /// work-metered clock ([`RealTiming::Metered`]).
    #[serde(default = "default_ns_per_op")]
    pub ns_per_op: f64,
    /// MiniFE mesh dims `[nx, ny, nz]` (`nz` is the distributed plane
    /// count); `None` keeps the 6×6×12 test scale.
    #[serde(default)]
    pub minife_dims: Option<[usize; 3]>,
    /// MiniMD FCC unit cells per axis; `None` keeps the 3×3×3 test scale.
    #[serde(default)]
    pub minimd_cells: Option<[usize; 3]>,
    /// MiniQMC walker count; `None` keeps the 6-walker test scale.
    #[serde(default)]
    pub miniqmc_walkers: Option<usize>,
    /// MiniQMC electrons per walker; `None` keeps the 5-electron test
    /// scale.
    #[serde(default)]
    pub miniqmc_electrons: Option<usize>,
}

impl Default for RealKernelParams {
    fn default() -> Self {
        RealKernelParams {
            ns_per_op: default_ns_per_op(),
            minife_dims: None,
            minimd_cells: None,
            miniqmc_walkers: None,
            miniqmc_electrons: None,
        }
    }
}

impl RealKernelParams {
    /// Validates the knobs for a run of `app` (canonical name): ranges must
    /// be sane, and any size knob belonging to a *different* app is
    /// rejected rather than silently ignored — a misdirected
    /// `minimd_cells` on a MiniFE run is a config mistake, and two specs
    /// differing only in dead knobs must not occupy distinct cache keys
    /// for byte-identical rows. A metered rate at or past
    /// [`ThreadSample::CEILING_NS`] is refused here too: one operation
    /// would already charge a sample the runner refuses, so the campaign
    /// could only fail after running its kernels for a whole iteration.
    fn validate_for(&self, app: &str) -> Result<(), String> {
        if !(self.ns_per_op.is_finite() && self.ns_per_op > 0.0) {
            return Err(format!(
                "ns_per_op {} must be finite and positive",
                self.ns_per_op
            ));
        }
        if self.ns_per_op >= ThreadSample::CEILING_NS as f64 {
            return Err(format!(
                "ns_per_op {} must be below a sample's ceiling of {} ns",
                self.ns_per_op,
                ThreadSample::CEILING_NS
            ));
        }
        for (owner, label, set) in [
            ("MiniFE", "minife_dims", self.minife_dims.is_some()),
            ("MiniMD", "minimd_cells", self.minimd_cells.is_some()),
            ("MiniQMC", "miniqmc_walkers", self.miniqmc_walkers.is_some()),
            (
                "MiniQMC",
                "miniqmc_electrons",
                self.miniqmc_electrons.is_some(),
            ),
        ] {
            if set && owner != app {
                return Err(format!("{label} applies to {owner}, not to a `{app}` run"));
            }
        }
        for (label, dims) in [
            ("minife_dims", self.minife_dims),
            ("minimd_cells", self.minimd_cells),
        ] {
            if let Some(d) = dims {
                if d.contains(&0) {
                    return Err(format!("{label} {d:?} must be ≥ 1 on every axis"));
                }
            }
        }
        for (label, v) in [
            ("miniqmc_walkers", self.miniqmc_walkers),
            ("miniqmc_electrons", self.miniqmc_electrons),
        ] {
            if v == Some(0) {
                return Err(format!("{label} must be ≥ 1"));
            }
        }
        Ok(())
    }

    /// Runs a campaign of the real kernel `app` (case-insensitive) at these
    /// sizes under `timing` — the one place a live kernel is built. The
    /// trace carries the kernel's own name (`MiniFE`, `MiniMD`, `MiniQMC`).
    ///
    /// MiniMD and MiniQMC instances seed their randomness from
    /// `seed ^ (trial << 32 | rank)`, so every (trial, rank) pair is an
    /// independent, reproducible process. MiniFE has no randomness at all —
    /// its CG solve and static plane partition are fully determined by the
    /// mesh — so its ranks are legitimately identical and seed-invariant (as
    /// the paper's near-identical per-rank MiniFE medians reflect).
    ///
    /// # Errors
    /// An unknown kernel name, knobs [`WorkloadSpec::resolve`] would refuse,
    /// or the campaign runner's error.
    pub fn run_campaign(
        &self,
        app: &str,
        cfg: &JobConfig,
        seed: u64,
        timing: RealTiming,
    ) -> Result<TimingTrace, String> {
        let app = canonical_workload_name(app)?;
        self.validate_for(app)
            .map_err(|e| format!("real kernel `{app}`: {e}"))?;
        let factory = |trial: usize, rank: usize| -> Box<dyn ProxyApp> {
            let instance_seed = seed ^ ((trial as u64) << 32 | rank as u64);
            match app {
                "MiniFE" => {
                    let mut fe = MiniFeParams::test_scale();
                    if let Some([nx, ny, nz]) = self.minife_dims {
                        fe.dims = ebird_apps::minife::mesh::MeshDims::new(nx, ny, nz);
                    }
                    Box::new(MiniFe::new(fe))
                }
                "MiniMD" => {
                    let mut md = MiniMdParams::test_scale();
                    if let Some([x, y, z]) = self.minimd_cells {
                        md.cells = (x, y, z);
                    }
                    md.seed = instance_seed;
                    Box::new(MiniMd::new(md))
                }
                "MiniQMC" => {
                    let mut qmc = MiniQmcParams::test_scale();
                    if let Some(w) = self.miniqmc_walkers {
                        qmc.walkers = w;
                    }
                    if let Some(e) = self.miniqmc_electrons {
                        qmc.electrons = e;
                    }
                    qmc.seed = instance_seed;
                    Box::new(MiniQmc::new(qmc))
                }
                other => unreachable!("canonical table returned unbuildable kernel {other}"),
            }
        };
        run_real_campaign(cfg, factory, timing).map_err(|e| e.to_string())
    }
}

/// One weighted component of a [`WorkloadSpec::Mixture`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixtureComponent {
    /// Relative weight (finite, > 0; weights need not sum to 1).
    pub weight: f64,
    /// The component workload — any spec, including nested mixtures.
    pub spec: WorkloadSpec,
}

/// A workload as scenario-matrix data: the serde shape that names any
/// [`Workload`] in matrix JSON (the workload counterpart of
/// [`ebird_partcomm::NetModelSpec`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A built-in calibrated app by case-insensitive name, labelled with
    /// its canonical name.
    Named {
        /// Workload name (`MiniFE` / `MiniMD` / `MiniQMC`, any casing).
        name: String,
    },
    /// A full inline synthetic model: explicit phases, noise processes and
    /// laggard injection.
    Synthetic {
        /// The generative model (see [`AppModel`]).
        model: AppModel,
    },
    /// A scaled-down run of a *real* proxy kernel under the deterministic
    /// work-metered clock.
    RealKernel {
        /// Proxy-app name (case-insensitive).
        app: String,
        /// Problem-size and metering knobs (all serde-defaulted).
        #[serde(default)]
        params: RealKernelParams,
    },
    /// A weighted blend of other specs: each `(trial, rank, iteration)`
    /// unit draws one component in proportion to its weight from a seeded
    /// hash stream.
    Mixture {
        /// Mixture display name (labels rows as `mix(<name>)`).
        name: String,
        /// Weighted components (≥ 1; nesting allowed up to 4 levels).
        components: Vec<MixtureComponent>,
    },
}

/// Maximum [`WorkloadSpec::Mixture`] nesting depth accepted by
/// [`WorkloadSpec::resolve`] — deep enough for any sane blend, shallow
/// enough that adversarial JSON cannot blow the stack.
const MAX_MIXTURE_DEPTH: usize = 4;

impl WorkloadSpec {
    /// Short display label for table rows (the row's `app` column).
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Named { name } => canonical_workload_name(name)
                .map(str::to_string)
                .unwrap_or_else(|_| name.clone()),
            WorkloadSpec::Synthetic { model } => format!("syn({})", model.name),
            WorkloadSpec::RealKernel { app, .. } => format!(
                "real({})",
                canonical_workload_name(app).unwrap_or(app.as_str())
            ),
            WorkloadSpec::Mixture { name, .. } => format!("mix({name})"),
        }
    }

    /// Validates every name, range and weight and returns the typed
    /// handle, so no lookup — and therefore no panic path — survives past
    /// resolution.
    ///
    /// # Errors
    /// A human-readable description of the first invalid entry (unknown
    /// names carry the did-you-mean suggestion).
    pub fn resolve(&self) -> Result<ResolvedWorkload, String> {
        self.resolve_at_depth(0)
    }

    fn resolve_at_depth(&self, depth: usize) -> Result<ResolvedWorkload, String> {
        if depth > MAX_MIXTURE_DEPTH {
            return Err(format!(
                "mixture nesting exceeds {MAX_MIXTURE_DEPTH} levels"
            ));
        }
        match self {
            WorkloadSpec::Named { name } => {
                Ok(ResolvedWorkload::Synthetic(SyntheticApp::by_name(name)?))
            }
            WorkloadSpec::Synthetic { model } => Ok(ResolvedWorkload::Synthetic(
                SyntheticApp::try_from_model(model.clone())?,
            )),
            WorkloadSpec::RealKernel { app, params } => {
                let canon = canonical_workload_name(app)?;
                params
                    .validate_for(canon)
                    .map_err(|e| format!("real kernel `{canon}`: {e}"))?;
                Ok(ResolvedWorkload::Real(RealKernelHandle {
                    app: canon,
                    params: params.clone(),
                }))
            }
            WorkloadSpec::Mixture { name, components } => {
                if name.is_empty() {
                    return Err("mixture name must be nonempty".into());
                }
                if components.is_empty() {
                    return Err(format!("mixture `{name}` has no components"));
                }
                let mut cum = 0.0;
                let mut resolved = Vec::with_capacity(components.len());
                for c in components {
                    if !(c.weight.is_finite() && c.weight > 0.0) {
                        return Err(format!(
                            "mixture `{name}`: weight {} must be finite and positive",
                            c.weight
                        ));
                    }
                    cum += c.weight;
                    resolved.push((cum, c.spec.resolve_at_depth(depth + 1)?));
                }
                Ok(ResolvedWorkload::Mixture {
                    name: name.clone(),
                    components: resolved,
                    total_weight: cum,
                })
            }
        }
    }
}

/// A validated real-kernel workload: the canonical app name plus its
/// problem-size knobs. Building campaign factories from it is infallible.
#[derive(Debug, Clone, PartialEq)]
pub struct RealKernelHandle {
    /// Canonical app name (from [`BUILTIN_WORKLOAD_NAMES`]).
    app: &'static str,
    params: RealKernelParams,
}

impl RealKernelHandle {
    /// Runs the metered campaign ([`RealKernelParams::run_campaign`] at
    /// [`RealTiming::Metered`]). For MiniFE the seed does not move the
    /// trace, but it still participates in the cell cache key, which merely
    /// costs a duplicate cache entry across seeds, never a wrong row.
    fn generate(&self, cfg: &JobConfig, seed: u64) -> Result<TimingTrace, String> {
        let timing = RealTiming::Metered {
            ns_per_op: self.params.ns_per_op,
        };
        let measured = self.params.run_campaign(self.app, cfg, seed, timing)?;
        // Re-label under the workload's canonical label (`real(<app>)`), so
        // a metered run is never mistaken for the calibrated synthetic
        // shape of the same kernel.
        TimingTrace::from_samples(
            format!("real({})", self.app),
            cfg.shape(),
            measured.samples().to_vec(),
        )
        .map_err(|e| e.to_string())
    }
}

/// A validated [`WorkloadSpec`] with every name resolved into its typed
/// handle. Constructed only by [`WorkloadSpec::resolve`]; implements
/// [`Workload`].
#[derive(Debug, Clone)]
pub enum ResolvedWorkload {
    /// A calibrated or inline synthetic generative model (covers
    /// [`WorkloadSpec::Named`] and [`WorkloadSpec::Synthetic`]).
    Synthetic(SyntheticApp),
    /// A metered real-kernel run.
    Real(RealKernelHandle),
    /// A weighted blend of resolved components.
    Mixture {
        /// Mixture display name.
        name: String,
        /// `(cumulative weight, component)` pairs in spec order.
        components: Vec<(f64, ResolvedWorkload)>,
        /// Sum of all component weights.
        total_weight: f64,
    },
}

impl ResolvedWorkload {
    /// Re-skins this workload under a [`NoiseRegime`] (see
    /// [`SyntheticApp::with_noise_regime`]).
    ///
    /// # Errors
    /// Real-kernel workloads are measured, not modelled, so any regime
    /// other than [`NoiseRegime::Baseline`] is rejected with a message
    /// naming the offending workload.
    pub fn with_noise_regime(&self, regime: NoiseRegime) -> Result<ResolvedWorkload, String> {
        match self {
            ResolvedWorkload::Synthetic(app) => {
                Ok(ResolvedWorkload::Synthetic(app.with_noise_regime(regime)))
            }
            ResolvedWorkload::Real(h) => {
                if regime == NoiseRegime::Baseline {
                    Ok(self.clone())
                } else {
                    Err(format!(
                        "noise regime `{}` cannot apply to real-kernel workload `{}`: \
                         real kernels are measured, not modelled — pair RealKernel \
                         entries with the `baseline` regime",
                        regime.label(),
                        h.app
                    ))
                }
            }
            ResolvedWorkload::Mixture {
                name,
                components,
                total_weight,
            } => Ok(ResolvedWorkload::Mixture {
                name: name.clone(),
                components: components
                    .iter()
                    .map(|(cum, c)| Ok((*cum, c.with_noise_regime(regime)?)))
                    .collect::<Result<_, String>>()?,
                total_weight: *total_weight,
            }),
        }
    }

    /// Domain-separation tag of a mixture's hash stream, derived from its
    /// name — computed once per blend, not per unit.
    fn mixture_tag(name: &str) -> u64 {
        let mut tag = mix(&[STREAM_MIXTURE, name.len() as u64]);
        for b in name.as_bytes() {
            tag = mix(&[tag, *b as u64]);
        }
        tag
    }

    /// The mixture component governing one `(trial, rank, iteration)` unit:
    /// a seeded hash draw mapped onto the cumulative weight line. A
    /// single-component mixture always picks component 0, making it
    /// bit-identical to its underlying workload.
    fn pick_component(
        components: &[(f64, ResolvedWorkload)],
        total_weight: f64,
        tag: u64,
        seed: u64,
        trial: usize,
        rank: usize,
        iteration: usize,
    ) -> usize {
        let h = mix(&[seed, tag, trial as u64, rank as u64, iteration as u64]);
        // 53 high bits → uniform in [0, 1), scaled onto the weight line.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64 * total_weight;
        components
            .iter()
            .position(|&(cum, _)| u < cum)
            .unwrap_or(components.len() - 1)
    }
}

impl Workload for ResolvedWorkload {
    fn label(&self) -> String {
        match self {
            ResolvedWorkload::Synthetic(app) => app.name().to_string(),
            ResolvedWorkload::Real(h) => format!("real({})", h.app),
            ResolvedWorkload::Mixture { name, .. } => format!("mix({name})"),
        }
    }

    fn generate_trace_parallel(
        &self,
        cfg: &JobConfig,
        seed: u64,
        pool: &Pool,
    ) -> Result<TimingTrace, String> {
        match self {
            ResolvedWorkload::Synthetic(app) => Ok(app.generate_parallel(cfg, seed, pool)),
            // The metered campaign's pool lives inside the runner (one
            // worker per campaign thread); ranks are inherently sequential.
            ResolvedWorkload::Real(h) => h.generate(cfg, seed),
            ResolvedWorkload::Mixture {
                name,
                components,
                total_weight,
            } => {
                // Every unit is copied from the trace of the component that
                // governs it.
                let traces: Vec<TimingTrace> = components
                    .iter()
                    .map(|(_, c)| c.generate_trace_parallel(cfg, seed, pool))
                    .collect::<Result<_, _>>()?;
                let shape = cfg.shape();
                let mut samples = Vec::with_capacity(shape.total_samples());
                let tag = Self::mixture_tag(name);
                for unit in 0..shape.process_iterations() {
                    let (trial, rank, iteration) = shape.unit_coords(unit);
                    let k = Self::pick_component(
                        components,
                        *total_weight,
                        tag,
                        seed,
                        trial,
                        rank,
                        iteration,
                    );
                    samples.extend_from_slice(
                        &traces[k].samples()[unit * shape.threads..][..shape.threads],
                    );
                }
                TimingTrace::from_samples(format!("mix({name})"), shape, samples)
                    .map_err(|e| e.to_string())
            }
        }
    }

    fn rank_arrivals_ms(
        &self,
        seed: u64,
        ranks: usize,
        iteration: usize,
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String> {
        match self {
            ResolvedWorkload::Synthetic(app) => {
                app.rank_arrivals_ms(seed, ranks, iteration, threads)
            }
            ResolvedWorkload::Real(h) => {
                // One metered campaign covering every rank up to the
                // requested iteration; rank r's trace is independent of the
                // total rank count (instances are separate processes). With
                // one trial, the iteration's group is one slice per rank.
                let cfg = JobConfig::new(1, ranks, iteration + 1, threads);
                let trace = h.generate(&cfg, seed)?;
                Ok(
                    group_slices(&trace, AggregationLevel::ApplicationIteration, iteration)
                        .map(|rank| rank.iter().map(ThreadSample::compute_time_ms).collect())
                        .collect(),
                )
            }
            ResolvedWorkload::Mixture {
                name,
                components,
                total_weight,
            } => {
                // Per-rank arrivals are rank-count-independent for every
                // workload kind (synthetic draws hash on the rank index;
                // real-kernel instances are separate processes), so each
                // component's full table is computed at most once and
                // indexed per rank — a selected RealKernel component runs
                // one metered campaign, not one per rank.
                let mut tables: Vec<Option<Vec<Vec<f64>>>> = vec![None; components.len()];
                let mut out = Vec::with_capacity(ranks);
                let tag = Self::mixture_tag(name);
                for rank in 0..ranks {
                    let k = Self::pick_component(
                        components,
                        *total_weight,
                        tag,
                        seed,
                        0,
                        rank,
                        iteration,
                    );
                    if tables[k].is_none() {
                        tables[k] = Some(
                            components[k]
                                .1
                                .rank_arrivals_ms(seed, ranks, iteration, threads)?,
                        );
                    }
                    out.push(tables[k].as_ref().expect("filled above")[rank].clone());
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json;

    #[test]
    fn canonical_names_resolve_any_casing() {
        for name in ["minife", "MINIFE", "MiniFE", "mInIfE"] {
            assert_eq!(canonical_workload_name(name).unwrap(), "MiniFE");
        }
        assert_eq!(canonical_workload_name("minimd").unwrap(), "MiniMD");
        assert_eq!(canonical_workload_name("MINIQMC").unwrap(), "MiniQMC");
    }

    #[test]
    fn unknown_names_get_did_you_mean() {
        let err = canonical_workload_name("minifee").unwrap_err();
        assert!(err.contains("did you mean `MiniFE`"), "{err}");
        assert!(err.contains("MiniFE, MiniMD, MiniQMC"), "{err}");
        // A name nothing like any workload lists the options without a
        // bogus suggestion.
        let err = canonical_workload_name("hpcg-reference-kernel").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("MiniFE, MiniMD, MiniQMC"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("minife", "minife"), 0);
        assert_eq!(edit_distance("minifee", "minife"), 1);
        assert_eq!(edit_distance("minimd", "minife"), 2);
    }

    #[test]
    fn named_spec_matches_by_name_path() {
        let spec = WorkloadSpec::Named {
            name: "minimd".into(),
        };
        let resolved = spec.resolve().unwrap();
        assert_eq!(resolved.label(), "MiniMD");
        let cfg = JobConfig::new(1, 2, 6, 4);
        let legacy = SyntheticApp::by_name("MiniMD").unwrap().generate(&cfg, 9);
        for workers in [1, 3] {
            let via_spec = resolved.generate_trace_parallel(&cfg, 9, &Pool::new(workers));
            assert_eq!(via_spec.unwrap(), legacy, "{workers} workers");
        }
    }

    #[test]
    fn the_kernel_factory_refuses_what_resolve_refuses() {
        let cfg = JobConfig::new(1, 1, 1, 1);
        let err = RealKernelParams::default()
            .run_campaign("minifee", &cfg, 1, RealTiming::Wall)
            .unwrap_err();
        assert!(err.contains("MiniFE"), "{err}");
        let misdirected = RealKernelParams {
            minimd_cells: Some([2, 2, 2]),
            ..RealKernelParams::default()
        };
        let err = misdirected
            .run_campaign("MiniFE", &cfg, 1, RealTiming::Wall)
            .unwrap_err();
        assert!(err.contains("minimd_cells applies to MiniMD"), "{err}");
    }

    #[test]
    fn a_metered_rate_at_the_sample_ceiling_is_refused_at_resolve() {
        let spec = |ns_per_op: f64| WorkloadSpec::RealKernel {
            app: "MiniMD".into(),
            params: RealKernelParams {
                ns_per_op,
                ..RealKernelParams::default()
            },
        };
        let ceiling = ThreadSample::CEILING_NS as f64;
        let err = spec(ceiling).resolve().unwrap_err();
        assert!(
            err.contains("below a sample's ceiling of 4294967295 ns"),
            "{err}"
        );
        assert!(spec(ceiling * 2.0).resolve().is_err());
        // One nanosecond below, one operation charges a sample the runner
        // keeps.
        assert!(spec(ceiling - 1.0).resolve().is_ok());
    }

    #[test]
    fn real_kernel_spec_round_trips_and_is_deterministic() {
        let spec = WorkloadSpec::RealKernel {
            app: "minife".into(),
            params: RealKernelParams::default(),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        let resolved = spec.resolve().unwrap();
        assert_eq!(resolved.label(), "real(MiniFE)");
        let a = resolved.rank_arrivals_ms(5, 2, 3, 4).unwrap();
        let b = resolved.rank_arrivals_ms(5, 2, 3, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|r| r.len() == 4 && r.iter().all(|&x| x > 0.0)));
    }

    #[test]
    fn mixture_weights_govern_unit_shares() {
        let spec = WorkloadSpec::Mixture {
            name: "fe-heavy".into(),
            components: vec![
                MixtureComponent {
                    weight: 3.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniFE".into(),
                    },
                },
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniQMC".into(),
                    },
                },
            ],
        };
        let ResolvedWorkload::Mixture {
            name,
            components,
            total_weight,
        } = spec.resolve().unwrap()
        else {
            panic!("expected mixture");
        };
        let n = 4000;
        let tag = ResolvedWorkload::mixture_tag(&name);
        let first = (0..n)
            .filter(|&i| {
                ResolvedWorkload::pick_component(&components, total_weight, tag, 1, 0, 0, i) == 0
            })
            .count();
        let share = first as f64 / n as f64;
        assert!((share - 0.75).abs() < 0.03, "share {share}");
    }

    #[test]
    fn mixture_trace_units_come_from_components() {
        let cfg = JobConfig::new(1, 1, 40, 4);
        let spec = WorkloadSpec::Mixture {
            name: "blend".into(),
            components: vec![
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniFE".into(),
                    },
                },
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniQMC".into(),
                    },
                },
            ],
        };
        let w = spec.resolve().unwrap();
        let trace = w.generate_trace_parallel(&cfg, 11, &Pool::new(1)).unwrap();
        assert_eq!(trace.app(), "mix(blend)");
        let fe = SyntheticApp::minife().generate(&cfg, 11);
        let qmc = SyntheticApp::miniqmc().generate(&cfg, 11);
        let mut from_fe = 0;
        let mut from_qmc = 0;
        let units = trace.samples().chunks(cfg.threads);
        let (fe, qmc) = (
            fe.samples().chunks(cfg.threads),
            qmc.samples().chunks(cfg.threads),
        );
        for (it, ((unit, fe), qmc)) in units.zip(fe).zip(qmc).enumerate() {
            if unit == fe {
                from_fe += 1;
            } else if unit == qmc {
                from_qmc += 1;
            } else {
                panic!("iteration {it} matches neither component");
            }
        }
        assert!(from_fe > 5 && from_qmc > 5, "{from_fe} vs {from_qmc}");
        // Blending does not depend on the pool size.
        let team = w.generate_trace_parallel(&cfg, 11, &Pool::new(3)).unwrap();
        assert_eq!(trace, team);
    }

    #[test]
    fn resolution_rejects_bad_specs() {
        let err = WorkloadSpec::Named {
            name: "hpcg".into(),
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("hpcg"), "{err}");

        let err = WorkloadSpec::Mixture {
            name: "empty".into(),
            components: vec![],
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("no components"), "{err}");

        let err = WorkloadSpec::Mixture {
            name: "bad-weight".into(),
            components: vec![MixtureComponent {
                weight: -1.0,
                spec: WorkloadSpec::Named {
                    name: "MiniFE".into(),
                },
            }],
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("weight"), "{err}");

        let err = WorkloadSpec::RealKernel {
            app: "MiniQMC".into(),
            params: RealKernelParams {
                miniqmc_walkers: Some(0),
                ..Default::default()
            },
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("miniqmc_walkers"), "{err}");

        // A size knob belonging to a different app is a config mistake,
        // not a silently ignored field.
        let err = WorkloadSpec::RealKernel {
            app: "MiniFE".into(),
            params: RealKernelParams {
                minimd_cells: Some([8, 8, 8]),
                ..Default::default()
            },
        }
        .resolve()
        .unwrap_err();
        assert!(err.contains("minimd_cells"), "{err}");
        assert!(err.contains("not to a `MiniFE` run"), "{err}");

        // Nesting depth guard.
        let mut spec = WorkloadSpec::Named {
            name: "MiniFE".into(),
        };
        for i in 0..=MAX_MIXTURE_DEPTH {
            spec = WorkloadSpec::Mixture {
                name: format!("level{i}"),
                components: vec![MixtureComponent { weight: 1.0, spec }],
            };
        }
        assert!(spec.resolve().unwrap_err().contains("nesting"), "depth");
    }

    #[test]
    fn noise_regimes_apply_to_synthetic_but_not_real() {
        let named = WorkloadSpec::Named {
            name: "MiniFE".into(),
        }
        .resolve()
        .unwrap();
        assert!(named.with_noise_regime(NoiseRegime::Laggard).is_ok());
        let real = WorkloadSpec::RealKernel {
            app: "MiniFE".into(),
            params: RealKernelParams::default(),
        }
        .resolve()
        .unwrap();
        assert!(real.with_noise_regime(NoiseRegime::Baseline).is_ok());
        let err = real.with_noise_regime(NoiseRegime::Laggard).unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // A mixture containing a real kernel inherits the restriction.
        let mixed = WorkloadSpec::Mixture {
            name: "half-real".into(),
            components: vec![
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniFE".into(),
                    },
                },
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::RealKernel {
                        app: "MiniMD".into(),
                        params: RealKernelParams::default(),
                    },
                },
            ],
        }
        .resolve()
        .unwrap();
        assert!(mixed.with_noise_regime(NoiseRegime::Turbulent).is_err());
        assert!(mixed.with_noise_regime(NoiseRegime::Baseline).is_ok());
    }

    #[test]
    fn all_spec_variants_serde_round_trip() {
        let specs = vec![
            WorkloadSpec::Named {
                name: "MiniFE".into(),
            },
            WorkloadSpec::Synthetic {
                model: SyntheticApp::minimd().model().clone(),
            },
            WorkloadSpec::RealKernel {
                app: "MiniQMC".into(),
                params: RealKernelParams {
                    miniqmc_walkers: Some(4),
                    ..Default::default()
                },
            },
            WorkloadSpec::Mixture {
                name: "blend".into(),
                components: vec![MixtureComponent {
                    weight: 2.5,
                    spec: WorkloadSpec::Named {
                        name: "MiniMD".into(),
                    },
                }],
            },
        ];
        let json = serde_json::to_string(&specs).unwrap();
        let back: Vec<WorkloadSpec> = serde_json::from_str(&json).unwrap();
        assert_eq!(specs, back);
        // A RealKernel spec without params deserializes with defaults.
        let minimal: WorkloadSpec =
            serde_json::from_str("{\"RealKernel\":{\"app\":\"MiniFE\"}}").unwrap();
        assert_eq!(
            minimal,
            WorkloadSpec::RealKernel {
                app: "MiniFE".into(),
                params: RealKernelParams::default(),
            }
        );
    }
}
