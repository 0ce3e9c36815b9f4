//! The config-driven multi-rank scenario campaign.
//!
//! The paper's feasibility argument (§2, Figure 1) is about *whole-job*
//! behaviour — many nodes × many threads racing per-partition sends through
//! a shared fabric — not one sender on one link. This module sweeps a
//! scenario matrix:
//!
//! ```text
//! workloads (arrival shapes) × strategies × network models × noise regimes × ranks
//! ```
//!
//! pricing every cell through the unified delivery kernel
//! ([`ebird_partcomm::run_delivery`]) over the one network model, a
//! [`Fabric`](ebird_partcomm::Fabric) — flat and contended, two-level, or
//! gap-throttled LogGP, as the cell's [`NetModelSpec`] spells it. A row is
//! a pure function of its cell — thread arrivals in, priced delivery out,
//! the way the paper prices early-bird delivery — so pricing starts no
//! thread, opens no channel and reads no clock. Each cell emits one
//! JSON table row (see [`ebird_analysis::report::json_lines`]), so adding a
//! workload — or a whole topology — to the campaign means adding a config
//! entry, not code.
//!
//! The matrix itself is plain serde data: load one from JSON with
//! `--matrix`, or use the built-in presets ([`ScenarioMatrix::preset`]:
//! `full`, `smoke`, `topology`, `topology-smoke`, `workload`,
//! `workload-smoke`). Each variable axis has one spelling:
//!
//! * **`models`** — [`NetModelSpec`] entries carrying their own parameters
//!   (`{"Fabric":{...}}`, `{"Hierarchical":{...}}`, `{"LogGP":{...}}`);
//! * **`workloads`** — [`WorkloadSpec`] entries: named apps, full inline
//!   [`AppModel`](ebird_cluster::synthetic::AppModel)s, metered real-kernel
//!   runs (`{"RealKernel":{"app":"MiniFE"}}`), and weighted mixtures.
//!   Real-kernel entries pair only with the `baseline` noise regime (they
//!   are measured, not modelled); [`ScenarioMatrix::resolve`] rejects
//!   other combinations.
//!
//! Matrix JSON written before those axes existed — `apps` (names) and
//! `links` (link names priced as a flat fabric at the matrix's
//! `contention`) — still loads: deserialization folds each legacy entry
//! into the spec it always meant, ahead of the explicit specs, so old files
//! produce the same rows in the same order.
//!
//! Pricing has one definition, [`price_group`], and one unit of work, the
//! **group**: the cells that share a (workload, noise, ranks, threads,
//! iteration, seed) combination — contiguous in
//! [`ResolvedMatrix::cells`] order — and therefore share their rank
//! arrivals, which are built once per group (and the `Bulk` baseline once
//! per network model within it). Three callers drive it:
//!
//! * the offline `repro scenarios` path, [`run_matrix`], prices every group
//!   of the matrix in axis order;
//! * the campaign service ([`crate::server`]) resolves a submission into
//!   cells, answers what it can from its row cache (each row memoized under
//!   its [`CellSpec`]'s content hash — the spec embeds the full
//!   [`NetModelSpec`] **and** [`WorkloadSpec`], so cache keys distinguish
//!   models or workloads that share a display label), and schedules the
//!   remaining cells of each group as one queue job;
//! * [`compute_cell`] prices a group of one.
//!
//! A group is priced by one thread, so a submission that is one huge group
//! (one workload × noise × ranks combination fanned across hundreds of
//! models and strategies) does not spread over the worker team — the price
//! of never repeating a group's arrivals.
//!
//! Every caller runs the same deterministic kernel on the same inputs, so
//! rows are bit-identical however a matrix is split into jobs — the
//! property the service's cache and the CI serve-smoke diff rely on.

use ebird_cluster::synthetic::{AppModel, Phase};
use ebird_cluster::{
    MixtureComponent, NoiseRegime, RealKernelParams, ResolvedWorkload, Workload, WorkloadSpec,
    BUILTIN_WORKLOAD_NAMES,
};
use ebird_core::DEFAULT_SEED;
use ebird_partcomm::{run_delivery, NetModelSpec, ResolvedNetModel, SimScratch, Strategy};
use serde::{Deserialize, Serialize};

pub use ebird_partcomm::link_by_name;

/// Default of the inert [`ScenarioMatrix::deadline_ms`] field: the value
/// every preset and every matrix JSON without the field carries into its
/// content keys.
const DEFAULT_DEADLINE_MS: f64 = 10_000.0;

/// Serde default hook for `deadline_ms` — matrices saved before the field
/// existed load with the historical 10 s value.
fn default_deadline_ms() -> f64 {
    DEFAULT_DEADLINE_MS
}

/// A scenario sweep definition — every axis of the campaign as data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioMatrix {
    /// The workload axis: each [`WorkloadSpec`] names an arrival shape —
    /// built-in apps, inline synthetic models, metered real-kernel runs,
    /// weighted mixtures.
    pub workloads: Vec<WorkloadSpec>,
    /// Delivery strategies to price.
    pub strategies: Vec<Strategy>,
    /// The network-model axis: each [`NetModelSpec`] carries its own
    /// topology parameters.
    pub models: Vec<NetModelSpec>,
    /// Noise regimes by label (`baseline`, `laggard`, `turbulent`,
    /// `contaminated`).
    pub noise: Vec<String>,
    /// Concurrent sending-rank counts to sweep.
    pub ranks: Vec<usize>,
    /// Threads (= partitions) per rank.
    pub threads: usize,
    /// Buffer bytes each rank delivers.
    pub bytes_per_rank: usize,
    /// Injection-rate contention coefficient ∈ [0, 1] of the flat fabrics
    /// that legacy `links` entries of matrix JSON fold into; echoed in every
    /// row. [`models`](Self::models) entries carry their own.
    pub contention: f64,
    /// Which synthetic iteration supplies the arrivals (mid-campaign keeps
    /// MiniMD in its steady phase).
    pub iteration: usize,
    /// Campaign seed.
    pub seed: u64,
    /// **Inert.** Once the deadline of a per-group transport check that
    /// pricing no longer runs; still accepted, validated by
    /// [`resolve`](Self::resolve) (positive and finite) and carried into
    /// every [`CellSpec`] — so content keys, and every cold tier on disk,
    /// stay what they were — but no row depends on it. Defaults to
    /// `DEFAULT_DEADLINE_MS` when absent from matrix JSON; leaves the wire
    /// together with `transport_verified`, under one key-version bump.
    pub deadline_ms: f64,
}

/// Matrix JSON as it arrives: [`ScenarioMatrix`]'s fields plus the two
/// legacy name axes, `apps` and `links`, that older files spell the
/// workload and network-model axes with.
#[derive(Deserialize)]
struct MatrixWire {
    #[serde(default)]
    apps: Vec<String>,
    #[serde(default)]
    workloads: Vec<WorkloadSpec>,
    strategies: Vec<Strategy>,
    #[serde(default)]
    links: Vec<String>,
    #[serde(default)]
    models: Vec<NetModelSpec>,
    noise: Vec<String>,
    ranks: Vec<usize>,
    threads: usize,
    bytes_per_rank: usize,
    contention: f64,
    iteration: usize,
    seed: u64,
    #[serde(default = "default_deadline_ms")]
    deadline_ms: f64,
}

impl Deserialize for ScenarioMatrix {
    /// Folds the legacy axes into today's: each `apps` name is the
    /// [`WorkloadSpec::Named`] it always resolved to and each `links` name a
    /// flat [`NetModelSpec::Fabric`] at the matrix's `contention`, legacy
    /// entries first — the order (and so the rows) old files always had.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = MatrixWire::from_value(value)?;
        let mut workloads = named_workloads(wire.apps);
        workloads.extend(wire.workloads);
        let mut models = flat_fabrics(wire.links, wire.contention);
        models.extend(wire.models);
        Ok(ScenarioMatrix {
            workloads,
            strategies: wire.strategies,
            models,
            noise: wire.noise,
            ranks: wire.ranks,
            threads: wire.threads,
            bytes_per_rank: wire.bytes_per_rank,
            contention: wire.contention,
            iteration: wire.iteration,
            seed: wire.seed,
            deadline_ms: wire.deadline_ms,
        })
    }
}

/// The calibrated apps `names`, as workload-axis entries.
fn named_workloads<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Vec<WorkloadSpec> {
    let named = |name: S| WorkloadSpec::Named { name: name.into() };
    names.into_iter().map(named).collect()
}

/// Flat contended fabrics over the named `links`, as model-axis entries.
fn flat_fabrics<S: Into<String>>(
    links: impl IntoIterator<Item = S>,
    contention: f64,
) -> Vec<NetModelSpec> {
    let fabric = |link: S| NetModelSpec::Fabric {
        link: link.into(),
        contention,
    };
    links.into_iter().map(fabric).collect()
}

/// Contention coefficient of every preset's flat fabrics.
const PRESET_CONTENTION: f64 = 0.5;

/// The most arrival samples one cell may span: `ranks × threads`, and
/// `ranks × (iteration + 1) × threads` for a workload that runs a metered
/// real-kernel campaign (itself or as a mixture component) — the trace that
/// campaign records up to the priced iteration. Pricing allocates in
/// proportion, and an allocation failure aborts the process, so
/// [`ScenarioMatrix::resolve`] refuses a larger cell before anything is
/// allocated. ≥ 100× every preset: the largest, `workload`, spans
/// 4 × 26 × 8 = 832.
const MAX_CELL_SAMPLES: usize = 1 << 17;

/// The most cells one matrix may span. Resolving materializes every cell,
/// and an allocation failure aborts the process, so
/// [`ScenarioMatrix::resolve`] refuses a larger product of axis lengths
/// before anything is allocated. ≥ 200× every preset: the largest, `full`,
/// spans 288.
pub(crate) const MAX_MATRIX_CELLS: usize = 1 << 16;

/// The product of a matrix's five axis lengths, saturating at `usize::MAX`.
fn cell_count(axes: [usize; 5]) -> usize {
    axes.into_iter().fold(1, usize::saturating_mul)
}

/// Whether `spec` runs a metered real-kernel campaign, itself or as a
/// mixture component.
fn runs_real_kernel(spec: &WorkloadSpec) -> bool {
    match spec {
        WorkloadSpec::RealKernel { .. } => true,
        WorkloadSpec::Mixture { components, .. } => {
            components.iter().any(|c| runs_real_kernel(&c.spec))
        }
        WorkloadSpec::Named { .. } | WorkloadSpec::Synthetic { .. } => false,
    }
}

/// The built-in preset names, in the order [`ScenarioMatrix::preset`]
/// advertises them.
const PRESET_NAMES: [&str; 6] = [
    "full",
    "smoke",
    "topology",
    "topology-smoke",
    "workload",
    "workload-smoke",
];

/// The inline synthetic model the `workload` presets carry: a two-phase
/// "ramp then steady" shape none of the calibrated apps exhibit (wide
/// uniform warm-up for 10 iterations, then a tight laggard-prone steady
/// state) — exercising the full [`WorkloadSpec::Synthetic`] surface from
/// plain matrix JSON.
fn ramp_steady_model() -> AppModel {
    use ebird_cluster::noise::{Contamination, LaggardProcess, Turbulence};
    let calm = Phase {
        from_iteration: 0,
        median_ms: 30.0,
        sigma_ms: 0.4,
        sigma_jitter_lognorm: 0.0,
        uniform_halfwidth_ms: 1.5,
        early_expo_ms: 0.0,
        tail_rate: 0.0,
        tail_expo_ms: 0.0,
        laggards: LaggardProcess::off(),
        turbulence: Turbulence::off(),
        contamination: Contamination::off(),
    };
    AppModel {
        name: "RampSteady".into(),
        rank_speed_sigma: 0.002,
        iter_wander_ms: 0.05,
        phases: vec![
            calm,
            Phase {
                from_iteration: 10,
                median_ms: 28.0,
                sigma_ms: 0.06,
                sigma_jitter_lognorm: 0.0,
                uniform_halfwidth_ms: 0.0,
                laggards: LaggardProcess {
                    rate: 0.1,
                    shift_ms: 1.0,
                    mu: 0.2,
                    sigma: 0.7,
                },
                ..calm
            },
        ],
    }
}

/// The workload axis the `workload` presets sweep beside the named apps:
/// one spec per other [`WorkloadSpec`] variant — an inline synthetic model,
/// a metered real-kernel run, and a weighted mixture.
fn preset_workload_axis() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Synthetic {
            model: ramp_steady_model(),
        },
        WorkloadSpec::RealKernel {
            app: "MiniFE".into(),
            params: RealKernelParams::default(),
        },
        WorkloadSpec::Mixture {
            name: "fe2md1".into(),
            components: vec![
                MixtureComponent {
                    weight: 2.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniFE".into(),
                    },
                },
                MixtureComponent {
                    weight: 1.0,
                    spec: WorkloadSpec::Named {
                        name: "MiniMD".into(),
                    },
                },
            ],
        },
    ]
}

impl ScenarioMatrix {
    /// The full campaign: 3 apps × 4 strategies × 2 links × 4 noise regimes
    /// × 3 rank counts = 288 scenarios at paper-like 32-thread ranks.
    pub fn full() -> Self {
        ScenarioMatrix {
            workloads: named_workloads(BUILTIN_WORKLOAD_NAMES),
            strategies: vec![
                Strategy::Bulk,
                Strategy::EarlyBird,
                Strategy::TimeoutFlush { timeout_ms: 1.0 },
                Strategy::Binned { bins: 6 },
            ],
            models: flat_fabrics(["omni-path", "high-latency"], PRESET_CONTENTION),
            noise: vec![
                "baseline".into(),
                "laggard".into(),
                "turbulent".into(),
                "contaminated".into(),
            ],
            ranks: vec![1, 4, 8],
            threads: 32,
            bytes_per_rank: 8_000_000,
            contention: PRESET_CONTENTION,
            iteration: 25,
            seed: DEFAULT_SEED,
            deadline_ms: DEFAULT_DEADLINE_MS,
        }
    }

    /// The CI smoke campaign: 3 apps × 4 strategies × 1 link × 2 noise
    /// regimes × 2 rank counts = 48 scenarios at 8-thread ranks.
    pub fn smoke() -> Self {
        ScenarioMatrix {
            models: flat_fabrics(["omni-path"], PRESET_CONTENTION),
            noise: vec!["baseline".into(), "laggard".into()],
            ranks: vec![1, 4],
            threads: 8,
            bytes_per_rank: 1_000_000,
            ..Self::full()
        }
    }

    /// The topology campaign exercising the non-flat network models: 3 apps
    /// × 4 strategies × 2 models (hierarchical + LogGP) × 2 noise regimes ×
    /// 2 rank counts = 96 scenarios at 8-thread ranks.
    pub(crate) fn topology() -> Self {
        ScenarioMatrix {
            models: vec![
                NetModelSpec::Hierarchical {
                    link: "omni-path".into(),
                    uplink: "omni-path".into(),
                    ranks_per_node: 2,
                    nic_contention: 0.5,
                    uplink_contention: 0.5,
                },
                NetModelSpec::LogGP {
                    latency_ms: 1.0e-3,
                    gap_ms: 2.0e-3,
                    gap_per_byte_ms: 1.0 / 12.5e9 * 1.0e3,
                    contention: 0.5,
                },
            ],
            noise: vec!["baseline".into(), "laggard".into()],
            ranks: vec![2, 4],
            threads: 8,
            bytes_per_rank: 1_000_000,
            ..Self::full()
        }
    }

    /// The CI topology smoke: [`topology`](Self::topology) reduced to 1
    /// noise regime × 1 rank count = 24 scenarios.
    fn topology_smoke() -> Self {
        ScenarioMatrix {
            noise: vec!["laggard".into()],
            ranks: vec![4],
            ..Self::topology()
        }
    }

    /// The workload campaign exercising every [`WorkloadSpec`] variant
    /// beside the named apps: (3 apps + 3 workload specs) × 4 strategies ×
    /// 2 links × 1 noise regime × 2 rank counts = 96 scenarios at 8-thread
    /// ranks. Baseline noise only — the axis includes a real-kernel run,
    /// which is measured, not modelled.
    pub fn workload() -> Self {
        ScenarioMatrix {
            workloads: [
                named_workloads(BUILTIN_WORKLOAD_NAMES),
                preset_workload_axis(),
            ]
            .concat(),
            noise: vec!["baseline".into()],
            ranks: vec![2, 4],
            threads: 8,
            bytes_per_rank: 1_000_000,
            ..Self::full()
        }
    }

    /// The CI workload smoke: the three non-named workload specs alone ×
    /// 4 strategies × 1 link × 1 noise regime × 1 rank count = 12
    /// scenarios.
    pub fn workload_smoke() -> Self {
        ScenarioMatrix {
            workloads: preset_workload_axis(),
            models: flat_fabrics(["omni-path"], PRESET_CONTENTION),
            ranks: vec![4],
            ..Self::workload()
        }
    }

    /// Looks up a built-in matrix by preset name (case-insensitive; see
    /// `PRESET_NAMES`).
    ///
    /// # Errors
    /// A human-readable message naming the unknown preset and the known
    /// ones — the same `Result<_, String>` shape as [`resolve`](Self::resolve),
    /// so every caller (CLI, service protocol) reports it identically.
    pub fn preset(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "full" => Ok(Self::full()),
            "smoke" => Ok(Self::smoke()),
            "topology" => Ok(Self::topology()),
            "topology-smoke" => Ok(Self::topology_smoke()),
            "workload" => Ok(Self::workload()),
            "workload-smoke" => Ok(Self::workload_smoke()),
            _ => Err(format!(
                "unknown preset `{name}` (expected one of: {})",
                PRESET_NAMES.join(", ")
            )),
        }
    }

    /// Number of scenarios this matrix spans (saturating at `usize::MAX`).
    pub fn len(&self) -> usize {
        cell_count([
            self.workloads.len(),
            self.strategies.len(),
            self.models.len(),
            self.noise.len(),
            self.ranks.len(),
        ])
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates every axis and resolves names into typed handles, so no
    /// lookup — and therefore no panic path — survives past this point.
    ///
    /// # Errors
    /// A human-readable description of the first invalid axis entry.
    pub fn resolve(&self) -> Result<ResolvedMatrix, String> {
        if self.is_empty() {
            return Err("scenario matrix has an empty axis".into());
        }
        if self.len() > MAX_MATRIX_CELLS {
            return Err(format!(
                "{} workloads × {} strategies × {} models × {} noise regimes × {} rank counts \
                 span more than the {MAX_MATRIX_CELLS}-cell cap",
                self.workloads.len(),
                self.strategies.len(),
                self.models.len(),
                self.noise.len(),
                self.ranks.len()
            ));
        }
        if self.threads == 0 || self.threads > 0xFFFF {
            return Err(format!("threads {} outside 1..=65535", self.threads));
        }
        if self.bytes_per_rank < self.threads {
            return Err(format!(
                "bytes_per_rank {} below one byte per partition ({})",
                self.bytes_per_rank, self.threads
            ));
        }
        if !(0.0..=1.0).contains(&self.contention) {
            return Err(format!("contention {} outside [0, 1]", self.contention));
        }
        if !(self.deadline_ms.is_finite() && self.deadline_ms > 0.0) {
            return Err(format!(
                "deadline_ms {} must be positive and finite",
                self.deadline_ms
            ));
        }
        let mut noise = Vec::with_capacity(self.noise.len());
        for name in &self.noise {
            let regime =
                NoiseRegime::parse(name).ok_or_else(|| format!("unknown noise regime `{name}`"))?;
            noise.push(regime);
        }
        let mut workloads = Vec::with_capacity(self.workloads.len());
        for spec in &self.workloads {
            workloads.push((spec.clone(), spec.resolve()?));
        }
        // Every (workload, regime) pairing must be applicable — a
        // real-kernel workload under a non-baseline regime is a config
        // error, surfaced here rather than as a panic mid-campaign.
        for (_, resolved) in &workloads {
            for &regime in &noise {
                resolved.with_noise_regime(regime)?;
            }
        }
        let mut models = Vec::with_capacity(self.models.len());
        for spec in &self.models {
            models.push((spec.clone(), spec.resolve()?));
        }
        // Checked after the workloads resolve: that bounds mixture nesting.
        let iterations = if self.workloads.iter().any(runs_real_kernel) {
            self.iteration.saturating_add(1)
        } else {
            1
        };
        for &r in &self.ranks {
            if r == 0 {
                return Err("rank counts must be ≥ 1".into());
            }
            let samples = r.saturating_mul(iterations).saturating_mul(self.threads);
            if samples > MAX_CELL_SAMPLES {
                return Err(format!(
                    "ranks {r} × threads {} × {iterations} generated iteration(s) \
                     spans {samples} samples, above the {MAX_CELL_SAMPLES}-sample cell cap",
                    self.threads
                ));
            }
        }
        for s in &self.strategies {
            match *s {
                Strategy::TimeoutFlush { timeout_ms } if timeout_ms <= 0.0 => {
                    return Err(format!("non-positive timeout {timeout_ms}"));
                }
                Strategy::Binned { bins } if bins == 0 || bins > self.threads => {
                    return Err(format!("bins {bins} outside 1..={}", self.threads));
                }
                _ => {}
            }
        }
        Ok(ResolvedMatrix {
            workloads,
            strategies: self.strategies.clone(),
            models,
            noise,
            ranks: self.ranks.clone(),
            threads: self.threads,
            bytes_per_rank: self.bytes_per_rank,
            contention: self.contention,
            iteration: self.iteration,
            seed: self.seed,
            deadline_ms: self.deadline_ms,
        })
    }
}

/// A validated matrix with every name resolved into its typed handle.
/// Constructed only by [`ScenarioMatrix::resolve`]; downstream code consumes
/// handles instead of re-looking names up mid-campaign.
#[derive(Debug, Clone)]
pub struct ResolvedMatrix {
    /// The workload axis, matrix order: each canonical spec (cache
    /// addressing, row label) with its typed handle (pricing).
    workloads: Vec<(WorkloadSpec, ResolvedWorkload)>,
    strategies: Vec<Strategy>,
    /// The network-model axis, matrix order: spec and typed handle.
    models: Vec<(NetModelSpec, ResolvedNetModel)>,
    noise: Vec<NoiseRegime>,
    ranks: Vec<usize>,
    threads: usize,
    bytes_per_rank: usize,
    contention: f64,
    iteration: usize,
    seed: u64,
    deadline_ms: f64,
}

impl ResolvedMatrix {
    /// Number of cells (same as the source matrix's [`ScenarioMatrix::len`]).
    pub fn len(&self) -> usize {
        cell_count([
            self.workloads.len(),
            self.strategies.len(),
            self.models.len(),
            self.noise.len(),
            self.ranks.len(),
        ])
    }

    /// Resolved matrices are never empty ([`ScenarioMatrix::resolve`]
    /// rejects empty axes), so this is always `false`; provided for the
    /// conventional pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every cell in canonical row order (workloads ▸ noise ▸ ranks ▸
    /// models ▸ strategies), each carrying its content-addressable
    /// [`CellSpec`] and the typed handles needed to price it independently.
    pub fn cells(&self) -> Vec<ResolvedCell> {
        let mut cells = Vec::with_capacity(self.len());
        let links: Vec<String> = self.models.iter().map(|(spec, _)| spec.label()).collect();
        for (workload_spec, resolved) in &self.workloads {
            let app = workload_spec.label();
            for &regime in &self.noise {
                let workload = resolved
                    .with_noise_regime(regime)
                    .expect("pairing validated at resolve");
                for &ranks in &self.ranks {
                    for ((model_spec, model), link) in self.models.iter().zip(&links) {
                        for &strategy in &self.strategies {
                            cells.push(ResolvedCell {
                                spec: CellSpec {
                                    app: app.clone(),
                                    workload: workload_spec.clone(),
                                    strategy,
                                    link: link.clone(),
                                    model: model_spec.clone(),
                                    noise: regime.label().to_string(),
                                    ranks,
                                    threads: self.threads,
                                    bytes_per_rank: self.bytes_per_rank,
                                    contention: self.contention,
                                    iteration: self.iteration,
                                    seed: self.seed,
                                    deadline_ms: self.deadline_ms,
                                },
                                workload: workload.clone(),
                                model: model.clone(),
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The complete, canonical description of one scenario cell — every input
/// that determines its [`ScenarioRow`]. Its serialized JSON is the content
/// the service's result cache addresses by hash: equal specs ⇒ bit-identical
/// rows, across submissions and across overlapping matrices. The full
/// [`NetModelSpec`] **and** [`WorkloadSpec`] are embedded, so two models —
/// or two workloads — sharing a display label can never collide on a cache
/// key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Workload display label ([`WorkloadSpec::label`]; also the row's
    /// `app` column).
    pub app: String,
    /// The workload, in full.
    pub workload: WorkloadSpec,
    /// Delivery strategy.
    pub strategy: Strategy,
    /// Network-model display label ([`NetModelSpec::label`]; also the row's
    /// `link` column).
    pub link: String,
    /// The network model, in full.
    pub model: NetModelSpec,
    /// Canonical noise-regime label.
    pub noise: String,
    /// Concurrent sending ranks.
    pub ranks: usize,
    /// Threads (= partitions) per rank.
    pub threads: usize,
    /// Buffer bytes per rank.
    pub bytes_per_rank: usize,
    /// The matrix's contention coefficient (see
    /// [`ScenarioMatrix::contention`]; `model` carries its own).
    pub contention: f64,
    /// Synthetic iteration supplying the arrivals.
    pub iteration: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Inert ([`ScenarioMatrix::deadline_ms`]): part of the content key,
    /// read by no pricing code.
    pub deadline_ms: f64,
}

/// One cell plus the typed handles to price it without further name lookups.
#[derive(Debug, Clone)]
pub struct ResolvedCell {
    /// The cell's canonical content description.
    pub spec: CellSpec,
    /// Workload handle with the cell's noise regime applied.
    workload: ResolvedWorkload,
    /// Typed network-model handle ([`NetModelSpec::resolve`]d).
    model: ResolvedNetModel,
}

impl ResolvedCell {
    /// Whether `other` belongs to this cell's pricing **group**: the cells
    /// that share their rank arrivals — equal workload, noise regime, ranks,
    /// threads, iteration and seed. Groups are contiguous in
    /// [`ResolvedMatrix::cells`] order (network models and strategies are
    /// the two innermost axes).
    pub fn same_group(&self, other: &ResolvedCell) -> bool {
        let (a, b) = (&self.spec, &other.spec);
        a.ranks == b.ranks
            && a.seed == b.seed
            && a.threads == b.threads
            && a.iteration == b.iteration
            && a.noise == b.noise
            && a.workload == b.workload
    }

    /// The cell's cache address — THE canonical spec-to-key rule: equal
    /// specs must yield equal keys across every verb, so this is the only
    /// place the spec is serialized for addressing.
    pub fn content_key(&self) -> crate::cache::ContentKey {
        crate::cache::ContentKey::of(
            serde_json::to_string(&self.spec).expect("cell specs always serialize"),
        )
    }
}

/// Prices one **group** — cells that share their rank arrivals (see
/// [`ResolvedCell::same_group`]) — returning one row per cell, in order.
/// This is the one pricing definition: [`run_matrix`] calls it per group of
/// the matrix, [`compute_cell`] with a group of one, and the service's
/// workers with the not-yet-cached cells of a group.
///
/// Arrivals → [`run_delivery`] per cell → rows, and nothing else: the
/// group's arrivals are built once and the `Bulk` baseline is priced once
/// per run of adjacent cells sharing a network model. Every row is a pure
/// function of its [`CellSpec`] — no thread, channel, clock or host property
/// is consulted — so any split of a matrix into groups — whole, partial, or
/// cell by cell — yields bit-identical rows, on any host, every time.
///
/// # Errors
/// A rendered workload failure: resolution validates names and ranges, but
/// a real-kernel workload can still fail its physical invariant check at
/// pricing time under extreme user-chosen problem sizes — that surfaces
/// here (and as a protocol error line in the service) rather than as a
/// panic. Cells spanning more than one group are refused too: rows priced
/// from another group's arrivals must never be cached as content.
pub fn price_group(cells: &[ResolvedCell]) -> Result<Vec<ScenarioRow>, String> {
    let Some(first) = cells.first() else {
        return Ok(Vec::new());
    };
    if !cells.iter().all(|cell| first.same_group(cell)) {
        return Err("price_group called across a group boundary".into());
    }
    let spec = &first.spec;
    let rank_arrivals: Vec<Vec<f64>> = first
        .workload
        .rank_arrivals_ms(spec.seed, spec.ranks, spec.iteration, spec.threads)
        .map_err(|e| format!("workload `{}`: {e}", spec.app))?;
    let mut scratch = SimScratch::new();
    let mut rows = Vec::with_capacity(cells.len());
    for run in cells.chunk_by(|a, b| {
        a.spec.model == b.spec.model && a.spec.bytes_per_rank == b.spec.bytes_per_rank
    }) {
        let bytes_per_rank = run[0].spec.bytes_per_rank;
        let mut model = run[0].model.build(spec.ranks);
        let bulk = run_delivery(
            &mut model,
            &rank_arrivals,
            bytes_per_rank,
            Strategy::Bulk,
            &mut scratch,
        );
        for cell in run {
            let spec = &cell.spec;
            let outcome = if spec.strategy == Strategy::Bulk {
                bulk
            } else {
                run_delivery(
                    &mut model,
                    &rank_arrivals,
                    bytes_per_rank,
                    spec.strategy,
                    &mut scratch,
                )
            };
            rows.push(ScenarioRow {
                app: spec.app.clone(),
                strategy: spec.strategy.label().into_owned(),
                link: spec.link.clone(),
                noise: spec.noise.clone(),
                ranks: spec.ranks,
                threads: spec.threads,
                bytes_per_rank,
                contention: spec.contention,
                completion_ms: outcome.completion_ms,
                last_arrival_ms: outcome.last_arrival_ms,
                exposed_ms: outcome.exposed_ms(),
                messages: outcome.messages,
                wire_ms: outcome.wire_ms,
                bulk_exposed_ms: bulk.exposed_ms(),
                speedup_vs_bulk: speedup_vs_bulk(bulk.exposed_ms(), outcome.exposed_ms()),
                transport_verified: true,
            });
        }
    }
    Ok(rows)
}

/// `bulk_exposed_ms / exposed_ms`, finite for every pair of non-negative
/// costs: a strategy that exposes exactly what bulk does prices as `1.0` —
/// what `x / x` already is for every positive `x`, and what a free network
/// (both costs zero, `0 / 0`) means too — and one that exposes nothing where
/// bulk exposes something saturates at [`f64::MAX`] instead of `∞`. JSON has
/// no spelling for NaN or ∞ (the encoder writes `null`), and a row is cached
/// under its content key forever.
fn speedup_vs_bulk(bulk_exposed_ms: f64, exposed_ms: f64) -> f64 {
    if exposed_ms == bulk_exposed_ms {
        1.0
    } else {
        (bulk_exposed_ms / exposed_ms).min(f64::MAX)
    }
}

/// Prices one cell on its own — [`price_group`] with a group of one, so the
/// row is bit-identical to the same cell's row from [`run_matrix`] or from
/// any larger group.
///
/// `_pool` is unused and stays for the reason [`run_matrix`]'s does.
///
/// # Errors
/// See [`price_group`].
pub fn compute_cell(
    cell: &ResolvedCell,
    _pool: &ebird_runtime::Pool,
) -> Result<ScenarioRow, String> {
    let mut rows = price_group(std::slice::from_ref(cell))?;
    rows.pop()
        .ok_or_else(|| "pricing returned no row for the cell".to_string())
}

/// One scenario's JSON table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Application arrival shape.
    pub app: String,
    /// Strategy label (see [`Strategy::label`]).
    pub strategy: String,
    /// Network-model label ([`NetModelSpec::label`]).
    pub link: String,
    /// Noise regime label.
    pub noise: String,
    /// Concurrent sending ranks.
    pub ranks: usize,
    /// Threads (= partitions) per rank.
    pub threads: usize,
    /// Buffer bytes per rank.
    pub bytes_per_rank: usize,
    /// The matrix's contention coefficient (see [`CellSpec::contention`]).
    pub contention: f64,
    /// Whole-job completion (ms).
    pub completion_ms: f64,
    /// Latest thread arrival across all ranks (ms).
    pub last_arrival_ms: f64,
    /// Job-level exposed (non-overlapped) communication cost (ms).
    pub exposed_ms: f64,
    /// Total messages injected across ranks.
    pub messages: usize,
    /// Total wire-busy time across the model (ms).
    pub wire_ms: f64,
    /// Exposed cost of the Bulk strategy on the same arrivals/model.
    pub bulk_exposed_ms: f64,
    /// `bulk_exposed_ms / exposed_ms` (> 1 ⇒ this strategy beats bulk).
    pub speedup_vs_bulk: f64,
    /// The constant `true`, kept so rows and content keys stay
    /// byte-identical to every cached one; nothing checks it. Leaves the
    /// wire together with `deadline_ms`.
    pub transport_verified: bool,
}

/// Runs every scenario of `matrix`, one row per cell in axis order
/// (workloads ▸ noise ▸ ranks ▸ models ▸ strategies): [`price_group`] over
/// each group of [`ResolvedMatrix::cells`].
///
/// `_pool` is unused — pricing forks nothing. The parameter stays because
/// `benchmark/src/layers.rs` compiles against this signature and a code PR
/// may not edit `benchmark/`; it goes with ROADMAP item 1.
///
/// # Errors
/// The first axis-validation failure, verbatim from
/// [`ScenarioMatrix::resolve`], or a pricing-time workload failure (see
/// [`price_group`]).
pub fn run_matrix(
    matrix: &ScenarioMatrix,
    _pool: &ebird_runtime::Pool,
) -> Result<Vec<ScenarioRow>, String> {
    let cells = matrix.resolve()?.cells();
    let mut rows = Vec::with_capacity(cells.len());
    for group in cells.chunk_by(ResolvedCell::same_group) {
        rows.extend(price_group(group)?);
    }
    Ok(rows)
}

/// Renders a short human summary of a finished campaign (stderr companion
/// to the JSON rows).
pub fn summarize(rows: &[ScenarioRow]) -> String {
    use std::fmt::Write as _;
    let beats_bulk = rows
        .iter()
        .filter(|r| r.strategy != "bulk" && r.speedup_vs_bulk > 1.0)
        .count();
    let non_bulk = rows.iter().filter(|r| r.strategy != "bulk").count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} scenarios; {beats_bulk}/{non_bulk} non-bulk cells beat bulk",
        rows.len(),
    );
    if let Some(best) = rows
        .iter()
        .filter(|r| r.speedup_vs_bulk.is_finite())
        .max_by(|a, b| a.speedup_vs_bulk.total_cmp(&b.speedup_vs_bulk))
    {
        let _ = writeln!(
            out,
            "best cell: {} × {} × {} × {} × {} ranks — exposed {:.4} ms vs bulk {:.4} ms ({:.1}×)",
            best.app,
            best.strategy,
            best.link,
            best.noise,
            best.ranks,
            best.exposed_ms,
            best.bulk_exposed_ms,
            best.speedup_vs_bulk
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_runtime::Pool;

    #[test]
    fn presets_cover_the_advertised_cells() {
        assert_eq!(ScenarioMatrix::full().len(), 288);
        assert_eq!(ScenarioMatrix::smoke().len(), 48);
        assert_eq!(ScenarioMatrix::topology().len(), 96);
        assert_eq!(ScenarioMatrix::topology_smoke().len(), 24);
        assert_eq!(ScenarioMatrix::workload().len(), 96);
        assert_eq!(ScenarioMatrix::workload_smoke().len(), 12);
        assert!(!ScenarioMatrix::smoke().is_empty());
        assert_eq!(
            ScenarioMatrix::preset("SMOKE").unwrap(),
            ScenarioMatrix::smoke()
        );
        assert_eq!(
            ScenarioMatrix::preset("full").unwrap(),
            ScenarioMatrix::full()
        );
        assert_eq!(
            ScenarioMatrix::preset("Topology-Smoke").unwrap(),
            ScenarioMatrix::topology_smoke()
        );
        // Every preset resolves cleanly.
        for name in PRESET_NAMES {
            assert!(ScenarioMatrix::preset(name).unwrap().resolve().is_ok());
        }
    }

    #[test]
    fn unknown_preset_is_a_rendered_error() {
        // The satellite contract: unknown presets flow through the same
        // Result<_, String> path as resolve(), and the message — what the
        // CLI prints after `error: ` — names the offender and the options.
        let err = ScenarioMatrix::preset("carrier-pigeon").unwrap_err();
        assert!(err.contains("unknown preset `carrier-pigeon`"), "{err}");
        for name in PRESET_NAMES {
            assert!(err.contains(name), "{err} missing {name}");
        }
    }

    #[test]
    fn matrix_serde_roundtrip() {
        for m in [ScenarioMatrix::smoke(), ScenarioMatrix::topology()] {
            let s = serde_json::to_string(&m).unwrap();
            let back: ScenarioMatrix = serde_json::from_str(&s).unwrap();
            assert_eq!(m, back);
        }
    }

    #[test]
    fn matrix_json_without_deadline_loads_with_default() {
        // Matrices saved before `deadline_ms` existed must still load.
        let mut with_field = serde_json::to_string(&ScenarioMatrix::smoke()).unwrap();
        let needle = ",\"deadline_ms\":10000.0";
        assert!(with_field.contains(needle), "{with_field}");
        with_field = with_field.replace(needle, "");
        let back: ScenarioMatrix = serde_json::from_str(&with_field).unwrap();
        assert_eq!(back.deadline_ms, DEFAULT_DEADLINE_MS);
        assert_eq!(back, ScenarioMatrix::smoke());
        // The compatibility trade: the field is inert — two matrices
        // differing only in it price bit-identical rows — yet still part of
        // every cell's content key, so keys minted while it meant something
        // (and every cold tier holding them) stay valid.
        let mut other = back.clone();
        other.deadline_ms = 2_500.0;
        assert_eq!(
            run_matrix(&back, &Pool::new(1)).unwrap(),
            run_matrix(&other, &Pool::new(1)).unwrap()
        );
        let keys = |m: &ScenarioMatrix| -> Vec<String> {
            let cells = m.resolve().unwrap().cells();
            cells.iter().map(|c| c.content_key().hex()).collect()
        };
        let (default_keys, other_keys) = (keys(&back), keys(&other));
        assert_eq!(default_keys.len(), other_keys.len());
        for (a, b) in default_keys.iter().zip(&other_keys) {
            assert_ne!(a, b, "deadline_ms must stay in the content key");
        }
    }

    /// The smoke campaign as hand-written matrix JSON, its workload and
    /// network-model axes spelled by `axes` (no `deadline_ms`, like every
    /// file older than that field).
    fn smoke_json(axes: [&str; 2]) -> String {
        format!(
            r#"{{{},"strategies":["Bulk","EarlyBird",{{"TimeoutFlush":{{"timeout_ms":1.0}}}},{{"Binned":{{"bins":6}}}}],{},"noise":["baseline","laggard"],"ranks":[1,4],"threads":8,"bytes_per_rank":1000000,"contention":0.5,"iteration":25,"seed":{DEFAULT_SEED}}}"#,
            axes[0], axes[1]
        )
    }

    const LEGACY_APPS: &str = r#""apps":["MiniFE","MiniMD","MiniQMC"]"#;
    const LEGACY_LINKS: &str = r#""links":["omni-path"]"#;
    const NAMED_WORKLOADS: &str = r#""workloads":[{"Named":{"name":"MiniFE"}},{"Named":{"name":"MiniMD"}},{"Named":{"name":"MiniQMC"}}]"#;
    const FABRIC_MODELS: &str = r#""models":[{"Fabric":{"link":"omni-path","contention":0.5}}]"#;

    #[test]
    fn matrix_json_without_models_field_loads() {
        // Old-style matrix JSON predates the `models` axis entirely: its
        // `links` load as flat fabrics at the matrix contention.
        let old_style = smoke_json([NAMED_WORKLOADS, LEGACY_LINKS]);
        let back: ScenarioMatrix = serde_json::from_str(&old_style).unwrap();
        assert_eq!(back, ScenarioMatrix::smoke());
        assert_eq!(back.len(), 48);
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(["hpcg"]);
        assert!(run_matrix(&m, &Pool::new(1)).unwrap_err().contains("hpcg"));
        let mut m = ScenarioMatrix::smoke();
        m.models = flat_fabrics(["carrier-pigeon"], m.contention);
        assert!(run_matrix(&m, &Pool::new(1)).is_err());
        let mut m = ScenarioMatrix::smoke();
        m.models = vec![];
        assert!(run_matrix(&m, &Pool::new(1))
            .unwrap_err()
            .contains("empty axis"));
        let mut m = ScenarioMatrix::smoke();
        m.contention = 2.0;
        assert!(run_matrix(&m, &Pool::new(1)).is_err());
        let mut m = ScenarioMatrix::smoke();
        m.ranks = vec![];
        assert!(run_matrix(&m, &Pool::new(1)).is_err());
        let mut m = ScenarioMatrix::smoke();
        m.strategies = vec![Strategy::Binned { bins: 999 }];
        assert!(run_matrix(&m, &Pool::new(1)).is_err());
        let mut m = ScenarioMatrix::smoke();
        m.deadline_ms = 0.0;
        assert!(run_matrix(&m, &Pool::new(1))
            .unwrap_err()
            .contains("deadline_ms"));
        let mut m = ScenarioMatrix::smoke();
        m.deadline_ms = f64::INFINITY;
        assert!(run_matrix(&m, &Pool::new(1)).is_err());
        // Model-spec parameters are validated at resolve time too.
        let mut m = ScenarioMatrix::topology();
        m.models = vec![NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "warp-drive".into(),
            ranks_per_node: 2,
            nic_contention: 0.5,
            uplink_contention: 0.5,
        }];
        assert!(run_matrix(&m, &Pool::new(1))
            .unwrap_err()
            .contains("warp-drive"));
    }

    #[test]
    fn resolve_bounds_the_cells_a_matrix_spans() {
        // One ≈ 600 KB submit line of 50 000 strategies × 100 000 ranks asked
        // for 5·10⁹ cells; the allocation failure would abort the server.
        // Refused before any cell is built, down to one cell past the cap.
        let smoke = ScenarioMatrix::smoke();
        let one_cell = ScenarioMatrix {
            workloads: smoke.workloads[..1].to_vec(),
            strategies: vec![Strategy::Bulk],
            noise: vec!["baseline".into()],
            ranks: vec![1],
            ..smoke
        };
        let with_ranks = |ranks: usize| ScenarioMatrix {
            ranks: vec![1; ranks],
            ..one_cell.clone()
        };
        let hostile = ScenarioMatrix {
            strategies: vec![Strategy::Bulk; 50_000],
            ..with_ranks(100_000)
        };
        // A product past `usize::MAX` saturates instead of wrapping (or, in a
        // debug build, panicking).
        let axis = 1 << 13;
        let overflowing = ScenarioMatrix {
            workloads: vec![one_cell.workloads[0].clone(); axis],
            strategies: vec![Strategy::Bulk; axis],
            models: vec![one_cell.models[0].clone(); axis],
            noise: vec!["baseline".into(); axis],
            ranks: vec![1; axis],
            ..one_cell.clone()
        };
        assert_eq!(overflowing.len(), usize::MAX);
        for m in [hostile, overflowing, with_ranks(MAX_MATRIX_CELLS + 1)] {
            let err = m.resolve().unwrap_err();
            assert!(err.contains("65536-cell cap"), "{err}");
        }
        let at_cap = with_ranks(MAX_MATRIX_CELLS).resolve().unwrap();
        assert_eq!(at_cap.len(), MAX_MATRIX_CELLS);
    }

    #[test]
    fn resolve_bounds_the_samples_a_cell_spans() {
        // A ≈ 300-byte matrix of 3 M ranks × 8 threads once peaked at 621 MB
        // while pricing, linear in `ranks`; past the host's memory that is an
        // allocation failure, which aborts. Refused before anything is
        // allocated, down to one rank past the cap.
        let mut m = ScenarioMatrix::smoke();
        for ranks in [1 << 40, usize::MAX, MAX_CELL_SAMPLES / m.threads + 1] {
            m.ranks = vec![1, ranks];
            let err = m.resolve().unwrap_err();
            assert!(err.contains("cell cap"), "{err}");
        }
        m.ranks = vec![MAX_CELL_SAMPLES / m.threads];
        assert!(m.resolve().is_ok());
        // A real-kernel campaign records every iteration up to the priced
        // one, so the rank count that fits a synthetic cell does not fit it
        // — whether the kernel runs alone or inside a mixture.
        let mut m = ScenarioMatrix::workload_smoke();
        let real = m.workloads.iter().position(runs_real_kernel).unwrap();
        let nested = WorkloadSpec::Mixture {
            name: "nested".into(),
            components: vec![MixtureComponent {
                weight: 1.0,
                spec: m.workloads[real].clone(),
            }],
        };
        m.ranks = vec![MAX_CELL_SAMPLES / m.threads];
        let err = m.resolve().unwrap_err();
        assert!(err.contains("× 26 generated iteration(s)"), "{err}");
        m.workloads[real] = nested;
        assert!(m.resolve().is_err());
        m.ranks = vec![MAX_CELL_SAMPLES / (m.threads * 26)];
        assert!(m.resolve().is_ok());
        m.workloads.remove(real);
        m.ranks = vec![MAX_CELL_SAMPLES / m.threads];
        assert!(m.resolve().is_ok());
    }

    #[test]
    fn cells_enumerate_in_row_order() {
        let m = ScenarioMatrix::smoke();
        let resolved = m.resolve().unwrap();
        let cells = resolved.cells();
        assert_eq!(cells.len(), m.len());
        // First axis block: first app, first regime, first rank count.
        assert_eq!(cells[0].spec.app, "MiniFE");
        assert_eq!(cells[0].spec.noise, "baseline");
        assert_eq!(cells[0].spec.ranks, 1);
        assert_eq!(cells[0].spec.strategy, Strategy::Bulk);
        // Strategy is the innermost axis.
        assert_eq!(cells[1].spec.strategy, Strategy::EarlyBird);
        // The preset's link is a flat fabric at the matrix contention.
        assert_eq!(
            cells[0].spec.model,
            NetModelSpec::Fabric {
                link: "omni-path".into(),
                contention: m.contention,
            }
        );
        assert_eq!(cells[0].spec.link, "omni-path");
        // Every spec is distinct.
        let mut keys: Vec<String> = cells
            .iter()
            .map(|c| serde_json::to_string(&c.spec).unwrap())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn mixed_links_and_models_enumerate_links_first() {
        let loggp = NetModelSpec::LogGP {
            latency_ms: 1.0e-3,
            gap_ms: 0.0,
            gap_per_byte_ms: 8.0e-8,
            contention: 0.0,
        };
        let both = format!(
            "{LEGACY_LINKS},\"models\":[{}]",
            serde_json::to_string(&loggp).unwrap()
        );
        let m: ScenarioMatrix = serde_json::from_str(&smoke_json([LEGACY_APPS, &both])).unwrap();
        assert_eq!(m.len(), 96); // model axis doubled
        assert_eq!(m.models[1], loggp);
        let cells = m.resolve().unwrap().cells();
        let strategies = m.strategies.len();
        // Within one (app, noise, ranks) block: links block, then models.
        assert_eq!(cells[0].spec.link, "omni-path");
        assert!(cells[strategies].spec.link.starts_with("loggp("));
    }

    #[test]
    fn cache_keys_distinguish_models_differing_in_one_parameter() {
        // Cache addressing embeds the full NetModelSpec, so two models of
        // the same family differing in a single coefficient must never
        // collide on a content key (and their row labels differ too — keys
        // do not rely on that).
        let spec_a = NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "omni-path".into(),
            ranks_per_node: 2,
            nic_contention: 0.25,
            uplink_contention: 0.25,
        };
        let spec_b = NetModelSpec::Hierarchical {
            link: "omni-path".into(),
            uplink: "omni-path".into(),
            ranks_per_node: 2,
            nic_contention: 0.75,
            uplink_contention: 0.25,
        };
        assert_ne!(spec_a.label(), spec_b.label());
        let mut m = ScenarioMatrix::topology_smoke();
        m.models = vec![spec_a, spec_b];
        let cells = m.resolve().unwrap().cells();
        let mut keys: Vec<String> = cells.iter().map(|c| c.content_key().hex()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "cache keys must stay distinct");
    }

    /// Prices `m` every way the workspace does — [`run_matrix`] (whole
    /// groups), [`price_group`] over part of each group (what a worker
    /// gets when the sibling cells were cached or joined), and
    /// [`compute_cell`] (groups of one) — and requires the same rows, bit
    /// for bit. Returns them.
    fn rows_agree_however_split(m: &ScenarioMatrix) -> Vec<ScenarioRow> {
        let pool = Pool::new(2);
        let rows = run_matrix(m, &pool).unwrap();
        let cells = m.resolve().unwrap().cells();
        assert_eq!(rows.len(), cells.len());
        let mut at = 0;
        for group in cells.chunk_by(ResolvedCell::same_group) {
            let whole = price_group(group).unwrap();
            assert_eq!(whole, rows[at..at + group.len()]);
            let odd: Vec<ResolvedCell> = group.iter().skip(1).step_by(2).cloned().collect();
            if !odd.is_empty() {
                let expected: Vec<&ScenarioRow> = rows[at..at + group.len()]
                    .iter()
                    .skip(1)
                    .step_by(2)
                    .collect();
                let partial = price_group(&odd).unwrap();
                assert_eq!(partial.iter().collect::<Vec<_>>(), expected);
            }
            at += group.len();
        }
        for (row, cell) in rows.iter().zip(&cells) {
            let solo = compute_cell(cell, &pool).unwrap();
            assert_eq!(&solo, row, "cell {:?}", cell.spec);
        }
        rows
    }

    #[test]
    fn compute_cell_matches_run_matrix_bit_for_bit() {
        // One pricing definition, three callers, any split of a matrix into
        // jobs: same inputs, same functions ⇒ identical rows.
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(["MiniMD"]);
        m.noise = vec!["laggard".into()];
        m.ranks = vec![1, 2];
        rows_agree_however_split(&m);
        rows_agree_however_split(&ScenarioMatrix::smoke());
        rows_agree_however_split(&ScenarioMatrix::full());
        // A group is one (workload, noise, ranks) combination: models ×
        // strategies cells each, contiguous in matrix order.
        let cells = ScenarioMatrix::full().resolve().unwrap().cells();
        let groups: Vec<usize> = cells
            .chunk_by(ResolvedCell::same_group)
            .map(<[ResolvedCell]>::len)
            .collect();
        assert_eq!(groups, vec![8; 36]);
    }

    #[test]
    fn price_group_refuses_cells_of_two_groups() {
        let cells = ScenarioMatrix::smoke().resolve().unwrap().cells();
        let err = price_group(&cells).unwrap_err();
        assert!(err.contains("group boundary"), "{err}");
        assert_eq!(price_group(&[]), Ok(vec![]));
    }

    /// The row encodes without a `null` and decodes back to itself.
    fn assert_round_trips_finite(row: &ScenarioRow) {
        assert!(row.speedup_vs_bulk.is_finite(), "{row:?}");
        let line = ebird_analysis::report::json_line(row).unwrap();
        assert!(!line.contains("null"), "{line}");
        let back: ScenarioRow = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, row);
    }

    #[test]
    fn a_free_network_prices_every_number_finite() {
        // All three specs pass `NetModelSpec::resolve` (`v >= 0.0`; `zero`
        // is a named link) and make bulk's exposed cost exactly zero: the
        // all-zero LogGP and the zero-link fabric on every row, the gap-only
        // LogGP on (at least) its `bulk` row. `0 / 0` used to be emitted —
        // and cached — as `"speedup_vs_bulk":null`.
        let free = NetModelSpec::LogGP {
            latency_ms: 0.0,
            gap_ms: 0.0,
            gap_per_byte_ms: 0.0,
            contention: 0.0,
        };
        let gap_only = NetModelSpec::LogGP {
            latency_ms: 0.0,
            gap_ms: 2.0e-3,
            gap_per_byte_ms: 0.0,
            contention: 0.5,
        };
        let zero_link = NetModelSpec::Fabric {
            link: "zero".into(),
            contention: 0.5,
        };
        for (spec, all_free) in [(free, true), (gap_only, false), (zero_link, true)] {
            let mut m = ScenarioMatrix::topology_smoke();
            m.models = vec![spec];
            let rows = run_matrix(&m, &Pool::new(1)).unwrap();
            assert_eq!(rows.len(), 12);
            for row in &rows {
                assert_eq!(row.bulk_exposed_ms, 0.0, "{row:?}");
                if all_free || row.strategy == "bulk" {
                    assert_eq!(row.exposed_ms, 0.0, "{row:?}");
                    assert_eq!(row.speedup_vs_bulk, 1.0, "{row:?}");
                }
                assert_round_trips_finite(row);
            }
        }
        // A per-byte cost so small that one partition's transfer rounds
        // away against a ≈ 30 ms arrival while the whole buffer's does not:
        // early-bird exposes exactly nothing, bulk something — `x / 0`,
        // emitted as `null` like `0 / 0` was. It saturates instead.
        let mut m = ScenarioMatrix::topology_smoke();
        m.ranks = vec![1];
        m.models = vec![NetModelSpec::LogGP {
            latency_ms: 0.0,
            gap_ms: 0.0,
            gap_per_byte_ms: 1.0e-20,
            contention: 0.0,
        }];
        let rows = run_matrix(&m, &Pool::new(1)).unwrap();
        let mut saturated = 0;
        for row in &rows {
            assert!(row.bulk_exposed_ms > 0.0, "{row:?}");
            if row.exposed_ms == 0.0 {
                assert_eq!(row.speedup_vs_bulk, f64::MAX, "{row:?}");
                saturated += 1;
            }
            assert_round_trips_finite(row);
        }
        assert!(saturated > 0, "{rows:?}");
        // The other end: every LogGP parameter at its bound (1e12 ms), the
        // most bytes a rank can carry and the most samples a cell may span —
        // as many threads as a rank may run, or as many ranks as the cap
        // admits. `1e308` once overflowed to `∞`, emitted and cached as
        // `null`.
        for threads in [0xFFFF, 1] {
            let mut m = ScenarioMatrix::topology_smoke();
            m.workloads = named_workloads(["MiniQMC"]);
            m.models = vec![NetModelSpec::LogGP {
                latency_ms: 1.0e12,
                gap_ms: 1.0e12,
                gap_per_byte_ms: 1.0e12,
                contention: 1.0,
            }];
            m.threads = threads;
            m.ranks = vec![MAX_CELL_SAMPLES / threads];
            m.bytes_per_rank = usize::MAX;
            m.strategies[3] = Strategy::Binned { bins: threads };
            for row in &run_matrix(&m, &Pool::new(1)).unwrap() {
                assert_round_trips_finite(row);
            }
        }
        // The rule itself: equal costs are 1.0, a zero cost against a
        // positive bulk saturates instead of overflowing, and everything
        // else is the plain quotient.
        assert_eq!(speedup_vs_bulk(0.0, 0.0), 1.0);
        assert_eq!(speedup_vs_bulk(0.25, 0.25), 0.25 / 0.25);
        assert_eq!(speedup_vs_bulk(3.0, 1.5), 2.0);
        assert_eq!(speedup_vs_bulk(0.0, 1.5), 0.0);
        assert_eq!(speedup_vs_bulk(1.5, 0.0), f64::MAX);
    }

    #[test]
    fn compute_cell_matches_run_matrix_for_topology_models() {
        // The same bit-identity holds through the new models — the property
        // the serve cache's topology round-trip relies on.
        let rows = rows_agree_however_split(&ScenarioMatrix::topology_smoke());
        // The two model labels actually appear in the rows.
        assert!(rows.iter().any(|r| r.link.starts_with("hier(")));
        assert!(rows.iter().any(|r| r.link.starts_with("loggp(")));
    }

    #[test]
    fn matrix_json_without_workloads_field_loads() {
        // Matrix JSON saved before the workloads axis existed names its
        // workloads under `apps`: they load as `Named` specs.
        let old_style = smoke_json([LEGACY_APPS, FABRIC_MODELS]);
        let back: ScenarioMatrix = serde_json::from_str(&old_style).unwrap();
        assert_eq!(back, ScenarioMatrix::smoke());
        assert_eq!(back.len(), 48);
    }

    #[test]
    fn mixed_apps_and_workloads_enumerate_apps_first() {
        let both = format!(r#"{LEGACY_APPS},"workloads":[{{"RealKernel":{{"app":"MiniQMC"}}}}]"#);
        let mut m: ScenarioMatrix =
            serde_json::from_str(&smoke_json([&both, LEGACY_LINKS])).unwrap();
        m.noise = vec!["baseline".into()];
        assert_eq!(m.len(), 4 * 4 * 2); // workload axis 3 apps + 1 spec
        let cells = m.resolve().unwrap().cells();
        let per_workload = m.strategies.len() * m.ranks.len();
        // First blocks: the legacy apps in config order, then the spec.
        assert_eq!(cells[0].spec.app, "MiniFE");
        assert_eq!(
            cells[0].spec.workload,
            WorkloadSpec::Named {
                name: "MiniFE".into()
            }
        );
        assert_eq!(cells[3 * per_workload].spec.app, "real(MiniQMC)");
        assert!(matches!(
            cells[3 * per_workload].spec.workload,
            WorkloadSpec::RealKernel { .. }
        ));
    }

    #[test]
    fn case_insensitive_apps_resolve_with_did_you_mean_errors() {
        // Lowercase legacy names keep working, labelled canonically like
        // the `Named` specs they fold into...
        let mut m: ScenarioMatrix =
            serde_json::from_str(&smoke_json([r#""apps":["minife"]"#, LEGACY_LINKS])).unwrap();
        assert_eq!(m.workloads, named_workloads(["minife"]));
        m.noise = vec!["baseline".into()];
        m.ranks = vec![1];
        m.strategies = vec![Strategy::Bulk];
        let rows = run_matrix(&m, &Pool::new(1)).unwrap();
        assert_eq!(rows[0].app, "MiniFE");
        // ...and near-misses get a suggestion in the rendered error.
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(["minifee"]);
        let err = run_matrix(&m, &Pool::new(1)).unwrap_err();
        assert!(err.contains("did you mean `MiniFE`"), "{err}");
    }

    #[test]
    fn real_kernel_cells_reject_non_baseline_noise() {
        let mut m = ScenarioMatrix::workload_smoke();
        m.noise = vec!["laggard".into()];
        let err = m.resolve().unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        assert!(err.contains("real-kernel"), "{err}");
    }

    #[test]
    fn cache_keys_distinguish_workloads_sharing_a_label() {
        // Two inline synthetic models with the same name — identical row
        // labels — must still get distinct cache keys, because the cell
        // spec embeds the full WorkloadSpec.
        let mut model_a = super::ramp_steady_model();
        model_a.phases[0].sigma_ms = 0.4;
        let mut model_b = super::ramp_steady_model();
        model_b.phases[0].sigma_ms = 0.9;
        let mut m = ScenarioMatrix::workload_smoke();
        m.workloads = vec![
            WorkloadSpec::Synthetic { model: model_a },
            WorkloadSpec::Synthetic { model: model_b },
        ];
        let cells = m.resolve().unwrap().cells();
        assert_eq!(
            cells[0].spec.app, cells[4].spec.app,
            "labels intentionally collide"
        );
        let mut keys: Vec<String> = cells.iter().map(|c| c.content_key().hex()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "cache keys must stay distinct");
    }

    #[test]
    fn workload_smoke_runs_end_to_end_with_real_kernel_cell() {
        // The workload-smoke preset — inline synthetic, real kernel,
        // mixture — prices every cell, transport-verified, and the
        // service's partial-group and per-cell splits stay bit-identical to
        // the offline table (the property the serve cache and CI byte-diff
        // rely on).
        let m = ScenarioMatrix::workload_smoke();
        let rows = rows_agree_however_split(&m);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.transport_verified));
        let labels: Vec<&str> = rows.iter().map(|r| r.app.as_str()).collect();
        assert!(labels.contains(&"syn(RampSteady)"));
        assert!(labels.contains(&"real(MiniFE)"));
        assert!(labels.contains(&"mix(fe2md1)"));
        // Determinism across repeated pricings (the cache-correctness
        // property for real-kernel cells).
        let again = run_matrix(&m, &Pool::new(2)).unwrap();
        assert_eq!(rows, again);
    }
}
