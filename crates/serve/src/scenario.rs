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
//! A key that names no field of the matrix is refused, so a misspelled or
//! retired axis (`apps`, `links`) cannot silently drop out of the sweep.
//!
//! Resolving a matrix ([`ScenarioMatrix::resolve`]) builds everything its
//! cells share once, behind one `Arc`: the axes with their typed handles
//! and row labels, the noise-applied workload of each (workload, noise)
//! pair, and each axis value's fragment of a cell's content key. A
//! [`ResolvedCell`] is that `Arc` and one index per axis, so enumerating a
//! matrix's cells is one allocation and a content key one exactly-sized
//! string. [`CellSpec`] stays the documented content of a key: a cell
//! materializes it only on demand ([`ResolvedCell::spec`]).
//!
//! Pricing has one definition, [`price_group`], and one unit of work, the
//! **group**: a run of cells with equal (workload, noise, ranks) indices in
//! one resolved matrix — contiguous in [`ResolvedMatrix::cells`] order —
//! which therefore share their rank arrivals, built once per group (and the
//! `Bulk` baseline once per network model within it). Three callers drive
//! it:
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

use std::sync::Arc;

use ebird_cluster::synthetic::{AppModel, Phase};
use ebird_cluster::{
    MixtureComponent, NoiseRegime, RealKernelParams, ResolvedWorkload, Workload, WorkloadSpec,
    BUILTIN_WORKLOAD_NAMES,
};
use ebird_core::DEFAULT_SEED;
use ebird_partcomm::{run_delivery, NetModelSpec, ResolvedNetModel, SimScratch, Strategy};
use serde::{Deserialize, Serialize};

/// Default of the inert [`ScenarioMatrix::deadline_ms`] field, 10 s: the
/// value every preset and every matrix JSON without the field carries into
/// its content keys.
fn default_deadline_ms() -> f64 {
    10_000.0
}

/// A scenario sweep definition — every axis of the campaign as data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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
    /// Partitions per rank: the arrival samples a rank contributes per
    /// iteration. Never a count of OS threads — a `RealKernel` workload
    /// runs its kernel on one member and meters this many partitions.
    pub threads: usize,
    /// Buffer bytes each rank delivers.
    pub bytes_per_rank: usize,
    /// **Inert.** The contention a retired `links` axis priced its flat
    /// fabrics at; each [`models`](Self::models) entry carries its own. Still
    /// validated by [`resolve`](Self::resolve) (within `[0, 1]`) and carried
    /// into every [`CellSpec`] and row — so content keys, and every cold tier
    /// on disk, stay what they were — but no price depends on it. Leaves the
    /// wire with [`deadline_ms`](Self::deadline_ms).
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
    /// stay what they were — but no row depends on it. Defaults to 10 000 ms
    /// (`default_deadline_ms`) when absent from matrix JSON; leaves the wire
    /// together with `transport_verified`, under one key-version bump.
    #[serde(default = "default_deadline_ms")]
    pub deadline_ms: f64,
}

/// The calibrated apps `names`, as workload-axis entries.
fn named_workloads(names: &[&str]) -> Vec<WorkloadSpec> {
    let named = |&name: &&str| WorkloadSpec::Named { name: name.into() };
    names.iter().map(named).collect()
}

/// Flat contended fabrics over the named `links`, as model-axis entries.
fn flat_fabrics(links: &[&str], contention: f64) -> Vec<NetModelSpec> {
    let fabric = |&link: &&str| NetModelSpec::Fabric {
        link: link.into(),
        contention,
    };
    links.iter().map(fabric).collect()
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
            workloads: named_workloads(&BUILTIN_WORKLOAD_NAMES),
            strategies: vec![
                Strategy::Bulk,
                Strategy::EarlyBird,
                Strategy::TimeoutFlush { timeout_ms: 1.0 },
                Strategy::Binned { bins: 6 },
            ],
            models: flat_fabrics(&["omni-path", "high-latency"], PRESET_CONTENTION),
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
            deadline_ms: default_deadline_ms(),
        }
    }

    /// The CI smoke campaign: 3 apps × 4 strategies × 1 link × 2 noise
    /// regimes × 2 rank counts = 48 scenarios at 8-thread ranks.
    pub fn smoke() -> Self {
        ScenarioMatrix {
            models: flat_fabrics(&["omni-path"], PRESET_CONTENTION),
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
                named_workloads(&BUILTIN_WORKLOAD_NAMES),
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
            models: flat_fabrics(&["omni-path"], PRESET_CONTENTION),
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
    /// `threads` is a partition count for every cell: no cell starts OS
    /// threads because of it (a metered real kernel steps on one member).
    /// It bounds the cell's samples, the buffer split (one byte a partition
    /// at least) and `Binned` bins. Its cap, 65 535, is the per-rank message
    /// count the LogGP parameter bound is argued for.
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
        let workloads: Vec<ResolvedWorkload> = self
            .workloads
            .iter()
            .map(WorkloadSpec::resolve)
            .collect::<Result<_, _>>()?;
        // Every (workload, regime) pairing must be applicable — a
        // real-kernel workload under a non-baseline regime is a config
        // error, surfaced here rather than as a panic mid-campaign. The
        // pairings are kept: they are what the cells price.
        let mut noisy = Vec::with_capacity(workloads.len() * noise.len());
        for resolved in &workloads {
            for &regime in &noise {
                noisy.push(resolved.with_noise_regime(regime)?);
            }
        }
        let models: Vec<ResolvedNetModel> = self
            .models
            .iter()
            .map(NetModelSpec::resolve)
            .collect::<Result<_, _>>()?;
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
                // JSON `null` reads as NaN and `1e999` as ∞: neither prices.
                Strategy::TimeoutFlush { timeout_ms }
                    if !(timeout_ms.is_finite() && timeout_ms > 0.0) =>
                {
                    return Err(format!(
                        "TimeoutFlush timeout_ms {timeout_ms} must be finite and positive"
                    ));
                }
                Strategy::Binned { bins } if bins == 0 || bins > self.threads => {
                    return Err(format!("bins {bins} outside 1..={}", self.threads));
                }
                _ => {}
            }
        }
        Ok(ResolvedMatrix {
            axes: Arc::new(Axes::new(self.clone(), noisy, models, noise)),
        })
    }
}

/// A validated matrix with every name resolved into its typed handle.
/// Constructed only by [`ScenarioMatrix::resolve`]; downstream code consumes
/// handles instead of re-looking names up mid-campaign. Its axes sit behind
/// one [`Arc`] that every [`ResolvedCell`] shares.
#[derive(Debug, Clone)]
pub struct ResolvedMatrix {
    axes: Arc<Axes>,
}

/// What the cells of one resolved matrix share, built once per matrix: the
/// source axes and scalars, each axis value's typed handle and row label,
/// and each axis value's content-key fragment. A [`ResolvedCell`] is an
/// index on each of the five axes.
#[derive(Debug)]
struct Axes {
    /// The validated source: the workload and model specs, the strategies,
    /// the rank counts and the matrix scalars.
    matrix: ScenarioMatrix,
    /// [`WorkloadSpec::label`] of each workload (the row's `app`).
    workload_labels: Vec<String>,
    /// Workload `w` under noise regime `n`, at `w × noise.len() + n`: built
    /// by [`ScenarioMatrix::resolve`] to validate the pairing, kept to price
    /// it.
    noisy: Vec<ResolvedWorkload>,
    /// The typed handle of each network model.
    models: Vec<ResolvedNetModel>,
    /// [`NetModelSpec::label`] of each network model (the row's `link`).
    model_labels: Vec<String>,
    /// The noise regimes, parsed.
    noise: Vec<NoiseRegime>,
    /// Each axis value's slice of a cell's content key.
    keys: KeyFragments,
}

impl Axes {
    fn new(
        matrix: ScenarioMatrix,
        noisy: Vec<ResolvedWorkload>,
        models: Vec<ResolvedNetModel>,
        noise: Vec<NoiseRegime>,
    ) -> Axes {
        let m = &matrix;
        let workload_labels: Vec<String> = m.workloads.iter().map(WorkloadSpec::label).collect();
        let model_labels: Vec<String> = m.models.iter().map(NetModelSpec::label).collect();
        let keys = KeyFragments {
            workloads: m
                .workloads
                .iter()
                .zip(&workload_labels)
                .map(|(spec, label)| field('{', "app", label) + &field(',', "workload", spec))
                .collect(),
            strategies: m
                .strategies
                .iter()
                .map(|strategy| field(',', "strategy", strategy))
                .collect(),
            models: m
                .models
                .iter()
                .zip(&model_labels)
                .map(|(spec, label)| field(',', "link", label) + &field(',', "model", spec))
                .collect(),
            noise: noise
                .iter()
                .map(|regime| field(',', "noise", regime.label()))
                .collect(),
            ranks: m
                .ranks
                .iter()
                .map(|ranks| field(',', "ranks", ranks))
                .collect(),
            tail: [
                field(',', "threads", &m.threads),
                field(',', "bytes_per_rank", &m.bytes_per_rank),
                field(',', "contention", &m.contention),
                field(',', "iteration", &m.iteration),
                field(',', "seed", &m.seed),
                field(',', "deadline_ms", &m.deadline_ms),
                "}".into(),
            ]
            .concat(),
        };
        Axes {
            matrix,
            workload_labels,
            noisy,
            models,
            model_labels,
            noise,
            keys,
        }
    }
}

/// `value` as the JSON object field `name` after `separator` (`{` for an
/// object's first field, `,` for the rest): the text a derived
/// [`Serialize`] writes for that field.
fn field(separator: char, name: &str, value: &(impl Serialize + ?Sized)) -> String {
    let mut out = format!("{separator}\"{name}\":");
    value.write_json(&mut out);
    out
}

/// A cell's content key is its [`CellSpec`]'s JSON, and each field of a
/// `CellSpec` comes from one axis value or from the matrix scalars. So the
/// key is six fragments laid end to end, each written once per matrix, in
/// `CellSpec`'s field order:
///
/// ```text
/// {"app":…,"workload":…  ,"strategy":…  ,"link":…,"model":…  ,"noise":…  ,"ranks":…  ,"threads":…,…,"deadline_ms":…}
/// workloads[w]           strategies[s]  models[m]             noise[n]     ranks[r]    tail
/// ```
#[derive(Debug)]
struct KeyFragments {
    workloads: Vec<String>,
    strategies: Vec<String>,
    models: Vec<String>,
    noise: Vec<String>,
    ranks: Vec<String>,
    /// The matrix scalars, `,"threads":` through the closing `}`.
    tail: String,
}

/// The indices of an axis of `len` values. [`ScenarioMatrix::resolve`] caps
/// every axis at [`MAX_MATRIX_CELLS`] values, so each index fits a `u32`.
fn axis_indices(len: usize) -> std::ops::Range<u32> {
    0..len as u32
}

const _: () = assert!(MAX_MATRIX_CELLS <= u32::MAX as usize);

impl ResolvedMatrix {
    /// Number of cells (same as the source matrix's [`ScenarioMatrix::len`]).
    fn len(&self) -> usize {
        self.axes.matrix.len()
    }

    /// Every cell in canonical row order (workloads ▸ noise ▸ ranks ▸
    /// models ▸ strategies), each the shared axes and one index per axis:
    /// one allocation, the `Vec`, however many cells the matrix spans.
    pub fn cells(&self) -> Vec<ResolvedCell> {
        let m = &self.axes.matrix;
        let mut cells = Vec::with_capacity(self.len());
        for workload in axis_indices(m.workloads.len()) {
            for noise in axis_indices(m.noise.len()) {
                for ranks in axis_indices(m.ranks.len()) {
                    for model in axis_indices(m.models.len()) {
                        for strategy in axis_indices(m.strategies.len()) {
                            cells.push(ResolvedCell {
                                axes: Arc::clone(&self.axes),
                                workload,
                                strategy,
                                model,
                                noise,
                                ranks,
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
/// key. A resolved cell writes this JSON from per-axis fragments
/// ([`ResolvedCell::content_key`]) and materializes the value only on
/// demand ([`ResolvedCell::spec`]); the field order below is the key's byte
/// order.
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
    /// Inert ([`ScenarioMatrix::contention`]): part of the content key,
    /// read by no pricing code — `model` carries its own.
    pub contention: f64,
    /// Synthetic iteration supplying the arrivals.
    pub iteration: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Inert ([`ScenarioMatrix::deadline_ms`]): part of the content key,
    /// read by no pricing code.
    pub deadline_ms: f64,
}

/// One cell of a resolved matrix: the matrix's shared axes and the cell's
/// index on each of the five. It has no heap of its own, and a clone bumps
/// one reference count. Everything about the cell is read through the
/// indices: its content key ([`content_key`](Self::content_key)), its
/// [`CellSpec`] ([`spec`](Self::spec)) and its pricing inputs
/// ([`price_group`]).
#[derive(Clone)]
pub struct ResolvedCell {
    axes: Arc<Axes>,
    workload: u32,
    strategy: u32,
    model: u32,
    noise: u32,
    ranks: u32,
}

const _: () = assert!(std::mem::size_of::<ResolvedCell>() <= 32);

impl ResolvedCell {
    /// Whether `other` belongs to this cell's pricing **group**: the cells
    /// of one resolved matrix with equal workload, noise and ranks indices.
    /// They share their rank arrivals (threads, iteration and seed are the
    /// matrix's). Groups are contiguous in [`ResolvedMatrix::cells`] order
    /// (network models and strategies are the two innermost axes).
    pub fn same_group(&self, other: &ResolvedCell) -> bool {
        Arc::ptr_eq(&self.axes, &other.axes)
            && self.workload == other.workload
            && self.noise == other.noise
            && self.ranks == other.ranks
    }

    /// Whether the cell's workload runs a metered real-kernel campaign.
    pub(crate) fn runs_real_kernel(&self) -> bool {
        runs_real_kernel(&self.axes.matrix.workloads[self.workload as usize])
    }

    /// The cell's cache address — THE canonical spec-to-key rule: equal
    /// specs must yield equal keys across every verb. The content is the
    /// cell's [`CellSpec`] JSON, its six per-axis fragments laid end to end
    /// in one exactly-sized string, byte for byte what serializing
    /// [`spec`](Self::spec) writes.
    pub fn content_key(&self) -> crate::cache::ContentKey {
        let keys = &self.axes.keys;
        let content = [
            keys.workloads[self.workload as usize].as_str(),
            &keys.strategies[self.strategy as usize],
            &keys.models[self.model as usize],
            &keys.noise[self.noise as usize],
            &keys.ranks[self.ranks as usize],
            &keys.tail,
        ]
        .concat();
        crate::cache::ContentKey::of(content)
    }

    /// The cell's [`CellSpec`], materialized: the value its
    /// [`content_key`](Self::content_key) spells as JSON.
    pub fn spec(&self) -> CellSpec {
        let (axes, m) = (&*self.axes, &self.axes.matrix);
        let (workload, model) = (self.workload as usize, self.model as usize);
        CellSpec {
            app: axes.workload_labels[workload].clone(),
            workload: m.workloads[workload].clone(),
            strategy: m.strategies[self.strategy as usize],
            link: axes.model_labels[model].clone(),
            model: m.models[model].clone(),
            noise: axes.noise[self.noise as usize].label().to_string(),
            ranks: m.ranks[self.ranks as usize],
            threads: m.threads,
            bytes_per_rank: m.bytes_per_rank,
            contention: m.contention,
            iteration: m.iteration,
            seed: m.seed,
            deadline_ms: m.deadline_ms,
        }
    }
}

/// A cell prints as its [`CellSpec`], not as the matrix it shares.
impl std::fmt::Debug for ResolvedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ResolvedCell").field(&self.spec()).finish()
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
    let (axes, m) = (&*first.axes, &first.axes.matrix);
    let (workload, noise) = (first.workload as usize, first.noise as usize);
    let app = &axes.workload_labels[workload];
    let regime = axes.noise[noise];
    let ranks = m.ranks[first.ranks as usize];
    let rank_arrivals: Vec<Vec<f64>> = axes.noisy[workload * axes.noise.len() + noise]
        .rank_arrivals_ms(m.seed, ranks, m.iteration, m.threads)
        .map_err(|e| format!("workload `{app}`: {e}"))?;
    let mut scratch = SimScratch::new();
    let mut rows = Vec::with_capacity(cells.len());
    for run in cells.chunk_by(|a, b| a.model == b.model) {
        let at = run[0].model as usize;
        let mut model = axes.models[at].build(ranks);
        let bulk = run_delivery(
            &mut model,
            &rank_arrivals,
            m.bytes_per_rank,
            Strategy::Bulk,
            &mut scratch,
        );
        for cell in run {
            let strategy = m.strategies[cell.strategy as usize];
            let outcome = if strategy == Strategy::Bulk {
                bulk
            } else {
                run_delivery(
                    &mut model,
                    &rank_arrivals,
                    m.bytes_per_rank,
                    strategy,
                    &mut scratch,
                )
            };
            rows.push(ScenarioRow {
                app: app.clone(),
                strategy: strategy.label().into_owned(),
                link: axes.model_labels[at].clone(),
                noise: regime.label().to_string(),
                ranks,
                threads: m.threads,
                bytes_per_rank: m.bytes_per_rank,
                contention: m.contention,
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
    /// Inert: the matrix's contention coefficient, echoed (see
    /// [`CellSpec::contention`]); no other column depends on it.
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
        assert_eq!(back.deadline_ms, default_deadline_ms());
        assert_eq!(back, ScenarioMatrix::smoke());
        // The compatibility trade: `deadline_ms` and `contention` are inert
        // — two matrices differing only in one price bit-identical numbers
        // (a row echoes `contention`, nothing else reads it) — yet both stay
        // part of every cell's content key, so keys minted while they meant
        // something (and every cold tier holding them) stay valid.
        let rows = |m: &ScenarioMatrix| run_matrix(m, &Pool::new(1)).unwrap();
        let keys = |m: &ScenarioMatrix| -> Vec<String> {
            let cells = m.resolve().unwrap().cells();
            cells.iter().map(|c| c.content_key().hex()).collect()
        };
        let (mut later, mut calmer) = (back.clone(), back.clone());
        later.deadline_ms = 2_500.0;
        calmer.contention = 0.0;
        for other in [later, calmer] {
            let mut priced = rows(&other);
            for row in &mut priced {
                row.contention = back.contention;
            }
            assert_eq!(rows(&back), priced);
            let (default_keys, other_keys) = (keys(&back), keys(&other));
            assert_eq!(default_keys.len(), other_keys.len());
            for (a, b) in default_keys.iter().zip(&other_keys) {
                assert_ne!(a, b, "inert fields must stay in the content key");
            }
        }
    }

    #[test]
    fn retired_axis_keys_are_refused_by_name() {
        // `apps` and `links` are what the workload and network-model axes
        // were once called: alone or beside today's axes, each is an
        // unknown field, never an axis silently dropped from the sweep.
        let m = ScenarioMatrix::smoke();
        let today = serde_json::to_string(&m).unwrap();
        let axis = |key: &str, json: String| format!("\"{key}\":{json}");
        let workloads = axis("workloads", serde_json::to_string(&m.workloads).unwrap());
        let models = axis("models", serde_json::to_string(&m.models).unwrap());
        for (key, axis, retired) in [
            ("apps", workloads, r#""apps":["MiniFE","MiniMD","MiniQMC"]"#),
            ("links", models, r#""links":["omni-path"]"#),
        ] {
            for spelled in [retired.to_string(), format!("{retired},{axis}")] {
                let json = today.replacen(&axis, &spelled, 1);
                let err = serde_json::from_str::<ScenarioMatrix>(&json).unwrap_err();
                let err = err.to_string();
                assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
                assert!(err.contains("workloads, strategies, models"), "{err}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(&["hpcg"]);
        assert!(run_matrix(&m, &Pool::new(1)).unwrap_err().contains("hpcg"));
        let mut m = ScenarioMatrix::smoke();
        m.models = flat_fabrics(&["carrier-pigeon"], m.contention);
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
        for timeout_ms in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut m = ScenarioMatrix::smoke();
            m.strategies = vec![Strategy::TimeoutFlush { timeout_ms }];
            let err = run_matrix(&m, &Pool::new(1)).unwrap_err();
            assert!(err.contains("timeout_ms"), "{timeout_ms}: {err}");
        }
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
        let (first, second) = (cells[0].spec(), cells[1].spec());
        assert_eq!(first.app, "MiniFE");
        assert_eq!(first.noise, "baseline");
        assert_eq!(first.ranks, 1);
        assert_eq!(first.strategy, Strategy::Bulk);
        // Strategy is the innermost axis.
        assert_eq!(second.strategy, Strategy::EarlyBird);
        // The preset's link is a flat fabric at the matrix contention.
        assert_eq!(
            first.model,
            NetModelSpec::Fabric {
                link: "omni-path".into(),
                contention: m.contention,
            }
        );
        assert_eq!(first.link, "omni-path");
        // Every key is its spec's JSON, and every spec is distinct.
        let mut keys: Vec<String> = cells
            .iter()
            .map(|c| c.content_key().content().to_owned())
            .collect();
        for (key, cell) in keys.iter().zip(&cells) {
            assert_eq!(key, &serde_json::to_string(&cell.spec()).unwrap());
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
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
            assert_eq!(&solo, row, "{cell:?}");
        }
        rows
    }

    #[test]
    fn compute_cell_matches_run_matrix_bit_for_bit() {
        // One pricing definition, three callers, any split of a matrix into
        // jobs: same inputs, same functions ⇒ identical rows.
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(&["MiniMD"]);
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
            m.workloads = named_workloads(&["MiniQMC"]);
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
    fn case_insensitive_apps_resolve_with_did_you_mean_errors() {
        // Lowercase names keep working, labelled canonically...
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(&["minife"]);
        m.noise = vec!["baseline".into()];
        m.ranks = vec![1];
        m.strategies = vec![Strategy::Bulk];
        let rows = run_matrix(&m, &Pool::new(1)).unwrap();
        assert_eq!(rows[0].app, "MiniFE");
        // ...and near-misses get a suggestion in the rendered error.
        let mut m = ScenarioMatrix::smoke();
        m.workloads = named_workloads(&["minifee"]);
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
            cells[0].spec().app,
            cells[4].spec().app,
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
