//! The analysis engine: the paper's sweeps on the workspace's own fork/join
//! runtime, one entry point per pipeline stage.
//!
//! The reproduction pipeline is embarrassingly parallel at the
//! process-iteration (and, for normality, group) granularity — exactly the
//! fork/join shape [`ebird_runtime::Pool`] implements. Every stage takes the
//! pool it runs on, and its output is **bit identical** for any pool size:
//!
//! * every group/unit is computed by one per-group kernel over per-worker
//!   scratch ([`EngineArenas`]), whatever the team size, and
//! * per-group outputs are written into pre-sized output slots (no
//!   order-dependent accumulation), with any aggregate folded afterwards in
//!   trace order.
//!
//! Each stage has one body, run by the pool's team at every size: a
//! one-thread pool *is* the serial API, because a one-member team runs the
//! body inline on the caller (see [`ebird_runtime::pool`]).
//!
//! The three-level normality sweep's groups — of all three levels — form one
//! flat task list ([`crate::normality`]), which
//! [`sweep_levels_parallel_with_arenas`] cuts into one contiguous part of
//! near-equal modelled cost per worker.
//!
//! The only parallelism-sensitive construct — merging floating-point
//! `Moments` partials — is confined to the trace scan's moments, which
//! document their fixed-pool determinism.

use ebird_cluster::{JobConfig, Workload};
use ebird_core::{ThreadSample, TimingTrace};
use ebird_partcomm::{run_deliveries, DeliveryOutcome, NetModel, SimScratch, Strategy};
use ebird_runtime::{Pool, WorkerArenas};
use ebird_stats::normality::BatteryScratch;

use crate::normality::{run_tasks, NormalitySweep, SweepObs, SweepTasks};
use crate::unit::UnitOrder;

/// The pipeline's stages in execution order, one per stage entry:
/// [`generate_campaign_parallel`], [`sweep_levels_parallel_with_arenas`],
/// [`trace_scan_parallel_with_arenas`](crate::scan::trace_scan_parallel_with_arenas),
/// [`delivery_sweep_parallel_with_arenas`]. These are the names a stage's
/// wall-clock span (`span.{stage}.ns`) and its observed-pool busy counters
/// (`pool.{stage}.w{n}.busy_ns`) carry, in `repro profile` and in the
/// benchmark's layer table alike.
pub const STAGES: [&str; 4] = ["generate", "normality-sweep", "trace-scan", "earlybird-sim"];

/// Long-lived scratch for the whole analysis engine: one scratch value per
/// pool worker for every stage.
///
/// Built once per campaign, it makes Shapiro–Wilk weight solves a one-off
/// warm-up: a worker re-entering a region locks its own (uncontended) slot
/// and finds its weights and unit-sized buffers ready from the previous
/// call. Nothing group-sized lives here: the sweep's group buffer belongs to
/// the call ([`crate::normality`]'s task loop), so between calls the arenas
/// hold only each worker's battery scratch (weight cache and Φ block), unit
/// order and simulation scratch.
pub struct EngineArenas {
    pub(crate) sweep_workers: WorkerArenas<BatteryScratch>,
    pub(crate) unit_order: WorkerArenas<UnitOrder>,
    pub(crate) sim: WorkerArenas<SimWorker>,
}

/// One delivery-sweep worker's scratch: the arrivals buffer and the
/// simulation working sets.
#[derive(Default)]
pub(crate) struct SimWorker {
    pub(crate) values: Vec<f64>,
    pub(crate) scratch: SimScratch,
}

impl EngineArenas {
    /// Arenas for a team of `workers` (≥ 1).
    pub fn new(workers: usize) -> Self {
        Self {
            sweep_workers: WorkerArenas::new(workers),
            unit_order: WorkerArenas::new(workers),
            sim: WorkerArenas::new(workers),
        }
    }

    /// Arenas sized for `pool`'s team.
    pub fn for_pool(pool: &Pool) -> Self {
        Self::new(pool.threads())
    }
}

/// Generates every workload's campaign trace on `pool` — the generation
/// stage of the analysis pipeline, generic over any [`Workload`]
/// (calibrated synthetic apps, inline models, metered real kernels,
/// mixtures). The traces are bit-identical for any pool size (each
/// workload's generator carries that guarantee; see
/// [`Workload::generate_trace_parallel`]).
///
/// # Errors
/// The first workload's failure message, verbatim.
pub fn generate_campaign_parallel(
    workloads: &[&dyn Workload],
    cfg: &JobConfig,
    seed: u64,
    pool: &Pool,
) -> Result<Vec<TimingTrace>, String> {
    workloads
        .iter()
        .map(|w| w.generate_trace_parallel(cfg, seed, pool))
        .collect()
}

/// The modelled cost, in ns, of gathering, sorting and testing one group of
/// `n` samples: a per-group constant plus a per-element term that grows
/// with log₂ n. Fitted once to the per-element costs of the three levels at
/// one thread — the gather, sort and battery `by level` lines of `repro
/// --scale paper --threads 1 profile`, median of eight runs: 46.9 / 37.5 /
/// 65.5 ns at 48 / 3 840 / 768 000 samples — which it reproduces to 0.1 ns;
/// a constant, never a run-time measurement, so a cut made with it stays a
/// function of the shape and the part count.
fn group_cost(n: usize) -> usize {
    let n = n as f64;
    (1600.0 + n * (3.72 * n.log2() - 7.16)) as usize
}

/// Splits a trace shape's [`SweepTasks`] into `parts` contiguous runs of
/// near-equal [`group_cost`], returning the number of tasks per part. A
/// function of the shape and `parts` only.
///
/// Each part takes tasks while that brings it closer to an equal share of
/// what is left, and at least one if any remain — tasks run largest group
/// first, so an application group costlier than a fair share gets a part
/// to itself and the rest is shared evenly among the others; with fewer
/// tasks than parts the trailing parts are empty.
fn partition_tasks(tasks: SweepTasks, parts: usize) -> Vec<usize> {
    let cost = |t: usize| group_cost(tasks.get(t).2);
    let mut remaining: usize = (0..tasks.len()).map(cost).sum();
    let mut next = 0;
    (0..parts)
        .map(|part| {
            let target = remaining / (parts - part);
            let (start, mut taken) = (next, 0);
            while next < tasks.len() {
                let size = cost(next);
                if taken > 0 && 2 * taken + size > 2 * target {
                    break;
                }
                taken += size;
                next += 1;
            }
            remaining -= taken;
            next - start
        })
        .collect()
}

/// Runs all three aggregation levels of the normality sweep on `pool`, in
/// [`SWEEP_LEVELS`](crate::normality::SWEEP_LEVELS) order — bit-identical to
/// three per-level [`sweep`] calls for any pool size: the same kernel runs
/// every group, and no group's result depends on another's. Per-worker
/// battery scratches produce bit-identical weights to a shared one because
/// cached weight vectors are bit-identical to freshly solved ones.
///
/// The caller owns the [`EngineArenas`], so repeated sweeps (one per trace
/// of a campaign) reuse the per-worker battery scratches: after the first
/// call on a shape no weight vector is solved again, and a call allocates
/// its result, its fork/join bookkeeping and one group buffer per worker
/// part, which it frees before it returns.
///
/// The trace's task list is cut into one contiguous part of near-equal
/// modelled cost per worker and every worker runs the task loop over its
/// part (a one-thread pool's single part is the whole list).
///
/// When `obs` is provided, each group's three layers are timed into the
/// [`SweepObs::GATHER_NS`], [`SweepObs::SORT_NS`] and
/// [`SweepObs::BATTERY_NS`] histograms (together they cover the workers'
/// task loops) and the Shapiro–Wilk weight-cache tallies land in the
/// [`SweepObs::CACHE_HIT`]/[`SweepObs::CACHE_MISS`] counters.
///
/// [`sweep`]: crate::normality::sweep
pub fn sweep_levels_parallel_with_arenas(
    trace: &TimingTrace,
    alpha: f64,
    obs: Option<&SweepObs>,
    pool: &Pool,
    arenas: &mut EngineArenas,
) -> [NormalitySweep; 3] {
    let tasks = SweepTasks(trace.shape());
    let workers = &arenas.sweep_workers;
    let mut outcomes = vec![Default::default(); tasks.len()];
    pool.parallel_parts_mut(
        &mut outcomes,
        &partition_tasks(tasks, pool.threads()),
        |block, range, ctx| {
            run_tasks(
                trace,
                obs,
                range.start,
                block,
                &mut workers.slot(ctx.thread()),
            );
        },
    );
    tasks.into_levels(outcomes, alpha)
}

/// The four canonical delivery strategies — the workspace's one definition
/// of them — that the sweep prices for a `threads`-partition buffer: bulk,
/// early-bird, a 1 ms timeout flush, and √threads bins.
pub fn canonical_strategies(threads: usize) -> [Strategy; 4] {
    let bins = (threads as f64).sqrt().round().max(1.0) as usize;
    [
        Strategy::Bulk,
        Strategy::EarlyBird,
        Strategy::TimeoutFlush { timeout_ms: 1.0 },
        Strategy::Binned { bins },
    ]
}

/// Prices the [`canonical_strategies`] on every process-iteration's arrivals
/// — one `[bulk, early-bird, timeout, binned]` outcome row per
/// process-iteration, trace order. `make_model` builds one model per worker
/// (reset by the kernel between runs; any single-rank [`NetModel`] works —
/// [`SerialLink`](ebird_partcomm::SerialLink) or a 1-rank
/// [`Fabric`](ebird_partcomm::Fabric) of any spelling).
///
/// Bit-identical for any pool size, because each unit runs the same
/// scratch-based kernel independently into its own output slot. Workers
/// reuse their simulation scratch from the caller-owned [`EngineArenas`]
/// across traces.
///
/// # Panics
/// If the model services more than one rank (each process-iteration is one
/// sender's arrival set).
pub fn delivery_sweep_parallel_with_arenas<M, F>(
    trace: &TimingTrace,
    bytes_total: usize,
    make_model: F,
    pool: &Pool,
    arenas: &mut EngineArenas,
) -> Vec<[DeliveryOutcome; 4]>
where
    M: NetModel,
    F: Fn() -> M + Sync,
{
    let shape = trace.shape();
    let threads = shape.threads;
    // One strategy row per call: the partition count is the shape's.
    let strategies = canonical_strategies(threads);
    let sim = &arenas.sim;
    // Rows are written in place, not staged as `Option`s: a 32-byte outcome
    // has no niche, so a staged row is wider and collecting it reallocates.
    let mut out = vec![[DeliveryOutcome::default(); 4]; shape.process_iterations()];
    pool.parallel_chunks_mut(&mut out, |block, range, ctx| {
        let mut worker = sim.slot(ctx.thread());
        let SimWorker { values, scratch } = &mut *worker;
        let mut model = make_model();
        // Unit `u`'s samples are the `u`-th `threads`-long run of the trace.
        let samples = &trace.samples()[range.start * threads..range.end * threads];
        for (slot, unit) in block.iter_mut().zip(samples.chunks(threads)) {
            values.clear();
            values.extend(unit.iter().map(ThreadSample::compute_time_ms));
            *slot = run_deliveries(
                &mut model,
                &[values.as_slice()],
                bytes_total,
                strategies,
                scratch,
            );
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normality::{sweep, SWEEP_LEVELS};
    use ebird_core::{SampleIndex, TraceShape};
    use ebird_partcomm::{run_delivery, SerialLink};

    /// A mixed-shape trace: tight normal-ish groups with occasional laggards
    /// and one degenerate (flat) process-iteration.
    fn mixed_trace() -> TimingTrace {
        TimingTrace::from_fn(
            "mixed",
            TraceShape::new(2, 2, 9, 16).unwrap(),
            |SampleIndex {
                 trial,
                 rank,
                 iteration,
                 thread,
             }| {
                if trial == 1 && rank == 0 && iteration == 4 {
                    return ThreadSample::new(0, 10_000_000);
                }
                let u = (thread as f64 + 0.5) / 16.0;
                let spread = ebird_stats::special::norm_quantile(u) * 0.05;
                let laggard = if iteration % 3 == 0 && thread == 7 {
                    2.5
                } else {
                    0.0
                };
                let ms = 10.0 + (trial + rank) as f64 * 0.25 + spread + laggard;
                ThreadSample::new(0, (ms * 1e6).round() as u64)
            },
        )
    }

    #[test]
    fn sweep_levels_is_bit_identical_across_pool_sizes_and_to_per_level_sweeps() {
        let tr = mixed_trace();
        let oracle = SWEEP_LEVELS.map(|level| sweep(&tr, level, 0.05));
        for workers in [1, 2, 5] {
            let pool = Pool::new(workers);
            let registry = std::sync::Arc::new(ebird_obs::Registry::wall());
            let obs = SweepObs::new(&registry);
            let got = sweep_levels_parallel_with_arenas(
                &tr,
                0.05,
                Some(&obs),
                &pool,
                &mut EngineArenas::for_pool(&pool),
            );
            for (g, o) in got.iter().zip(&oracle) {
                assert_eq!(g.outcomes, o.outcomes, "{} × {workers}", o.level_label);
            }
            let snap = registry.snapshot();
            let groups = (tr.shape().process_iterations() + tr.shape().iterations + 1) as u64;
            assert_eq!(snap.histogram(SweepObs::SORT_NS).count(), groups);
            assert!(snap.counter(SweepObs::CACHE_MISS) > 0);
        }
    }

    #[test]
    fn task_partition_is_contiguous_complete_and_a_function_of_shape_and_parts() {
        let shapes = [
            TraceShape::new(2, 2, 9, 16).unwrap(),
            TraceShape::new(10, 8, 200, 48).unwrap(),
            TraceShape::new(1, 1, 1, 8).unwrap(), // 3 tasks
            TraceShape::new(3, 1, 2, 5).unwrap(),
        ];
        for shape in shapes {
            let tasks = SweepTasks(shape);
            for parts in 1..=9 {
                let lens = partition_tasks(tasks, parts);
                // One run per part, in task order, covering every task once.
                assert_eq!(lens.len(), parts);
                assert_eq!(
                    lens.iter().sum::<usize>(),
                    tasks.len(),
                    "{shape:?} / {parts}"
                );
                assert_eq!(lens, partition_tasks(tasks, parts), "not a pure function");
                // Nobody idles while another part holds two tasks it could
                // have shared, and no part exceeds an equal share of the
                // modelled cost by more than its costliest (= first) task.
                let cost = |t: usize| group_cost(tasks.get(t).2);
                let share = (0..tasks.len()).map(cost).sum::<usize>().div_ceil(parts);
                let mut first = 0;
                for &len in &lens {
                    let part: usize = (first..first + len).map(cost).sum();
                    if len > 0 {
                        assert!(part <= share + cost(first), "{shape:?} / {parts}");
                    }
                    first += len;
                }
                if tasks.len() >= parts {
                    assert!(lens.iter().all(|&l| l > 0), "{shape:?} / {parts}: {lens:?}");
                } else {
                    assert!(
                        lens.iter().all(|&l| l <= 1),
                        "{shape:?} / {parts}: {lens:?}"
                    );
                }
            }
        }
        // Paper shape (modelled costs 50.4 ms for the application group,
        // 28.8 ms for the 200 application-iteration groups, 36.0 ms for the
        // 16 000 process-iteration groups). Two workers: the application
        // group and 50 application-iteration groups (57.6 ms) against the
        // rest (57.7 ms). Five workers: the application group exceeds a
        // fair share and gets a worker to itself; the other four split the
        // rest, 16.2–16.3 ms each.
        let paper = SweepTasks(TraceShape::new(10, 8, 200, 48).unwrap());
        assert_eq!(partition_tasks(paper, 2), [1 + 50, 150 + 16_000]);
        assert_eq!(partition_tasks(paper, 5), [1, 112, 88 + 1579, 7210, 7211]);
    }

    #[test]
    fn sweep_arenas_hold_only_weights_solved_once_per_group_size_of_the_part() {
        // A sweep worker's arena is its battery scratch (the group buffer
        // belongs to the call), so what it keeps between calls is the weight
        // cache: the first call solves one vector per distinct group size of
        // the worker's part, and a warm call solves none and finds every
        // group's vector cached.
        let tr = mixed_trace();
        let tasks = SweepTasks(tr.shape());
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let mut arenas = EngineArenas::for_pool(&pool);
            let mut stats = Vec::new();
            for _ in 0..3 {
                sweep_levels_parallel_with_arenas(&tr, 0.05, None, &pool, &mut arenas);
                stats.push(
                    (0..workers)
                        .map(|w| arenas.sweep_workers.get_mut(w).cache_stats())
                        .collect::<Vec<_>>(),
                );
            }
            let mut first = 0;
            for (w, len) in partition_tasks(tasks, workers).into_iter().enumerate() {
                let sizes: std::collections::BTreeSet<usize> =
                    (first..first + len).map(|t| tasks.get(t).2).collect();
                let (hits, misses) = stats[0][w];
                assert_eq!(misses, sizes.len() as u64, "worker {w}/{workers}");
                for (call, got) in stats.iter().enumerate() {
                    let warm_hits = call as u64 * (hits + misses);
                    assert_eq!(
                        got[w],
                        (hits + warm_hits, misses),
                        "call {call}, worker {w}/{workers}"
                    );
                }
                first += len;
            }
        }
    }

    #[test]
    fn arena_reuse_keeps_sweep_and_delivery_bit_identical() {
        // Warm arenas (cached weights, dirty buffers) must change nothing:
        // run every arena-backed stage twice on shared arenas and compare
        // against runs on fresh ones.
        let tr = mixed_trace();
        let link = ebird_partcomm::LinkModel::omni_path();
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let mut arenas = EngineArenas::for_pool(&pool);
            let fresh_sweep = sweep_levels_parallel_with_arenas(
                &tr,
                0.05,
                None,
                &pool,
                &mut EngineArenas::for_pool(&pool),
            );
            let fresh_delivery = delivery_sweep_parallel_with_arenas(
                &tr,
                1_000_000,
                || SerialLink::new(link),
                &pool,
                &mut EngineArenas::for_pool(&pool),
            );
            for round in 0..2 {
                let sw = sweep_levels_parallel_with_arenas(&tr, 0.05, None, &pool, &mut arenas);
                for (a, b) in sw.iter().zip(&fresh_sweep) {
                    assert_eq!(a.outcomes, b.outcomes, "round {round} × {workers}");
                }
                let dl = delivery_sweep_parallel_with_arenas(
                    &tr,
                    1_000_000,
                    || SerialLink::new(link),
                    &pool,
                    &mut arenas,
                );
                assert_eq!(dl, fresh_delivery, "round {round} × {workers}");
            }
        }
    }

    #[test]
    fn delivery_sweep_is_bit_identical_across_pool_sizes_and_to_per_cell_runs() {
        let tr = mixed_trace();
        let link = ebird_partcomm::LinkModel::omni_path();
        // The oracle: every cell priced on its own, on a fresh model and
        // fresh scratch.
        let oracle: Vec<[DeliveryOutcome; 4]> = tr
            .samples()
            .chunks(tr.shape().threads)
            .map(|samples| {
                let ms: Vec<f64> = samples.iter().map(ThreadSample::compute_time_ms).collect();
                canonical_strategies(ms.len()).map(|s| {
                    run_delivery(
                        &mut SerialLink::new(link),
                        &[&ms],
                        1_000_000,
                        s,
                        &mut SimScratch::new(),
                    )
                })
            })
            .collect();
        assert_eq!(oracle.len(), tr.shape().process_iterations());
        for workers in [1, 2, 5] {
            let pool = Pool::new(workers);
            let got = delivery_sweep_parallel_with_arenas(
                &tr,
                1_000_000,
                || SerialLink::new(link),
                &pool,
                &mut EngineArenas::for_pool(&pool),
            );
            assert_eq!(oracle, got, "{workers} workers");
        }
        // Every row is in canonical order: bulk's one message, then one per
        // partition for early-bird.
        for row in &oracle {
            assert_eq!(row[0].messages, 1);
            assert_eq!(row[1].messages, tr.shape().threads);
        }
    }

    #[test]
    fn campaign_generation_is_workload_generic_and_bit_identical() {
        use ebird_cluster::SyntheticApp;
        let apps = SyntheticApp::all();
        let workloads: Vec<&dyn Workload> = apps.iter().map(|a| a as &dyn Workload).collect();
        let cfg = JobConfig::new(1, 2, 6, 4);
        // The oracle: each app's pool-free reference generator.
        let oracle: Vec<TimingTrace> = apps.iter().map(|a| a.generate(&cfg, 13)).collect();
        assert_eq!(oracle.len(), 3);
        assert_eq!(oracle[0].app(), "MiniFE");
        for workers in [1, 3] {
            let pool = Pool::new(workers);
            let got = generate_campaign_parallel(&workloads, &cfg, 13, &pool).unwrap();
            assert_eq!(oracle, got, "{workers} workers");
        }
    }

    #[test]
    fn delivery_sweep_accepts_any_single_rank_model() {
        // The sweep is model-agnostic: a zero-gap LogGP fabric of one rank
        // is bit-identical to the α/β SerialLink it degenerates to.
        let tr = mixed_trace();
        let link = ebird_partcomm::LinkModel::omni_path();
        let loggp = ebird_partcomm::NetModelSpec::LogGP {
            latency_ms: link.alpha_ms,
            gap_ms: 0.0,
            gap_per_byte_ms: link.beta_ms_per_byte,
            contention: 0.5,
        }
        .resolve()
        .unwrap();
        let pool = Pool::new(1);
        let mut arenas = EngineArenas::for_pool(&pool);
        let over_serial = delivery_sweep_parallel_with_arenas(
            &tr,
            1_000_000,
            || SerialLink::new(link),
            &pool,
            &mut arenas,
        );
        let over_loggp = delivery_sweep_parallel_with_arenas(
            &tr,
            1_000_000,
            || loggp.build(1),
            &pool,
            &mut arenas,
        );
        assert_eq!(over_serial, over_loggp);
    }
}
