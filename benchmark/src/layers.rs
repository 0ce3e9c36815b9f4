//! The one file that calls into the workspace crates. Everything else in the
//! benchmark sees plain numbers, strings and the types defined here, so a
//! change to an entry point (ROADMAP item 1 collapses the `*_parallel*`
//! family into one engine value) costs an edit of this file and nothing
//! else.
//!
//! Rules it keeps: only the `*_parallel*` / `_with_arenas` entry points with
//! `Pool::new(1 | 2)`, never their serial twins; only public items; and only
//! inputs made from the seed it is handed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ebird_analysis::engine::{
    canonical_strategies, delivery_sweep_parallel_with_arenas, generate_campaign_parallel,
    sweep_levels_parallel_with_arenas, EngineArenas,
};
use ebird_analysis::report::json_line;
use ebird_analysis::scan::{trace_scan_parallel_with_arenas, TraceScan};
use ebird_cluster::calibration::{ALPHA, LAGGARD_THRESHOLD_MS};
use ebird_cluster::{JobConfig, SyntheticApp, Workload};
use ebird_core::TimingTrace;
use ebird_obs::Registry;
use ebird_partcomm::{run_delivery, DeliveryOutcome, Fabric, LinkModel, SerialLink, SimScratch};
use ebird_runtime::{Pool, PoolObserver};
use ebird_serve::cache::{CacheConfig, CacheMetrics, ContentKey, ResultCache};
use ebird_serve::client::{self, RetryPolicy};
use ebird_serve::coalesce::InflightTable;
use ebird_serve::protocol::{parse_request, reply_line, MatrixSource, Request};
use ebird_serve::scenario::{compute_cell, run_matrix, ResolvedCell, ScenarioMatrix, ScenarioRow};
use ebird_serve::{Server, ServerConfig};
use ebird_stats::normality::{battery_presorted, BatteryScratch, NormalityOutcome};
use ebird_stats::sort::{merge_sorted_with_tmp, sort_floats, SortScratch};
use ebird_stats::special::norm_log_cdf_sf_slice;

use crate::calibrate::median_ns;
use crate::trace::TraceLog;

/// Named per-layer values gathered by a traced run.
pub type Metrics = BTreeMap<&'static str, f64>;

// ---------------------------------------------------------------------------
// Pipeline: generate → normality sweep → trace scan → early-bird simulation
// ---------------------------------------------------------------------------

/// Buffer priced by the delivery stage (the paper's 8 MB).
const SIM_BYTES: usize = 8_000_000;

/// The pipeline's stage names: span names in the trace log and stage labels
/// on the observed pool.
pub const STAGES: [&str; 4] = ["generate", "normality-sweep", "trace-scan", "earlybird-sim"];

/// Everything one pipeline op produces, kept so it can be compared with the
/// one-thread reference.
pub struct PipelineOutput {
    sweeps: Vec<Vec<[Option<NormalityOutcome>; 3]>>,
    scans: Vec<TraceScan>,
    sims: Vec<Vec<[DeliveryOutcome; 4]>>,
    /// Thread samples generated and analysed.
    pub samples: usize,
    /// Sample groups the normality battery tested, all levels.
    pub groups: usize,
}

impl PipelineOutput {
    /// Compares against the one-thread `reference` under the equality rules
    /// the repository's own pipeline harness asserts: everything bit-equal,
    /// except that the scan's moments merge per-thread partials and so are
    /// only count/min/max-equal on a team of more than one.
    pub fn check(&self, reference: &PipelineOutput, threads: usize) -> Result<(), String> {
        if self.sweeps != reference.sweeps {
            return Err("normality-sweep outcomes differ from the reference".into());
        }
        if self.sims != reference.sims {
            return Err("delivery outcomes differ from the reference".into());
        }
        if self.scans.len() != reference.scans.len() {
            return Err("trace-scan count differs from the reference".into());
        }
        for (app, (a, b)) in self.scans.iter().zip(&reference.scans).enumerate() {
            if a.census.iterations != b.census.iterations {
                return Err(format!(
                    "app {app}: laggard census differs from the reference"
                ));
            }
            if a.reclaim != b.reclaim {
                return Err(format!(
                    "app {app}: reclaim metrics differ from the reference"
                ));
            }
            let (m, r) = (&a.moments, &b.moments);
            if m.count() != r.count() || m.min() != r.min() || m.max() != r.max() {
                return Err(format!("app {app}: scan moments lost or changed samples"));
            }
            if threads == 1 && m != r {
                return Err(format!("app {app}: one-thread scan moments differ"));
            }
        }
        Ok(())
    }
}

/// The pipeline under test: three calibrated apps, one pool, one arena set.
pub struct Pipeline {
    apps: [SyntheticApp; 3],
    cfg: JobConfig,
    seed: u64,
    plain: Pool,
    observed: Pool,
    observer: PoolObserver,
    registry: Arc<Registry>,
    arenas: EngineArenas,
}

impl Pipeline {
    /// `threads` is 1 or 2; `quick` swaps the paper-scale campaign
    /// (2 304 000 samples) for the CI-scale one.
    pub fn new(threads: usize, quick: bool, seed: u64) -> Self {
        let registry = Arc::new(Registry::wall());
        let observer = PoolObserver::new(&registry);
        let plain = Pool::new(threads);
        Pipeline {
            apps: SyntheticApp::all(),
            cfg: if quick {
                JobConfig::ci_scale()
            } else {
                JobConfig::paper_scale()
            },
            seed,
            arenas: EngineArenas::for_pool(&plain),
            observed: Pool::new(threads).with_observer(observer.clone()),
            plain,
            observer,
            registry,
        }
    }

    pub fn threads(&self) -> usize {
        self.plain.threads()
    }

    /// One full pass. With a trace log the pool is the observed one and the
    /// op and its four stages are recorded as spans; without, the only
    /// clock reads are the caller's.
    pub fn run_op(&mut self, trace: Option<(&mut TraceLog, u64)>) -> PipelineOutput {
        let pool = if trace.is_some() {
            &self.observed
        } else {
            &self.plain
        };
        let arenas = &mut self.arenas;
        let link = LinkModel::omni_path();
        let mut marks = [Instant::now(); 5];
        let stage = |i: usize| {
            if trace.is_some() {
                self.observer.set_stage(STAGES[i]);
            }
        };

        stage(0);
        let workloads: Vec<&dyn Workload> = self.apps.iter().map(|a| a as &dyn Workload).collect();
        let traces = generate_campaign_parallel(&workloads, &self.cfg, self.seed, pool)
            .expect("synthetic workloads always generate");
        marks[1] = Instant::now();

        stage(1);
        let sweeps: Vec<_> = traces
            .iter()
            .flat_map(|tr| {
                sweep_levels_parallel_with_arenas(tr, ALPHA, None, pool, arenas)
                    .map(|sw| sw.outcomes)
            })
            .collect();
        marks[2] = Instant::now();

        stage(2);
        let scans: Vec<_> = traces
            .iter()
            .map(|tr| trace_scan_parallel_with_arenas(tr, LAGGARD_THRESHOLD_MS, pool, arenas))
            .collect();
        marks[3] = Instant::now();

        stage(3);
        let sims: Vec<_> = traces
            .iter()
            .map(|tr| {
                delivery_sweep_parallel_with_arenas(
                    tr,
                    SIM_BYTES,
                    || SerialLink::new(link),
                    pool,
                    arenas,
                )
            })
            .collect();
        marks[4] = Instant::now();

        if let Some((log, op)) = trace {
            let root = log.record("op", op, None, marks[0], marks[4]);
            for (i, name) in STAGES.iter().enumerate() {
                log.record(name, op, Some(root), marks[i], marks[i + 1]);
            }
        }
        PipelineOutput {
            samples: traces.iter().map(|t| t.samples().len()).sum(),
            groups: sweeps.iter().map(Vec::len).sum(),
            sweeps,
            scans,
            sims,
        }
    }

    /// Busy nanoseconds the observed pool has booked so far: per stage the
    /// team total, and per worker for the sweep (the stage whose skew
    /// decides how its chunks should be scheduled).
    pub fn pool_busy(&self) -> PoolBusy {
        let snap = self.registry.snapshot();
        PoolBusy {
            stage_ns: STAGES.map(|s| snap.counter(&PoolObserver::stage_counter(s))),
            sweep_worker_ns: (0..self.threads())
                .map(|t| snap.counter(&PoolObserver::worker_counter(STAGES[1], t)))
                .collect(),
        }
    }
}

/// See [`Pipeline::pool_busy`].
pub struct PoolBusy {
    pub stage_ns: [u64; 4],
    pub sweep_worker_ns: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Serve: an in-process campaign server and its client calls
// ---------------------------------------------------------------------------

/// Worker threads of the server under test (a constant, not `nproc`, so
/// hosts stay comparable).
pub const SERVE_THREADS: usize = 2;
/// Hot-tier budget: small enough that `serve_cold` reaches steady-state
/// eviction within seconds, large enough to hold `serve_warm`'s working set.
const HOT_BYTES: usize = 32 << 20;

/// A running in-process server.
pub struct ServerHandle {
    addr: String,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

impl ServerHandle {
    /// Binds an ephemeral loopback port and runs the accept loop on its own
    /// thread: memory-only cache under the hot budget, default queue bound.
    pub fn start() -> Result<Self, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: SERVE_THREADS,
                cache_dir: None,
                hot_bytes: Some(HOT_BYTES),
                ..ServerConfig::default()
            },
        )?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the server thread: {e}"))?;
        Ok(ServerHandle { addr, thread })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends `shutdown` and waits until the server has drained and joined
    /// its connection and worker threads.
    pub fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr)?;
        self.thread
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
    }
}

/// One submittable matrix: the `full` campaign (288 cells), or the 48-cell
/// smoke campaign in quick mode, under its own seed.
#[derive(Clone)]
pub struct Matrix {
    source: MatrixSource,
    cells: usize,
}

impl Matrix {
    pub fn new(seed: u64, quick: bool) -> Self {
        let matrix = ScenarioMatrix {
            seed,
            ..if quick {
                ScenarioMatrix::smoke()
            } else {
                ScenarioMatrix::full()
            }
        };
        Matrix {
            cells: matrix.len(),
            source: MatrixSource::Inline(matrix),
        }
    }

    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The rows an offline `run_matrix` prints for this matrix, encoded the
    /// way the server encodes them: the byte-identity oracle.
    pub fn offline_rows(&self) -> Result<Vec<String>, String> {
        let matrix = self.source.matrix()?;
        run_matrix(&matrix, &Pool::new(1))?
            .iter()
            .map(|row| json_line(row).map_err(|e| format!("encoding an offline row: {e}")))
            .collect()
    }
}

/// What the client saw of one submit.
pub struct Submitted {
    pub rows: Vec<String>,
    pub cached: usize,
    pub coalesced: usize,
    pub computed: usize,
}

/// One `client::submit` round trip. A refusal (`overloaded`) is an error
/// here, not a retry: the benchmark counts it as a failed op.
pub fn submit(addr: &str, matrix: &Matrix) -> Result<Submitted, String> {
    let outcome = client::submit_with_retry(addr, &matrix.source, 0, &RetryPolicy::none(), |_| {})?;
    Ok(Submitted {
        rows: outcome.rows,
        cached: outcome.footer.cached,
        coalesced: outcome.footer.coalesced,
        computed: outcome.footer.computed,
    })
}

/// The server's own counters, read over the public `metrics` and `status`
/// verbs. All fields are running totals; subtract two scrapes for a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub uptime_ns: u64,
    pub submits: u64,
    pub submit_ns: u64,
    pub queue_waits: u64,
    pub queue_wait_ns: u64,
    pub jobs: u64,
    pub job_ns: u64,
    pub worker_busy_ns: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub cells_total: u64,
    pub cells_cached: u64,
    pub cells_coalesced: u64,
    pub cells_computed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
}

impl Scrape {
    pub fn read(addr: &str) -> Result<Scrape, String> {
        let m = client::metrics(addr)?;
        let s = client::status(addr)?;
        let hist = |name: &str| m.histogram(name).map_or((0, 0), |h| (h.count, h.total_ns));
        let (submits, submit_ns) = hist("serve.request.submit.ns");
        let (queue_waits, queue_wait_ns) = hist("serve.queue.wait_ns");
        let (jobs, job_ns) = hist("serve.job.run_ns");
        Ok(Scrape {
            uptime_ns: m.uptime_ns,
            submits,
            submit_ns,
            queue_waits,
            queue_wait_ns,
            jobs,
            job_ns,
            worker_busy_ns: m.counter("serve.worker.busy_ns"),
            bytes_written: m.counter("serve.bytes.written"),
            bytes_read: m.counter("serve.bytes.read"),
            cells_total: m.counter("serve.cells.total"),
            cells_cached: m.counter("serve.cells.cached"),
            cells_coalesced: m.counter("serve.cells.coalesced"),
            cells_computed: m.counter("serve.cells.computed"),
            cache_hits: s.hits,
            cache_misses: s.misses,
            evictions: s.evictions,
        })
    }

    /// Field-wise `self − base`.
    pub fn since(&self, base: &Scrape) -> Scrape {
        Scrape {
            uptime_ns: self.uptime_ns - base.uptime_ns,
            submits: self.submits - base.submits,
            submit_ns: self.submit_ns - base.submit_ns,
            queue_waits: self.queue_waits - base.queue_waits,
            queue_wait_ns: self.queue_wait_ns - base.queue_wait_ns,
            jobs: self.jobs - base.jobs,
            job_ns: self.job_ns - base.job_ns,
            worker_busy_ns: self.worker_busy_ns - base.worker_busy_ns,
            bytes_written: self.bytes_written - base.bytes_written,
            bytes_read: self.bytes_read - base.bytes_read,
            cells_total: self.cells_total - base.cells_total,
            cells_cached: self.cells_cached - base.cells_cached,
            cells_coalesced: self.cells_coalesced - base.cells_coalesced,
            cells_computed: self.cells_computed - base.cells_computed,
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            evictions: self.evictions - base.evictions,
        }
    }
}

// ---------------------------------------------------------------------------
// Layer probes: single-threaded timing loops around one public function each
// ---------------------------------------------------------------------------

/// Threads per process-iteration group at paper scale; the small probe size.
const GROUP: usize = 48;
/// Groups in the probe trace; `GROUPS × GROUP` = 9600 is the large probe
/// size, one process's 200 iterations.
const GROUPS: usize = 200;

/// Compute times (ms) of a 1 × 1 × 200 × 48 MiniFE campaign under `seed`:
/// the pipeline's own generator and group shape, small enough to rebuild in
/// a millisecond.
fn probe_values(seed: u64) -> Vec<f64> {
    let app = SyntheticApp::minife();
    let trace: TimingTrace = app
        .generate_trace_parallel(&JobConfig::new(1, 1, GROUPS, GROUP), seed, &Pool::new(1))
        .expect("synthetic workloads always generate");
    trace
        .samples()
        .iter()
        .map(|s| s.compute_time_ms())
        .collect()
}

/// `stats.*`, `partcomm.*` and `runtime.fork_us`.
pub fn kernel_probes(seed: u64, out: &mut Metrics) {
    let values = probe_values(seed);
    let n = values.len() as f64;
    let mut sort = SortScratch::new();

    // Sorting is destructive, so each rep ends by restoring the unsorted
    // values; the restore is timed on its own and subtracted.
    let mut buf = values.clone();
    let sort48 = median_ns(25, || {
        for chunk in buf.chunks_mut(GROUP) {
            sort_floats(chunk, &mut sort);
        }
        std::hint::black_box(&mut buf).copy_from_slice(&values);
    });
    let copy = median_ns(25, || {
        std::hint::black_box(&mut buf).copy_from_slice(&values)
    });
    out.insert("stats.sort48_ns_per_elem", (sort48 - copy).max(0.0) / n);
    let sort9600 = median_ns(25, || {
        sort_floats(&mut buf, &mut sort);
        std::hint::black_box(&mut buf).copy_from_slice(&values);
    });
    out.insert("stats.sort9600_ns_per_elem", (sort9600 - copy).max(0.0) / n);

    let mut sorted48 = values.clone();
    for chunk in sorted48.chunks_mut(GROUP) {
        sort_floats(chunk, &mut sort);
    }
    let children: Vec<&[f64]> = sorted48.chunks(GROUP).collect();
    let mut merged = vec![0.0; values.len()];
    let mut tmp = Vec::new();
    let merge = median_ns(25, || {
        merge_sorted_with_tmp(&children, &mut merged, &mut tmp)
    });
    out.insert("stats.merge_ns_per_elem", merge / n);

    let mut battery = BatteryScratch::new();
    let battery48 = median_ns(9, || {
        for (raw, sorted) in values.chunks(GROUP).zip(sorted48.chunks(GROUP)) {
            std::hint::black_box(battery_presorted(raw, sorted, &mut battery));
        }
    });
    out.insert("stats.battery48_us", battery48 / GROUPS as f64 / 1e3);
    let (hits, misses) = battery.cache_stats();
    out.insert(
        "stats.weights_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let battery9600 = median_ns(9, || {
        std::hint::black_box(battery_presorted(&values, &merged, &mut battery));
    });
    out.insert("stats.battery9600_us", battery9600 / 1e3);

    // Standardised order statistics, the batch-Φ kernel's real input.
    let mean = merged.iter().sum::<f64>() / n;
    let sd = (merged.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    let z: Vec<f64> = merged.iter().map(|x| (x - mean) / sd).collect();
    let (mut lc, mut ls) = (vec![0.0; z.len()], vec![0.0; z.len()]);
    let phi = median_ns(25, || norm_log_cdf_sf_slice(&z, &mut lc, &mut ls));
    out.insert("stats.phi_ns_per_elem", phi / n);

    // The delivery kernel on one sender (the pipeline's simulation stage)…
    let mut scratch = SimScratch::new();
    let mut link = SerialLink::new(LinkModel::omni_path());
    let strategies = canonical_strategies(GROUP);
    let serial = median_ns(9, || {
        for arrivals in values.chunks(GROUP) {
            for s in strategies {
                std::hint::black_box(run_delivery(
                    &mut link,
                    &[arrivals],
                    SIM_BYTES,
                    s,
                    &mut scratch,
                ));
            }
        }
    });
    out.insert(
        "partcomm.run_delivery_us",
        serial / (GROUPS * strategies.len()) as f64 / 1e3,
    );
    // …and on the 8-rank fabric a `full` scenario cell prices.
    let full = ScenarioMatrix::full();
    let arrivals = SyntheticApp::minife()
        .rank_arrivals_ms(seed, 8, full.iteration, full.threads)
        .expect("synthetic workloads always generate");
    let mut fabric = Fabric::new(8, LinkModel::omni_path(), full.contention);
    let fabric8 = median_ns(25, || {
        for &s in &full.strategies {
            std::hint::black_box(run_delivery(
                &mut fabric,
                &arrivals,
                full.bytes_per_rank,
                s,
                &mut scratch,
            ));
        }
    });
    out.insert(
        "partcomm.run_delivery_fabric8_us",
        fabric8 / full.strategies.len() as f64 / 1e3,
    );

    let pool = Pool::new(2);
    let fork = median_ns(400, || pool.parallel_for_static(2, |_, _| {}));
    out.insert("runtime.fork_us", fork / 1e3);
}

/// `serve.protocol.*`, `serve.scenario.*`, `serve.coalesce.*`,
/// `serve.encode_row_ns` and `serve.cache.{lookup_hit,insert,cold_*}`: each
/// step of a submit, called directly on the cells of one `matrix`.
pub fn serve_probes(matrix: &Matrix, out: &mut Metrics) -> Result<(), String> {
    let line = reply_line(&Request::Submit {
        matrix: matrix.source.clone(),
        priority: 0,
    });
    let parse = median_ns(50, || {
        std::hint::black_box(parse_request(&line).expect("own request line parses"));
    });
    out.insert("serve.protocol.parse_us", parse / 1e3);

    let resolve =
        || -> Result<Vec<ResolvedCell>, String> { Ok(matrix.source.matrix()?.resolve()?.cells()) };
    let cells = resolve()?;
    let per_cell = cells.len() as f64;
    let resolve_ns = median_ns(50, || {
        std::hint::black_box(resolve().expect("resolved once already"));
    });
    out.insert("serve.scenario.resolve_us", resolve_ns / 1e3);

    let keys: Vec<ContentKey> = cells.iter().map(ResolvedCell::content_key).collect();
    let key_ns = median_ns(50, || {
        for cell in &cells {
            std::hint::black_box(cell.content_key());
        }
    });
    out.insert("serve.scenario.key_ns_per_cell", key_ns / per_cell);

    // Each worker prices its cell inline on a unit pool, as the server does.
    let mut rows: Vec<ScenarioRow> = Vec::with_capacity(cells.len());
    let compute = median_ns(3, || {
        rows.clear();
        for cell in &cells {
            rows.push(compute_cell(cell, &Pool::new(1)).expect("synthetic cells always price"));
        }
    });
    out.insert(
        "serve.scenario.compute_us_per_cell",
        compute / per_cell / 1e3,
    );

    let encode = median_ns(25, || {
        for row in &rows {
            std::hint::black_box(json_line(row).expect("rows always encode"));
        }
    });
    out.insert("serve.encode_row_ns", encode / per_cell);
    let lines: Vec<String> = rows
        .iter()
        .map(|row| json_line(row).map_err(|e| format!("encoding a probe row: {e}")))
        .collect::<Result<_, _>>()?;

    // The cache is observed, as the server's is: every lookup also books
    // its latency into a histogram.
    let observed = |budget: usize, cold_dir: Option<std::path::PathBuf>| {
        let mut cache = ResultCache::new(CacheConfig {
            cold_dir,
            hot_budget_bytes: Some(budget),
        })?;
        cache.observe(CacheMetrics::new(
            &Arc::new(Registry::wall()),
            "probe.cache",
        ));
        Ok::<_, String>(cache)
    };
    let cache = observed(HOT_BYTES, None)?;
    for (key, line) in keys.iter().zip(&lines) {
        cache.insert(key, line.clone());
    }
    let lookup = median_ns(50, || {
        for key in &keys {
            std::hint::black_box(cache.lookup(key).expect("prefilled key is hot"));
        }
    });
    out.insert("serve.cache.lookup_hit_ns", lookup / per_cell);
    // The classify pass holds the single-flight lock across all its cells.
    let table = InflightTable::new();
    let probe = median_ns(50, || {
        let guard = table.lock();
        for key in &keys {
            std::hint::black_box(guard.probe(&cache, key));
        }
    });
    out.insert("serve.coalesce.probe_ns_per_cell", probe / per_cell);

    // Inserts at steady-state eviction: a 1 MiB tier holds ~1500 rows, so
    // after the first 4000 of 20 000 distinct keys every insert evicts.
    const FILL: usize = 4_000;
    const TIMED: usize = 16_000;
    let distinct = |count: usize| -> Vec<(ContentKey, String)> {
        (0..count)
            .map(|i| {
                let base = i % keys.len();
                (
                    ContentKey::of(format!("{}#{i}", keys[base].content())),
                    lines[base].clone(),
                )
            })
            .collect()
    };
    let small = observed(1 << 20, None)?;
    let mut entries = distinct(FILL + TIMED).into_iter();
    for (key, row) in entries.by_ref().take(FILL) {
        small.insert(&key, row);
    }
    let t = Instant::now();
    for (key, row) in entries {
        small.insert(&key, row);
    }
    out.insert(
        "serve.cache.insert_ns",
        t.elapsed().as_nanos() as f64 / TIMED as f64,
    );

    // The on-disk cold tier, layer probes only: a fixed count of appends
    // (flushed once) and of point reads, in a directory removed afterwards.
    const COLD: usize = 2_000;
    let dir = crate::sys::scratch_dir("cold")?;
    let cold = (|| {
        // 64 KiB of hot tier keeps ~90 rows, so the early keys read cold.
        let cache = observed(64 << 10, Some(dir.clone()))?;
        let entries = distinct(COLD);
        let t = Instant::now();
        for (key, row) in &entries {
            cache.insert(key, row.clone());
        }
        cache.flush()?;
        let append_us = t.elapsed().as_nanos() as f64 / COLD as f64 / 1e3;
        let t = Instant::now();
        for (key, _) in &entries[..COLD / 2] {
            if cache.lookup(key).is_none() {
                return Err("cold-tier point read missed an appended row".to_string());
            }
        }
        let read_us = t.elapsed().as_nanos() as f64 / (COLD / 2) as f64 / 1e3;
        Ok((append_us, read_us))
    })();
    let removed = std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"));
    let (append_us, read_us) = cold?;
    removed?;
    out.insert("serve.cache.cold_append_us", append_us);
    out.insert("serve.cache.cold_read_us", read_us);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_check_accepts_the_team_and_rejects_a_corrupted_outcome() {
        let reference = Pipeline::new(1, true, 7).run_op(None);
        let mut team = Pipeline::new(2, true, 7);
        let mut output = team.run_op(None);
        assert_eq!(output.samples, 3 * JobConfig::ci_scale().total_samples());
        output.check(&reference, 2).expect("two threads match one");
        // A traced op computes the same outputs and records five spans.
        let mut log = TraceLog::new(Instant::now());
        let traced = team.run_op(Some((&mut log, 0)));
        traced
            .check(&reference, 2)
            .expect("tracing changes no output");
        assert_eq!(log.spans.len(), 5);
        assert!(team.pool_busy().stage_ns.iter().all(|&ns| ns > 0));

        output.sims[1][3][1].messages += 1;
        let err = output.check(&reference, 2).unwrap_err();
        assert!(err.contains("delivery outcomes"), "{err}");
        // Another seed is another campaign.
        let other = Pipeline::new(1, true, 8).run_op(None);
        assert!(other.check(&reference, 1).is_err());
    }

    #[test]
    fn served_rows_match_the_offline_table() {
        let server = ServerHandle::start().unwrap();
        let matrix = Matrix::new(11, true);
        let cold = submit(server.addr(), &matrix).unwrap();
        assert_eq!(cold.computed, matrix.cells());
        assert_eq!(cold.rows, matrix.offline_rows().unwrap());
        let before = Scrape::read(server.addr()).unwrap();
        let warm = submit(server.addr(), &matrix).unwrap();
        assert_eq!((warm.cached, warm.computed), (matrix.cells(), 0));
        assert_eq!(warm.rows, cold.rows);
        let delta = Scrape::read(server.addr()).unwrap().since(&before);
        assert_eq!(delta.submits, 1);
        assert_eq!(delta.cells_total, matrix.cells() as u64);
        assert_eq!(delta.cells_cached, matrix.cells() as u64);
        server.stop().unwrap();
    }

    #[test]
    fn probes_fill_every_metric_they_name() {
        let mut out = Metrics::new();
        kernel_probes(3, &mut out);
        serve_probes(&Matrix::new(3, true), &mut out).unwrap();
        assert_eq!(out.len(), 20);
        for (name, value) in &out {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}
