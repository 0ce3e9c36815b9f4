//! Normality sweeps across the paper's three aggregation levels.
//!
//! Two routes to the same outcomes: one production, one reference. The
//! three-level sweep ([`crate::engine::sweep_levels_parallel_with_arenas`])
//! is what `repro` and the benchmark run: all three levels as one list of
//! independent per-group tasks that sort the integer nanoseconds, contiguous
//! parts of that list ([`run_tasks`]) handed to pool workers. [`sweep`] runs
//! one level, materializing each group's millisecond floats and sorting
//! those — simple, independent of the task kernel, and the reference every
//! bit-identity test compares the production route against. Both end in the
//! same fused battery kernel, which is a function of the sorted sample
//! alone, so the routes differ in how the sorted milliseconds come to be
//! and in nothing else.

use std::sync::Arc;

use ebird_core::sample::ns_to_ms;
use ebird_core::view::{fill_group_ms, group_slices, AggregationLevel};
use ebird_core::{ThreadSample, TimingTrace, TraceShape};
use ebird_obs::{Counter, Histogram, Registry};
use ebird_stats::normality::{
    battery_sorted, battery_with_scratch, BatteryScratch, NormalityOutcome, NormalityTest,
    PhaseClock, TestStatistic,
};
use ebird_stats::sort::{sort_floats, SortScratch};
use serde::{Deserialize, Serialize};

/// Results of running the three-test battery over every group of one
/// aggregation level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NormalitySweep {
    /// Which aggregation level was swept.
    pub level_label: String,
    /// Significance level used for pass/fail decisions.
    pub alpha: f64,
    /// Number of groups tested.
    pub groups: usize,
    /// Per-test outcomes, one entry per group, in group order. A `None`
    /// records a group the test could not process (degenerate sample).
    pub outcomes: Vec<[Option<NormalityOutcome>; 3]>,
}

/// Battery order, matching the paper's Table 1 rows.
pub const BATTERY_ORDER: [TestStatistic; 3] = [
    TestStatistic::DagostinoK2,
    TestStatistic::ShapiroWilkW,
    TestStatistic::AndersonDarlingA2,
];

impl NormalitySweep {
    /// Fraction of groups that *passed* (failed to reject normality) for
    /// battery test `idx` (0 = D'Agostino, 1 = Shapiro–Wilk,
    /// 2 = Anderson–Darling). Degenerate groups count as failures.
    pub fn pass_rate(&self, idx: usize) -> f64 {
        assert!(idx < 3);
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let passed = self
            .outcomes
            .iter()
            .filter(|o| o[idx].as_ref().is_some_and(|r| r.passes(self.alpha)))
            .count();
        passed as f64 / self.outcomes.len() as f64
    }

    /// Pass rates for all three tests in battery order.
    pub fn pass_rates(&self) -> [f64; 3] {
        [self.pass_rate(0), self.pass_rate(1), self.pass_rate(2)]
    }

    /// Indices of groups where D'Agostino passed but both Shapiro–Wilk and
    /// Anderson–Darling rejected — the paper's eight-MiniQMC-iterations
    /// observation at the application-iteration level.
    pub fn dagostino_only_passes(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o[0].as_ref().is_some_and(|r| r.passes(self.alpha))
                    && o[1].as_ref().is_some_and(|r| !r.passes(self.alpha))
                    && o[2].as_ref().is_some_and(|r| !r.passes(self.alpha))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Runs the three-test battery over every group of `level` — the reference
/// implementation; production goes through
/// [`crate::engine::sweep_levels_parallel_with_arenas`].
///
/// Group values and sort buffers are reused across groups
/// ([`fill_group_ms`] + [`battery_with_scratch`]), so the sweep performs no
/// per-group allocation. It sorts the millisecond floats themselves
/// ([`ebird_stats::sort`]'s float sort), which makes it the independent
/// oracle the three-level sweep — which sorts integer nanoseconds — is
/// tested against.
pub fn sweep(trace: &TimingTrace, level: AggregationLevel, alpha: f64) -> NormalitySweep {
    let groups = level.group_count(trace);
    let mut scratch = BatteryScratch::new();
    let mut values = Vec::new();
    let outcomes = (0..groups)
        .map(|g| {
            fill_group_ms(trace, level, g, &mut values);
            battery_with_scratch(&values, &mut scratch)
        })
        .collect::<Vec<_>>();
    NormalitySweep {
        level_label: level.label().to_string(),
        alpha,
        groups,
        outcomes,
    }
}

/// Observability handles for the normality sweep fast path: weight-cache
/// hit/miss counters, per-group latency histograms of the kernel's three
/// layers (gather, sort, battery) per level, and the sweep's slice of the
/// work ledger
/// — exact counts of the work done, which no host's speed moves — all
/// registered on a shared [`ebird_obs::Registry`] so `repro profile` and
/// the benchmark surface them next to the span/pool metrics. Each fact is
/// recorded once: a layer's total over the levels, the groups and the
/// elements the battery saw are sums of these, and `repro profile` derives
/// them.
#[derive(Clone)]
pub struct SweepObs {
    registry: Arc<Registry>,
    cache_hit: Arc<Counter>,
    cache_miss: Arc<Counter>,
    gather_level_ns: [Arc<Histogram>; 3],
    sort_level_ns: [Arc<Histogram>; 3],
    battery_level_ns: [Arc<Histogram>; 3],
    battery_phase_ns: [Arc<Counter>; 5],
    work_elements: [Arc<Counter>; 3],
    work_phi: Arc<Counter>,
}

impl SweepObs {
    /// Counter name: Shapiro–Wilk weight-vector cache hits.
    pub const CACHE_HIT: &'static str = "sweep.weights.cache_hit";
    /// Counter name: Shapiro–Wilk weight-vector cache misses (weight
    /// solves: one per distinct group size of each worker part, every call).
    pub const CACHE_MISS: &'static str = "sweep.weights.cache_miss";
    /// Histogram names: nanoseconds spent gathering each group's
    /// nanosecond keys out of the trace, one entry per group, by level in
    /// [`SWEEP_LEVELS`] order. With the sort and battery splits this covers
    /// a worker's whole task loop, so the three layers' totals sum to the
    /// stage's busy time (within 10 % at `--scale paper --threads 1`; the
    /// rest is the clock reads and the fork/join around the loop), and per
    /// level they are a group's whole cost, which `engine`'s partition cost
    /// model is fitted to.
    pub const GATHER_LEVEL_NS: [&'static str; 3] = [
        "sweep.gather.process-iteration.ns",
        "sweep.gather.application-iteration.ns",
        "sweep.gather.application.ns",
    ];
    /// Histogram names: nanoseconds spent sorting each group's `u32`
    /// nanosecond keys, before the fused battery pass (which reads them as
    /// milliseconds), one entry per group, by level in [`SWEEP_LEVELS`]
    /// order — where a merge of already-sorted children would have to beat
    /// the sort. Their entry counts are the ledger's groups per level.
    pub const SORT_LEVEL_NS: [&'static str; 3] = [
        "sweep.sort.process-iteration.ns",
        "sweep.sort.application-iteration.ns",
        "sweep.sort.application.ns",
    ];
    /// Histogram names: nanoseconds spent in the fused battery kernel (lane
    /// sums, Φ blocks, the three statistics, and the key-to-millisecond
    /// conversion wherever it reads a key), one entry per group, by level
    /// in [`SWEEP_LEVELS`] order — whether the three large application
    /// groups or the many small ones are the battery's cost.
    pub const BATTERY_LEVEL_NS: [&'static str; 3] = [
        "sweep.battery.process-iteration.ns",
        "sweep.battery.application-iteration.ns",
        "sweep.battery.application.ns",
    ];
    /// Counter names: nanoseconds the fused battery kernel spent in each of
    /// its phases ([`ebird_stats::normality::BATTERY_PHASES`], in that
    /// order), over every group. Each group's run is split on the clock
    /// that times its battery layer, from that layer's start to its end, so
    /// the five sum to the [`Self::BATTERY_LEVEL_NS`] totals exactly. The
    /// `weights` phase holds the Shapiro–Wilk weight solves: one per
    /// distinct group size of each worker part, every call.
    pub const BATTERY_PHASE_NS: [&'static str; 5] = [
        "sweep.battery.phase.weights.ns",
        "sweep.battery.phase.central_sums.ns",
        "sweep.battery.phase.phi_fill.ns",
        "sweep.battery.phase.accumulate.ns",
        "sweep.battery.phase.p_values.ns",
    ];
    /// Counter names, the work ledger: elements gathered (and sorted) per
    /// level, in [`SWEEP_LEVELS`] order — each level covers the trace once,
    /// so each reads the trace's sample count. The ledger's other counts are
    /// the groups per level (the entry counts of [`Self::SORT_LEVEL_NS`]),
    /// [`Self::WORK_PHI`] and the weight solves ([`Self::CACHE_MISS`]):
    /// counts, not times, bumped once per group (never per element), so
    /// they read the same on any host, and all but the weight solves — one
    /// per distinct group size per worker part per call — read the same at
    /// any pool size.
    pub const WORK_ELEMENTS: [&'static str; 3] = [
        "sweep.work.process-iteration.elements",
        "sweep.work.application-iteration.elements",
        "sweep.work.application.elements",
    ];
    /// Counter name, the work ledger: Φ evaluations of the fused battery.
    /// The kernel evaluates Φ (and 1 − Φ) once per order statistic exactly
    /// when it computes Anderson–Darling's A², so a group adds its size when
    /// its A² outcome is present and nothing otherwise.
    pub const WORK_PHI: &'static str = "sweep.work.phi_evals";

    /// Registers the sweep instruments on `registry`.
    pub fn new(registry: &Arc<Registry>) -> Self {
        Self {
            registry: Arc::clone(registry),
            cache_hit: registry.counter(Self::CACHE_HIT),
            cache_miss: registry.counter(Self::CACHE_MISS),
            gather_level_ns: Self::GATHER_LEVEL_NS.map(|name| registry.histogram(name)),
            sort_level_ns: Self::SORT_LEVEL_NS.map(|name| registry.histogram(name)),
            battery_level_ns: Self::BATTERY_LEVEL_NS.map(|name| registry.histogram(name)),
            battery_phase_ns: Self::BATTERY_PHASE_NS.map(|name| registry.counter(name)),
            work_elements: Self::WORK_ELEMENTS.map(|name| registry.counter(name)),
            work_phi: registry.counter(Self::WORK_PHI),
        }
    }

    /// Monotonic timestamp from the owning registry's time source.
    pub(crate) fn now_ns(&self) -> u64 {
        self.registry.now_ns()
    }

    /// Records one group of `len` samples at `level` from the four
    /// timestamps around its three layers — `[gather start, sort start,
    /// battery start, end]` — and its battery `outcome`, and returns the
    /// end, which is the next group's gather start: three histogram entries,
    /// one per layer at the group's level, and one or two ledger bumps.
    pub(crate) fn record_group(
        &self,
        stamps: [u64; 4],
        level: AggregationLevel,
        len: usize,
        outcome: &[Option<NormalityOutcome>; 3],
    ) -> u64 {
        let [t0, t1, t2, t3] = stamps;
        let level_index = match level {
            AggregationLevel::ProcessIteration => 0,
            AggregationLevel::ApplicationIteration => 1,
            AggregationLevel::Application => 2,
        };
        self.gather_level_ns[level_index].record(t1.saturating_sub(t0));
        self.sort_level_ns[level_index].record(t2.saturating_sub(t1));
        self.battery_level_ns[level_index].record(t3.saturating_sub(t2));
        self.work_elements[level_index].add(len as u64);
        if outcome[2].is_some() {
            self.work_phi.add(len as u64);
        }
        t3
    }

    /// Folds one worker part's totals into the counters once its task loop
    /// ends: the weight-cache tallies of the part's battery scratch and the
    /// battery's time by phase.
    pub(crate) fn record_part(&self, scratch: &BatteryScratch, phase_ns: [u64; 5]) {
        let (hits, misses) = scratch.cache_stats();
        self.cache_hit.add(hits);
        self.cache_miss.add(misses);
        for (counter, ns) in self.battery_phase_ns.iter().zip(phase_ns) {
            counter.add(ns);
        }
    }
}

/// The three sweep levels in paper order — the order the three-level sweep
/// returns.
pub const SWEEP_LEVELS: [AggregationLevel; 3] = [
    AggregationLevel::ProcessIteration,
    AggregationLevel::ApplicationIteration,
    AggregationLevel::Application,
];

/// The sweep's flat task list for one trace shape: every group of every
/// level, largest first — the application group, then the
/// application-iterations, then the process-iterations — so a contiguous
/// part's first task is its largest and a costly group is never left for
/// the end of a part.
#[derive(Clone, Copy)]
pub(crate) struct SweepTasks(pub(crate) TraceShape);

impl SweepTasks {
    /// Number of tasks (= groups over all three levels).
    pub(crate) fn len(self) -> usize {
        1 + self.0.iterations + self.0.process_iterations()
    }

    /// `(level, group index within the level, samples in the group)` of
    /// task `t`.
    pub(crate) fn get(self, t: usize) -> (AggregationLevel, usize, usize) {
        let shape = self.0;
        match t.checked_sub(1) {
            None => (AggregationLevel::Application, 0, shape.total_samples()),
            Some(t) if t < shape.iterations => (
                AggregationLevel::ApplicationIteration,
                t,
                shape.samples_per_app_iteration(),
            ),
            Some(t) => (
                AggregationLevel::ProcessIteration,
                t - shape.iterations,
                shape.threads,
            ),
        }
    }

    /// Splits outcomes in task order into the per-level results, in
    /// [`SWEEP_LEVELS`] order.
    pub(crate) fn into_levels(
        self,
        mut outcomes: Vec<[Option<NormalityOutcome>; 3]>,
        alpha: f64,
    ) -> [NormalitySweep; 3] {
        debug_assert_eq!(outcomes.len(), self.len());
        let pi = outcomes.split_off(1 + self.0.iterations);
        let ai = outcomes.split_off(1);
        // What is left is the application outcome in an allocation sized
        // for every task; callers keep these results, so hand it back.
        outcomes.shrink_to_fit();
        let [pi_level, ai_level, app_level] = SWEEP_LEVELS;
        let mk = |level: AggregationLevel, outcomes: Vec<_>| NormalitySweep {
            level_label: level.label().to_string(),
            alpha,
            groups: outcomes.len(),
            outcomes,
        };
        [mk(pi_level, pi), mk(ai_level, ai), mk(app_level, outcomes)]
    }
}

/// Runs the contiguous tasks `first..first + out.len()` of `trace`'s
/// [`SweepTasks`] into `out` — the loop every sweep worker runs (one
/// worker: the whole list). Every group of every level is an independent
/// task run by one kernel: gather the group's `u32` nanosecond compute
/// times as the trace holds them (no float work), sort the integers where
/// they lie, and run the fused three-test battery on the sorted keys, which
/// reads each key as its milliseconds ([`ns_to_ms`]) where it reads it.
///
/// Bit-identity with [`sweep`] holds by construction: a sorted integer
/// array is unique, so any correct sort yields it; `u32 → f64` is exact and
/// [`ns_to_ms`] is monotone, so the keys read in order are the ascending
/// milliseconds [`sweep`] sorts; and the battery is a function of that
/// sorted sample alone — the same code reading the same values in the same
/// order.
///
/// The group never leaves the keys' buffer: std's unstable sort works in
/// place and the battery converts on read, so there is no copy of the
/// group, no millisecond buffer and no allocation per group — one `u32`
/// (4 B) per element of the part's largest group.
///
/// That buffer belongs to the call: it is allocated at entry, exactly the
/// size of the part's first and largest task, and dropped when the loop
/// ends, so nothing group-sized outlives the sweep. So does the battery
/// scratch: the part's weight cache and Φ block are created here and
/// dropped on return, so the call solves one Shapiro–Wilk weight vector per
/// distinct group size of its part (one closed-form quantile per score) and
/// keeps none.
///
/// With an observer, each group's battery run is split by phase on the
/// same clock reads that bound its battery layer.
pub(crate) fn run_tasks(
    trace: &TimingTrace,
    obs: Option<&SweepObs>,
    first: usize,
    out: &mut [[Option<NormalityOutcome>; 3]],
) {
    let tasks = SweepTasks(trace.shape());
    // Exactly the part's first and largest group (growth would overshoot).
    let mut keys: Vec<u32> = Vec::with_capacity(out.first().map_or(0, |_| tasks.get(first).2));
    let mut battery = BatteryScratch::new();
    let now = obs.map(|o| move || o.now_ns());
    let mut phase_ns = [0u64; 5];
    // With an observer, each group's layers are timed back to back: the end
    // of one group's battery is the start of the next group's gather.
    let mut started = obs.map(|o| o.now_ns());
    for (offset, slot) in out.iter_mut().enumerate() {
        let (level, group, _) = tasks.get(first + offset);
        keys.clear();
        for slice in group_slices(trace, level, group) {
            keys.extend(slice.iter().map(ThreadSample::compute_ns));
        }
        let gathered = obs.map(|o| o.now_ns());
        keys.sort_unstable();
        let mut clock = now.as_ref().map(|now| PhaseClock::start(now));
        let read = |k: u32| ns_to_ms(k.into());
        *slot = battery_sorted(&keys, read, &mut battery, clock.as_mut());
        if let (Some(o), Some(t0), Some(t1), Some(c)) = (obs, started, gathered, clock) {
            let stamps = [t0, t1, c.started(), c.last()];
            started = Some(o.record_group(stamps, level, keys.len(), slot));
            for (total, ns) in phase_ns.iter_mut().zip(c.ns()) {
                *total += ns;
            }
        }
    }
    if let Some(o) = obs {
        o.record_part(&battery, phase_ns);
    }
}

/// Pass rates of an arbitrary test battery over one aggregation level —
/// the battery-sensitivity extension (is Table 1 an artifact of the paper's
/// choice of three tests?). Returns `(test name, pass rate)` pairs.
///
/// Each group streams through [`fill_group_ms`] into one reused buffer, is
/// sorted there **once**, and every test reads it through
/// [`NormalityTest::test_sorted`]: one sort per group whatever the battery's
/// size. The milliseconds come from integer nanoseconds, so they are always
/// finite.
pub fn battery_pass_rates(
    trace: &TimingTrace,
    level: AggregationLevel,
    battery: &[Box<dyn NormalityTest + Send + Sync>],
    alpha: f64,
) -> Vec<(&'static str, f64)> {
    let groups = level.group_count(trace);
    let mut values = Vec::new();
    let mut sort = SortScratch::new();
    let mut passed = vec![0usize; battery.len()];
    for g in 0..groups {
        fill_group_ms(trace, level, g, &mut values);
        sort_floats(&mut values, &mut sort);
        for (test, count) in battery.iter().zip(&mut passed) {
            if test.test_sorted(&values).is_ok_and(|o| o.passes(alpha)) {
                *count += 1;
            }
        }
    }
    battery
        .iter()
        .zip(&passed)
        .map(|(test, &p)| (test.kind().name(), p as f64 / groups as f64))
        .collect()
}

/// The paper's Table 1: process-iteration pass percentages per application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Significance level (paper: 5%).
    pub alpha: f64,
    /// One row per application: `(name, [D'Agostino %, Shapiro-Wilk %,
    /// Anderson-Darling %])`.
    pub rows: Vec<(String, [f64; 3])>,
}

impl Table1 {
    /// Builds Table 1 from each application's process-iteration sweep —
    /// `(application name, sweep)` pairs, one row per pair, in order.
    pub fn from_sweeps<'a>(
        alpha: f64,
        sweeps: impl IntoIterator<Item = (&'a str, &'a NormalitySweep)>,
    ) -> Self {
        let rows = sweeps
            .into_iter()
            .map(|(app, sw)| (app.to_string(), sw.pass_rates().map(|r| r * 100.0)))
            .collect();
        Table1 { alpha, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_stats::special::norm_quantile;

    /// A trace whose every process-iteration is a perfect normal sample.
    fn normal_trace(threads: usize) -> TimingTrace {
        TimingTrace::from_fn(
            "normal",
            TraceShape::new(2, 2, 10, threads).unwrap(),
            |idx| {
                let u = (idx.thread as f64 + 0.5) / threads as f64;
                // 10 ms ± 1 ms — well-conditioned for all three tests.
                let ms = 10.0 + norm_quantile(u);
                ThreadSample::new(0, (ms * 1e6) as u64)
            },
        )
    }

    /// A trace whose process-iterations are strongly exponential.
    fn skewed_trace(threads: usize) -> TimingTrace {
        TimingTrace::from_fn(
            "skewed",
            TraceShape::new(2, 2, 10, threads).unwrap(),
            |idx| {
                let u = (idx.thread as f64 + 0.5) / threads as f64;
                let ms = 10.0 - 2.0 * (1.0 - u).ln(); // exponential tail
                ThreadSample::new(0, (ms * 1e6) as u64)
            },
        )
    }

    #[test]
    fn normal_groups_pass_everywhere() {
        let tr = normal_trace(48);
        let sw = sweep(&tr, AggregationLevel::ProcessIteration, 0.05);
        assert_eq!(sw.groups, 40);
        for rate in sw.pass_rates() {
            assert!(rate > 0.95, "pass rate {rate}");
        }
    }

    #[test]
    fn exponential_groups_fail_everywhere() {
        let tr = skewed_trace(48);
        let sw = sweep(&tr, AggregationLevel::ProcessIteration, 0.05);
        for rate in sw.pass_rates() {
            assert!(rate < 0.05, "pass rate {rate}");
        }
    }

    #[test]
    fn degenerate_groups_count_as_failures() {
        // All-identical samples: every test errors (zero variance).
        let tr = TimingTrace::from_fn("flat", TraceShape::new(1, 1, 3, 16).unwrap(), |_| {
            ThreadSample::new(0, 5_000_000)
        });
        let sw = sweep(&tr, AggregationLevel::ProcessIteration, 0.05);
        assert_eq!(sw.pass_rates(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn table1_has_one_row_per_app() {
        let sweeps = [normal_trace(16), skewed_trace(16)]
            .map(|tr| sweep(&tr, AggregationLevel::ProcessIteration, 0.05));
        let t = Table1::from_sweeps(0.05, ["normal", "skewed"].into_iter().zip(&sweeps));
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].0, "normal");
        assert!(t.rows[0].1[0] > 90.0);
        assert!(t.rows[1].1[1] < 20.0);
    }

    #[test]
    fn dagostino_only_detector() {
        // Synthesize outcomes directly to pin the filter logic.
        let mk = |p: f64, kind: TestStatistic| {
            Some(NormalityOutcome {
                statistic_kind: kind,
                statistic: 1.0,
                p_value: p,
                extrapolated: false,
            })
        };
        let sweep = NormalitySweep {
            level_label: "x".into(),
            alpha: 0.05,
            groups: 3,
            outcomes: vec![
                [
                    mk(0.50, TestStatistic::DagostinoK2),
                    mk(0.01, TestStatistic::ShapiroWilkW),
                    mk(0.01, TestStatistic::AndersonDarlingA2),
                ],
                [
                    mk(0.50, TestStatistic::DagostinoK2),
                    mk(0.50, TestStatistic::ShapiroWilkW),
                    mk(0.01, TestStatistic::AndersonDarlingA2),
                ],
                [
                    mk(0.01, TestStatistic::DagostinoK2),
                    mk(0.01, TestStatistic::ShapiroWilkW),
                    mk(0.01, TestStatistic::AndersonDarlingA2),
                ],
            ],
        };
        assert_eq!(sweep.dagostino_only_passes(), vec![0]);
    }

    #[test]
    fn extended_battery_agrees_with_standard_on_clear_cases() {
        let battery = ebird_stats::normality::extended_battery();
        let normal = normal_trace(48);
        let skewed = skewed_trace(48);
        let normal_rates =
            battery_pass_rates(&normal, AggregationLevel::ProcessIteration, &battery, 0.05);
        let skewed_rates =
            battery_pass_rates(&skewed, AggregationLevel::ProcessIteration, &battery, 0.05);
        assert_eq!(normal_rates.len(), 5);
        for (name, rate) in &normal_rates {
            assert!(*rate > 0.9, "{name} on normal: {rate}");
        }
        for (name, rate) in &skewed_rates {
            assert!(*rate < 0.1, "{name} on exponential: {rate}");
        }
        assert_eq!(normal_rates[3].0, "Lilliefors");
        assert_eq!(normal_rates[4].0, "Jarque-Bera");
    }

    #[test]
    fn application_level_sweep_has_one_group() {
        let tr = normal_trace(16);
        let sw = sweep(&tr, AggregationLevel::Application, 0.05);
        assert_eq!(sw.groups, 1);
        assert_eq!(sw.outcomes.len(), 1);
    }

    /// A trace mixing normal-ish groups, laggards and one flat (degenerate)
    /// process-iteration — exercises every battery branch in the
    /// three-level sweep, including the `None` outcomes.
    fn mixed_trace() -> TimingTrace {
        TimingTrace::from_fn("mixed", TraceShape::new(2, 3, 5, 16).unwrap(), |idx| {
            if idx.trial == 1 && idx.rank == 2 && idx.iteration == 3 {
                return ThreadSample::new(0, 10_000_000);
            }
            let u = (idx.thread as f64 + 0.5) / 16.0;
            let spread = norm_quantile(u) * 0.05;
            let laggard = if idx.iteration % 2 == 0 && idx.thread == 7 {
                2.5
            } else {
                0.0
            };
            let ms = 10.0 + (idx.trial + idx.rank) as f64 * 0.25 + spread + laggard;
            ThreadSample::new(0, (ms * 1e6).round() as u64)
        })
    }

    /// The three-level sweep through its one entry, on a one-thread pool.
    fn sweep_levels(tr: &TimingTrace, obs: Option<&SweepObs>) -> [NormalitySweep; 3] {
        let pool = ebird_runtime::Pool::new(1);
        let mut arenas = crate::engine::EngineArenas::new(1);
        crate::engine::sweep_levels_parallel_with_arenas(tr, 0.05, obs, &pool, &mut arenas)
    }

    #[test]
    fn sweep_levels_is_bit_identical_to_per_level_sweeps() {
        for tr in [normal_trace(16), skewed_trace(16), mixed_trace()] {
            let merged = sweep_levels(&tr, None);
            for (m, level) in merged.iter().zip(SWEEP_LEVELS) {
                let s = sweep(&tr, level, 0.05);
                assert_eq!(m.outcomes, s.outcomes, "{} @ {}", tr.app(), level.label());
                assert_eq!(m.groups, s.groups);
                assert_eq!(m.level_label, s.level_label);
            }
        }
    }

    #[test]
    fn sweep_levels_records_observability_without_changing_results() {
        let registry = Arc::new(Registry::wall());
        let obs = SweepObs::new(&registry);
        let tr = normal_trace(16); // shape (2, 2, 10, 16)
        let with_obs = sweep_levels(&tr, Some(&obs));
        let without = sweep_levels(&tr, None);
        for (a, b) in with_obs.iter().zip(&without) {
            assert_eq!(a.outcomes, b.outcomes);
        }
        let snap = registry.snapshot();
        // Three group sizes (16, 64, 640) → exactly three weight solves;
        // every other group reuses a cached vector.
        assert_eq!(snap.counter(SweepObs::CACHE_MISS), 3);
        assert_eq!(snap.counter(SweepObs::CACHE_HIT), 48);
        // Each layer times every group once, at its level: 40
        // process-iterations, 10 application-iterations, 1 application.
        for levels in [
            SweepObs::GATHER_LEVEL_NS,
            SweepObs::SORT_LEVEL_NS,
            SweepObs::BATTERY_LEVEL_NS,
        ] {
            let by_level = levels.map(|name| snap.histogram(name).count());
            assert_eq!(by_level, [40, 10, 1], "{levels:?}");
        }
        // The battery saw each level's groups' elements: 40×16, 10×64, 640.
        assert_eq!(
            SweepObs::WORK_ELEMENTS.map(|name| snap.counter(name)),
            [640; 3]
        );
    }

    #[test]
    fn battery_phases_split_the_battery_layer_exactly() {
        // A clock that ticks once per reading: a phase's total counts the
        // boundaries that closed it. Shape (2, 2, 10, 16): 51 groups of 16,
        // 64 and 640 samples, each one Φ block, so each phase closes once
        // per group; and the five phases sum to the battery layer to the
        // nanosecond, because they split the same readings.
        struct Ticking(std::sync::atomic::AtomicU64);
        impl ebird_obs::TimeSource for Ticking {
            fn now_ns(&self) -> u64 {
                1 + self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            }
        }
        let registry = Arc::new(Registry::with_time(Arc::new(Ticking(0.into()))));
        let obs = SweepObs::new(&registry);
        sweep_levels(&normal_trace(16), Some(&obs));
        let snap = registry.snapshot();
        let phases = SweepObs::BATTERY_PHASE_NS.map(|name| snap.counter(name));
        assert_eq!(phases, [51; 5]);
        let layer: u64 = SweepObs::BATTERY_LEVEL_NS
            .iter()
            .map(|name| snap.histogram(name).total())
            .sum();
        assert_eq!(phases.iter().sum::<u64>(), layer);
    }

    #[test]
    fn the_work_ledger_counts_groups_elements_and_phi_evaluations() {
        let registry = Arc::new(Registry::wall());
        let obs = SweepObs::new(&registry);
        // Shape (2, 3, 5, 16): 30 process-iterations, 5 application-
        // iterations, 1 application, 480 samples; one process-iteration is
        // flat, so A² (and with it Φ) is skipped on its 16 samples.
        sweep_levels(&mixed_trace(), Some(&obs));
        let snap = registry.snapshot();
        let groups = SweepObs::SORT_LEVEL_NS.map(|name| snap.histogram(name).count());
        assert_eq!(groups, [30, 5, 1]);
        assert_eq!(
            SweepObs::WORK_ELEMENTS.map(|name| snap.counter(name)),
            [480; 3]
        );
        assert_eq!(snap.counter(SweepObs::WORK_PHI), 3 * 480 - 16);
        assert_eq!(snap.counter(SweepObs::CACHE_MISS), 3);
    }
}
