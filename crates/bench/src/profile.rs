//! Rendering for `repro profile` — the pipeline's observability view.
//!
//! The profile command runs the engine's four stages ([`STAGES`]) on an
//! observed pool and prints one table from the registry snapshot: per-stage
//! span wall time, pool busy time, utilization, busy time per
//! process-iteration handled ([`units_counter`]) and per-worker busy splits
//! under a header that states the traces' footprint ([`TRACE_SAMPLES`]),
//! followed by the normality-sweep fast-path instruments
//! ([`SweepObs::CACHE_HIT`]/[`SweepObs::CACHE_MISS`], the per-group
//! [`SweepObs::SORT_NS`] latency histogram, the three kernel layers —
//! [`SweepObs::GATHER_NS`], sort, [`SweepObs::BATTERY_NS`] — as shares of
//! the stage's busy time, the three layers split by level
//! ([`SweepObs::GATHER_LEVEL_NS`], [`SweepObs::SORT_LEVEL_NS`],
//! [`SweepObs::BATTERY_LEVEL_NS`]), and the
//! [`SweepObs::BATCH_LEN`] batch-Φ feed sizes), the sweep's work ledger
//! (groups and elements gathered per level, [`SweepObs::WORK_ELEMENTS`];
//! Shapiro–Wilk weight solves; Φ evaluations, [`SweepObs::WORK_PHI`]) —
//! counts, which no host's speed blurs — and the
//! pool's [`PoolObserver::FORK_NS`] fork/join overhead histogram. Each stage row
//! also states the process's peak resident set once the stage is done
//! ([`record_peak_rss`]), so the memory a stage leaves resident can be
//! attributed from the profile alone. Rendering lives in the library
//! so a sentinel test can assert every metric the profile reads actually
//! appears in the output — a silent rendering gap would hide a regression
//! signal. Above the table, [`clock_oracle`] states what the profile's own
//! clock can resolve, beside the paper's 1 ms laggard threshold, and
//! [`effective_parallelism`] how many of a team's threads the host really
//! runs at once.

use ebird_analysis::engine::STAGES;
use ebird_analysis::normality::{SweepObs, SWEEP_LEVELS};
use ebird_cluster::calibration::LAGGARD_THRESHOLD_MS;
use ebird_core::ThreadSample;
use ebird_obs::{Registry, Snapshot};
use ebird_runtime::{Pool, PoolObserver};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Counter name: process-iterations `stage` handled — recorded beside the
/// stage's span, so the profile can say what one 48-sample unit costs
/// (`µs/unit`), the number a per-unit regression shows up in first.
pub fn units_counter(stage: &str) -> String {
    format!("units.{stage}")
}

/// Counter name: samples the profiled traces hold — what every stage
/// streams, and (at one word a sample) the traces' resident footprint in the
/// profile's header.
pub const TRACE_SAMPLES: &str = "trace.samples";

/// Gauge name: the process's peak resident set in KiB, read right after
/// `stage`'s span closed.
fn peak_rss_gauge(stage: &str) -> String {
    format!("mem.{stage}.peak_kib")
}

/// `VmHWM` — the peak resident set so far, in KiB — out of the text of
/// `/proc/self/status`.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Records the process's peak resident set so far (`VmHWM`) as `stage`'s
/// peak — call it right after the stage's span closes. Where
/// `/proc/self/status` cannot be read the gauge stays unset and the profile
/// prints `-`.
pub fn record_peak_rss(registry: &Registry, stage: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    if let Some(kib) = vm_hwm_kib(&status) {
        registry.gauge(&peak_rss_gauge(stage)).set(kib as i64);
    }
}

/// Measures `registry`'s clock against known durations and returns the
/// profile's clock line: the median cost of a read over 10⁴ back-to-back
/// reads, the smallest nonzero step between two of them (the resolution a
/// caller sees), and the median error of `std::thread::sleep` for 0.1, 1
/// and 10 ms (five tries each) against the request — all beside the
/// paper's laggard threshold, which they qualify.
pub fn clock_oracle(registry: &Registry) -> String {
    const READS: usize = 10_000;
    const TRIES: usize = 5;
    let mut stamps = vec![0u64; READS + 1];
    for stamp in &mut stamps {
        *stamp = registry.now_ns();
    }
    let mut steps: Vec<u64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
    let resolution = match steps.iter().copied().filter(|&d| d > 0).min() {
        Some(ns) => format!("{ns} ns"),
        None => "none".to_string(),
    };
    let read_ns = *steps.select_nth_unstable(READS / 2).1;
    let sleeps = [0.1, 1.0, 10.0].map(|request_ms: f64| {
        let request_ns = (request_ms * 1e6) as u64;
        let mut errors_ns: Vec<i64> = (0..TRIES)
            .map(|_| {
                let start = registry.now_ns();
                std::thread::sleep(std::time::Duration::from_nanos(request_ns));
                (registry.now_ns() - start) as i64 - request_ns as i64
            })
            .collect();
        let median_ns = *errors_ns.select_nth_unstable(TRIES / 2).1;
        format!("{:+.3} ms at {request_ms} ms", median_ns as f64 / 1e6)
    });
    format!(
        "clock oracle: read {read_ns} ns (median of {READS}), resolution {resolution}; \
         sleep error {} (median of {TRIES}); laggard threshold {LAGGARD_THRESHOLD_MS:.3} ms",
        sleeps.join(", ")
    )
}

/// Measures how much of a `Pool::new(k)` team's size the host delivers, for
/// every k up to `host` (its available parallelism), and returns the
/// profile's parallelism line: `k × t(1) / t(k)`, where `t(k)` is the median
/// over five runs, read through `registry`'s clock, of a region in which
/// each of the k members runs the same fixed CPU-bound reference kernel. A
/// host with k free cores reads k; a clock that never advances measures
/// nothing.
pub fn effective_parallelism(registry: &Registry, host: usize) -> String {
    const TRIES: usize = 5;
    let time = |k| {
        let pool = Pool::new(k);
        let mut runs = [0u64; TRIES].map(|_| {
            let start = registry.now_ns();
            pool.region(|_| reference_kernel());
            registry.now_ns() - start
        });
        *runs.select_nth_unstable(TRIES / 2).1
    };
    let times: Vec<u64> = (1..=host).map(time).collect();
    let measures = if times.contains(&0) {
        "unmeasurable".to_string()
    } else {
        let plural = |k| if k == 1 { "" } else { "s" };
        let ratios = (1..).zip(&times).map(|(k, &t)| {
            let ratio = (k * times[0]) as f64 / t as f64;
            format!("{ratio:.2} at {k} thread{}", plural(k))
        });
        ratios.collect::<Vec<_>>().join(", ")
    };
    format!("effective parallelism: {measures} (host parallelism {host})")
}

/// The fixed CPU-bound work of [`effective_parallelism`]: a dependent chain
/// of 2²¹ multiply-xorshift steps in registers (a few ms on one core).
fn reference_kernel() {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..1 << 21 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
}

/// Renders the profile table from a registry snapshot.
pub fn render_profile(snap: &Snapshot, threads: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let samples = snap.counter(TRACE_SAMPLES);
    let sample_bytes = std::mem::size_of::<ThreadSample>() as u64;
    let _ = writeln!(
        out,
        "Pipeline profile ({threads} worker thread(s); traces: {samples} samples × {sample_bytes} B = {:.1} MiB):",
        (samples * sample_bytes) as f64 / (1 << 20) as f64
    );
    let _ = writeln!(
        out,
        "{:<18}{:>12}{:>12}{:>7}{:>10}{:>10}  per-worker busy ms",
        "stage", "wall ms", "busy ms", "util", "µs/unit", "peak MiB"
    );
    let mut dominant = ("", 0u64);
    for st in STAGES {
        let wall_ns = snap.histogram(&format!("span.{st}.ns")).total();
        let busy_ns = snap.counter(&PoolObserver::stage_counter(st));
        if busy_ns > dominant.1 {
            dominant = (st, busy_ns);
        }
        let per_worker: Vec<String> = (0..threads)
            .map(|w| {
                format!(
                    "{:.1}",
                    ms(snap.counter(&PoolObserver::worker_counter(st, w)))
                )
            })
            .collect();
        let util = if wall_ns == 0 {
            0.0
        } else {
            100.0 * busy_ns as f64 / (wall_ns as f64 * threads as f64)
        };
        // Team busy time per process-iteration: CPU cost of one unit,
        // whatever the team size.
        let per_unit = match snap.counter(&units_counter(st)) {
            0 => "-".to_string(),
            units => format!("{:.2}", busy_ns as f64 / 1e3 / units as f64),
        };
        let peak = match snap.gauges.get(&peak_rss_gauge(st)) {
            Some(&kib) => format!("{:.1}", kib as f64 / 1024.0),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<18}{:>12.1}{:>12.1}{:>6.0}%{:>10}{:>10}  {}",
            st,
            ms(wall_ns),
            ms(busy_ns),
            util,
            per_unit,
            peak,
            per_worker.join(" ")
        );
    }
    let _ = writeln!(
        out,
        "dominant stage: {} ({:.1} ms of team busy time)",
        dominant.0,
        ms(dominant.1)
    );

    // The sweep fast-path instruments.
    let hits = snap.counter(SweepObs::CACHE_HIT);
    let misses = snap.counter(SweepObs::CACHE_MISS);
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        100.0 * hits as f64 / lookups as f64
    };
    let sorts = snap.histogram(SweepObs::SORT_NS);
    let (p50_lo, p50_hi) = sorts.quantile_bounds(0.5);
    let (p95_lo, p95_hi) = sorts.quantile_bounds(0.95);
    let _ = writeln!(out, "normality-sweep fast path:");
    let _ = writeln!(
        out,
        "  weight cache: {hits} hits / {misses} misses ({hit_rate:.1}% hit rate)"
    );
    let _ = writeln!(
        out,
        "  group sort: {} groups, {:.1} ms total, p50 {:.3}-{:.3} ms, p95 {:.3}-{:.3} ms",
        sorts.count(),
        ms(sorts.total()),
        ms(p50_lo),
        ms(p50_hi),
        ms(p95_lo),
        ms(p95_hi)
    );
    // The kernel's three layers cover a worker's whole task loop, so they
    // sum to the stage's busy time (within 10 % at `--scale paper
    // --threads 1`: clock reads and the fork/join are the rest).
    let [gather, sort, battery] = [SweepObs::GATHER_NS, SweepObs::SORT_NS, SweepObs::BATTERY_NS]
        .map(|name| snap.histogram(name).total());
    let layers = gather + sort + battery;
    let sweep_busy = snap.counter(&PoolObserver::stage_counter(STAGES[1]));
    let share = if sweep_busy == 0 {
        0.0
    } else {
        100.0 * layers as f64 / sweep_busy as f64
    };
    let _ = writeln!(
        out,
        "  layers: gather {:.1} ms + sort {:.1} ms + battery {:.1} ms = {:.1} ms ({share:.1}% of the stage's busy time)",
        ms(gather),
        ms(sort),
        ms(battery),
        ms(layers)
    );
    for (layer, names) in [
        ("gather", SweepObs::GATHER_LEVEL_NS),
        ("sort", SweepObs::SORT_LEVEL_NS),
        ("battery", SweepObs::BATTERY_LEVEL_NS),
    ] {
        let by_level: Vec<String> = SWEEP_LEVELS
            .iter()
            .zip(names)
            .map(|(level, name)| {
                let h = snap.histogram(name);
                format!(
                    "{} {:.1} ms / {} groups",
                    level.label(),
                    ms(h.total()),
                    h.count()
                )
            })
            .collect();
        let _ = writeln!(out, "  {layer} by level: {}", by_level.join(", "));
    }
    let batches = snap.histogram(SweepObs::BATCH_LEN);
    let mean_batch = if batches.count() == 0 {
        0.0
    } else {
        batches.total() as f64 / batches.count() as f64
    };
    let _ = writeln!(
        out,
        "  batch-phi kernel: {} batteries, {} elements streamed, mean batch {mean_batch:.1}",
        batches.count(),
        batches.total()
    );

    // The sweep's work ledger: exact counts, bumped once per group under
    // the observer (the groups are the per-level sort histograms' entries).
    let gathered: Vec<String> = SWEEP_LEVELS
        .iter()
        .zip(SweepObs::SORT_LEVEL_NS.iter().zip(SweepObs::WORK_ELEMENTS))
        .map(|(level, (groups, elements))| {
            format!(
                "{} {} groups / {} elements",
                level.label(),
                snap.histogram(groups).count(),
                snap.counter(elements)
            )
        })
        .collect();
    let elements: u64 = SweepObs::WORK_ELEMENTS
        .iter()
        .map(|name| snap.counter(name))
        .sum();
    let _ = writeln!(out, "work:");
    let _ = writeln!(
        out,
        "  sweep gathered: {} ({elements} elements)",
        gathered.join(", ")
    );
    let _ = writeln!(
        out,
        "  sweep weight solves: {misses}; phi evaluations: {}",
        snap.counter(SweepObs::WORK_PHI)
    );

    // Fork/join accounting: per-region overhead (spawn + join + skew) the
    // pool observer measured — at one worker this must be ~0 (the region
    // runs inline), which is the zero-overhead property the bench gates.
    let forks = snap.histogram(PoolObserver::FORK_NS);
    let (f50_lo, f50_hi) = forks.quantile_bounds(0.5);
    let _ = writeln!(out, "fork/join overhead:");
    let _ = writeln!(
        out,
        "  {} forks, {:.3} ms total, p50 {:.3}-{:.3} ms",
        forks.count(),
        ms(forks.total()),
        ms(f50_lo),
        ms(f50_hi)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_obs::Registry;
    use std::sync::Arc;

    /// Every metric the profile reads must surface in the rendered text:
    /// each input gets a distinct sentinel value, and the rendering must
    /// contain every sentinel. A metric the renderer silently drops fails
    /// here.
    #[test]
    fn render_profile_covers_every_metric() {
        let registry = Arc::new(Registry::wall());
        let mut sentinel = 101u64;
        let mut sentinels = Vec::new();
        let mut next = |sentinels: &mut Vec<String>| {
            let s = sentinel;
            sentinel += 1;
            sentinels.push(s.to_string());
            s
        };
        for st in STAGES {
            // Wall / busy / worker-0 busy, all rendered in ms with one
            // decimal, so a sentinel of S ms renders as "S.0".
            registry
                .histogram(&format!("span.{st}.ns"))
                .record(next(&mut sentinels) * 1_000_000);
            let busy = next(&mut sentinels);
            registry
                .counter(&PoolObserver::stage_counter(st))
                .add(busy * 1_000_000);
            registry
                .counter(&PoolObserver::worker_counter(st, 0))
                .add(next(&mut sentinels) * 1_000_000);
            // The unit count surfaces as busy µs ÷ units: 500 units under
            // S ms of busy time render as "2S.00", which no other cell does.
            registry.counter(&units_counter(st)).add(500);
            sentinels.push(format!("{}.00", 2 * busy));
        }
        registry
            .counter(SweepObs::CACHE_HIT)
            .add(next(&mut sentinels));
        registry
            .counter(SweepObs::CACHE_MISS)
            .add(next(&mut sentinels));
        // The sort histogram renders its entry count: record a sentinel
        // number of 1 ms entries.
        let count = next(&mut sentinels);
        let hist = registry.histogram(SweepObs::SORT_NS);
        for _ in 0..count {
            hist.record(1_000_000);
        }
        // The gather and battery layers render their totals in ms with one
        // decimal, like the stage cells.
        for layer in [SweepObs::GATHER_NS, SweepObs::BATTERY_NS] {
            registry
                .histogram(layer)
                .record(next(&mut sentinels) * 1_000_000);
        }
        // The per-level gather, sort and battery splits render each level's
        // total the same way.
        for level in SweepObs::GATHER_LEVEL_NS
            .into_iter()
            .chain(SweepObs::SORT_LEVEL_NS)
            .chain(SweepObs::BATTERY_LEVEL_NS)
        {
            registry
                .histogram(level)
                .record(next(&mut sentinels) * 1_000_000);
        }
        // Batch-Φ kernel feed: count and element total are both rendered;
        // one-element batches make them the same sentinel.
        let batch_count = next(&mut sentinels);
        let batch_hist = registry.histogram(SweepObs::BATCH_LEN);
        for _ in 0..batch_count {
            batch_hist.record(1);
        }
        // The work ledger renders every count as itself.
        for name in SweepObs::WORK_ELEMENTS
            .into_iter()
            .chain([SweepObs::WORK_PHI])
        {
            registry.counter(name).add(next(&mut sentinels));
        }
        // Fork overhead histogram: sentinel count of 1 ms forks.
        let fork_count = next(&mut sentinels);
        let fork_hist = registry.histogram(PoolObserver::FORK_NS);
        for _ in 0..fork_count {
            fork_hist.record(1_000_000);
        }
        // A stage's peak resident set renders in MiB with one decimal: a
        // sentinel of S MiB, recorded in KiB, renders as "S.0".
        for st in STAGES {
            registry
                .gauge(&peak_rss_gauge(st))
                .set(next(&mut sentinels) as i64 * 1024);
        }
        // The sample count renders as itself, beside its footprint.
        let samples = next(&mut sentinels);
        registry.counter(TRACE_SAMPLES).add(samples);
        let width = std::mem::size_of::<ThreadSample>();
        sentinels.push(format!("traces: {samples} samples × {width} B"));
        let rendered = render_profile(&registry.snapshot(), 1);
        for s in sentinels {
            assert!(
                rendered.contains(&s),
                "metric with sentinel value {s} missing from rendered profile:\n{rendered}"
            );
        }
    }

    #[test]
    fn clock_oracle_states_every_measure_beside_the_threshold() {
        let line = clock_oracle(&Registry::wall());
        let (head, tail) = line
            .split_once(" ns (median of 10000), resolution ")
            .unwrap();
        let read_ns = head.strip_prefix("clock oracle: read ").unwrap();
        assert!(read_ns.parse::<u64>().is_ok(), "{line}");
        assert!(tail.contains(" ns; sleep error +"), "{line}");
        for request in [" at 0.1 ms, ", " at 1 ms, ", " at 10 ms (median of 5); "] {
            assert!(tail.contains(request), "{line}");
        }
        assert!(line.ends_with("; laggard threshold 1.000 ms"), "{line}");
    }

    #[test]
    fn a_clock_that_never_moves_has_no_resolution() {
        let registry = Registry::with_time(Arc::new(ebird_obs::ManualClock::new()));
        let line = clock_oracle(&registry);
        assert!(line.starts_with("clock oracle: read 0 ns (median of 10000), resolution none;"));
        assert!(line
            .contains("sleep error -0.100 ms at 0.1 ms, -1.000 ms at 1 ms, -10.000 ms at 10 ms"));
    }

    #[test]
    fn effective_parallelism_is_one_at_one_thread_and_unmeasurable_without_a_clock() {
        let line = effective_parallelism(&Registry::wall(), 2);
        let (head, tail) = line.split_once(" at 2 threads ").unwrap();
        assert!(head.starts_with("effective parallelism: 1.00 at 1 thread, "));
        assert_eq!(tail, "(host parallelism 2)");
        let registry = Registry::with_time(Arc::new(ebird_obs::ManualClock::new()));
        assert_eq!(
            effective_parallelism(&registry, 2),
            "effective parallelism: unmeasurable (host parallelism 2)"
        );
    }

    #[test]
    fn render_profile_handles_empty_snapshot() {
        let registry = Arc::new(Registry::wall());
        let rendered = render_profile(&registry.snapshot(), 2);
        assert!(rendered.contains("µs/unit"));
        let width = std::mem::size_of::<ThreadSample>();
        assert!(rendered.contains(&format!("traces: 0 samples × {width} B = 0.0 MiB")));
        assert!(rendered.contains("normality-sweep fast path"));
        assert!(rendered.contains("0 hits / 0 misses (0.0% hit rate)"));
        assert!(rendered.contains("fork/join overhead"));
        assert!(rendered.contains("batch-phi kernel"));
        assert!(rendered.contains(
            "work:\n  sweep gathered: process iteration 0 groups / 0 elements, application iteration 0 groups / 0 elements, application 0 groups / 0 elements (0 elements)\n  sweep weight solves: 0; phi evaluations: 0\n"
        ));
        assert!(rendered.contains("  layers: gather 0.0 ms + sort 0.0 ms + battery 0.0 ms"));
        for layer in ["gather", "sort", "battery"] {
            assert!(rendered.contains(&format!(
                "  {layer} by level: process iteration 0.0 ms / 0 groups, application iteration 0.0 ms / 0 groups, application 0.0 ms / 0 groups"
            )));
        }
        // No peak resident set was recorded: every stage row's `peak MiB`
        // cell (stage, wall, busy, util, µs/unit, peak, …) says so.
        for st in STAGES {
            let row = rendered.lines().find(|l| l.starts_with(st)).unwrap();
            assert_eq!(row.split_whitespace().nth(5), Some("-"), "{row}");
        }
    }

    #[test]
    fn peak_rss_is_vm_hwm_in_kib() {
        let status = "Name:\trepro\nVmPeak:\t  99999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(51_200));
        assert_eq!(vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t  n/a\n"), None);
        // On a host with `/proc`, the reading is the process's own peak.
        if std::path::Path::new("/proc/self/status").exists() {
            let registry = Registry::wall();
            record_peak_rss(&registry, STAGES[0]);
            let kib = registry.snapshot().gauges[&peak_rss_gauge(STAGES[0])];
            assert!(kib > 0, "{kib}");
        }
    }
}
