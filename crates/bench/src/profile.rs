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
//! the stage's busy time, the sort layer split by level
//! ([`SweepObs::SORT_LEVEL_NS`]), and the [`SweepObs::BATCH_LEN`] batch-Φ feed sizes) and the pool's [`PoolObserver::FORK_NS`] fork/join
//! overhead histogram. Rendering lives in the library
//! so a sentinel test can assert every metric the profile reads actually
//! appears in the output — a silent rendering gap would hide a regression
//! signal. Above the table, [`clock_oracle`] states what the profile's own
//! clock can resolve, beside the paper's 1 ms laggard threshold.

use ebird_analysis::engine::STAGES;
use ebird_analysis::normality::{SweepObs, SWEEP_LEVELS};
use ebird_cluster::calibration::LAGGARD_THRESHOLD_MS;
use ebird_core::ThreadSample;
use ebird_obs::{Registry, Snapshot};
use ebird_runtime::PoolObserver;

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
        "{:<18}{:>12}{:>12}{:>7}{:>10}  per-worker busy ms",
        "stage", "wall ms", "busy ms", "util", "µs/unit"
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
        let _ = writeln!(
            out,
            "{:<18}{:>12.1}{:>12.1}{:>6.0}%{:>10}  {}",
            st,
            ms(wall_ns),
            ms(busy_ns),
            util,
            per_unit,
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
    let by_level: Vec<String> = SWEEP_LEVELS
        .iter()
        .zip(SweepObs::SORT_LEVEL_NS)
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
    let _ = writeln!(out, "  sort by level: {}", by_level.join(", "));
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
        // The per-level sort split renders each level's total the same way.
        for level in SweepObs::SORT_LEVEL_NS {
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
        // Fork overhead histogram: sentinel count of 1 ms forks.
        let fork_count = next(&mut sentinels);
        let fork_hist = registry.histogram(PoolObserver::FORK_NS);
        for _ in 0..fork_count {
            fork_hist.record(1_000_000);
        }
        // The sample count renders as itself, beside its footprint.
        let samples = next(&mut sentinels);
        registry.counter(TRACE_SAMPLES).add(samples);
        sentinels.push(format!("traces: {samples} samples × 8 B"));
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
    fn render_profile_handles_empty_snapshot() {
        let registry = Arc::new(Registry::wall());
        let rendered = render_profile(&registry.snapshot(), 2);
        assert!(rendered.contains("µs/unit"));
        assert!(rendered.contains("traces: 0 samples × 8 B = 0.0 MiB"));
        assert!(rendered.contains("normality-sweep fast path"));
        assert!(rendered.contains("0 hits / 0 misses (0.0% hit rate)"));
        assert!(rendered.contains("fork/join overhead"));
        assert!(rendered.contains("batch-phi kernel"));
        assert!(rendered.contains("  layers: gather 0.0 ms + sort 0.0 ms + battery 0.0 ms"));
        assert!(rendered.contains(
            "  sort by level: process iteration 0.0 ms / 0 groups, application iteration 0.0 ms / 0 groups, application 0.0 ms / 0 groups"
        ));
    }
}
