//! Plain-text and CSV rendering of the paper's artifacts.
//!
//! The `repro` binary prints these tables; integration tests parse them back
//! to pin the format. Rendering is deliberately dependency-free (no plotting
//! stack): each figure exports `(x, y)` rows that any plotting tool can
//! consume, plus an ASCII sketch for terminal inspection.

use std::fmt::Write as _;

use ebird_partcomm::{DeliveryOutcome, Strategy};
use ebird_stats::percentile::{median, PercentileSummary};
use serde::Serialize;

use crate::figures::FigureHistogram;
use crate::laggard::{ArrivalClass, LaggardCensus};
use crate::normality::Table1;
use crate::reclaim::ReclaimMetrics;

/// Renders Table 1 in the paper's layout (tests × applications, pass
/// percentages).
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: process-iteration normality pass rates (alpha = {:.0}%)",
        t.alpha * 100.0
    );
    let _ = write!(out, "{:<18}", "Test");
    for (app, _) in &t.rows {
        let _ = write!(out, "{app:>12}");
    }
    let _ = writeln!(out);
    for (i, test_name) in ["D'Agostino", "Shapiro-Wilk", "Anderson-Darling"]
        .iter()
        .enumerate()
    {
        let _ = write!(out, "{test_name:<18}");
        for (_, pct) in &t.rows {
            let _ = write!(out, "{:>11.1}%", pct[i]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the §4.2 metric block for one application, paper value alongside.
pub fn render_metrics(
    app: &str,
    measured: &ReclaimMetrics,
    paper_reclaim_ms: f64,
    paper_idle_ratio: f64,
    paper_median_ms: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{app} §4.2 metrics (measured vs paper):");
    let _ = writeln!(
        out,
        "  mean median arrival   {:>10.2} ms   (paper {paper_median_ms:.2} ms)",
        measured.mean_median_ms
    );
    let _ = writeln!(
        out,
        "  avg reclaimable time  {:>10.2} ms   (paper {paper_reclaim_ms:.2} ms)",
        measured.avg_reclaimable_ms
    );
    let _ = writeln!(
        out,
        "  ratio of idle time    {:>10.4}      (paper {paper_idle_ratio:.4})",
        measured.idle_ratio
    );
    let _ = writeln!(
        out,
        "  mean max arrival      {:>10.2} ms   over {} process-iterations",
        measured.mean_max_ms, measured.iterations
    );
    out
}

/// Renders one application × link block of the early-bird feasibility table
/// from the delivery sweep's per-process-iteration outcome rows
/// ([`delivery_sweep_parallel_with_arenas`](crate::engine::delivery_sweep_parallel_with_arenas))
/// and the trace scan's census of the same trace (both in trace order, so
/// they zip). Process-iterations before `from_iteration` are left out (an
/// application's start-up phase).
///
/// One row per strategy the sweep priced, labelled from `strategies` — what
/// it priced, in the outcome rows' order: the sweep's
/// [`canonical_strategies`](crate::engine::canonical_strategies) for the
/// trace's thread count. Each row gives the median exposed cost and median
/// message count over the process-iterations, then how many of them that
/// strategy made *cheaper than bulk* (its exposed cost below bulk's on
/// the same arrivals) — over all of them, over the laggard-containing ones
/// and over the laggard-free ones, each as `share% (wins/units)`. With no
/// process-iteration at or after `from_iteration` the block is its head
/// line alone.
///
/// # Panics
/// If `outcomes` and `census` do not cover the same process-iterations.
pub fn render_earlybird(
    app: &str,
    link: &str,
    strategies: [Strategy; 4],
    outcomes: &[[DeliveryOutcome; 4]],
    census: &LaggardCensus,
    from_iteration: usize,
) -> String {
    assert_eq!(
        outcomes.len(),
        census.iterations.len(),
        "one outcome row per classified process-iteration"
    );
    let units: Vec<(&[DeliveryOutcome; 4], bool)> = outcomes
        .iter()
        .zip(&census.iterations)
        .enumerate()
        .filter(|&(unit, _)| census.coords(unit).2 >= from_iteration)
        .map(|(_, (row, c))| (row, c.class == ArrivalClass::Laggard))
        .collect();
    let laggard_units = units.iter().filter(|(_, laggard)| *laggard).count();
    let calm_units = units.len() - laggard_units;
    let share = |wins: usize, of: usize| {
        if of == 0 {
            return "     - (0/0)".to_string();
        }
        format!("{:>5.1}% ({wins}/{of})", 100.0 * wins as f64 / of as f64)
    };
    let mut out = String::new();
    let _ = write!(out, "  {app} over {link}");
    if from_iteration > 0 {
        let _ = write!(out, ", iterations ≥ {from_iteration}");
    }
    let _ = writeln!(
        out,
        ": {} process-iterations ({laggard_units} laggard-containing, {calm_units} laggard-free)",
        units.len()
    );
    if units.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "    {:<18}{:>17}{:>13}   {:<22}{:<22}laggard-free",
        "strategy", "median exposed ms", "median msgs", "cheaper than bulk", "with a laggard"
    );
    for (s, strategy) in strategies.iter().enumerate() {
        let (mut wins, mut laggard_wins) = (0, 0);
        for (row, laggard) in &units {
            if row[s].exposed_ms() < row[0].exposed_ms() {
                wins += 1;
                laggard_wins += usize::from(*laggard);
            }
        }
        let exposed: Vec<f64> = units.iter().map(|(row, _)| row[s].exposed_ms()).collect();
        let messages: Vec<f64> = units
            .iter()
            .map(|(row, _)| row[s].messages as f64)
            .collect();
        let _ = writeln!(
            out,
            "    {:<18}{:>17.4}{:>13.1}   {:<22}{:<22}{}",
            strategy.label(),
            median(&exposed).expect("units is non-empty and outcomes are finite"),
            median(&messages).expect("units is non-empty"),
            share(wins, units.len()),
            share(laggard_wins, laggard_units),
            share(wins - laggard_wins, calm_units),
        );
    }
    out
}

/// Serializes one row as a single JSON line (no trailing newline) — the
/// streaming unit of the scenario table format. The campaign service emits
/// exactly this per completed cell, so a streamed table is byte-identical to
/// a batch [`json_lines`] render of the same rows.
pub fn json_line<T: Serialize>(row: &T) -> Result<String, serde_json::Error> {
    serde_json::to_string(row)
}

/// Serializes `rows` as JSON Lines — one JSON object per line, the scenario
/// campaign's machine-readable table format (each line is independently
/// parseable, so tables stream and concatenate).
pub fn json_lines<T: Serialize>(rows: &[T]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for row in rows {
        row.write_json(&mut out);
        out.push('\n');
    }
    Ok(out)
}

/// CSV rows of a percentile series (Figures 4/6/8):
/// `iteration,p5,p25,p50,p75,p95`.
pub fn percentile_series_csv(series: &[PercentileSummary]) -> String {
    let mut out = String::from("iteration,p5,p25,p50,p75,p95\n");
    for (i, s) in series.iter().enumerate() {
        let _ = writeln!(
            out,
            "{i},{:.6},{:.6},{:.6},{:.6},{:.6}",
            s.p5, s.p25, s.p50, s.p75, s.p95
        );
    }
    out
}

/// CSV rows of a figure histogram: `bin_center_ms,count`.
pub fn histogram_csv(fig: &FigureHistogram) -> String {
    let mut out = String::from("bin_center_ms,count\n");
    for (center, count) in fig.histogram.rows() {
        if count > 0 {
            let _ = writeln!(out, "{center:.6},{count}");
        }
    }
    out
}

/// Terminal rendering of a figure histogram: header plus ASCII bars.
pub fn render_histogram(fig: &FigureHistogram, bar_width: usize) -> String {
    let mut out = String::new();
    let prov = match fig.provenance {
        Some((t, r, i)) => format!(" (trial {t}, rank {r}, iteration {i})"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "{} — {}{} [bin {} µs, n = {}]",
        fig.label,
        fig.app,
        prov,
        fig.histogram.spec().width * 1000.0,
        fig.histogram.total()
    );
    out.push_str(&fig.histogram.render_ascii(bar_width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig3;
    use ebird_core::{SampleIndex, ThreadSample, TimingTrace, TraceShape};

    fn trace() -> TimingTrace {
        TimingTrace::from_fn(
            "MiniFE",
            TraceShape::new(1, 1, 4, 8).unwrap(),
            |SampleIndex { thread, .. }| {
                ThreadSample::new(0, ((10.0 + thread as f64 * 0.01) * 1e6) as u64)
            },
        )
    }

    #[test]
    fn table1_renders_all_rows_and_columns() {
        let t = Table1 {
            alpha: 0.05,
            rows: vec![
                ("MiniFE".into(), [3.0, 0.5, 0.8]),
                ("MiniMD".into(), [77.0, 74.0, 76.0]),
            ],
        };
        let s = render_table1(&t);
        assert!(s.contains("D'Agostino"));
        assert!(s.contains("Shapiro-Wilk"));
        assert!(s.contains("Anderson-Darling"));
        assert!(s.contains("MiniFE"));
        assert!(s.contains("77.0%"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn metrics_block_contains_both_measured_and_paper() {
        let m = ReclaimMetrics {
            avg_reclaimable_ms: 12.3,
            idle_ratio: 0.041,
            mean_median_ms: 26.1,
            mean_max_ms: 27.0,
            iterations: 100,
        };
        let s = render_metrics("MiniFE", &m, 42.82, 0.1928, 26.30);
        assert!(s.contains("12.30 ms"));
        assert!(s.contains("paper 42.82 ms"));
        assert!(s.contains("0.0410"));
        assert!(s.contains("paper 0.1928"));
        assert!(s.contains("100 process-iterations"));
    }

    #[test]
    fn earlybird_block_counts_what_a_hand_count_does() {
        use crate::engine::{
            canonical_strategies, delivery_sweep_parallel_with_arenas, EngineArenas,
        };
        use crate::scan::trace_scan_parallel_with_arenas;
        use ebird_partcomm::{LinkModel, SerialLink};
        use ebird_runtime::Pool;

        // 1 × 2 × 5 × 16: every thread arrives at 10 ms, except that in four
        // (rank, iteration) units thread 3 is a laggard at 20 ms. One of the
        // four sits in iteration 0, which `from_iteration = 1` leaves out.
        const LAGGARDS: [(usize, usize); 4] = [(0, 0), (0, 2), (1, 1), (1, 4)];
        let tr = TimingTrace::from_fn(
            "handmade",
            TraceShape::new(1, 2, 5, 16).unwrap(),
            |SampleIndex {
                 rank,
                 iteration,
                 thread,
                 ..
             }| {
                let late = thread == 3 && LAGGARDS.contains(&(rank, iteration));
                ThreadSample::new(0, if late { 20_000_000 } else { 10_000_000 })
            },
        );
        // 100 kB partitions over α = 50 µs, 1 GB/s: bulk exposes 1.65 ms. On
        // identical arrivals early-bird and the bins serialize 16 and 4
        // start-ups behind the last arrival (2.4 and 1.8 ms) and the 1 ms
        // flush *is* bulk, so nothing beats bulk; behind a 10 ms laggard
        // every strategy has long drained the rest and exposes only the
        // laggard's message. Hence each non-bulk strategy wins exactly the
        // laggard units.
        let link = LinkModel::high_latency();
        let pool = Pool::new(2);
        let mut arenas = EngineArenas::new(2);
        let census = trace_scan_parallel_with_arenas(&tr, 1.0, &pool, &mut arenas).census;
        let outcomes = delivery_sweep_parallel_with_arenas(
            &tr,
            1_600_000,
            || SerialLink::new(link),
            &pool,
            &mut arenas,
        );
        let strategies = canonical_strategies(16);

        fn row<'a>(block: &'a str, label: &str) -> &'a str {
            block
                .lines()
                .find(|l| l.trim_start().starts_with(label))
                .unwrap_or_else(|| panic!("no `{label}` row in:\n{block}"))
        }
        // Every `(wins/units)` pair on a row, left to right.
        fn shares(row: &str) -> Vec<(usize, usize)> {
            row.split('(')
                .skip(1)
                .filter_map(|part| part.split_once(')')?.0.split_once('/'))
                .filter_map(|(wins, of)| Some((wins.parse().ok()?, of.parse().ok()?)))
                .collect()
        }
        for (from, laggards, units) in [(1, 3, 8), (0, 4, 10)] {
            let block = render_earlybird(
                "handmade",
                "high-latency",
                strategies,
                &outcomes,
                &census,
                from,
            );
            assert_eq!(block.lines().count(), 2 + 4, "{block}");
            let head = block.lines().next().unwrap();
            assert!(
                head.contains(&format!("{units} process-iterations")),
                "{head}"
            );
            assert!(
                head.contains(&format!("{laggards} laggard-containing")),
                "{head}"
            );
            assert_eq!(head.contains("iterations ≥ 1"), from == 1, "{head}");
            for strategy in strategies {
                let label = strategy.label();
                let [overall, laggard, calm] = shares(row(&block, &label))[..] else {
                    panic!("three shares on the `{label}` row of:\n{block}");
                };
                let wins = if label == "bulk" { 0 } else { laggards };
                assert_eq!(overall, (wins, units), "{label}, from {from}");
                assert_eq!(laggard, (wins, laggards), "{label}, from {from}");
                assert_eq!(calm, (0, units - laggards), "{label}, from {from}");
                // The two classes partition the overall column.
                assert_eq!(overall.0, laggard.0 + calm.0);
                assert_eq!(overall.1, laggard.1 + calm.1);
            }
            // Medians: most units are calm, so early-bird's median exposes
            // its 16 serialized start-ups and bulk's the whole buffer.
            let (bulk, early) = (row(&block, "bulk"), row(&block, "early-bird"));
            assert!(
                bulk.contains(" 1.6500 ") && bulk.contains(" 1.0 "),
                "{bulk}"
            );
            assert!(
                early.contains(" 2.4000 ") && early.contains(" 16.0 "),
                "{early}"
            );
        }
        let from_1 = render_earlybird(
            "handmade",
            "high-latency",
            strategies,
            &outcomes,
            &census,
            1,
        );
        assert!(from_1.contains(" 37.5% (3/8)") && from_1.contains("100.0% (3/3)"));
        assert!(from_1.contains("  0.0% (0/5)"), "{from_1}");
    }

    #[test]
    fn json_lines_one_object_per_row() {
        #[derive(Serialize)]
        struct Row {
            app: String,
            ranks: usize,
            completion_ms: f64,
        }
        let rows = vec![
            Row {
                app: "MiniFE".into(),
                ranks: 1,
                completion_ms: 1.5,
            },
            Row {
                app: "MiniMD".into(),
                ranks: 8,
                completion_ms: 2.25,
            },
        ];
        let s = json_lines(&rows).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"MiniFE\"") && lines[0].starts_with('{'));
        assert!(lines[1].contains("\"ranks\":8"), "{}", lines[1]);
    }

    #[test]
    fn percentile_csv_shape() {
        let series = vec![
            PercentileSummary::from_sample(&[1.0, 2.0, 3.0, 4.0]).unwrap(),
            PercentileSummary::from_sample(&[2.0, 3.0, 4.0, 5.0]).unwrap(),
        ];
        let csv = percentile_series_csv(&series);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "iteration,p5,p25,p50,p75,p95");
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].starts_with("1,"));
        assert_eq!(lines[1].split(',').count(), 6);
    }

    #[test]
    fn histogram_csv_skips_empty_bins() {
        let tr = trace();
        let f = fig3(&tr, "fig3a");
        let csv = histogram_csv(&f);
        let data_lines = csv.lines().count() - 1;
        assert!(data_lines >= 1);
        // Total mass in CSV equals sample count.
        let total: u64 = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn histogram_render_includes_header() {
        let tr = trace();
        let f = fig3(&tr, "fig3a");
        let s = render_histogram(&f, 20);
        assert!(s.contains("fig3a — MiniFE"));
        assert!(s.contains("bin 10 µs"));
        assert!(s.contains("n = 32"));
    }
}
