//! Laggard census and arrival-distribution classification.
//!
//! The paper calls a process-iteration *laggard-containing* when the latest
//! thread arrives more than 1 ms after the median thread ("approximately 5%
//! slower than the mean median thread"). Figures 5 and 7 typify the classes;
//! this module finds the class of every process-iteration and picks
//! representative exemplars for the histogram figures.
//!
//! The class is a function of the unit's order statistics (median,
//! quartiles, maximum), so the per-unit kernel takes the unit's compute
//! times already in ascending order — built once per unit from the trace's
//! integer nanoseconds (`crate::unit`) — and sorts nothing itself.
//!
//! A census is in trace order, so a record does not repeat where it came
//! from: unit `i`'s `(trial, rank, iteration)` is
//! [`LaggardCensus::coords`]`(i)`, read off the census's [`TraceShape`].

use ebird_core::{TimingTrace, TraceShape};
use ebird_stats::percentile::PercentileSummary;
use serde::{Deserialize, Serialize};

use crate::unit::UnitOrder;

/// Class of one process-iteration's arrival distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArrivalClass {
    /// `max − median ≤ threshold`: the tight, laggard-free pattern
    /// (Figures 5a, 7b).
    NoLaggard,
    /// `max − median > threshold`: a clear laggard thread (Figures 5b, 7c).
    Laggard,
}

/// One classified process-iteration; its coordinates are its position in
/// the census ([`LaggardCensus::coords`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedIteration {
    /// Assigned class.
    pub class: ArrivalClass,
    /// `max − median` (ms), the laggard magnitude.
    pub magnitude_ms: f64,
    /// Median arrival (ms).
    pub median_ms: f64,
    /// IQR (ms).
    pub iqr_ms: f64,
}

/// Census of all process-iterations of a trace. Not deserializable: the
/// coordinates of its records come from `shape`, so only a census built from
/// a trace — one record per unit, in trace order — can name them.
#[derive(Debug, Clone, Serialize)]
pub struct LaggardCensus {
    /// Threshold used (paper: 1 ms).
    pub threshold_ms: f64,
    /// Shape of the classified trace.
    pub shape: TraceShape,
    /// Every process-iteration, classified, in trace order.
    pub iterations: Vec<ClassifiedIteration>,
}

impl LaggardCensus {
    /// `(trial, rank, iteration)` of record `unit`.
    pub fn coords(&self, unit: usize) -> (usize, usize, usize) {
        self.shape.unit_coords(unit)
    }

    /// Fraction of process-iterations containing a laggard.
    pub fn laggard_rate(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        let n = self
            .iterations
            .iter()
            .filter(|c| c.class == ArrivalClass::Laggard)
            .count();
        n as f64 / self.iterations.len() as f64
    }

    /// Laggard rate restricted to iterations `from..`, for phase-split apps
    /// (the paper's MiniMD 4.8% covers the steady-state section).
    pub fn laggard_rate_from(&self, from_iteration: usize) -> f64 {
        let (mut total, mut laggards) = (0usize, 0usize);
        for (_, c) in self.units_from(from_iteration) {
            total += 1;
            laggards += usize::from(c.class == ArrivalClass::Laggard);
        }
        if total == 0 {
            return 0.0;
        }
        laggards as f64 / total as f64
    }

    /// Mean of per-iteration medians (the paper's "mean median thread
    /// arrival time").
    pub fn mean_median_ms(&self) -> f64 {
        if self.iterations.is_empty() {
            return f64::NAN;
        }
        self.iterations.iter().map(|c| c.median_ms).sum::<f64>() / self.iterations.len() as f64
    }

    /// A representative exemplar of `class` with its unit index: the
    /// iteration whose laggard magnitude is the class median (avoids
    /// cherry-picking extremes), optionally restricted to iterations
    /// ≥ `from_iteration`.
    pub fn exemplar(
        &self,
        class: ArrivalClass,
        from_iteration: usize,
    ) -> Option<(usize, &ClassifiedIteration)> {
        let mut members: Vec<(usize, &ClassifiedIteration)> = self
            .units_from(from_iteration)
            .filter(|(_, c)| c.class == class)
            .collect();
        if members.is_empty() {
            return None;
        }
        members
            .sort_by(|(_, a), (_, b)| a.magnitude_ms.partial_cmp(&b.magnitude_ms).expect("finite"));
        Some(members[members.len() / 2])
    }

    /// The records of iterations ≥ `from_iteration`, with their unit
    /// indices, in trace order.
    fn units_from(
        &self,
        from_iteration: usize,
    ) -> impl Iterator<Item = (usize, &ClassifiedIteration)> {
        let iterations = self.shape.iterations;
        self.iterations
            .iter()
            .enumerate()
            .filter(move |(unit, _)| unit % iterations >= from_iteration)
    }
}

/// Classifies one process-iteration from its compute times in ascending
/// order ([`UnitOrder::sorted_ms`]): the per-unit kernel shared by the
/// reference census and the trace scan (outcomes are bit-identical by
/// construction).
pub(crate) fn classify_unit(sorted_ms: &[f64], threshold_ms: f64) -> ClassifiedIteration {
    let s = PercentileSummary::from_sorted(sorted_ms);
    let magnitude = s.max - s.p50;
    ClassifiedIteration {
        class: if magnitude > threshold_ms {
            ArrivalClass::Laggard
        } else {
            ArrivalClass::NoLaggard
        },
        magnitude_ms: magnitude,
        median_ms: s.p50,
        iqr_ms: s.iqr(),
    }
}

/// Classifies every process-iteration of `trace` at `threshold_ms` — the
/// reference implementation; production goes through
/// [`trace_scan_parallel_with_arenas`](crate::scan::trace_scan_parallel_with_arenas),
/// whose `census` the bit-identity tests compare against this.
pub fn laggard_census(trace: &TimingTrace, threshold_ms: f64) -> LaggardCensus {
    assert!(threshold_ms > 0.0, "threshold must be positive");
    let shape = trace.shape();
    let mut order = UnitOrder::default();
    // Unit `u`'s samples are the `u`-th `threads`-long run of the trace.
    let iterations = trace
        .samples()
        .chunks(shape.threads)
        .map(|samples| classify_unit(order.sorted_ms(samples), threshold_ms))
        .collect();
    LaggardCensus {
        threshold_ms,
        shape,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_core::{SampleIndex, ThreadSample};

    /// Trace where iterations with odd index have a +3 ms laggard on thread 0.
    fn half_laggard_trace() -> TimingTrace {
        TimingTrace::from_fn(
            "t",
            TraceShape::new(1, 1, 10, 8).unwrap(),
            |SampleIndex {
                 iteration, thread, ..
             }| {
                let base_ms = 10.0 + thread as f64 * 0.01;
                let ms = if iteration % 2 == 1 && thread == 0 {
                    base_ms + 3.0
                } else {
                    base_ms
                };
                ThreadSample::new(0, (ms * 1e6) as u64)
            },
        )
    }

    #[test]
    fn census_counts_laggards_exactly() {
        let tr = half_laggard_trace();
        let census = laggard_census(&tr, 1.0);
        assert_eq!(census.iterations.len(), 10);
        assert!((census.laggard_rate() - 0.5).abs() < 1e-12);
        for (unit, c) in census.iterations.iter().enumerate() {
            let (_, _, iteration) = census.coords(unit);
            let expect = if iteration % 2 == 1 {
                ArrivalClass::Laggard
            } else {
                ArrivalClass::NoLaggard
            };
            assert_eq!(c.class, expect, "iteration {iteration}");
        }
    }

    #[test]
    fn magnitudes_and_medians_are_computed() {
        let tr = half_laggard_trace();
        let census = laggard_census(&tr, 1.0);
        let laggard = census
            .iterations
            .iter()
            .find(|c| c.class == ArrivalClass::Laggard)
            .unwrap();
        assert!(
            (laggard.magnitude_ms - 2.965).abs() < 0.01,
            "{}",
            laggard.magnitude_ms
        );
        assert!((laggard.median_ms - 10.035).abs() < 0.01);
        let calm = census
            .iterations
            .iter()
            .find(|c| c.class == ArrivalClass::NoLaggard)
            .unwrap();
        assert!(calm.magnitude_ms < 0.1);
        assert!((census.mean_median_ms() - 10.035).abs() < 0.01);
    }

    #[test]
    fn rate_from_restricts_range() {
        let tr = half_laggard_trace();
        let census = laggard_census(&tr, 1.0);
        // Iterations 5.. = {5,6,7,8,9}: three odd (5,7,9).
        assert!((census.laggard_rate_from(5) - 0.6).abs() < 1e-12);
        assert_eq!(census.laggard_rate_from(10), 0.0, "empty range");
    }

    #[test]
    fn exemplar_prefers_median_magnitude() {
        let tr = half_laggard_trace();
        let census = laggard_census(&tr, 1.0);
        let (unit, e) = census.exemplar(ArrivalClass::Laggard, 0).unwrap();
        assert_eq!(e.class, ArrivalClass::Laggard);
        assert!(census.exemplar(ArrivalClass::Laggard, 10).is_none());
        let (calm_unit, calm) = census.exemplar(ArrivalClass::NoLaggard, 0).unwrap();
        assert_eq!(calm.class, ArrivalClass::NoLaggard);
        // Every member of a class has the same magnitude here, so the
        // stable sort keeps trace order and the middle member wins — the
        // coordinates the census named when each record carried its own.
        assert_eq!(census.coords(unit), (0, 0, 5));
        assert_eq!(census.coords(calm_unit), (0, 0, 4));
        let from = |class| census.exemplar(class, 6).map(|(u, _)| census.coords(u));
        assert_eq!(from(ArrivalClass::Laggard), Some((0, 0, 9)));
        assert_eq!(from(ArrivalClass::NoLaggard), Some((0, 0, 8)));
    }

    #[test]
    fn a_census_row_is_its_class_and_three_millisecond_figures() {
        // 48 000 rows per paper-scale trace: the coordinates live in the
        // census's shape, not in every row.
        assert_eq!(std::mem::size_of::<ClassifiedIteration>(), 32);
    }

    #[test]
    fn threshold_sensitivity() {
        let tr = half_laggard_trace();
        // Thread spread is 0.07 ms (max − median = 0.035); a 0.03 threshold
        // flags everything.
        let tight = laggard_census(&tr, 0.03);
        assert_eq!(tight.laggard_rate(), 1.0);
        // A 5 ms threshold flags nothing.
        let loose = laggard_census(&tr, 5.0);
        assert_eq!(loose.laggard_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_nonpositive_threshold() {
        laggard_census(&half_laggard_trace(), 0.0);
    }
}
