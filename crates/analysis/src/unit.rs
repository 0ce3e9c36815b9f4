//! One process-iteration, ordered once.
//!
//! Everything the paper derives from a process-iteration — the §4.2 median,
//! idle ratio and reclaimable time, the `max − median` laggard test — is a
//! function of the unit's order statistics. [`UnitOrder::sorted_ms`] builds
//! that ordered view from the integers the trace already holds, and the
//! per-unit kernels ([`classify_unit`](crate::laggard::classify_unit),
//! [`unit_reclaim`](crate::reclaim::unit_reclaim)) read it: the trace scan
//! orders each unit once for both, the reference traversals once for their
//! one.

use ebird_core::sample::ns_to_ms;
use ebird_core::ThreadSample;

/// Reusable buffers for ordering one process-iteration at a time; each
/// grows to one unit's thread count.
#[derive(Default)]
pub(crate) struct UnitOrder {
    keys: Vec<u64>,
    sorted_ms: Vec<f64>,
}

impl UnitOrder {
    /// The unit's compute times in milliseconds, ascending: gathers the
    /// integer nanoseconds, sorts those and converts. [`ns_to_ms`] is
    /// monotone, so the array equals — bit for bit — the one a float sort
    /// of the converted values produces (the argument
    /// [`run_tasks`](crate::normality::run_tasks) makes for the sweep).
    pub(crate) fn sorted_ms(&mut self, samples: &[ThreadSample]) -> &[f64] {
        self.keys.clear();
        self.keys
            .extend(samples.iter().map(ThreadSample::compute_time_ns));
        self.keys.sort_unstable();
        self.sorted_ms.clear();
        self.sorted_ms
            .extend(self.keys.iter().map(|&ns| ns_to_ms(ns)));
        &self.sorted_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laggard::{classify_unit, ArrivalClass};
    use crate::reclaim::unit_reclaim;
    use ebird_stats::percentile::{percentile_of_sorted, PercentileSummary};
    use proptest::prelude::*;

    /// Deterministic `u64` stream (xorshift64*).
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// One unit of `n` threads: `flavor` 0 is millisecond-scale timings on a
    /// microsecond grid (heavy duplication), 1 a handful of distinct values
    /// with zeros among them, 2 the full `u64` range with 0, `u64::MAX` and
    /// values above 2⁵³ (where `u64 → f64` rounds neighbours together).
    fn unit(n: usize, flavor: usize, next: &mut impl FnMut() -> u64) -> Vec<ThreadSample> {
        (0..n)
            .map(|i| {
                let ns = match (flavor, i % 5) {
                    (0, _) => 24_000_000 + (next() % 2_000) * 1_000,
                    (1, _) => (next() % 4) * 1_500_000,
                    (_, 0) => [0, u64::MAX, (1 << 53) + 1, (1 << 53) + 3][(next() % 4) as usize],
                    _ => next(),
                };
                ThreadSample::new(0, ns)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_once_kernels_equal_the_float_sorted_definitions(seed in 0u64..u64::MAX) {
            let mut next = xorshift(seed);
            // One `UnitOrder` across sizes, shrinking and growing.
            let mut order = UnitOrder::default();
            for n in [200usize, 1, 65, 2, 64, 3, 63, 47, 48] {
                for flavor in 0..3 {
                    let samples = unit(n, flavor, &mut next);
                    let threshold_ms = 1.0;
                    let sorted_ms = order.sorted_ms(&samples);
                    let got_class = classify_unit(sorted_ms, threshold_ms);
                    let got_reclaim = unit_reclaim(sorted_ms);

                    // The oracle: the millisecond floats, ordered by the
                    // stable comparison sort the definitions are written on.
                    let ms: Vec<f64> = samples.iter().map(ThreadSample::compute_time_ms).collect();
                    let s = PercentileSummary::from_sample(&ms).expect("finite, non-empty");
                    let magnitude = s.max - s.p50;
                    prop_assert_eq!(
                        got_class.class,
                        if magnitude > threshold_ms { ArrivalClass::Laggard } else { ArrivalClass::NoLaggard }
                    );
                    prop_assert_eq!(got_class.magnitude_ms.to_bits(), magnitude.to_bits());
                    prop_assert_eq!(got_class.median_ms.to_bits(), s.p50.to_bits());
                    prop_assert_eq!(got_class.iqr_ms.to_bits(), (s.p75 - s.p25).to_bits());

                    let mut sorted = ms.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let max = sorted[n - 1];
                    let idle: f64 = sorted.iter().map(|&t| max - t).sum();
                    let ratio = if max > 0.0 { idle / (max * n as f64) } else { 0.0 };
                    prop_assert_eq!(got_reclaim.idle_ms.to_bits(), idle.to_bits(), "n = {}, flavor {}", n, flavor);
                    prop_assert_eq!(got_reclaim.ratio.to_bits(), ratio.to_bits());
                    prop_assert_eq!(
                        got_reclaim.median_ms.to_bits(),
                        percentile_of_sorted(&sorted, 50.0).to_bits()
                    );
                    prop_assert_eq!(got_reclaim.max_ms.to_bits(), max.to_bits());
                }
            }
        }
    }
}
