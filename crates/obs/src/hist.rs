//! Fixed-bucket log2 latency histograms.
//!
//! A value lands in the bucket indexed by its bit width: bucket 0 holds the
//! value 0, bucket `i` (`i ≥ 1`) holds `[2^(i-1), 2^i - 1]`. With 64-bit
//! values that is 65 buckets — small enough to ship over the
//! wire whole, coarse enough (powers of two) that bucket placement is
//! host-independent.
//!
//! Quantiles are estimated from bucket edges: [`HistogramSnapshot::quantile_bounds`]
//! returns the edges of the bucket containing the rank-`⌈q·n⌉` value, which
//! provably bracket the true order statistic; the point estimate is the
//! bucket midpoint.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one per possible bit width of a `u64` (0..=64).
const BUCKETS: usize = 65;

/// Bucket index of a value: its bit width.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower edge of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper edge of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A concurrent log2 histogram. `record` is lock-free (relaxed atomics);
/// `snapshot` reads a consistent-enough view for reporting (each bucket is
/// individually exact; cross-bucket skew is bounded by in-flight records).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable histogram state: comparable and walkable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; BUCKETS],
    sum: u64,
}

impl HistogramSnapshot {
    /// The empty snapshot.
    pub fn empty() -> Self {
        Self {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Sum of all recorded values (saturating).
    pub fn total(&self) -> u64 {
        self.sum
    }

    /// Bucket edges `(lower, upper)` that provably bracket the true
    /// `q`-quantile (the rank-`⌈q·n⌉` order statistic, rank clamped to
    /// `[1, n]`). Returns `(0, 0)` for an empty snapshot.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        let n = self.count();
        if n == 0 {
            return (0, 0);
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= rank {
                return (bucket_lower(i), bucket_upper(i));
            }
        }
        // Unreachable: cumulative reaches n ≥ rank by the last bucket.
        (bucket_lower(BUCKETS - 1), bucket_upper(BUCKETS - 1))
    }

    /// Midpoint of [`Self::quantile_bounds`] — the point estimate reported
    /// over the wire. Always within the bounds.
    pub fn quantile_estimate(&self, q: f64) -> u64 {
        let (lo, hi) = self.quantile_bounds(q);
        lo + (hi - lo) / 2
    }

    /// Non-empty buckets as `(upper_edge, count)`, in value order — the
    /// wire form (empty buckets carry no information).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_width() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_edges_tile_the_domain() {
        assert_eq!((bucket_lower(0), bucket_upper(0)), (0, 0));
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1).saturating_add(1));
            assert!(bucket_lower(i) <= bucket_upper(i));
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_quantiles_roundtrip() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 100, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 7);
        assert_eq!(s.total(), 1 + 2 + 3 + 300 + 5000);
        let (lo, hi) = s.quantile_bounds(0.5);
        assert!(lo <= 100 && 100 <= hi, "median bucket must contain 100");
        let est = s.quantile_estimate(0.5);
        assert!(lo <= est && est <= hi);
    }
}
