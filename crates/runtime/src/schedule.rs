//! The default static loop schedule of OpenMP's `omp for`.
//!
//! The paper's applications all use the *default static schedule*, whose
//! integer-division imbalance is load-bearing for the analysis: MiniFE's
//! outer loop distributes 200 planes over 48 threads, so 8 threads receive
//! ⌈200/48⌉ = 5 planes and 40 receive 4 — the mechanism behind its
//! "early arrival significantly more common than late arrival" observation
//! (Section 4.2.1). [`static_block`] implements the libgomp rule exactly.

use std::ops::Range;

/// The contiguous iteration block thread `t` of `p` executes for a loop of
/// `n` iterations under the default static schedule (libgomp rule: the first
/// `n mod p` threads get `⌈n/p⌉` iterations, the rest `⌊n/p⌋`).
pub fn static_block(n: usize, p: usize, t: usize) -> Range<usize> {
    assert!(p > 0, "need at least one thread");
    assert!(t < p, "thread index {t} out of range for {p} threads");
    let q = n / p;
    let r = n % p;
    if t < r {
        let start = t * (q + 1);
        start..start + q + 1
    } else {
        let start = r * (q + 1) + (t - r) * q;
        start..start + q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_block_partitions_exactly() {
        for (n, p) in [(200, 48), (7, 3), (48, 48), (3, 8), (0, 4), (1000, 7)] {
            let mut covered = vec![false; n];
            let mut total = 0;
            for t in 0..p {
                let r = static_block(n, p, t);
                total += r.len();
                for i in r {
                    assert!(!covered[i], "iteration {i} assigned twice");
                    covered[i] = true;
                }
            }
            assert_eq!(total, n, "n={n}, p={p}");
            assert!(covered.iter().all(|&c| c));
        }
    }

    #[test]
    fn minife_200_over_48_split() {
        // The paper's MiniFE case: 8 threads get 5 planes, 40 get 4.
        let sizes: Vec<usize> = (0..48).map(|t| static_block(200, 48, t).len()).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 5).count(), 8);
        assert_eq!(sizes.iter().filter(|&&s| s == 4).count(), 40);
        // The long blocks are the *first* threads (libgomp rule).
        assert_eq!(sizes[0], 5);
        assert_eq!(sizes[7], 5);
        assert_eq!(sizes[8], 4);
    }

    #[test]
    fn static_block_is_contiguous_and_ordered() {
        let mut prev_end = 0;
        for t in 0..5 {
            let r = static_block(17, 5, t);
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
        }
        assert_eq!(prev_end, 17);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn static_block_rejects_bad_thread() {
        static_block(10, 4, 4);
    }
}
