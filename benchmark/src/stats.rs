//! The harness's own statistics: block split, median over blocks of a
//! per-block statistic, the tail-percentile rule and the bound check. Pure
//! functions over numbers the workload drivers collected; nothing here
//! touches a clock.

/// Blocks a measured window is split into. A metric's reported value is the
/// median over the blocks of the per-block median, so one disturbed block (a
/// host stall, a burst of evictions) moves the result by at most one rank.
pub const BLOCKS: usize = 5;

/// Median of `values` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The block an op belongs to, by when it *started* relative to the window:
/// `offset_s` in `[0, window_s)` maps to `0..blocks`. An op that started a
/// hair past the end (the clock moved between the deadline check and the
/// stamp) lands in the last block.
pub fn block_of(offset_s: f64, window_s: f64, blocks: usize) -> usize {
    if offset_s <= 0.0 || window_s <= 0.0 {
        return 0;
    }
    ((offset_s / window_s * blocks as f64) as usize).min(blocks - 1)
}

/// Splits `(start offset, value)` samples into per-block value lists.
pub fn split_blocks(samples: &[(f64, f64)], window_s: f64, blocks: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); blocks];
    for &(offset_s, value) in samples {
        out[block_of(offset_s, window_s, blocks)].push(value);
    }
    out
}

/// Applies `stat` to every non-empty block and returns the per-block values.
pub fn per_block(blocks: &[Vec<f64>], stat: impl Fn(&[f64]) -> Option<f64>) -> Vec<f64> {
    blocks.iter().filter_map(|b| stat(b)).collect()
}

/// `(max − min) ÷ median` of the per-block values, in percent: the window's
/// own noise, stated beside every result.
pub fn spread_pct(per_block: &[f64]) -> f64 {
    let Some(mid) = median(per_block) else {
        return 0.0;
    };
    let max = per_block.iter().copied().fold(f64::MIN, f64::max);
    let min = per_block.iter().copied().fold(f64::MAX, f64::min);
    if mid > 0.0 {
        (max - min) / mid * 100.0
    } else {
        0.0
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(value, percentile)`; `None` with fewer than eleven samples, where no
/// tail statistic is worth printing.
pub fn hi_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    if values.len() <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - BEYOND - 1;
    Some((v[idx], (idx + 1) as f64 / v.len() as f64 * 100.0))
}

/// Nearest-rank percentile `p` in `(0, 100]`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// By what share of `base` is `new` worse (positive) or better (negative).
/// Every gated metric is a cost: lower is better.
pub fn worse_by(base: f64, new: f64) -> f64 {
    (new - base) / base
}

/// Whether two measurements of the same code agree within `bound`: neither
/// may be worse than the other by more than `bound` of it.
pub fn agree(a: f64, b: f64, bound: f64) -> bool {
    worse_by(a, b) <= bound && worse_by(b, a) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn blocks_split_by_start_offset() {
        // A 25 s window in 5 blocks: boundaries at 5, 10, 15, 20.
        assert_eq!(block_of(0.0, 25.0, 5), 0);
        assert_eq!(block_of(4.999, 25.0, 5), 0);
        assert_eq!(block_of(5.0, 25.0, 5), 1);
        assert_eq!(block_of(24.9, 25.0, 5), 4);
        // Started a hair late: still the last block, never out of range.
        assert_eq!(block_of(25.3, 25.0, 5), 4);
        assert_eq!(block_of(-0.1, 25.0, 5), 0);

        let samples = [(0.5, 1.0), (6.0, 2.0), (7.0, 4.0), (24.0, 9.0)];
        let blocks = split_blocks(&samples, 25.0, 5);
        assert_eq!(
            blocks,
            vec![vec![1.0], vec![2.0, 4.0], vec![], vec![], vec![9.0]]
        );
    }

    #[test]
    fn median_of_block_medians_resists_one_bad_block() {
        // Four quiet blocks around 10 and one disturbed block at 50: the
        // pooled mean moves by 8, the median of block medians not at all.
        let blocks = vec![
            vec![10.0, 10.2, 9.8],
            vec![10.1, 9.9, 10.0],
            vec![50.0, 51.0, 49.0],
            vec![10.0, 10.0, 10.1],
            vec![9.9, 10.0, 10.2],
        ];
        let medians = per_block(&blocks, median);
        assert_eq!(medians, vec![10.0, 10.0, 50.0, 10.0, 10.0]);
        assert_eq!(median(&medians), Some(10.0));
        assert_eq!(spread_pct(&medians), 400.0);
        // Empty blocks are skipped, not counted as zero.
        let sparse = vec![vec![], vec![2.0], vec![], vec![4.0], vec![]];
        assert_eq!(per_block(&sparse, median), vec![2.0, 4.0]);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(hi_percentile(&v), None, "ten samples have no such tail");
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(hi_percentile(&v), Some((1.0, 100.0 / 11.0)));
        // 1000 samples: the 990th value is p99 with exactly ten above it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, pct) = hi_percentile(&v).unwrap();
        assert_eq!((value, pct), (990.0, 99.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn bound_check_is_relative_and_symmetric() {
        // 100 → 109 is 9 % worse, inside a 0.10 bound; 112 is outside.
        assert!((worse_by(100.0, 109.0) - 0.09).abs() < 1e-12);
        assert!(worse_by(100.0, 91.0) < 0.0, "an improvement is negative");
        assert!(agree(100.0, 109.0, 0.10));
        assert!(!agree(100.0, 112.0, 0.10));
        // Whichever run came first, the larger value may not exceed the
        // smaller by more than the bound.
        assert!(!agree(112.0, 100.0, 0.10));
        assert!(agree(100.0, 100.0, 0.0));
    }
}
