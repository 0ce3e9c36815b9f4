//! Sorting of finite `f64` samples.
//!
//! The pipeline's samples are integer nanoseconds, which its stages sort as
//! integers with `slice::sort_unstable` — in place, and bit-identical to any
//! other correct sort, because a sorted integer array is unique. This module
//! serves samples that exist only as floats (the reference sweep, the
//! battery-sensitivity ablation, every order statistic of an unsorted
//! sample): [`sort_floats`] is std's stable `partial_cmp` sort, the one float
//! order of the crate.
//!
//! ## ±0.0 ordering (the one non-trivial tie)
//!
//! `(-0.0).partial_cmp(&0.0)` is `Equal`, so the stable sort keeps
//! `-0.0`/`+0.0` in input order, and [`merge_sorted_with_tmp`]'s `<=` ties
//! them the same way (pinned by proptests).
//!
//! Non-finite values are outside the contract: a NaN panics (callers
//! validate finiteness first, as the battery already does).

/// The scratch [`sort_floats`] takes and ignores: std's sort needs none.
/// Kept only because `benchmark/src/layers.rs` constructs one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SortScratch;

impl SortScratch {
    /// Creates the (empty) scratch.
    pub fn new() -> Self {
        Self
    }
}

/// Sorts `vals` ascending with the stable `partial_cmp` sort.
///
/// # Panics
/// If `vals` holds a NaN.
pub fn sort_floats(vals: &mut [f64], _scratch: &mut SortScratch) {
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
}

/// K-way merges already-sorted `children` into `out` (which must have the
/// combined length), producing the same value sequence a stable sort of the
/// concatenation would: ties break by child index first, then by position
/// within the child.
///
/// No longer on the sweep's path — re-sorting integer keys measured cheaper
/// than merging sorted children. Kept exported because
/// `benchmark/src/layers.rs` times it as `stats.merge_ns_per_elem`; the
/// benchmark change that drops that probe can delete it with it.
///
/// Implemented as ⌈log₂ k⌉ passes of adjacent stable two-way merges
/// (ping-ponging between `out` and the caller-owned `tmp`, resized as
/// needed, contents on entry and exit unspecified) rather than a
/// k-way priority queue: the per-element cost is a handful of predictable
/// float compares and sequential copies instead of heap sifts, which
/// measures several times faster on the sweep's 80–200-child merges.
/// Two-way stable merges composed left-to-right preserve exactly the
/// stable-concatenation order a heap with a child-index tie-break produces.
///
/// # Panics
/// If `out.len()` differs from the children's total length.
pub fn merge_sorted_with_tmp(children: &[&[f64]], out: &mut [f64], tmp: &mut Vec<f64>) {
    let total: usize = children.iter().map(|c| c.len()).sum();
    assert_eq!(out.len(), total, "merge output length mismatch");
    match children.len() {
        0 => return,
        1 => {
            out.copy_from_slice(children[0]);
            return;
        }
        _ => {}
    }
    let passes = {
        let mut runs = children.len();
        let mut p = 0u32;
        while runs > 1 {
            runs = runs.div_ceil(2);
            p += 1;
        }
        p
    };
    if tmp.len() < total {
        tmp.resize(total, 0.0);
    }
    let tmp = &mut tmp[..total];
    // Stage the concatenation so the final pass writes into `out`: each
    // pass flips buffers, so an even pass count starts (and ends) in `out`.
    let (mut cur, mut next): (&mut [f64], &mut [f64]) = if passes % 2 == 0 {
        (out, tmp)
    } else {
        (tmp, out)
    };
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(children.len());
    let mut pos = 0;
    for c in children {
        cur[pos..pos + c.len()].copy_from_slice(c);
        runs.push((pos, pos + c.len()));
        pos += c.len();
    }
    let mut next_runs: Vec<(usize, usize)> = Vec::with_capacity(runs.len().div_ceil(2));
    for _ in 0..passes {
        next_runs.clear();
        for pair in runs.chunks(2) {
            match *pair {
                [(start, end)] => {
                    next[start..end].copy_from_slice(&cur[start..end]);
                    next_runs.push((start, end));
                }
                [(a_start, a_end), (b_start, b_end)] => {
                    debug_assert_eq!(a_end, b_start, "runs must be adjacent");
                    merge_two(
                        &cur[a_start..a_end],
                        &cur[b_start..b_end],
                        &mut next[a_start..b_end],
                    );
                    next_runs.push((a_start, b_end));
                }
                _ => unreachable!("chunks(2) yields one or two runs"),
            }
        }
        std::mem::swap(&mut cur, &mut next);
        std::mem::swap(&mut runs, &mut next_runs);
    }
}

/// Stable two-way merge of sorted `a` then `b` into `dst`; ties take from
/// `a` first, preserving stable-concatenation order.
fn merge_two(a: &[f64], b: &[f64], dst: &mut [f64]) {
    debug_assert_eq!(a.len() + b.len(), dst.len());
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // `<=` keeps the left run first on ties (±0.0 included).
        if a[i] <= b[j] {
            dst[k] = a[i];
            i += 1;
        } else {
            dst[k] = b[j];
            j += 1;
        }
        k += 1;
    }
    dst[k..k + (a.len() - i)].copy_from_slice(&a[i..]);
    dst[k + (a.len() - i)..].copy_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sort(xs: &[f64]) -> Vec<f64> {
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        v
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sort_orders_interesting_values() {
        let vals = [
            f64::NEG_INFINITY.next_up(), // most negative finite
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0,
            7.25,
            1e300,
            f64::MAX,
        ];
        let mut sorted = vals.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(bits(&vals), bits(&sorted), "fixture must be pre-sorted");
        let mut reversed: Vec<f64> = vals.iter().rev().copied().collect();
        sort_floats(&mut reversed, &mut SortScratch::new());
        assert_eq!(bits(&reversed), bits(&vals));
        // The documented tie: ±0.0 keep their input order.
        let mut zeros = [0.0, -0.0];
        sort_floats(&mut zeros, &mut SortScratch::new());
        assert_eq!(bits(&zeros), bits(&[0.0, -0.0]));
    }

    #[test]
    fn sort_matches_reference_on_mixed_signs_and_zeros() {
        let mut scratch = SortScratch::new();
        let mut xs: Vec<f64> = (0..500)
            .map(|i| {
                let v = ((i * 37) % 101) as f64 - 50.0;
                v * 1.7e-3
            })
            .collect();
        xs[17] = -0.0;
        xs[18] = 0.0;
        xs[19] = -0.0;
        let want = reference_sort(&xs);
        sort_floats(&mut xs, &mut scratch);
        assert_eq!(bits(&xs), bits(&want));
    }

    #[test]
    fn short_sort_matches_reference() {
        let mut scratch = SortScratch::new();
        let mut xs = vec![3.0, -0.0, 1.5, 0.0, -2.0, 1.5, -0.0, 9.0];
        let want = reference_sort(&xs);
        sort_floats(&mut xs, &mut scratch);
        assert_eq!(bits(&xs), bits(&want));
    }

    #[test]
    fn sort_matches_reference_across_lengths() {
        let mut scratch = SortScratch::new();
        for n in [0usize, 1, 63, 64, 65, 300, 1000] {
            let mut xs: Vec<f64> = (0..n).map(|i| (((i * 131) % 997) as f64).sin()).collect();
            let want = reference_sort(&xs);
            sort_floats(&mut xs, &mut scratch);
            assert_eq!(bits(&xs), bits(&want), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "finite values compare")]
    fn sort_panics_on_nan() {
        let mut xs = [1.0, f64::NAN, 0.5];
        sort_floats(&mut xs, &mut SortScratch::new());
    }

    #[test]
    fn merge_matches_sort_of_concatenation() {
        let a = reference_sort(&[3.0, 1.0, 2.0, 2.0]);
        let b = reference_sort(&[0.5, 2.0, 9.0]);
        let c: Vec<f64> = vec![];
        let d = reference_sort(&[-1.0, 2.0]);
        let concat: Vec<f64> = [a.clone(), b.clone(), c.clone(), d.clone()].concat();
        let want = reference_sort(&concat);
        let mut out = vec![0.0; concat.len()];
        merge_sorted_with_tmp(&[&a, &b, &c, &d], &mut out, &mut Vec::new());
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_rejects_wrong_output_length() {
        let mut out = vec![0.0; 3];
        merge_sorted_with_tmp(&[&[1.0, 2.0]], &mut out, &mut Vec::new());
    }
}
