//! Cache-friendly sorting of finite `f64` samples.
//!
//! The pipeline's samples are integer nanoseconds, which its stages sort as
//! integers with `slice::sort_unstable` — in place, and bit-identical to any
//! other correct sort, because a sorted integer array is unique. This module
//! serves samples that exist only as floats (the reference sweep, the
//! battery-sensitivity ablation), where a comparison sort would pay a
//! branch-mispredicting `partial_cmp` per comparison.
//! Finite doubles admit a **monotone fixed-width key**: flip the sign bit for
//! positives and all bits for negatives, and unsigned `u64` order equals
//! numeric order ([`f64_total_key`]). [`sort_floats`] exploits that with an
//! LSD radix sort — branch-free, O(n) passes, scratch buffers reused across
//! groups — falling back to a stable insertion sort below
//! [`RADIX_THRESHOLD`] where per-pass histogram setup would dominate.
//!
//! ## ±0.0 ordering (the one non-trivial tie)
//!
//! `(-0.0).partial_cmp(&0.0)` is `Equal`, so the `slice::sort_by` baseline —
//! a *stable* sort — keeps `-0.0`/`+0.0` in input order. A naive sign-flip
//! key instead orders `-0.0 < +0.0`. We therefore canonicalize `-0.0` to
//! `+0.0` **in the key only** (the payload keeps its original bits); LSD
//! radix scatter is stable, so equal-key runs stay in input order and the
//! output is bit-for-bit identical to the stable comparison sort for every
//! finite input — duplicates, signed zeros and subnormals included (pinned
//! by proptests).
//!
//! Non-finite values are outside the contract: keys for NaN/∞ are
//! unspecified (callers validate finiteness first, as the battery already
//! does).

/// Below this length radix setup (256-counter histograms per digit) costs
/// more than it saves, and [`sort_floats`] runs a stable insertion sort
/// instead.
const RADIX_THRESHOLD: usize = 64;

/// Monotone `u64` key for a finite `f64`: unsigned key order == numeric
/// order, with `-0.0` canonicalized to `+0.0` so the two zeros tie exactly
/// like `partial_cmp` says they do.
#[inline]
pub fn f64_total_key(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Reusable radix-sort buffers: key array, ping-pong copies and the per-digit
/// histograms. One scratch per worker makes group sorting allocation-free
/// after warm-up.
#[derive(Debug, Clone, Default)]
pub struct SortScratch {
    keys: Vec<u64>,
    tmp_keys: Vec<u64>,
    tmp_vals: Vec<f64>,
}

impl SortScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sorts `vals` ascending, bit-for-bit identical to
/// `vals.sort_by(|a, b| a.partial_cmp(b).unwrap())` for finite inputs.
///
/// Small slices use a stable insertion sort; larger ones an 8×8-bit LSD
/// radix sort over [`f64_total_key`] carrying the original values as
/// payload, skipping digits whose histogram is a single bucket.
pub fn sort_floats(vals: &mut [f64], scratch: &mut SortScratch) {
    let n = vals.len();
    if n < RADIX_THRESHOLD {
        insertion_sort(vals);
        return;
    }
    let SortScratch {
        keys,
        tmp_keys,
        tmp_vals,
    } = scratch;
    keys.clear();
    keys.extend(vals.iter().map(|&v| f64_total_key(v)));
    tmp_keys.resize(n, 0);
    tmp_vals.resize(n, 0.0);

    let hist = digit_histograms(keys);
    let mut in_tmp = false;
    for (d, h) in hist.iter().enumerate() {
        let Some(mut offsets) = digit_offsets(h, n) else {
            continue;
        };
        let shift = 8 * d as u32;
        if in_tmp {
            scatter(tmp_keys, tmp_vals, keys, vals, shift, &mut offsets);
        } else {
            scatter(keys, vals, tmp_keys, tmp_vals, shift, &mut offsets);
        }
        in_tmp = !in_tmp;
    }
    if in_tmp {
        vals.copy_from_slice(tmp_vals);
    }
}

/// All eight 8-bit digit histograms of `keys` in one pass.
fn digit_histograms(keys: &[u64]) -> [[u32; 256]; 8] {
    assert!(keys.len() <= u32::MAX as usize, "radix counters are u32");
    let mut hist = [[0u32; 256]; 8];
    for &k in keys {
        for (d, h) in hist.iter_mut().enumerate() {
            h[((k >> (8 * d)) & 0xFF) as usize] += 1;
        }
    }
    hist
}

/// Scatter start offsets (exclusive prefix sums) for one digit's histogram
/// over `n` keys, or `None` when a single bucket holds all of them: the
/// digit is constant, its scatter would be the identity permutation, and
/// the pass is skipped (common for the high bytes of millisecond-scale
/// data).
fn digit_offsets(hist: &[u32; 256], n: usize) -> Option<[u32; 256]> {
    if hist.iter().any(|&c| c as usize == n) {
        return None;
    }
    let mut offsets = [0u32; 256];
    let mut run = 0u32;
    for (o, &c) in offsets.iter_mut().zip(hist) {
        *o = run;
        run += c;
    }
    Some(offsets)
}

/// One stable counting-scatter pass on digit `shift/8`.
fn scatter(
    src_keys: &[u64],
    src_vals: &[f64],
    dst_keys: &mut [u64],
    dst_vals: &mut [f64],
    shift: u32,
    offsets: &mut [u32; 256],
) {
    for (&k, &v) in src_keys.iter().zip(src_vals) {
        let b = ((k >> shift) & 0xFF) as usize;
        let dst = offsets[b] as usize;
        dst_keys[dst] = k;
        dst_vals[dst] = v;
        offsets[b] += 1;
    }
}

/// Stable insertion sort (shift-only moves on strict `>`), matching the
/// stable `partial_cmp` sort bit-for-bit on finite inputs.
fn insertion_sort(vals: &mut [f64]) {
    for i in 1..vals.len() {
        let v = vals[i];
        let mut j = i;
        while j > 0 && vals[j - 1] > v {
            vals[j] = vals[j - 1];
            j -= 1;
        }
        vals[j] = v;
    }
}

/// K-way merges already-sorted `children` into `out` (which must have the
/// combined length), producing the same value sequence a stable sort of the
/// concatenation would: ties break by child index first, then by position
/// within the child.
///
/// No longer on the sweep's path — re-sorting integer keys measured cheaper
/// than merging sorted children. Kept exported because
/// `benchmark/src/layers.rs` times [`merge_sorted_with_tmp`] as
/// `stats.merge_ns_per_elem`; the benchmark change that drops that probe
/// can delete both functions with it.
///
/// Implemented as ⌈log₂ k⌉ passes of adjacent stable two-way merges
/// (ping-ponging between `out` and one temporary buffer) rather than a
/// k-way priority queue: the per-element cost is a handful of predictable
/// `u64` key compares and sequential copies instead of heap sifts, which
/// measures several times faster on the sweep's 80–200-child merges.
/// Two-way stable merges composed left-to-right preserve exactly the
/// stable-concatenation order a heap with a child-index tie-break produces.
///
/// # Panics
/// If `out.len()` differs from the children's total length.
pub fn merge_sorted(children: &[&[f64]], out: &mut [f64]) {
    merge_sorted_with_tmp(children, out, &mut Vec::new());
}

/// [`merge_sorted`] with a caller-owned ping-pong buffer, so a loop of
/// merges avoids one `out`-sized allocation each. `tmp` is resized as
/// needed; its contents on entry and exit are unspecified.
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
        // `<=` keeps the left run first on key ties (±0.0 included).
        if f64_total_key(a[i]) <= f64_total_key(b[j]) {
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
    fn key_is_monotone_on_interesting_values() {
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
        for w in vals.windows(2) {
            assert!(
                f64_total_key(w[0]) < f64_total_key(w[1]),
                "key order broken at {w:?}"
            );
        }
        // The documented exception: ±0.0 share one key.
        assert_eq!(f64_total_key(-0.0), f64_total_key(0.0));
    }

    #[test]
    fn radix_matches_reference_on_mixed_signs_and_zeros() {
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
    fn insertion_path_matches_reference() {
        let mut scratch = SortScratch::new();
        let mut xs = vec![3.0, -0.0, 1.5, 0.0, -2.0, 1.5, -0.0, 9.0];
        let want = reference_sort(&xs);
        sort_floats(&mut xs, &mut scratch);
        assert_eq!(bits(&xs), bits(&want));
    }

    #[test]
    fn scratch_reuse_across_different_lengths() {
        let mut scratch = SortScratch::new();
        for n in [0usize, 1, 63, 64, 65, 300, 1000] {
            let mut xs: Vec<f64> = (0..n).map(|i| (((i * 131) % 997) as f64).sin()).collect();
            let want = reference_sort(&xs);
            sort_floats(&mut xs, &mut scratch);
            assert_eq!(bits(&xs), bits(&want), "n={n}");
        }
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
        merge_sorted(&[&a, &b, &c, &d], &mut out);
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_rejects_wrong_output_length() {
        let mut out = vec![0.0; 3];
        merge_sorted(&[&[1.0, 2.0]], &mut out);
    }
}
