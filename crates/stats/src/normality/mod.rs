//! Normality tests used in the paper's Section 4.1 evaluation.
//!
//! The paper runs three tests at every aggregation level, each with the null
//! hypothesis "the sample is drawn from a normal distribution":
//!
//! * **D'Agostino's K²** omnibus test (skewness + kurtosis) — [`dagostino`].
//! * **Shapiro–Wilk** (Royston's AS R94 algorithm) — [`shapiro_wilk`].
//! * **Anderson–Darling** for the normal case with estimated parameters
//!   (Stephens' case 3) — [`anderson_darling`].
//!
//! All three implement the [`NormalityTest`] trait so the analysis layer can
//! sweep them uniformly (Table 1 runs all three over 16,000 process-iteration
//! sets per application). The paper uses a 5% significance level; every
//! outcome carries its p-value so callers pick α.
//!
//! The battery is **a function of the sorted sample alone**, and it has two
//! routes. Each test's one body is [`NormalityTest::test_sorted`], on a
//! finite ascending sample ([`NormalityTest::test`] sorts one copy and calls
//! it). The fused kernel behind [`battery_with_scratch`],
//! [`battery_presorted`] and [`battery_sorted`] computes the paper's three in
//! one pass over a sorted buffer. Both replay one arithmetic per statistic
//! bit for bit: lane sums of the sorted values
//! ([`crate::accumulate::central_sums`]) for W's denominator, A²'s
//! standardization and K²'s `g₁`/`b₂`, and one logarithm per A² term.

pub mod anderson_darling;
pub mod dagostino;
pub mod jarque_bera;
pub mod lilliefors;
pub mod shapiro_wilk;

use serde::{Deserialize, Serialize};

use crate::sort::{sort_floats, SortScratch};
use crate::special::{norm_cdf_sf, norm_cdf_sf_slice};
use crate::{accumulate, ensure_finite, ensure_len, sorted_copy, StatsError};

/// Identifier for one of the three implemented tests; used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestStatistic {
    /// D'Agostino's K² omnibus statistic (χ², 2 d.o.f. under H₀).
    DagostinoK2,
    /// Shapiro–Wilk W statistic.
    ShapiroWilkW,
    /// Anderson–Darling A*² statistic (case 3, Stephens' small-sample factor).
    AndersonDarlingA2,
    /// Lilliefors D statistic (KS with estimated parameters) — extension.
    LillieforsD,
    /// Jarque–Bera statistic (asymptotic χ², 2 d.o.f.) — extension.
    JarqueBera,
}

impl TestStatistic {
    /// Human-readable name matching the paper's Table 1 row labels
    /// (extensions get their conventional names).
    pub fn name(&self) -> &'static str {
        match self {
            TestStatistic::DagostinoK2 => "D'Agostino",
            TestStatistic::ShapiroWilkW => "Shapiro-Wilk",
            TestStatistic::AndersonDarlingA2 => "Anderson-Darling",
            TestStatistic::LillieforsD => "Lilliefors",
            TestStatistic::JarqueBera => "Jarque-Bera",
        }
    }
}

/// Outcome of one normality test on one sample. It does not repeat the
/// sample size: every caller holds the sample it passed in, and a sweep keeps
/// three of these per group (24 bytes each; `Option` adds none, the
/// `statistic_kind` and `extrapolated` niches carry `None`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalityOutcome {
    /// Which test produced this outcome.
    pub statistic_kind: TestStatistic,
    /// Raw test statistic (K², W or A*² depending on the test).
    pub statistic: f64,
    /// Two-sided p-value under the normal null hypothesis. For
    /// Anderson–Darling this is the D'Agostino–Stephens approximation.
    pub p_value: f64,
    /// `true` if the test's p-value approximation is extrapolated beyond its
    /// published validity range (e.g. Shapiro–Wilk for n > 5000). The value is
    /// still reported — the paper itself runs SW on 768,000 samples — but
    /// downstream reports can flag it.
    pub extrapolated: bool,
}

impl NormalityOutcome {
    /// Decision at significance level `alpha`: `true` means *reject* the null
    /// hypothesis of normality.
    fn rejects_normality(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }

    /// The paper's Table 1 convention: a process-iteration "passes" when the
    /// test *fails to reject* the null hypothesis at `alpha`.
    pub fn passes(&self, alpha: f64) -> bool {
        !self.rejects_normality(alpha)
    }
}

/// A normality test over an i.i.d. sample of `f64` observations.
pub trait NormalityTest {
    /// Which statistic this test computes.
    fn kind(&self) -> TestStatistic;

    /// Minimum sample size the test is defined for.
    fn min_sample_size(&self) -> usize;

    /// Runs the test on a **finite, ascending** sample — the test's one
    /// computing body.
    ///
    /// # Errors
    /// [`StatsError::SampleTooSmall`] below [`Self::min_sample_size`],
    /// [`StatsError::ZeroVariance`] when every observation is identical (the
    /// statistics are undefined).
    fn test_sorted(&self, sorted: &[f64]) -> Result<NormalityOutcome, StatsError>;

    /// Runs the test on a sample in any order, which is not mutated: one
    /// sorted copy, then [`Self::test_sorted`].
    ///
    /// # Errors
    /// Those of [`Self::test_sorted`], and [`StatsError::NonFinite`] on
    /// NaN/∞.
    fn test(&self, sample: &[f64]) -> Result<NormalityOutcome, StatsError> {
        ensure_len(sample, self.min_sample_size())?;
        ensure_finite(sample)?;
        self.test_sorted(&sorted_copy(sample))
    }
}

/// The checks every [`NormalityTest::test_sorted`] starts with: at least
/// `needed` values, not all equal. Degeneracy is read off the sorted range,
/// not a computed variance: the lane-summed mean of n equal values can be an
/// ulp off the value itself, leaving `Σd²` tiny but positive.
fn check_sorted(sorted: &[f64], needed: usize) -> Result<(), StatsError> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "`sorted` must be finite and sorted ascending"
    );
    ensure_len(sorted, needed)?;
    if sorted[sorted.len() - 1] - sorted[0] <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(())
}

/// A per-`n` cache of everything in the battery that depends **only on the
/// sample size**: the Shapiro–Wilk weight vector (n/2 closed-form
/// `norm_quantile`s), its Royston p-value transform parameters, and the
/// Anderson–Darling small-sample factor.
///
/// Every group at one aggregation level shares the same `n`, so a sweep
/// call over 16,000 process-iteration sets computes the weights once per
/// worker part instead of once per group. A small LRU (the sweep touches at
/// most one `n` per level, three levels per trace) bounds the cache.
#[derive(Debug, Clone, Default)]
pub struct WeightCache {
    entries: Vec<WeightEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct WeightEntry {
    n: usize,
    weights: Vec<f64>,
    sw_params: shapiro_wilk::SwPValueParams,
    ad_factor: f64,
    stamp: u64,
}

impl WeightCache {
    /// Distinct sample sizes kept (LRU beyond this). The sweep needs three —
    /// one per aggregation level — so eight absorbs mixed-shape workloads.
    const CAPACITY: usize = 8;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, n: usize) -> &WeightEntry {
        self.tick += 1;
        if let Some(idx) = self.entries.iter().position(|e| e.n == n) {
            self.hits += 1;
            self.entries[idx].stamp = self.tick;
            return &self.entries[idx];
        }
        self.misses += 1;
        let mut weights = if self.entries.len() >= Self::CAPACITY {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("cache is non-empty at capacity");
            self.entries.swap_remove(lru).weights
        } else {
            Vec::new()
        };
        shapiro_wilk::blom_weights(n, &mut weights);
        self.entries.push(WeightEntry {
            n,
            weights,
            sw_params: shapiro_wilk::SwPValueParams::for_n(n),
            ad_factor: anderson_darling::modification_factor(n),
            stamp: self.tick,
        });
        self.entries.last().expect("just pushed")
    }

    /// The cached Shapiro–Wilk half-length weight vector for sample size `n`,
    /// bit-for-bit equal to a fresh [`shapiro_wilk::blom_weights`] run
    /// (pinned by proptest).
    pub fn weights_for(&mut self, n: usize) -> &[f64] {
        &self.entry(n).weights
    }

    /// `(hits, misses)` counters since construction, for observability.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Order-statistic pairs `(i, n−1−i)` the fused kernel evaluates Φ for at a
/// time: 512 from each end of the sorted sample, so the `z`, `Φ` and `1 − Φ`
/// blocks (24 KiB together) stay in L1 however large the group.
const PHI_BLOCK: usize = 512;

/// The fused kernel's Φ working set for one block of pairs: standardized
/// order statistics and their two tail probabilities, the block's low-end
/// elements first (ascending), its high-end elements after them (ascending).
#[derive(Debug, Clone, Default)]
struct PhiBlock {
    z: Vec<f64>,
    cdf: Vec<f64>,
    sf: Vec<f64>,
}

impl PhiBlock {
    /// Standardizes `low` then `high` (keys, each read as its value
    /// `x = read(k)`) into `z` and batch-evaluates both tails; returns
    /// `(z, Φ(z), 1 − Φ(z))`. `z = (x − mean) / sd` is the exact expression
    /// the stand-alone sum feeds to [`crate::special::norm_cdf_sf`], and the
    /// slice kernel is bit-identical to that scalar call per element —
    /// wherever the element sits in a buffer — so the returned blocks carry
    /// exactly the values a whole-sample evaluation would.
    fn fill<K: Copy>(
        &mut self,
        low: &[K],
        high: &[K],
        mean: f64,
        sd: f64,
        read: impl Fn(K) -> f64,
    ) -> [&[f64]; 3] {
        self.z.clear();
        self.z
            .extend(low.iter().chain(high).map(|&k| (read(k) - mean) / sd));
        let n = self.z.len();
        self.cdf.resize(n, 0.0);
        self.sf.resize(n, 0.0);
        norm_cdf_sf_slice(&self.z, &mut self.cdf, &mut self.sf);
        [&self.z, &self.cdf, &self.sf]
    }
}

/// Reusable buffers for allocation-free runs of the paper's three-test
/// battery: one sorted copy of the sample (shared by all three tests, which
/// stand-alone each sort their own), the per-`n` [`WeightCache`], and the Φ
/// block the fused kernel works through.
///
/// One scratch per sweep worker part tests its thousands of groups with no
/// allocation after the part's first group of each size.
#[derive(Debug, Clone, Default)]
pub struct BatteryScratch {
    sorted: Vec<f64>,
    cache: WeightCache,
    phi: PhiBlock,
}

impl BatteryScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, misses)` of the embedded weight cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

/// The fused kernel's phases in the order it runs them, the order of
/// [`PhaseClock::ns`]: the per-`n` constants (the size checks, the cache
/// lookup and, on a miss, the Shapiro–Wilk weight solve), the lane pass of
/// central sums, the Φ blocks, the W and A² sums over each block (and A²'s
/// middle term at odd `n`), and the three statistics' p-values (K²'s shape
/// and statistic with them).
pub const BATTERY_PHASES: [&str; 5] = [
    "weights",
    "central sums",
    "Φ fill",
    "accumulate",
    "p-values",
];

/// A caller's clock split over the fused kernel's [`BATTERY_PHASES`]: each
/// phase boundary reads `now` once and charges the time since the previous
/// reading to the phase that ends there, so the phases of a run sum exactly
/// to [`Self::last`] − [`Self::started`]. The kernel reads no clock when it
/// is given none.
pub struct PhaseClock<'c> {
    now: &'c dyn Fn() -> u64,
    started: u64,
    last: u64,
    ns: [u64; 5],
}

impl<'c> PhaseClock<'c> {
    /// Reads `now` once: the start of the run about to be timed.
    pub fn start(now: &'c dyn Fn() -> u64) -> Self {
        let started = now();
        Self {
            now,
            started,
            last: started,
            ns: [0; 5],
        }
    }

    /// The reading taken by [`Self::start`].
    pub fn started(&self) -> u64 {
        self.started
    }

    /// The latest reading: the end of the last phase charged.
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Nanoseconds charged to each phase, in [`BATTERY_PHASES`] order.
    pub fn ns(&self) -> [u64; 5] {
        self.ns
    }

    fn charge(&mut self, phase: usize) {
        let now = (self.now)();
        self.ns[phase] += now.saturating_sub(self.last);
        self.last = now;
    }
}

/// Indices into [`BATTERY_PHASES`].
const WEIGHTS: usize = 0;
const CENTRAL_SUMS: usize = 1;
const PHI_FILL: usize = 2;
const ACCUMULATE: usize = 3;
const P_VALUES: usize = 4;

/// Ends `phase` on `clock`, if there is one.
fn charge(clock: &mut Option<&mut PhaseClock<'_>>, phase: usize) {
    if let Some(clock) = clock {
        clock.charge(phase);
    }
}

/// The fused battery kernel: the three statistics as a function of the
/// sorted sample alone. One lane pass ([`accumulate::central_sums`]) yields
/// the mean and `Σd²` (W's denominator, A²'s standard deviation) together
/// with `Σd³` and `Σd⁴` (K²'s `g₁` and `b₂`); one traversal from both ends
/// inwards then computes the symmetric-difference W sum and the paired A²
/// terms, one logarithm each ([`anderson_darling::log_term`]). Φ and 1 − Φ
/// are batch-evaluated [`PHI_BLOCK`] pairs at a time by
/// [`norm_cdf_sf_slice`] (the sorted layout makes the slice kernel's
/// interval-uniform fast path the common case), weights/constants come from
/// the per-`n` cache.
///
/// Outcomes are bit-identical to the individual tests because every
/// accumulator replays the exact sequence of the stand-alone
/// [`NormalityTest::test_sorted`] bodies: the central sums of the sorted
/// sample, `sax` ascending, and the A² sum in `ad_pair_sum`'s pair order
/// through the same `log_term` — the batch kernel
/// is bit-identical to the per-element `norm_cdf_sf` calls it replaces, and
/// evaluating those independent calls a block ahead of the loop does not
/// reorder any accumulator.
///
/// The kernel reads the sample through `read`: `sorted` holds keys in
/// ascending order of `read(k)`, and every pass converts a key where it
/// reads it — three passes, the lane mean, the central sums and the paired
/// traversal, which reads each key twice when A² runs (its Φ block and W's
/// difference). Each accumulator sees the values a slice of `read(k)` would
/// hold, in the same order, so the outcomes are those of the `f64` sample,
/// bit for bit; the identity read is that sample itself.
///
/// With a `clock`, the kernel charges its run to the [`BATTERY_PHASES`] as
/// it goes — two readings per Φ block, one at each other boundary — and
/// computes exactly what it computes without one.
fn fused_battery<K: Copy>(
    sorted: &[K],
    read: impl Fn(K) -> f64 + Copy,
    cache: &mut WeightCache,
    phi: &mut PhiBlock,
    mut clock: Option<&mut PhaseClock<'_>>,
) -> [Option<NormalityOutcome>; 3] {
    let n = sorted.len();
    if n < 3 || read(sorted[n - 1]) - read(sorted[0]) <= 0.0 {
        // Below every test's minimum sample size, or ZeroVariance for all
        // three tests (checked on the sorted range, exactly like the
        // standalone paths).
        charge(&mut clock, WEIGHTS);
        return [None; 3];
    }
    let entry = cache.entry(n);
    charge(&mut clock, WEIGHTS);
    let (mean, ssq, s3, s4) = accumulate::central_sums_by(sorted, read);
    charge(&mut clock, CENTRAL_SUMS);
    let nf = n as f64;
    let sd = (ssq / (nf - 1.0)).sqrt();
    let do_ad = n >= 8 && sd.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    let a = &entry.weights[..];
    let mut sax = 0.0;
    let mut s_ad = 0.0;
    if do_ad {
        for (block, ab) in a.chunks(PHI_BLOCK).enumerate() {
            let (i0, len) = (block * PHI_BLOCK, ab.len());
            // Pairs i0..i0+len: low elements i0.., high elements ..n−i0.
            let (low, high) = (&sorted[i0..i0 + len], &sorted[n - i0 - len..n - i0]);
            let [z, cdf, sf] = phi.fill(low, high, mean, sd, read);
            charge(&mut clock, PHI_FILL);
            for (j, &ai) in ab.iter().enumerate() {
                // Element i = i0 + j sits at j, element r = n−1−i at rj.
                let (i, rj) = (i0 + j, 2 * len - 1 - j);
                let r = n - 1 - i;
                sax += ai * (read(high[len - 1 - j]) - read(low[j]));
                s_ad +=
                    (2 * i + 1) as f64 * anderson_darling::log_term(z[j], cdf[j], z[rj], sf[rj]);
                s_ad +=
                    (2 * r + 1) as f64 * anderson_darling::log_term(z[rj], cdf[rj], z[j], sf[j]);
            }
            charge(&mut clock, ACCUMULATE);
        }
        if n % 2 == 1 {
            let mid = n / 2;
            let z = (read(sorted[mid]) - mean) / sd;
            let (cdf, sf) = norm_cdf_sf(z);
            s_ad += (2 * mid + 1) as f64 * anderson_darling::log_term(z, cdf, z, sf);
            charge(&mut clock, ACCUMULATE);
        }
    } else {
        for (i, &ai) in a.iter().enumerate() {
            sax += ai * (read(sorted[n - 1 - i]) - read(sorted[i]));
        }
        charge(&mut clock, ACCUMULATE);
    }
    let dag = match dagostino::shape_from_sums(n, ssq, s3, s4) {
        Ok((g1, b2)) if n >= 8 => Some(dagostino::DagostinoK2::from_shape(g1, b2, n).0),
        _ => None,
    };
    let w = ((sax * sax) / ssq).min(1.0);
    let sw = NormalityOutcome {
        statistic_kind: TestStatistic::ShapiroWilkW,
        statistic: w,
        p_value: entry.sw_params.p_value(w),
        extrapolated: n > 5000,
    };
    let ad = do_ad.then(|| {
        let a2 = (-nf - s_ad / nf) * entry.ad_factor;
        NormalityOutcome {
            statistic_kind: TestStatistic::AndersonDarlingA2,
            statistic: a2,
            p_value: anderson_darling::AndersonDarling::p_value_for(a2),
            extrapolated: false,
        }
    });
    charge(&mut clock, P_VALUES);
    [dag, Some(sw), ad]
}

/// Runs the paper's three-test battery (D'Agostino K², Shapiro–Wilk,
/// Anderson–Darling — [`BATTERY_ORDER`] in the analysis layer) on one sample
/// through `scratch`: sort one copy, then the fused kernel with cached
/// per-`n` weights.
///
/// Outcomes are bit-identical to calling each test's
/// [`NormalityTest::test`] on the unsorted sample; a test that cannot process
/// the sample (too small, non-finite, zero variance) yields `None`.
pub fn battery_with_scratch(
    sample: &[f64],
    scratch: &mut BatteryScratch,
) -> [Option<NormalityOutcome>; 3] {
    // A non-finite value fails every test's validation; skip the sort (which
    // panics on a NaN) and report the same `None`s the per-test calls would.
    if !sample.iter().all(|x| x.is_finite()) {
        return [None; 3];
    }
    let BatteryScratch { sorted, cache, phi } = scratch;
    sorted.clear();
    sorted.extend_from_slice(sample);
    sort_floats(sorted, &mut SortScratch);
    fused_battery(sorted, |x| x, cache, phi, None)
}

/// [`battery_with_scratch`] for callers that already hold a sorted copy of
/// the sample. The battery is a function of the sorted sample alone;
/// `sample` (the same multiset in any order) is only checked for non-finite
/// values. The scratch's own `sorted` buffer is untouched; only its weight
/// cache and Φ block are used.
pub fn battery_presorted(
    sample: &[f64],
    sorted: &[f64],
    scratch: &mut BatteryScratch,
) -> [Option<NormalityOutcome>; 3] {
    if !sample.iter().all(|x| x.is_finite()) {
        return [None; 3];
    }
    battery_sorted(sorted, |x| x, scratch, None)
}

/// The battery on a sample held as keys in ascending order of `read(k)`,
/// each read as its **finite** `f64` value where the kernel reads it — the
/// entry for callers that never hold the sample in any other form (the
/// normality sweep sorts integer nanoseconds and reads them as
/// milliseconds; `|x| x` reads a sorted `f64` sample as itself). Outcomes
/// are bit-identical to [`battery_with_scratch`] on any permutation of the
/// read values: every accumulator sees the same values in the same order.
///
/// With a `clock` the run is timed by phase into it ([`PhaseClock`]); the
/// outcomes do not depend on it.
pub fn battery_sorted<K: Copy>(
    sorted: &[K],
    read: impl Fn(K) -> f64 + Copy,
    scratch: &mut BatteryScratch,
    clock: Option<&mut PhaseClock<'_>>,
) -> [Option<NormalityOutcome>; 3] {
    debug_assert!(
        sorted.windows(2).all(|w| read(w[0]) <= read(w[1])),
        "`sorted` must read finite and ascending"
    );
    fused_battery(sorted, read, &mut scratch.cache, &mut scratch.phi, clock)
}

/// The extended battery: the paper's three tests in the order it tabulates
/// them, then Lilliefors and Jarque–Bera — the battery-sensitivity ablation.
pub fn extended_battery() -> Vec<Box<dyn NormalityTest + Send + Sync>> {
    vec![
        Box::new(dagostino::DagostinoK2),
        Box::new(shapiro_wilk::ShapiroWilk),
        Box::new(anderson_darling::AndersonDarling),
        Box::new(lilliefors::Lilliefors),
        Box::new(jarque_bera::JarqueBera),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_battery_is_the_paper_three_then_the_extensions() {
        let kinds: Vec<_> = extended_battery().iter().map(|t| t.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                TestStatistic::DagostinoK2,
                TestStatistic::ShapiroWilkW,
                TestStatistic::AndersonDarlingA2,
                TestStatistic::LillieforsD,
                TestStatistic::JarqueBera,
            ]
        );
        assert_eq!(kinds[3].name(), "Lilliefors");
        assert_eq!(kinds[4].name(), "Jarque-Bera");
    }

    #[test]
    fn all_battery_members_agree_on_obvious_cases() {
        // Strongly exponential data must be rejected by every member; clean
        // normal scores accepted by every member.
        let normal: Vec<f64> = (1..=100)
            .map(|i| crate::special::norm_quantile((i as f64 - 0.5) / 100.0))
            .collect();
        let expo: Vec<f64> = (1..=100)
            .map(|i| -(1.0 - (i as f64 - 0.5) / 100.0).ln())
            .collect();
        for test in extended_battery() {
            let o = test.test(&normal).unwrap();
            assert!(
                o.passes(0.05),
                "{} on normal: p={}",
                o.statistic_kind.name(),
                o.p_value
            );
            let o = test.test(&expo).unwrap();
            assert!(
                o.rejects_normality(0.05),
                "{} on exponential: p={}",
                o.statistic_kind.name(),
                o.p_value
            );
        }
    }

    #[test]
    fn scratch_battery_is_bit_identical_to_individual_tests() {
        // A deterministic pseudo-random mix of shapes, including degenerate
        // (flat) and skewed groups; outcomes must match exactly, not just
        // approximately — the parallel sweep's correctness rests on this.
        let mut scratch = BatteryScratch::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..28 {
            // Sizes recur so repeated weight-cache hits are exercised.
            let n = 8 + (case % 6) * 31;
            let sample: Vec<f64> = match case % 4 {
                0 => (0..n).map(|_| 10.0 + next()).collect(),
                1 => (0..n).map(|_| -(1.0 - next()).ln()).collect(),
                2 => vec![5.0; n],
                _ => (0..n).map(|i| i as f64 + next() * 1e-3).collect(),
            };
            let via_scratch = battery_with_scratch(&sample, &mut scratch);
            let direct = [
                dagostino::DagostinoK2.test(&sample).ok(),
                shapiro_wilk::ShapiroWilk.test(&sample).ok(),
                anderson_darling::AndersonDarling.test(&sample).ok(),
            ];
            assert_eq!(via_scratch, direct, "case {case} (n={n})");
        }
        let (hits, misses) = scratch.cache_stats();
        assert!(hits > 0, "repeated n values must hit the weight cache");
        assert!(misses > 0 && misses < hits + misses);
    }

    #[test]
    fn battery_presorted_matches_battery_with_scratch() {
        let mut scratch = BatteryScratch::new();
        let mut presort_scratch = BatteryScratch::new();
        for n in [8usize, 21, 64, 130] {
            let sample: Vec<f64> = (0..n)
                .map(|i| (((i * 131) % 997) as f64).sin() * 3.0)
                .collect();
            let mut sorted = sample.clone();
            sort_floats(&mut sorted, &mut SortScratch::new());
            let via_presorted = battery_presorted(&sample, &sorted, &mut presort_scratch);
            let via_scratch = battery_with_scratch(&sample, &mut scratch);
            assert_eq!(via_presorted, via_scratch, "n={n}");
        }
    }

    #[test]
    fn a_timed_run_charges_every_phase_boundary_and_computes_the_same() {
        // A clock that ticks once per reading: each phase's charge counts
        // the boundaries that close it. n = 48 is one Φ block; n = 2049 is
        // two blocks (1024 pairs) and A²'s middle term; n = 7 runs no A²;
        // n = 2 stops at the size check.
        let ticks = std::cell::Cell::new(0u64);
        let now = || {
            ticks.set(ticks.get() + 1);
            ticks.get()
        };
        let mut plain = BatteryScratch::new();
        let mut timed = BatteryScratch::new();
        for (n, want) in [
            (48usize, [1, 1, 1, 1, 1]),
            (2049, [1, 1, 2, 3, 1]),
            (7, [1, 1, 0, 1, 1]),
            (2, [1, 0, 0, 0, 0]),
        ] {
            let sorted: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            let mut clock = PhaseClock::start(&now);
            let got = battery_sorted(&sorted, |x| x, &mut timed, Some(&mut clock));
            assert_eq!(
                got,
                battery_sorted(&sorted, |x| x, &mut plain, None),
                "n={n}"
            );
            assert_eq!(clock.ns(), want, "n={n}");
            assert_eq!(
                clock.ns().iter().sum::<u64>(),
                clock.last() - clock.started(),
                "n={n}"
            );
        }
    }

    #[test]
    fn weight_cache_is_bit_identical_to_fresh_weights_and_evicts_lru() {
        let mut cache = WeightCache::new();
        let mut fresh = Vec::new();
        // More distinct sizes than the capacity: exercises eviction too.
        for n in [3usize, 4, 5, 6, 9, 48, 120, 500, 1201, 48, 3] {
            shapiro_wilk::blom_weights(n, &mut fresh);
            assert_eq!(
                cache
                    .weights_for(n)
                    .iter()
                    .map(|w| w.to_bits())
                    .collect::<Vec<_>>(),
                fresh.iter().map(|w| w.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
        let (hits, misses) = cache.stats();
        // 48 repeats within capacity (hit); 3 was evicted by then (miss).
        assert_eq!(hits + misses, 11);
        assert!(misses >= 9, "expected ≥9 misses, got {misses}");
        assert!(hits >= 1, "expected ≥1 hit, got {hits}");
    }

    #[test]
    fn scratch_battery_handles_non_finite_input() {
        let mut scratch = BatteryScratch::new();
        let sample = vec![1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(
            battery_with_scratch(&sample, &mut scratch),
            [None, None, None]
        );
    }

    #[test]
    fn names_match_paper_table() {
        assert_eq!(TestStatistic::DagostinoK2.name(), "D'Agostino");
        assert_eq!(TestStatistic::ShapiroWilkW.name(), "Shapiro-Wilk");
        assert_eq!(TestStatistic::AndersonDarlingA2.name(), "Anderson-Darling");
    }

    #[test]
    fn outcome_decision_logic() {
        let o = NormalityOutcome {
            statistic_kind: TestStatistic::DagostinoK2,
            statistic: 1.0,
            p_value: 0.04,
            extrapolated: false,
        };
        assert!(o.rejects_normality(0.05));
        assert!(!o.passes(0.05));
        assert!(!o.rejects_normality(0.01));
        assert!(o.passes(0.01));
    }

    #[test]
    fn a_battery_row_is_three_24_byte_outcomes() {
        // A sweep keeps one row per group (48 603 at paper scale): the
        // outcome carries no sample size, and `None` lives in a niche.
        assert_eq!(std::mem::size_of::<NormalityOutcome>(), 24);
        assert_eq!(std::mem::size_of::<[Option<NormalityOutcome>; 3]>(), 72);
    }
}
