//! Mergeable partial statistics for parallel reductions.
//!
//! The analysis engine fans group-level work out across a thread pool; each
//! worker accumulates a *partial* statistic over its block of groups and the
//! partials combine at the join. [`Mergeable`] names the combine operation,
//! and [`Moments`] (via [`Moments::merge`], the Pébay pairwise-update rule)
//! is the workhorse instance.
//!
//! Determinism note: merging floating-point partials is associative only up
//! to rounding, so a merged [`Moments`] is deterministic for a *fixed* block
//! decomposition (fixed worker count) but may differ in the last ulp across
//! different worker counts. Quantities that must be bit-identical regardless
//! of parallelism (the normality sweep outcomes) are computed per group and
//! never merged.
//!
//! Call sites: `ebird-analysis`'s `engine::campaign_moments` merges its
//! per-worker partials through [`Mergeable`], as does the fused trace scan.

use crate::descriptive::Moments;

/// A statistic accumulated in parts that can be combined pairwise.
pub trait Mergeable {
    /// Absorbs `other` into `self` (`self` becomes the statistic of the
    /// union of both inputs).
    fn merge_with(&mut self, other: &Self);
}

impl Mergeable for Moments {
    fn merge_with(&mut self, other: &Self) {
        self.merge(other);
    }
}
