//! Two-body Jastrow correlation factor.
//!
//! QMC trial wavefunctions multiply the orbital product by
//! `J = exp(−Σ_{i<j} u(r_ij))`; miniQMC's J2 kernel dominates the remaining
//! mover cost after the spline. We use the short-range form
//! `u(r) = a·(1 − r/r_c)²` for `r < r_c` (zero outside), which is continuous
//! with continuous first derivative at the cutoff — enough smoothness for the
//! drift term.

use crate::minimd::{min_image, norm2, V3};

/// Two-body Jastrow with strength `a` and cutoff `rc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jastrow {
    /// Correlation strength (a > 0 suppresses close pairs).
    pub a: f64,
    /// Cutoff radius.
    pub rc: f64,
}

impl Jastrow {
    /// Creates the factor; `rc > 0`.
    pub fn new(a: f64, rc: f64) -> Self {
        assert!(rc > 0.0, "cutoff must be positive");
        Jastrow { a, rc }
    }

    /// The pair function `u(r)`.
    #[inline]
    pub fn u(&self, r: f64) -> f64 {
        if r >= self.rc {
            0.0
        } else {
            let x = 1.0 - r / self.rc;
            self.a * x * x
        }
    }

    /// `du/dr`.
    #[inline]
    fn du(&self, r: f64) -> f64 {
        if r >= self.rc {
            0.0
        } else {
            -2.0 * self.a * (1.0 - r / self.rc) / self.rc
        }
    }

    /// `log J` contribution of electron `e` against all others:
    /// `−Σ_{j≠e} u(|r_e − r_j|)` with minimum-image distances in a cubic
    /// periodic box of side `l`.
    pub fn log_one_body_sum(&self, e: usize, r_e: V3, electrons: &[V3], l: f64) -> f64 {
        let box_len = [l, l, l];
        let mut s = 0.0;
        for (j, &rj) in electrons.iter().enumerate() {
            if j != e {
                let r = norm2(min_image(r_e, rj, box_len)).sqrt();
                s -= self.u(r);
            }
        }
        s
    }

    /// Gradient of [`log_one_body_sum`](Self::log_one_body_sum) with respect
    /// to `r_e` (the Jastrow part of the drift).
    pub fn grad_one_body_sum(&self, e: usize, r_e: V3, electrons: &[V3], l: f64) -> V3 {
        let box_len = [l, l, l];
        let mut g = [0.0f64; 3];
        for (j, &rj) in electrons.iter().enumerate() {
            if j != e {
                let d = min_image(r_e, rj, box_len);
                let r = norm2(d).sqrt();
                if r > 1e-12 && r < self.rc {
                    // ∇(−u(r)) = −u'(r)·d/r
                    let coef = -self.du(r) / r;
                    g[0] += coef * d[0];
                    g[1] += coef * d[1];
                    g[2] += coef * d[2];
                }
            }
        }
        g
    }

    /// Full `log J = −Σ_{i<j} u(r_ij)` (diagnostics/tests).
    #[cfg(test)]
    fn log_total(&self, electrons: &[V3], l: f64) -> f64 {
        let box_len = [l, l, l];
        let mut s = 0.0;
        for i in 0..electrons.len() {
            for j in 0..i {
                let r = norm2(min_image(electrons[i], electrons[j], box_len)).sqrt();
                s -= self.u(r);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_is_continuous_at_cutoff() {
        let j = Jastrow::new(0.5, 2.0);
        assert!((j.u(2.0 - 1e-9)).abs() < 1e-15);
        assert_eq!(j.u(2.0), 0.0);
        assert_eq!(j.u(5.0), 0.0);
        assert!((j.du(2.0 - 1e-9)).abs() < 1e-8);
    }

    #[test]
    fn u_decreases_from_full_strength() {
        let j = Jastrow::new(0.5, 2.0);
        assert!((j.u(0.0) - 0.5).abs() < 1e-15);
        assert!(j.u(0.5) > j.u(1.0));
        assert!(j.u(1.0) > j.u(1.9));
    }

    #[test]
    fn du_matches_finite_difference() {
        let j = Jastrow::new(0.7, 2.5);
        let h = 1e-7;
        for r in [0.2, 0.9, 1.7, 2.3] {
            let num = (j.u(r + h) - j.u(r - h)) / (2.0 * h);
            assert!((j.du(r) - num).abs() < 1e-6, "r={r}");
        }
    }

    #[test]
    fn one_body_sum_consistent_with_total() {
        // Moving one electron: Δ log J computed via one-body sums must match
        // the difference of full log totals.
        let j = Jastrow::new(0.5, 1.5);
        let l = 4.0;
        let mut els = vec![
            [0.5, 0.5, 0.5],
            [1.2, 0.4, 0.8],
            [3.0, 3.2, 0.1],
            [2.0, 2.0, 2.0],
        ];
        let e = 1;
        let new_pos = [1.5, 0.9, 1.1];
        let before_one = j.log_one_body_sum(e, els[e], &els, l);
        let after_one = j.log_one_body_sum(e, new_pos, &els, l);
        let total_before = j.log_total(&els, l);
        els[e] = new_pos;
        let total_after = j.log_total(&els, l);
        assert!(((after_one - before_one) - (total_after - total_before)).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let j = Jastrow::new(0.6, 1.8);
        let l = 5.0;
        let els = vec![
            [0.5, 0.5, 0.5],
            [1.2, 0.4, 0.8],
            [1.9, 1.1, 0.2],
            [4.7, 0.3, 0.6], // interacts across the periodic boundary
        ];
        let e = 0;
        let g = j.grad_one_body_sum(e, els[e], &els, l);
        let h = 1e-6;
        for d in 0..3 {
            let mut rp = els[e];
            let mut rm = els[e];
            rp[d] += h;
            rm[d] -= h;
            let num = (j.log_one_body_sum(e, rp, &els, l) - j.log_one_body_sum(e, rm, &els, l))
                / (2.0 * h);
            assert!((g[d] - num).abs() < 1e-5, "axis {d}: {} vs {num}", g[d]);
        }
    }

    #[test]
    fn isolated_electrons_have_zero_jastrow() {
        let j = Jastrow::new(0.5, 1.0);
        // Far apart in a big box: all pair distances exceed rc.
        let els = vec![[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [10.0, 0.0, 5.0]];
        assert_eq!(j.log_total(&els, 20.0), 0.0);
        assert_eq!(j.grad_one_body_sum(0, els[0], &els, 20.0), [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn rejects_bad_cutoff() {
        Jastrow::new(1.0, 0.0);
    }
}
