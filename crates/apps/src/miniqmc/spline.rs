//! Periodic tricubic B-spline evaluation — miniQMC's dominant kernel.
//!
//! A scalar field on a periodic `n × n × n` coefficient grid is interpolated
//! with uniform cubic B-splines. Evaluating at a point gathers 4×4×4 = 64
//! coefficients and combines them with the cubic basis
//!
//! ```text
//! B₀(t) = (1−t)³/6          B₁(t) = (3t³ − 6t² + 4)/6
//! B₂(t) = (−3t³ + 3t² + 3t + 1)/6     B₃(t) = t³/6
//! ```
//!
//! which satisfies `ΣBᵢ = 1` (partition of unity) — the property the tests
//! pin. Gradients use the analytic basis derivatives (needed for the QMC
//! drift term).

use crate::rng::SplitMix64;

/// Cubic B-spline basis values at fractional offset `t ∈ [0, 1)`.
#[inline]
pub fn basis(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    let mt = 1.0 - t;
    [
        mt * mt * mt / 6.0,
        (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
        (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
        t3 / 6.0,
    ]
}

/// Derivatives of the cubic basis at `t` (with respect to `t`).
#[inline]
fn basis_d(t: f64) -> [f64; 4] {
    let t2 = t * t;
    let mt = 1.0 - t;
    [
        -0.5 * mt * mt,
        1.5 * t2 - 2.0 * t,
        -1.5 * t2 + t + 0.5,
        0.5 * t2,
    ]
}

/// A periodic scalar field on an `n³` grid with tricubic B-spline
/// interpolation over a cubic box of side `box_len`.
#[derive(Debug, Clone)]
pub struct Spline3D {
    n: usize,
    box_len: f64,
    coeffs: Vec<f64>,
}

impl Spline3D {
    /// Builds a spline with explicit coefficients (`coeffs.len() == n³`).
    pub fn new(n: usize, box_len: f64, coeffs: Vec<f64>) -> Self {
        assert!(n >= 1, "grid must be nonempty");
        assert!(box_len > 0.0, "box must have positive extent");
        assert_eq!(coeffs.len(), n * n * n, "need n³ coefficients");
        Spline3D { n, box_len, coeffs }
    }

    /// Builds a spline with seeded pseudo-random coefficients in `[-1, 1)` —
    /// a stand-in for the orbital coefficient tables miniQMC reads from HDF5
    /// files we do not have (a substitution: only the evaluation cost and
    /// access pattern matter to thread timing, not the orbital values).
    pub fn random(n: usize, box_len: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let coeffs = (0..n * n * n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
        Spline3D::new(n, box_len, coeffs)
    }

    /// Builds a spline whose value is `c` everywhere (tests: partition of
    /// unity makes the interpolant exactly constant).
    #[cfg(test)]
    fn constant(n: usize, box_len: f64, c: f64) -> Self {
        Spline3D::new(n, box_len, vec![c; n * n * n])
    }

    /// Grid points per axis.
    pub fn grid(&self) -> usize {
        self.n
    }

    /// Box side length.
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    #[inline]
    fn coeff(&self, i: usize, j: usize, k: usize) -> f64 {
        self.coeffs[(k * self.n + j) * self.n + i]
    }

    /// Splits a coordinate into (base index, fractional offset, wrapped
    /// indices of the 4 support points).
    #[inline]
    fn locate(&self, x: f64) -> ([usize; 4], f64) {
        let n = self.n;
        let u = (x / self.box_len).rem_euclid(1.0) * n as f64;
        let i0 = u.floor() as usize % n;
        let t = u - u.floor();
        let idx = [(i0 + n - 1) % n, i0, (i0 + 1) % n, (i0 + 2) % n];
        (idx, t)
    }

    /// Interpolated value at `pos` (periodic in all axes).
    pub fn eval(&self, pos: [f64; 3]) -> f64 {
        let (ix, tx) = self.locate(pos[0]);
        let (iy, ty) = self.locate(pos[1]);
        let (iz, tz) = self.locate(pos[2]);
        let bx = basis(tx);
        let by = basis(ty);
        let bz = basis(tz);
        let mut acc = 0.0;
        for (kz, &wz) in iz.iter().zip(&bz) {
            for (ky, &wy) in iy.iter().zip(&by) {
                let wyz = wy * wz;
                let mut row = 0.0;
                for (kx, &wx) in ix.iter().zip(&bx) {
                    row += wx * self.coeff(*kx, *ky, *kz);
                }
                acc += wyz * row;
            }
        }
        acc
    }

    /// Value and gradient at `pos`.
    pub fn eval_with_gradient(&self, pos: [f64; 3]) -> (f64, [f64; 3]) {
        let (ix, tx) = self.locate(pos[0]);
        let (iy, ty) = self.locate(pos[1]);
        let (iz, tz) = self.locate(pos[2]);
        let bx = basis(tx);
        let by = basis(ty);
        let bz = basis(tz);
        let dx = basis_d(tx);
        let dy = basis_d(ty);
        let dz = basis_d(tz);
        // Chain rule: d/dx = (n / box_len) · d/dt.
        let scale = self.n as f64 / self.box_len;
        let mut v = 0.0;
        let mut g = [0.0f64; 3];
        for c3 in 0..4 {
            for c2 in 0..4 {
                for c1 in 0..4 {
                    let c = self.coeff(ix[c1], iy[c2], iz[c3]);
                    let (wx, wy, wz) = (bx[c1], by[c2], bz[c3]);
                    v += wx * wy * wz * c;
                    g[0] += dx[c1] * wy * wz * c;
                    g[1] += wx * dy[c2] * wz * c;
                    g[2] += wx * wy * dz[c3] * c;
                }
            }
        }
        (v, [g[0] * scale, g[1] * scale, g[2] * scale])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_partition_of_unity() {
        for i in 0..100 {
            let t = i as f64 / 100.0;
            let b = basis(t);
            let sum: f64 = b.iter().sum();
            assert!((sum - 1.0).abs() < 1e-14, "t={t}: Σ={sum}");
            assert!(b.iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn basis_derivative_sums_to_zero() {
        for i in 0..100 {
            let t = i as f64 / 100.0;
            let sum: f64 = basis_d(t).iter().sum();
            assert!(sum.abs() < 1e-14, "t={t}: Σd={sum}");
        }
    }

    #[test]
    fn basis_derivative_matches_finite_difference() {
        let h = 1e-6;
        for i in 1..99 {
            let t = i as f64 / 100.0;
            let num: Vec<f64> = basis(t + h)
                .iter()
                .zip(basis(t - h))
                .map(|(a, b)| (a - b) / (2.0 * h))
                .collect();
            for (g, n) in basis_d(t).iter().zip(num) {
                assert!((g - n).abs() < 1e-7, "t={t}");
            }
        }
    }

    #[test]
    fn constant_coefficients_give_constant_field() {
        let s = Spline3D::constant(8, 5.0, 2.5);
        for p in [
            [0.0, 0.0, 0.0],
            [1.234, 4.999, 0.001],
            [2.5, 2.5, 2.5],
            [-3.0, 17.0, 5.0], // outside the box: periodic wrap
        ] {
            assert!((s.eval(p) - 2.5).abs() < 1e-12, "at {p:?}: {}", s.eval(p));
            let (_, g) = s.eval_with_gradient(p);
            assert!(g.iter().all(|&c| c.abs() < 1e-10));
        }
    }

    #[test]
    fn field_is_periodic() {
        let s = Spline3D::random(8, 4.0, 7);
        for p in [[0.3, 1.1, 2.2], [3.9, 0.0, 1.5]] {
            let v = s.eval(p);
            let shifted = [p[0] + 4.0, p[1] - 8.0, p[2] + 12.0];
            assert!((s.eval(shifted) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let s = Spline3D::random(10, 6.0, 99);
        let h = 1e-6;
        for p in [[1.0, 2.0, 3.0], [0.1, 5.9, 4.4], [2.72, 0.58, 1.41]] {
            let (_, g) = s.eval_with_gradient(p);
            for d in 0..3 {
                let mut pp = p;
                let mut pm = p;
                pp[d] += h;
                pm[d] -= h;
                let num = (s.eval(pp) - s.eval(pm)) / (2.0 * h);
                assert!(
                    (g[d] - num).abs() < 1e-5 * (1.0 + num.abs()),
                    "at {p:?} axis {d}: analytic {} vs numeric {num}",
                    g[d]
                );
            }
        }
    }

    #[test]
    fn eval_with_gradient_value_matches_eval() {
        let s = Spline3D::random(6, 3.0, 5);
        for p in [[0.5, 1.0, 2.9], [2.99, 0.01, 1.5]] {
            let (v, _) = s.eval_with_gradient(p);
            assert!((v - s.eval(p)).abs() < 1e-13);
        }
    }

    #[test]
    fn random_spline_is_seeded() {
        let a = Spline3D::random(5, 2.0, 1);
        let b = Spline3D::random(5, 2.0, 1);
        let c = Spline3D::random(5, 2.0, 2);
        let p = [0.7, 1.3, 0.2];
        assert_eq!(a.eval(p), b.eval(p));
        assert_ne!(a.eval(p), c.eval(p));
    }

    #[test]
    #[should_panic(expected = "n³ coefficients")]
    fn rejects_wrong_coefficient_count() {
        Spline3D::new(4, 1.0, vec![0.0; 63]);
    }
}
