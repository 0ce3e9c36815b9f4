//! The MiniFE driver: conjugate-gradient iterations with an instrumented,
//! plane-partitioned SpMV.
//!
//! Each application iteration is one CG step. The timed compute section is
//! the matrix–vector product `Ap = A·p`, whose outer loop walks the mesh's
//! `nz` planes and is statically distributed to threads — per the paper, the
//! source of MiniFE's structural imbalance (e.g. 200 planes over 48 threads:
//! threads 0–7 compute 5 planes, threads 8–47 compute 4).

use ebird_core::ThreadSample;
use ebird_runtime::{static_block, Pool, TimeSource};

use super::csr::CsrMatrix;
use super::mesh::{assemble_stencil, MeshDims};
use crate::ProxyApp;

/// MiniFE configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniFeParams {
    /// Mesh dimensions; `dims.nz` is the distributed plane count.
    pub dims: MeshDims,
}

impl MiniFeParams {
    /// Paper-like configuration scaled to CI: a 20×20×200 mesh keeps the
    /// load-bearing 200-plane outer loop while holding the node count at 80k
    /// (the paper's 200³ = 8M nodes per process needs a real cluster node).
    pub fn ci_scale() -> Self {
        MiniFeParams {
            dims: MeshDims::new(20, 20, 200),
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test_scale() -> Self {
        MiniFeParams {
            dims: MeshDims::new(6, 6, 12),
        }
    }
}

/// MiniFE state: the assembled system and the CG work vectors.
#[derive(Debug, Clone)]
pub struct MiniFe {
    dims: MeshDims,
    a: CsrMatrix,
    /// Current solution estimate.
    x: Vec<f64>,
    /// Right-hand side (`A · 1`, so the exact solution is all-ones).
    b: Vec<f64>,
    /// Residual `b − A·x`.
    r: Vec<f64>,
    /// Search direction.
    p: Vec<f64>,
    /// `A·p` scratch (the timed SpMV output).
    ap: Vec<f64>,
    rs_old: f64,
    steps: usize,
}

impl MiniFe {
    /// Assembles the system for `params` and initializes CG at `x = 0`.
    pub fn new(params: MiniFeParams) -> Self {
        let dims = params.dims;
        let a = assemble_stencil(dims);
        let n = dims.nodes();
        // b = A·1 ⇒ exact solution is the all-ones vector (rows sum to 1,
        // so b is in fact all-ones too; kept general regardless).
        let ones = vec![1.0; n];
        let mut b = vec![0.0; n];
        a.spmv(&ones, &mut b);
        let r = b.clone(); // x₀ = 0 ⇒ r₀ = b
        let p = r.clone();
        let rs_old = dot(&r, &r);
        MiniFe {
            dims,
            a,
            x: vec![0.0; n],
            b,
            r,
            p,
            ap: vec![0.0; n],
            rs_old,
            steps: 0,
        }
    }

    /// Mesh dimensions.
    pub fn dims(&self) -> MeshDims {
        self.dims
    }

    /// Completed CG steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Current residual 2-norm.
    pub fn residual_norm(&self) -> f64 {
        self.rs_old.sqrt()
    }

    /// Infinity-norm error against the known all-ones solution.
    #[cfg(test)]
    fn solution_error(&self) -> f64 {
        self.x.iter().map(|&v| (v - 1.0).abs()).fold(0.0, f64::max)
    }

    /// Per-thread part lengths (in rows) for the plane-partitioned SpMV:
    /// planes are split with the static schedule, then scaled to rows.
    fn plane_part_lens(&self, threads: usize) -> Vec<usize> {
        let plane_rows = self.dims.plane_rows();
        (0..threads)
            .map(|t| static_block(self.dims.nz, threads, t).len() * plane_rows)
            .collect()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl ProxyApp for MiniFe {
    fn name(&self) -> &'static str {
        "MiniFE"
    }

    /// One CG step with the SpMV as the timed section.
    fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
        let part_lens = self.plane_part_lens(pool.threads());
        let (a, p, ap) = (&self.a, &self.p, &mut self.ap);
        // Timed section: Ap = A·p, plane-partitioned (Listing 1 placement).
        let body =
            |block: &mut [f64], range: std::ops::Range<usize>, _ctx: &ebird_runtime::Ctx<'_>| {
                for (off, out) in block.iter_mut().enumerate() {
                    *out = a.spmv_row(range.start + off, p);
                }
            };
        let samples = pool.timed_parts_mut(clock, ap, &part_lens, body);

        // Untimed remainder of the CG step (as in MiniFE, where only the
        // matvec is instrumented).
        let p_dot_ap = dot(&self.p, &self.ap);
        self.steps += 1;
        if p_dot_ap <= f64::MIN_POSITIVE {
            // Converged to rounding: the timed SpMV still ran (the paper's
            // drivers iterate a fixed 200 times), but the CG update would
            // divide by ~0, so hold the solution fixed.
            return samples;
        }
        let alpha = self.rs_old / p_dot_ap;
        for i in 0..self.x.len() {
            self.x[i] += alpha * self.p[i];
            self.r[i] -= alpha * self.ap[i];
        }
        let rs_new = dot(&self.r, &self.r);
        let beta = rs_new / self.rs_old;
        for i in 0..self.p.len() {
            self.p[i] = self.r[i] + beta * self.p[i];
        }
        self.rs_old = rs_new;
        samples
    }

    fn thread_ops(&self, threads: usize) -> Vec<u64> {
        // The timed section is the plane-partitioned SpMV: thread t's work
        // is the nonzeros of its contiguous row block (constant across
        // iterations — the sparsity pattern never changes).
        let part_lens = self.plane_part_lens(threads);
        let mut start = 0usize;
        part_lens
            .iter()
            .map(|&len| {
                let ops: u64 = (start..start + len)
                    .map(|r| self.a.row(r).0.len() as u64)
                    .sum();
                start += len;
                ops
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        // CG on an SPD system must not diverge: residual stays finite and,
        // after ≥ a handful of steps, decreases from ‖b‖.
        if !self.rs_old.is_finite() {
            return Err(format!("residual diverged: {}", self.rs_old));
        }
        let b_norm = dot(&self.b, &self.b).sqrt();
        if self.steps >= 5 && self.residual_norm() > b_norm {
            return Err(format!(
                "residual {} did not descend below ‖b‖ = {b_norm} after {} steps",
                self.residual_norm(),
                self.steps
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_runtime::WallClock;

    #[test]
    fn cg_converges_to_ones() {
        let mut fe = MiniFe::new(MiniFeParams::test_scale());
        let pool = Pool::new(2);
        let initial = fe.residual_norm();
        for _ in 0..60 {
            fe.step(&pool, None);
        }
        assert!(
            fe.residual_norm() < 1e-8 * initial,
            "res {}",
            fe.residual_norm()
        );
        assert!(fe.solution_error() < 1e-6, "err {}", fe.solution_error());
        assert!(fe.verify().is_ok());
        assert_eq!(fe.steps(), 60);
    }

    #[test]
    fn parallel_and_serial_spmv_agree() {
        // One step with 1 thread vs 4 threads must produce identical state
        // (the parallel split is over disjoint rows; no reduction reorder).
        let mut fe1 = MiniFe::new(MiniFeParams::test_scale());
        let mut fe4 = MiniFe::new(MiniFeParams::test_scale());
        fe1.step(&Pool::new(1), None);
        fe4.step(&Pool::new(4), None);
        assert_eq!(fe1.x, fe4.x);
        assert_eq!(fe1.r, fe4.r);
    }

    #[test]
    fn timed_step_records_all_threads_and_matches_untimed() {
        let params = MiniFeParams::test_scale();
        let mut timed = MiniFe::new(params);
        let mut plain = MiniFe::new(params);
        let pool = Pool::new(3);
        let clock = WallClock::new();
        for _ in 0..4 {
            assert_eq!(timed.step(&pool, Some(&clock)).len(), 3);
            assert!(plain.step(&pool, None).is_empty());
        }
        assert_eq!(timed.x, plain.x, "instrumentation must not perturb results");
    }

    #[test]
    fn plane_part_lens_mirror_static_schedule() {
        let fe = MiniFe::new(MiniFeParams {
            dims: MeshDims::new(3, 3, 10),
        });
        let lens = fe.plane_part_lens(4);
        // 10 planes over 4 threads: 3,3,2,2 planes × 9 rows.
        assert_eq!(lens, vec![27, 27, 18, 18]);
        assert_eq!(lens.iter().sum::<usize>(), fe.dims().nodes());
    }

    #[test]
    fn verify_fails_on_poisoned_state() {
        let mut fe = MiniFe::new(MiniFeParams::test_scale());
        fe.rs_old = f64::NAN;
        assert!(fe.verify().is_err());
    }
}
