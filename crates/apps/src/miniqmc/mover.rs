//! Walkers and the threaded mover — the instrumented MiniQMC section.
//!
//! Each walker holds an electron configuration and a private RNG. One
//! application iteration moves every walker through one sweep: for each
//! electron, propose a drift–diffusion step, evaluate the wavefunction ratio
//! (spline orbital + Jastrow), and Metropolis-accept. Each thread owns a
//! static block of walkers, so per-thread work varies with acceptance
//! history — the mechanism behind MiniQMC's wide thread-arrival spread.

use ebird_core::ThreadSample;
use ebird_runtime::{static_block, Pool, TimeSource};

use super::jastrow::Jastrow;
use super::spline::Spline3D;
use crate::minimd::V3;
use crate::rng::SplitMix64;
use crate::ProxyApp;

/// MiniQMC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniQmcParams {
    /// Number of walkers (paper runs one mover per thread; more walkers than
    /// threads gives each thread a block).
    pub walkers: usize,
    /// Electrons per walker.
    pub electrons: usize,
    /// Spline grid points per axis.
    pub grid: usize,
    /// Cubic box side length.
    pub box_len: f64,
    /// Drift–diffusion timestep τ.
    pub tau: f64,
    /// Electron sweeps per application iteration.
    pub sweeps_per_step: usize,
    /// Master seed (walker RNGs derive from it).
    pub seed: u64,
}

impl MiniQmcParams {
    /// CI-scale configuration: 32 walkers × 16 electrons.
    pub fn ci_scale() -> Self {
        MiniQmcParams {
            walkers: 32,
            electrons: 16,
            grid: 16,
            box_len: 6.0,
            tau: 0.05,
            sweeps_per_step: 2,
            seed: 20230421,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test_scale() -> Self {
        MiniQmcParams {
            walkers: 6,
            electrons: 5,
            grid: 8,
            box_len: 4.0,
            tau: 0.05,
            sweeps_per_step: 1,
            seed: 7,
        }
    }
}

/// One walker: an electron configuration plus its private RNG and move
/// statistics.
#[derive(Debug, Clone)]
pub struct Walker {
    electrons: Vec<V3>,
    rng: SplitMix64,
    accepted: u64,
    proposed: u64,
}

impl Walker {
    fn new(electrons: usize, box_len: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let electrons = (0..electrons)
            .map(|_| {
                [
                    rng.next_f64() * box_len,
                    rng.next_f64() * box_len,
                    rng.next_f64() * box_len,
                ]
            })
            .collect();
        Walker {
            electrons,
            rng,
            accepted: 0,
            proposed: 0,
        }
    }

    /// Electron positions.
    pub fn electrons(&self) -> &[V3] {
        &self.electrons
    }

    /// Accepted / proposed move counts.
    #[cfg(test)]
    fn acceptance(&self) -> (u64, u64) {
        (self.accepted, self.proposed)
    }

    /// Log of the trial wavefunction's electron-`e` factor at position `r`:
    /// `log φ(r) + log J`-part of `e`. The spline value is squashed through
    /// `tanh` to keep `|ψ|` bounded away from pathological ratios.
    fn log_psi_one(
        &self,
        e: usize,
        r: V3,
        spline: &Spline3D,
        jastrow: &Jastrow,
        box_len: f64,
    ) -> f64 {
        let orbital = spline.eval(r).tanh();
        // Map orbital from [-1,1] to a positive amplitude.
        let log_orb = 0.5 * (1.2 + orbital).ln();
        log_orb + jastrow.log_one_body_sum(e, r, &self.electrons, box_len)
    }

    /// Drift vector at `r` for electron `e`: `τ·∇log ψ` with the spline's
    /// squashed-orbital chain rule plus the Jastrow gradient.
    fn drift(
        &self,
        e: usize,
        r: V3,
        spline: &Spline3D,
        jastrow: &Jastrow,
        box_len: f64,
        tau: f64,
    ) -> V3 {
        let (v, g) = spline.eval_with_gradient(r);
        let th = v.tanh();
        // d/dx log(1.2 + tanh v)/2 … = (1 − th²)·∇v / (2(1.2 + th))
        let coef = (1.0 - th * th) / (2.0 * (1.2 + th));
        let jg = jastrow.grad_one_body_sum(e, r, &self.electrons, box_len);
        [
            tau * (coef * g[0] + jg[0]),
            tau * (coef * g[1] + jg[1]),
            tau * (coef * g[2] + jg[2]),
        ]
    }

    /// One Metropolis sweep over all electrons.
    fn sweep(&mut self, spline: &Spline3D, jastrow: &Jastrow, box_len: f64, tau: f64) {
        let sqrt_tau = tau.sqrt();
        for e in 0..self.electrons.len() {
            let r_old = self.electrons[e];
            let drift = self.drift(e, r_old, spline, jastrow, box_len, tau);
            let proposal = [
                (r_old[0] + drift[0] + sqrt_tau * self.rng.next_gaussian()).rem_euclid(box_len),
                (r_old[1] + drift[1] + sqrt_tau * self.rng.next_gaussian()).rem_euclid(box_len),
                (r_old[2] + drift[2] + sqrt_tau * self.rng.next_gaussian()).rem_euclid(box_len),
            ];
            let log_old = self.log_psi_one(e, r_old, spline, jastrow, box_len);
            let log_new = self.log_psi_one(e, proposal, spline, jastrow, box_len);
            // |ψ_new/ψ_old|²
            let ratio2 = (2.0 * (log_new - log_old)).exp();
            self.proposed += 1;
            if self.rng.next_f64() < ratio2.min(1.0) {
                self.electrons[e] = proposal;
                self.accepted += 1;
            }
        }
    }
}

/// MiniQMC state: the shared read-only wavefunction pieces plus the walker
/// population.
#[derive(Debug, Clone)]
pub struct MiniQmc {
    params: MiniQmcParams,
    spline: Spline3D,
    jastrow: Jastrow,
    walkers: Vec<Walker>,
    steps: usize,
}

impl MiniQmc {
    /// Builds the spline table and walker population.
    pub fn new(params: MiniQmcParams) -> Self {
        assert!(params.walkers >= 1 && params.electrons >= 1);
        let spline = Spline3D::random(params.grid, params.box_len, params.seed);
        let jastrow = Jastrow::new(0.5, params.box_len / 4.0);
        // Distinct stream from the spline's coefficient seed.
        let mut seed_rng = SplitMix64::new(params.seed ^ 0x57A1_4E55_0F5E_ED00);
        let walkers = (0..params.walkers)
            .map(|_| Walker::new(params.electrons, params.box_len, seed_rng.next_u64()))
            .collect();
        MiniQmc {
            params,
            spline,
            jastrow,
            walkers,
            steps: 0,
        }
    }

    /// Walker population (read access for diagnostics).
    pub fn walkers(&self) -> &[Walker] {
        &self.walkers
    }

    /// Population-wide acceptance rate.
    fn acceptance_rate(&self) -> f64 {
        let (acc, prop) = self
            .walkers
            .iter()
            .fold((0u64, 0u64), |(a, p), w| (a + w.accepted, p + w.proposed));
        if prop == 0 {
            0.0
        } else {
            acc as f64 / prop as f64
        }
    }
}

impl ProxyApp for MiniQmc {
    fn name(&self) -> &'static str {
        "MiniQMC"
    }

    /// One iteration: every walker does `sweeps_per_step` sweeps; threads own
    /// static walker blocks; the whole mover loop is the timed section.
    fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
        let part_lens: Vec<usize> = (0..pool.threads())
            .map(|t| static_block(self.walkers.len(), pool.threads(), t).len())
            .collect();
        let (spline, jastrow) = (&self.spline, &self.jastrow);
        let (box_len, tau, sweeps) = (
            self.params.box_len,
            self.params.tau,
            self.params.sweeps_per_step,
        );
        let body = |block: &mut [Walker],
                    _range: std::ops::Range<usize>,
                    _ctx: &ebird_runtime::Ctx<'_>| {
            for w in block.iter_mut() {
                for _ in 0..sweeps {
                    w.sweep(spline, jastrow, box_len, tau);
                }
            }
        };
        let samples = pool.timed_parts_mut(clock, &mut self.walkers, &part_lens, body);
        self.steps += 1;
        samples
    }

    fn thread_ops(&self, threads: usize) -> Vec<u64> {
        // The timed section is the walker-partitioned mover loop. Per
        // electron move: one drift + two log-ψ evaluations, each an
        // O(electrons) Jastrow sum, plus a constant spline-evaluation cost
        // (64 ≈ the 4³ tricubic stencil).
        let e = self.params.electrons as u64;
        let per_walker = self.params.sweeps_per_step as u64 * e * (3 * e + 64);
        (0..threads)
            .map(|t| static_block(self.walkers.len(), threads, t).len() as u64 * per_walker)
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        for (i, w) in self.walkers.iter().enumerate() {
            for (e, r) in w.electrons.iter().enumerate() {
                if r.iter().any(|x| !x.is_finite()) {
                    return Err(format!("walker {i} electron {e} non-finite"));
                }
                if r.iter().any(|&x| x < 0.0 || x >= self.params.box_len) {
                    return Err(format!("walker {i} electron {e} escaped the box: {r:?}"));
                }
            }
        }
        if self.steps > 0 {
            let rate = self.acceptance_rate();
            if !(0.01..=1.0).contains(&rate) {
                return Err(format!("implausible acceptance rate {rate}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_runtime::WallClock;

    #[test]
    fn walkers_initialize_in_box_and_deterministically() {
        let a = MiniQmc::new(MiniQmcParams::test_scale());
        let b = MiniQmc::new(MiniQmcParams::test_scale());
        assert!(a.verify().is_ok());
        for (wa, wb) in a.walkers().iter().zip(b.walkers()) {
            assert_eq!(wa.electrons(), wb.electrons());
        }
    }

    #[test]
    fn sweeps_move_electrons_and_stay_in_box() {
        let mut qmc = MiniQmc::new(MiniQmcParams::test_scale());
        let pool = Pool::new(2);
        let before: Vec<V3> = qmc.walkers()[0].electrons().to_vec();
        for _ in 0..10 {
            qmc.step(&pool, None);
        }
        assert!(qmc.verify().is_ok());
        let after = qmc.walkers()[0].electrons();
        assert_ne!(before, after, "walker should have moved");
        assert_eq!(qmc.steps, 10);
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let mut qmc = MiniQmc::new(MiniQmcParams::test_scale());
        let pool = Pool::new(2);
        for _ in 0..20 {
            qmc.step(&pool, None);
        }
        let rate = qmc.acceptance_rate();
        // τ = 0.05 diffusion in a smooth landscape: most moves accepted.
        assert!((0.3..=1.0).contains(&rate), "acceptance {rate}");
    }

    #[test]
    fn thread_count_does_not_change_population() {
        // Walker RNGs are private, so partitioning must be bitwise neutral.
        let mut a = MiniQmc::new(MiniQmcParams::test_scale());
        let mut b = MiniQmc::new(MiniQmcParams::test_scale());
        let p1 = Pool::new(1);
        let p3 = Pool::new(3);
        for _ in 0..5 {
            a.step(&p1, None);
            b.step(&p3, None);
        }
        for (wa, wb) in a.walkers().iter().zip(b.walkers()) {
            assert_eq!(wa.electrons(), wb.electrons());
            assert_eq!(wa.acceptance(), wb.acceptance());
        }
    }

    #[test]
    fn timed_step_records_all_threads_and_matches_untimed() {
        let mut timed = MiniQmc::new(MiniQmcParams::test_scale());
        let mut plain = MiniQmc::new(MiniQmcParams::test_scale());
        let pool = Pool::new(3);
        let clock = WallClock::new();
        for _ in 0..4 {
            assert_eq!(timed.step(&pool, Some(&clock)).len(), 3);
            assert!(plain.step(&pool, None).is_empty());
        }
        assert!(timed.verify().is_ok());
        assert_eq!(timed.steps, plain.steps);
        for (wt, wp) in timed.walkers().iter().zip(plain.walkers()) {
            assert_eq!(wt.electrons(), wp.electrons(), "walkers diverged");
            assert_eq!(wt.acceptance(), wp.acceptance());
        }
    }

    #[test]
    fn verify_catches_escaped_electron() {
        let mut qmc = MiniQmc::new(MiniQmcParams::test_scale());
        qmc.walkers[0].electrons[0] = [99.0, 0.0, 0.0];
        assert!(qmc.verify().is_err());
    }
}
