//! The MiniMD driver: velocity-Verlet integration with an instrumented,
//! atom-partitioned Lennard-Jones force kernel.

use ebird_core::ThreadSample;
use ebird_runtime::{static_block, Pool, TimeSource};

use super::lattice::{fcc_positions, initial_velocities};
use super::neighbor::NeighborList;
use super::{min_image, norm2, V3};
use crate::ProxyApp;

/// MiniMD configuration (reduced LJ units throughout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniMdParams {
    /// FCC unit cells per axis; atom count is `4·x·y·z`.
    pub cells: (usize, usize, usize),
    /// Reduced density ρ* (MiniMD default 0.8442).
    pub density: f64,
    /// Initial reduced temperature T* (MiniMD default 1.44).
    pub temperature: f64,
    /// LJ cutoff r_c (MiniMD default 2.5).
    pub cutoff: f64,
    /// Neighbor-list skin (MiniMD default 0.3).
    pub skin: f64,
    /// Timestep Δt* (MiniMD default 0.005).
    pub dt: f64,
    /// Rebuild the neighbor list every this many steps (MiniMD default 20).
    pub rebuild_every: usize,
    /// Velocity seed.
    pub seed: u64,
}

impl MiniMdParams {
    /// Tiny configuration for unit tests (3³ cells = 108 atoms).
    pub fn test_scale() -> Self {
        MiniMdParams {
            cells: (3, 3, 3),
            density: 0.8442,
            temperature: 1.44,
            cutoff: 2.5,
            skin: 0.3,
            dt: 0.005,
            rebuild_every: 20,
            seed: 12345,
        }
    }
}

/// MiniMD state.
#[derive(Debug, Clone)]
pub struct MiniMd {
    params: MiniMdParams,
    pos: Vec<V3>,
    vel: Vec<V3>,
    force: Vec<V3>,
    box_len: V3,
    neighbors: NeighborList,
    steps: usize,
}

impl MiniMd {
    /// Builds the lattice, draws velocities, computes initial forces
    /// (serially — setup is untimed).
    pub fn new(params: MiniMdParams) -> Self {
        let (ncx, ncy, ncz) = params.cells;
        let (pos, box_len) = fcc_positions(ncx, ncy, ncz, params.density);
        let n = pos.len();
        let vel = initial_velocities(n, params.temperature, params.seed);
        let mut md = MiniMd {
            params,
            pos,
            vel,
            force: vec![[0.0; 3]; n],
            box_len,
            neighbors: NeighborList::new(),
            steps: 0,
        };
        md.rebuild_neighbors();
        md.compute_forces_serial();
        md
    }

    /// Atom count.
    fn atoms(&self) -> usize {
        self.pos.len()
    }

    fn reach(&self) -> f64 {
        self.params.cutoff + self.params.skin
    }

    fn rebuild_neighbors(&mut self) {
        // Fold positions back into the box first (drift accumulates between
        // rebuilds; forces use minimum image so folding is safe).
        for p in &mut self.pos {
            for (c, &l) in p.iter_mut().zip(&self.box_len) {
                *c = c.rem_euclid(l);
            }
        }
        let reach = self.reach();
        self.neighbors.rebuild(&self.pos, self.box_len, reach);
    }

    /// LJ pair force coefficient: `F⃗ = coef · Δ⃗` with
    /// `coef = 24 r⁻² · r⁻⁶ (2 r⁻¹² − r⁻⁶) … = 24 sr2·sr6·(2·sr6 − 1)`.
    #[inline]
    fn lj_coef(r2: f64) -> f64 {
        let sr2 = 1.0 / r2;
        let sr6 = sr2 * sr2 * sr2;
        24.0 * sr2 * sr6 * (2.0 * sr6 - 1.0)
    }

    /// Force on one atom from its neighbor list (cutoff applied here, the
    /// list over-approximates by the skin).
    #[inline]
    fn force_on(i: usize, pos: &[V3], neighbors: &NeighborList, box_len: V3, cutoff2: f64) -> V3 {
        let mut f = [0.0f64; 3];
        let pi = pos[i];
        for &j in neighbors.of(i) {
            let d = min_image(pi, pos[j as usize], box_len);
            let r2 = norm2(d);
            if r2 < cutoff2 {
                let c = Self::lj_coef(r2);
                f[0] += c * d[0];
                f[1] += c * d[1];
                f[2] += c * d[2];
            }
        }
        f
    }

    fn compute_forces_serial(&mut self) {
        let cutoff2 = self.params.cutoff * self.params.cutoff;
        for i in 0..self.pos.len() {
            self.force[i] = Self::force_on(i, &self.pos, &self.neighbors, self.box_len, cutoff2);
        }
    }

    /// Kinetic energy `Σ ½ v²` (unit mass).
    #[cfg(test)]
    fn kinetic_energy(&self) -> f64 {
        0.5 * self.vel.iter().map(|v| norm2(*v)).sum::<f64>()
    }

    /// Potential energy `Σ_{i<j} 4(r⁻¹² − r⁻⁶)` within the cutoff (serial;
    /// diagnostics only).
    #[cfg(test)]
    fn potential_energy(&self) -> f64 {
        let cutoff2 = self.params.cutoff * self.params.cutoff;
        let mut e = 0.0;
        for i in 0..self.pos.len() {
            for &j in self.neighbors.of(i) {
                let j = j as usize;
                if j > i {
                    let r2 = norm2(min_image(self.pos[i], self.pos[j], self.box_len));
                    if r2 < cutoff2 {
                        let sr6 = (1.0 / r2).powi(3);
                        e += 4.0 * sr6 * (sr6 - 1.0);
                    }
                }
            }
        }
        e
    }

    /// Total energy (diagnostics).
    #[cfg(test)]
    fn total_energy(&self) -> f64 {
        self.kinetic_energy() + self.potential_energy()
    }

    /// Net momentum magnitude (conserved by LJ forces).
    fn net_momentum(&self) -> f64 {
        let mut p = [0.0f64; 3];
        for v in &self.vel {
            for d in 0..3 {
                p[d] += v[d];
            }
        }
        norm2(p).sqrt()
    }
}

impl ProxyApp for MiniMd {
    fn name(&self) -> &'static str {
        "MiniMD"
    }

    /// One velocity-Verlet step; `clock` times only the force kernel.
    fn step(&mut self, pool: &Pool, clock: Option<&dyn TimeSource>) -> Vec<ThreadSample> {
        let dt = self.params.dt;
        let half = 0.5 * dt;
        // First half-kick + drift (untimed, as in the instrumented MiniMD).
        for i in 0..self.pos.len() {
            for d in 0..3 {
                self.vel[i][d] += half * self.force[i][d];
                self.pos[i][d] += dt * self.vel[i][d];
            }
        }
        if self.steps.is_multiple_of(self.params.rebuild_every) {
            self.rebuild_neighbors();
        }
        // Timed section: the LJ forcing function, atoms statically split.
        let samples = {
            let n = self.pos.len();
            let part_lens: Vec<usize> = (0..pool.threads())
                .map(|t| static_block(n, pool.threads(), t).len())
                .collect();
            let cutoff2 = self.params.cutoff * self.params.cutoff;
            let (pos, neighbors, box_len) = (&self.pos, &self.neighbors, self.box_len);
            let body =
                |block: &mut [V3], range: std::ops::Range<usize>, _ctx: &ebird_runtime::Ctx<'_>| {
                    for (off, out) in block.iter_mut().enumerate() {
                        *out = Self::force_on(range.start + off, pos, neighbors, box_len, cutoff2);
                    }
                };
            pool.timed_parts_mut(clock, &mut self.force, &part_lens, body)
        };
        // Final half-kick.
        for i in 0..self.pos.len() {
            for d in 0..3 {
                self.vel[i][d] += half * self.force[i][d];
            }
        }
        self.steps += 1;
        samples
    }

    fn thread_ops(&self, threads: usize) -> Vec<u64> {
        // The timed section is the atom-partitioned LJ force kernel: thread
        // t's work is the neighbor pairs its atom block evaluated (plus one
        // op per atom for the loop body), against the list the most recent
        // step's force computation actually used.
        let n = self.pos.len();
        (0..threads)
            .map(|t| {
                static_block(n, threads, t)
                    .map(|i| self.neighbors.of(i).len() as u64 + 1)
                    .sum()
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        if self.pos.iter().flatten().any(|x| !x.is_finite()) {
            return Err("non-finite position (integrator blew up)".into());
        }
        let p = self.net_momentum();
        // Momentum starts at 0 and is conserved up to rounding.
        if p > 1e-6 * self.atoms() as f64 {
            return Err(format!("net momentum drifted to {p}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebird_runtime::WallClock;

    #[test]
    fn initial_state_is_physical() {
        let md = MiniMd::new(MiniMdParams::test_scale());
        assert_eq!(md.atoms(), 108);
        assert!(md.verify().is_ok());
        // FCC at rho* = 0.8442 has strongly negative potential energy.
        assert!(md.potential_energy() < 0.0);
        // Lattice forces are ~zero by symmetry.
        let fmax = md
            .force
            .iter()
            .map(|f| norm2(*f).sqrt())
            .fold(0.0, f64::max);
        assert!(fmax < 1e-9, "max |F| on perfect lattice = {fmax}");
    }

    #[test]
    fn energy_is_approximately_conserved() {
        let mut md = MiniMd::new(MiniMdParams::test_scale());
        let pool = Pool::new(2);
        let e0 = md.total_energy();
        for _ in 0..50 {
            md.step(&pool, None);
        }
        let e1 = md.total_energy();
        let drift = ((e1 - e0) / e0.abs()).abs();
        // Truncated (unshifted) LJ with skin rebuilds: a few % is expected.
        assert!(drift < 0.05, "energy drift {drift} (e0={e0}, e1={e1})");
        assert!(md.verify().is_ok());
    }

    #[test]
    fn momentum_is_conserved_tightly() {
        let mut md = MiniMd::new(MiniMdParams::test_scale());
        let pool = Pool::new(3);
        for _ in 0..30 {
            md.step(&pool, None);
        }
        assert!(md.net_momentum() < 1e-9, "p = {}", md.net_momentum());
    }

    #[test]
    fn thread_count_does_not_change_trajectory() {
        let mut a = MiniMd::new(MiniMdParams::test_scale());
        let mut b = MiniMd::new(MiniMdParams::test_scale());
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        for _ in 0..10 {
            a.step(&p1, None);
            b.step(&p4, None);
        }
        assert_eq!(a.pos, b.pos, "force partitioning must be bitwise neutral");
        assert_eq!(a.vel, b.vel);
    }

    #[test]
    fn timed_step_matches_untimed_and_records() {
        let mut timed = MiniMd::new(MiniMdParams::test_scale());
        let mut plain = MiniMd::new(MiniMdParams::test_scale());
        let pool = Pool::new(2);
        let clock = WallClock::new();
        for _ in 0..5 {
            assert_eq!(timed.step(&pool, Some(&clock)).len(), 2);
            assert!(plain.step(&pool, None).is_empty());
        }
        assert_eq!(timed.pos, plain.pos);
    }

    #[test]
    fn lj_coef_sign_flips_at_minimum() {
        // LJ force is repulsive (positive coef) below r = 2^(1/6), attractive
        // above.
        let r_min2 = 2.0_f64.powf(1.0 / 3.0); // (2^(1/6))²
        assert!(MiniMd::lj_coef(r_min2 * 0.9) > 0.0);
        assert!(MiniMd::lj_coef(r_min2 * 1.1) < 0.0);
        assert!(MiniMd::lj_coef(r_min2).abs() < 1e-12);
    }

    #[test]
    fn lattice_heats_into_liquid() {
        // The melting benchmark: kinetic energy redistributes into potential;
        // temperature drops from 1.44 as the lattice disorders.
        let mut md = MiniMd::new(MiniMdParams::test_scale());
        let pool = Pool::new(2);
        let t0 = 2.0 * md.kinetic_energy() / (3.0 * md.atoms() as f64);
        for _ in 0..100 {
            md.step(&pool, None);
        }
        let t1 = 2.0 * md.kinetic_energy() / (3.0 * md.atoms() as f64);
        assert!((t0 - 1.44).abs() < 1e-9);
        assert!(t1 < t0, "temperature should drop: {t0} -> {t1}");
        assert!(t1 > 0.1, "system should stay warm: {t1}");
    }
}
