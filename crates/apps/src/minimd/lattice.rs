//! FCC lattice construction and seeded initial velocities.
//!
//! MiniMD initializes atoms on a face-centered-cubic lattice at reduced
//! density ρ* = 0.8442 (the LJ melting-point benchmark configuration used by
//! LAMMPS/MiniMD) and draws initial velocities that are then zeroed in net
//! momentum and rescaled to the target temperature (T* = 1.44 by default).

use super::V3;
use crate::rng::SplitMix64;

/// The four FCC basis positions in unit-cell fractional coordinates.
const FCC_BASIS: [V3; 4] = [
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5],
];

/// Builds atom positions for `(ncx, ncy, ncz)` FCC unit cells at reduced
/// density `rho`. Returns `(positions, box_lengths)`; atom count is
/// `4 · ncx · ncy · ncz`.
pub fn fcc_positions(ncx: usize, ncy: usize, ncz: usize, rho: f64) -> (Vec<V3>, V3) {
    assert!(
        ncx >= 1 && ncy >= 1 && ncz >= 1,
        "need ≥ 1 unit cell per axis"
    );
    assert!(rho > 0.0, "density must be positive");
    // 4 atoms per cubic cell of volume a³ ⇒ a = (4/ρ)^(1/3).
    let a = (4.0 / rho).cbrt();
    let box_len = [ncx as f64 * a, ncy as f64 * a, ncz as f64 * a];
    let mut pos = Vec::with_capacity(4 * ncx * ncy * ncz);
    for cz in 0..ncz {
        for cy in 0..ncy {
            for cx in 0..ncx {
                for basis in FCC_BASIS {
                    pos.push([
                        (cx as f64 + basis[0]) * a,
                        (cy as f64 + basis[1]) * a,
                        (cz as f64 + basis[2]) * a,
                    ]);
                }
            }
        }
    }
    (pos, box_len)
}

/// Draws initial velocities: uniform in `[-0.5, 0.5)³`, shifted to zero net
/// momentum, rescaled so the instantaneous temperature
/// `T = (2/3)·KE/N` equals `temperature`.
pub fn initial_velocities(n: usize, temperature: f64, seed: u64) -> Vec<V3> {
    assert!(n > 0);
    assert!(temperature >= 0.0);
    let mut rng = SplitMix64::new(seed);
    let mut vel: Vec<V3> = (0..n)
        .map(|_| {
            [
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
            ]
        })
        .collect();
    // Zero net momentum.
    let mut mean = [0.0f64; 3];
    for v in &vel {
        for d in 0..3 {
            mean[d] += v[d];
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    for v in &mut vel {
        for d in 0..3 {
            v[d] -= mean[d];
        }
    }
    // Rescale to target temperature: KE = (3/2) N T ⇒ Σ v² = 3 N T.
    let v2: f64 = vel.iter().map(|v| super::norm2(*v)).sum();
    if v2 > 0.0 && temperature > 0.0 {
        let scale = (3.0 * n as f64 * temperature / v2).sqrt();
        for v in &mut vel {
            for c in v.iter_mut() {
                *c *= scale;
            }
        }
    } else if temperature == 0.0 {
        vel.fill([0.0; 3]);
    }
    vel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimd::norm2;

    #[test]
    fn fcc_atom_count_and_box() {
        let (pos, box_len) = fcc_positions(3, 2, 4, 0.8442);
        assert_eq!(pos.len(), 4 * 3 * 2 * 4);
        let a = (4.0 / 0.8442_f64).cbrt();
        assert!((box_len[0] - 3.0 * a).abs() < 1e-12);
        assert!((box_len[2] - 4.0 * a).abs() < 1e-12);
        // All atoms strictly inside the box.
        for p in &pos {
            for d in 0..3 {
                assert!(p[d] >= 0.0 && p[d] < box_len[d]);
            }
        }
    }

    #[test]
    fn fcc_density_is_exact() {
        let (pos, box_len) = fcc_positions(3, 3, 3, 0.8442);
        let vol = box_len[0] * box_len[1] * box_len[2];
        let rho = pos.len() as f64 / vol;
        assert!((rho - 0.8442).abs() < 1e-12, "rho = {rho}");
    }

    #[test]
    fn fcc_nearest_neighbour_distance() {
        // FCC nearest-neighbour distance is a/√2.
        let (pos, box_len) = fcc_positions(2, 2, 2, 0.8442);
        let a = (4.0 / 0.8442_f64).cbrt();
        let mut min_d2 = f64::INFINITY;
        for i in 0..pos.len() {
            for j in 0..i {
                let d = super::super::min_image(pos[i], pos[j], box_len);
                min_d2 = min_d2.min(norm2(d));
            }
        }
        assert!((min_d2.sqrt() - a / 2.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn velocities_have_zero_momentum_and_target_temperature() {
        let n = 500;
        let t_target = 1.44;
        let vel = initial_velocities(n, t_target, 42);
        let mut p = [0.0f64; 3];
        for v in &vel {
            for d in 0..3 {
                p[d] += v[d];
            }
        }
        for (d, c) in p.iter().enumerate() {
            assert!(c.abs() < 1e-9, "net momentum {d}: {c}");
        }
        let v2: f64 = vel.iter().map(|v| norm2(*v)).sum();
        let t = v2 / (3.0 * n as f64);
        assert!((t - t_target).abs() < 1e-12, "T = {t}");
    }

    #[test]
    fn velocities_are_deterministic_per_seed() {
        assert_eq!(
            initial_velocities(10, 1.0, 7),
            initial_velocities(10, 1.0, 7)
        );
        assert_ne!(
            initial_velocities(10, 1.0, 7),
            initial_velocities(10, 1.0, 8)
        );
    }

    #[test]
    fn zero_temperature_gives_zero_velocities() {
        let vel = initial_velocities(16, 0.0, 1);
        assert!(vel.iter().all(|v| *v == [0.0; 3]));
    }
}
