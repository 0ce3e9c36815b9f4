//! Cell-binned full neighbor lists with a skin distance.
//!
//! MiniMD bins atoms into cells no smaller than `cutoff + skin` and rebuilds
//! the per-atom neighbor list every few steps; between rebuilds the skin
//! margin keeps the list valid. The list is *full* (both `(i,j)` and `(j,i)`
//! stored), matching MiniMD's OpenMP force kernel, which avoids write sharing
//! by having each thread update only the forces of its own atoms.
//!
//! Storage is CSR-style (`offsets` + flat `neighbors`) so rebuilds do one
//! large allocation at most and the force loop walks contiguous memory.

use super::{min_image, norm2, V3};

/// A rebuilt-on-demand neighbor list.
#[derive(Debug, Clone, Default)]
pub struct NeighborList {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl NeighborList {
    /// Creates an empty list (no atoms).
    pub fn new() -> Self {
        NeighborList::default()
    }

    /// Neighbors of atom `i`.
    #[inline]
    pub fn of(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of atoms the list covers.
    #[cfg(test)]
    fn atoms(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total stored neighbor entries.
    #[cfg(test)]
    fn total_pairs(&self) -> usize {
        self.neighbors.len()
    }

    /// Rebuilds the list for `pos` in a periodic box, including every pair
    /// with distance < `reach` (= cutoff + skin).
    ///
    /// Uses cell binning when the box fits ≥ 3 cells per axis, otherwise an
    /// all-pairs scan (correct for tiny test boxes where binning degenerates).
    pub fn rebuild(&mut self, pos: &[V3], box_len: V3, reach: f64) {
        assert!(reach > 0.0, "reach must be positive");
        let n = pos.len();
        let reach2 = reach * reach;
        let cells_per_dim: [usize; 3] = [
            (box_len[0] / reach).floor() as usize,
            (box_len[1] / reach).floor() as usize,
            (box_len[2] / reach).floor() as usize,
        ];
        let use_cells = cells_per_dim.iter().all(|&c| c >= 3);

        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.neighbors.clear();
        self.offsets.push(0);

        if !use_cells {
            for i in 0..n {
                for j in 0..n {
                    if i != j && norm2(min_image(pos[i], pos[j], box_len)) < reach2 {
                        self.neighbors.push(j as u32);
                    }
                }
                self.offsets.push(self.neighbors.len());
            }
            return;
        }

        let [cx, cy, cz] = cells_per_dim;
        let ncells = cx * cy * cz;
        let cell_of = |p: V3| -> usize {
            let f = |x: f64, l: f64, c: usize| -> usize {
                // Fold into [0, L) first; positions may drift slightly out.
                let mut x = x % l;
                if x < 0.0 {
                    x += l;
                }
                (((x / l) * c as f64) as usize).min(c - 1)
            };
            (f(p[2], box_len[2], cz) * cy + f(p[1], box_len[1], cy)) * cx + f(p[0], box_len[0], cx)
        };

        // Bucket atoms by cell (counting sort).
        let mut cell_count = vec![0usize; ncells + 1];
        let cell_idx: Vec<usize> = pos.iter().map(|&p| cell_of(p)).collect();
        for &c in &cell_idx {
            cell_count[c + 1] += 1;
        }
        for c in 0..ncells {
            cell_count[c + 1] += cell_count[c];
        }
        let mut cell_atoms = vec![0u32; n];
        let mut cursor = cell_count.clone();
        for (i, &c) in cell_idx.iter().enumerate() {
            cell_atoms[cursor[c]] = i as u32;
            cursor[c] += 1;
        }

        // For each atom: scan the 27 neighbouring cells.
        for i in 0..n {
            let c = cell_idx[i];
            let ci = c % cx;
            let cj = (c / cx) % cy;
            let ck = c / (cx * cy);
            for dk in -1i64..=1 {
                let kk = (ck as i64 + dk).rem_euclid(cz as i64) as usize;
                for dj in -1i64..=1 {
                    let jj = (cj as i64 + dj).rem_euclid(cy as i64) as usize;
                    for di in -1i64..=1 {
                        let ii = (ci as i64 + di).rem_euclid(cx as i64) as usize;
                        let cell = (kk * cy + jj) * cx + ii;
                        for &j in &cell_atoms[cell_count[cell]..cell_count[cell + 1]] {
                            let j = j as usize;
                            if j != i && norm2(min_image(pos[i], pos[j], box_len)) < reach2 {
                                self.neighbors.push(j as u32);
                            }
                        }
                    }
                }
            }
            self.offsets.push(self.neighbors.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimd::lattice::fcc_positions;

    /// Brute-force reference list.
    fn reference(pos: &[V3], box_len: V3, reach: f64) -> Vec<Vec<u32>> {
        let reach2 = reach * reach;
        (0..pos.len())
            .map(|i| {
                (0..pos.len())
                    .filter(|&j| j != i && norm2(min_image(pos[i], pos[j], box_len)) < reach2)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cell_list_matches_brute_force() {
        // Big enough box that cell binning engages (≥ 3 cells per axis).
        let (pos, box_len) = fcc_positions(6, 6, 6, 0.8442);
        let reach = 2.8;
        assert!(box_len[0] / reach >= 3.0, "test must exercise binning");
        let mut nl = NeighborList::new();
        nl.rebuild(&pos, box_len, reach);
        let want = reference(&pos, box_len, reach);
        assert_eq!(nl.atoms(), pos.len());
        for (i, w) in want.iter().enumerate() {
            let mut got: Vec<u32> = nl.of(i).to_vec();
            got.sort_unstable();
            let mut exp = w.clone();
            exp.sort_unstable();
            assert_eq!(got, exp, "atom {i}");
        }
    }

    #[test]
    fn all_pairs_fallback_matches_brute_force() {
        // Tiny box: fewer than 3 cells per axis forces the fallback.
        let (pos, box_len) = fcc_positions(2, 2, 2, 0.8442);
        let reach = 2.8;
        assert!(box_len[0] / reach < 3.0);
        let mut nl = NeighborList::new();
        nl.rebuild(&pos, box_len, reach);
        let want = reference(&pos, box_len, reach);
        for (i, w) in want.iter().enumerate() {
            let mut got: Vec<u32> = nl.of(i).to_vec();
            got.sort_unstable();
            let mut exp = w.clone();
            exp.sort_unstable();
            assert_eq!(got, exp, "atom {i}");
        }
    }

    #[test]
    fn list_is_symmetric() {
        let (pos, box_len) = fcc_positions(4, 3, 4, 0.8442);
        let mut nl = NeighborList::new();
        nl.rebuild(&pos, box_len, 2.8);
        for i in 0..pos.len() {
            for &j in nl.of(i) {
                assert!(
                    nl.of(j as usize).contains(&(i as u32)),
                    "pair ({i}, {j}) not symmetric"
                );
            }
        }
        assert_eq!(nl.total_pairs() % 2, 0);
    }

    #[test]
    fn rebuild_is_idempotent_and_reuses_storage() {
        let (pos, box_len) = fcc_positions(3, 3, 3, 0.8442);
        let mut nl = NeighborList::new();
        nl.rebuild(&pos, box_len, 2.8);
        let first: Vec<usize> = (0..pos.len()).map(|i| nl.of(i).len()).collect();
        nl.rebuild(&pos, box_len, 2.8);
        let second: Vec<usize> = (0..pos.len()).map(|i| nl.of(i).len()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn out_of_box_positions_are_folded_for_binning() {
        let (mut pos, box_len) = fcc_positions(6, 6, 6, 0.8442);
        // Drift one atom slightly outside (as integrators do between wraps).
        pos[0][0] += box_len[0];
        pos[1][1] -= box_len[1];
        let mut nl = NeighborList::new();
        nl.rebuild(&pos, box_len, 2.8);
        let want = reference(&pos, box_len, 2.8);
        for i in [0usize, 1] {
            let mut got: Vec<u32> = nl.of(i).to_vec();
            got.sort_unstable();
            let mut exp = want[i].clone();
            exp.sort_unstable();
            assert_eq!(got, exp, "atom {i}");
        }
    }
}
