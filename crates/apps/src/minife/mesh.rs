//! Structured 3-D hex-mesh assembly: the 27-point stencil system.
//!
//! MiniFE assembles a Poisson-like FE operator on a brick of hex elements.
//! For the timing study only the *sparsity structure and row cost* of the
//! operator matter, so we assemble the standard 27-point stencil directly:
//! each node couples to its ≤ 26 neighbours with weight −1 and to itself with
//! the neighbour count, yielding a symmetric positive-definite M-matrix with
//! the same rows-per-plane layout MiniFE's SpMV loop walks.
//!
//! Node ordering is plane-major: node `(i, j, k)` has row
//! `(k·ny + j)·nx + i`, so the `nz` planes are contiguous row blocks — the
//! units the paper's outer loop distributes to threads.

use super::csr::CsrMatrix;

/// Mesh dimensions in nodes per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshDims {
    /// Nodes along x (fastest-varying index).
    pub nx: usize,
    /// Nodes along y.
    pub ny: usize,
    /// Nodes along z (plane index; the distributed loop dimension).
    pub nz: usize,
}

impl MeshDims {
    /// Creates mesh dimensions (each ≥ 1).
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "mesh dims must be ≥ 1");
        MeshDims { nx, ny, nz }
    }

    /// Cubic mesh `n × n × n`.
    #[cfg(test)]
    fn cube(n: usize) -> Self {
        Self::new(n, n, n)
    }

    /// Total node (row) count.
    pub fn nodes(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Rows per z-plane (`nx · ny`).
    pub fn plane_rows(&self) -> usize {
        self.nx * self.ny
    }

    /// Row index of node `(i, j, k)`.
    #[inline]
    fn row(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.ny + j) * self.nx + i
    }
}

/// Assembles the 27-point stencil operator for `dims`.
///
/// Diagonal = number of neighbours (so every row sums to zero except where
/// clipped by the boundary — we add +1 to the diagonal to make the operator
/// strictly positive definite, the discrete analogue of a mass term).
pub fn assemble_stencil(dims: MeshDims) -> CsrMatrix {
    let n = dims.nodes();
    let mut row_ptr = Vec::with_capacity(n + 1);
    // Upper bound 27 entries per row.
    let mut col_idx: Vec<u32> = Vec::with_capacity(n * 27);
    let mut values: Vec<f64> = Vec::with_capacity(n * 27);
    row_ptr.push(0);
    for k in 0..dims.nz {
        for j in 0..dims.ny {
            for i in 0..dims.nx {
                let diag_row = dims.row(i, j, k);
                let mut neighbours = 0u32;
                let row_start = values.len();
                for dk in -1i64..=1 {
                    let kk = k as i64 + dk;
                    if kk < 0 || kk >= dims.nz as i64 {
                        continue;
                    }
                    for dj in -1i64..=1 {
                        let jj = j as i64 + dj;
                        if jj < 0 || jj >= dims.ny as i64 {
                            continue;
                        }
                        for di in -1i64..=1 {
                            let ii = i as i64 + di;
                            if ii < 0 || ii >= dims.nx as i64 {
                                continue;
                            }
                            let col = dims.row(ii as usize, jj as usize, kk as usize);
                            if col == diag_row {
                                // Placeholder; fixed up below once the
                                // neighbour count is known.
                                col_idx.push(col as u32);
                                values.push(0.0);
                            } else {
                                neighbours += 1;
                                col_idx.push(col as u32);
                                values.push(-1.0);
                            }
                        }
                    }
                }
                // Fix the diagonal: neighbours + 1 (mass term ⇒ SPD).
                for (c, v) in col_idx[row_start..]
                    .iter()
                    .zip(values[row_start..].iter_mut())
                {
                    if *c as usize == diag_row {
                        *v = neighbours as f64 + 1.0;
                    }
                }
                row_ptr.push(values.len());
            }
        }
    }
    CsrMatrix::new(n, n, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_arithmetic() {
        let d = MeshDims::new(4, 5, 6);
        assert_eq!(d.nodes(), 120);
        assert_eq!(d.plane_rows(), 20);
        assert_eq!(d.row(0, 0, 0), 0);
        assert_eq!(d.row(3, 4, 5), 119);
        assert_eq!(d.row(0, 0, 1), 20, "planes are contiguous");
        let c = MeshDims::cube(3);
        assert_eq!((c.nx, c.ny, c.nz), (3, 3, 3));
    }

    #[test]
    fn interior_row_has_27_entries() {
        let m = assemble_stencil(MeshDims::cube(5));
        let center = MeshDims::cube(5).row(2, 2, 2);
        let (cols, vals) = m.row(center);
        assert_eq!(cols.len(), 27);
        // 26 neighbours at -1, diagonal at 27.
        let diag = vals[cols.iter().position(|&c| c as usize == center).unwrap()];
        assert_eq!(diag, 27.0);
        assert_eq!(vals.iter().filter(|&&v| v == -1.0).count(), 26);
    }

    #[test]
    fn corner_row_has_8_entries() {
        let m = assemble_stencil(MeshDims::cube(4));
        let (cols, vals) = m.row(0);
        assert_eq!(cols.len(), 8);
        let diag = vals[cols.iter().position(|&c| c == 0).unwrap()];
        assert_eq!(diag, 8.0, "7 neighbours + 1 mass term");
    }

    #[test]
    fn operator_is_symmetric() {
        let m = assemble_stencil(MeshDims::new(4, 3, 5));
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn row_sums_are_one_everywhere() {
        // -1 per neighbour + (neighbours + 1) diagonal ⇒ every row sums to 1.
        let m = assemble_stencil(MeshDims::cube(4));
        for r in 0..m.rows() {
            let (_, vals) = m.row(r);
            let sum: f64 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn spmv_of_ones_is_ones() {
        // Direct corollary of row sums = 1; pins assembly + SpMV together.
        let dims = MeshDims::new(5, 4, 3);
        let m = assemble_stencil(dims);
        let x = vec![1.0; dims.nodes()];
        let mut y = vec![0.0; dims.nodes()];
        m.spmv(&x, &mut y);
        assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn single_node_mesh() {
        let m = assemble_stencil(MeshDims::cube(1));
        assert_eq!(m.rows(), 1);
        assert_eq!(m.nnz(), 1);
        let (_, vals) = m.row(0);
        assert_eq!(vals, &[1.0], "no neighbours, just the mass term");
    }
}
