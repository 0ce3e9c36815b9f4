//! Compressed-sparse-row matrix and the SpMV kernel.

/// A CSR matrix over `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating the invariants
    /// (`row_ptr` monotone with `rows + 1` entries, column indices in range,
    /// `col_idx`/`values` equal length).
    ///
    /// # Panics
    /// Panics with a description when an invariant is violated; matrix
    /// construction is a setup-time operation where failing fast is right.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr must have rows+1 entries");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be nondecreasing"
        );
        assert_eq!(*row_ptr.last().unwrap(), values.len(), "row_ptr end != nnz");
        assert!(
            col_idx.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` pairs of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// `y[r] = Σ A[r, c] · x[c]` for one row — the innermost timed kernel.
    #[inline]
    pub fn spmv_row(&self, r: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        acc
    }

    /// Serial reference SpMV: `y = A·x` (used by tests and the CG fallback).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (r, out) in y.iter_mut().enumerate() {
            *out = self.spmv_row(r, x);
        }
    }

    /// `true` if the sparsity pattern and values are symmetric (within `tol`);
    /// the FE stencil matrix must be, since CG requires SPD.
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                let (ccols, cvals) = self.row(c);
                match ccols.binary_search(&(r as u32)) {
                    Ok(pos) if (cvals[pos] - v).abs() <= tol => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3 tridiagonal [2 -1; -1 2 -1; -1 2].
    fn tri3() -> CsrMatrix {
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0],
        )
    }

    #[test]
    fn basic_accessors() {
        let m = tri3();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 7);
        let (cols, vals) = m.row(1);
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[-1.0, 2.0, -1.0]);
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = tri3();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 4.0]);
        assert_eq!(m.spmv_row(1, &x), 0.0);
    }

    #[test]
    fn symmetry_detection() {
        assert!(tri3().is_symmetric(1e-12));
        let asym = CsrMatrix::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 5.0, 1.0]);
        assert!(!asym.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "row_ptr must have rows+1")]
    fn rejects_short_row_ptr() {
        CsrMatrix::new(3, 3, vec![0, 1], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn rejects_out_of_range_column() {
        CsrMatrix::new(1, 1, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn rejects_non_monotone_row_ptr() {
        CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }
}
