//! Compressed sparse column (CSC) matrix.
//!
//! The central storage type for local submatrices. Row indices are `u32`
//! (the distributed layer works on local blocks far below 2³² rows) and
//! column pointers are `usize`.
//!
//! A key design point from the paper (Sec. IV-D): intermediate products do
//! **not** need sorted columns — only the final Merge-Fiber output does.
//! `CscMatrix` therefore carries a `sorted` flag so kernels can assert the
//! preconditions they need and tests can normalize before comparing.

use crate::{Result, SparseError};

/// A sparse matrix in compressed sparse column format.
#[derive(Clone, PartialEq)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    /// `colptr[j]..colptr[j+1]` indexes column `j`'s entries. Length `ncols+1`.
    colptr: Vec<usize>,
    /// Row index of each stored entry.
    rowidx: Vec<u32>,
    /// Value of each stored entry.
    vals: Vec<T>,
    /// Whether every column's row indices are strictly ascending.
    sorted: bool,
}

impl<T: Copy> CscMatrix<T> {
    /// An empty (all-zero) matrix of the given shape.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            vals: Vec::new(),
            sorted: true,
        }
    }

    /// Build from raw parts, validating every structural invariant.
    ///
    /// `sorted` is *verified*, not trusted: the flag stored on the result is
    /// recomputed from the data.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self> {
        if colptr.len() != ncols + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "colptr length {} != ncols+1 = {}",
                colptr.len(),
                ncols + 1
            )));
        }
        if colptr[0] != 0 {
            return Err(SparseError::InvalidStructure("colptr[0] != 0".into()));
        }
        if *colptr.last().unwrap() != rowidx.len() {
            return Err(SparseError::InvalidStructure(format!(
                "colptr[ncols] = {} != nnz = {}",
                colptr.last().unwrap(),
                rowidx.len()
            )));
        }
        if rowidx.len() != vals.len() {
            return Err(SparseError::InvalidStructure(format!(
                "rowidx len {} != vals len {}",
                rowidx.len(),
                vals.len()
            )));
        }
        if colptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidStructure("colptr not monotone".into()));
        }
        if rowidx.iter().any(|&r| r as usize >= nrows) {
            return Err(SparseError::InvalidStructure("row index out of bounds".into()));
        }
        let mut m = CscMatrix {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
            sorted: false,
        };
        m.sorted = m.check_sorted();
        Ok(m)
    }

    /// Build from raw parts without validation.
    ///
    /// The caller must guarantee the CSC invariants and the accuracy of the
    /// `sorted` flag; kernels use this on freshly-built output where the
    /// invariants hold by construction. Debug builds re-verify.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        vals: Vec<T>,
        sorted: bool,
    ) -> Self {
        let m = CscMatrix {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
            sorted,
        };
        debug_assert!(m.colptr.len() == m.ncols + 1);
        debug_assert!(m.colptr[0] == 0 && *m.colptr.last().unwrap() == m.rowidx.len());
        debug_assert!(m.rowidx.len() == m.vals.len());
        debug_assert!(!sorted || m.check_sorted());
        m
    }

    /// Build from raw parts with **no** checks at all, not even in debug
    /// builds. Exists so the corruption tests of [`crate::validate`] can
    /// assemble deliberately broken matrices and assert the validator's
    /// diagnostics; real code wants [`CscMatrix::from_parts`] (validating)
    /// or [`CscMatrix::from_parts_unchecked`] (debug-verified).
    pub fn from_parts_raw(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        vals: Vec<T>,
        sorted: bool,
    ) -> Self {
        CscMatrix {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
            sorted,
        }
    }

    /// Decompose into `(nrows, ncols, colptr, rowidx, vals, sorted)` —
    /// the inverse of [`CscMatrix::from_parts_raw`], used by the
    /// corruption tests to mutate a valid structure in place.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<u32>, Vec<T>, bool) {
        (
            self.nrows,
            self.ncols,
            self.colptr,
            self.rowidx,
            self.vals,
            self.sorted,
        )
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// Whether every column's row indices are strictly ascending.
    #[inline]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Column pointer array (length `ncols + 1`).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices of all stored entries, column-major.
    #[inline]
    pub fn rowidx(&self) -> &[u32] {
        &self.rowidx
    }

    /// Values of all stored entries, column-major.
    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Number of entries stored in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[T]) {
        let r = self.colptr[j]..self.colptr[j + 1];
        (&self.rowidx[r.clone()], &self.vals[r])
    }

    /// Iterate `(row, col, value)` over all stored entries in column-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize, T)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            let (rows, vals) = self.col(j);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, j, v))
        })
    }

    /// Verify column sortedness by scanning (strictly ascending rows).
    pub(crate) fn check_sorted(&self) -> bool {
        (0..self.ncols).all(|j| {
            let (rows, _) = self.col(j);
            rows.windows(2).all(|w| w[0] < w[1])
        })
    }

    /// Sort every column by row index. Duplicate rows (possible in raw COO
    /// conversions before dedup) end up adjacent; the `sorted` flag is only
    /// set if rows are *strictly* ascending (no duplicates), since that is
    /// the invariant downstream kernels rely on.
    pub fn sort_columns(&mut self) {
        if self.sorted {
            return;
        }
        let mut perm: Vec<u32> = Vec::new();
        for j in 0..self.ncols {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            if hi - lo <= 1 {
                continue;
            }
            let seg = lo..hi;
            perm.clear();
            perm.extend(0..(hi - lo) as u32);
            let rows = &self.rowidx[seg.clone()];
            perm.sort_unstable_by_key(|&k| rows[k as usize]);
            let new_rows: Vec<u32> = perm.iter().map(|&k| rows[k as usize]).collect();
            let old_vals = &self.vals[seg.clone()];
            let new_vals: Vec<T> = perm.iter().map(|&k| old_vals[k as usize]).collect();
            self.rowidx[seg.clone()].copy_from_slice(&new_rows);
            self.vals[seg].copy_from_slice(&new_vals);
        }
        self.sorted = self.check_sorted();
    }

    /// A sorted copy of this matrix (no-op clone if already sorted).
    pub fn sorted_copy(&self) -> Self {
        let mut c = self.clone();
        c.sort_columns();
        c
    }

    /// Apply `f` to every stored value, producing a new matrix with the same
    /// sparsity structure.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> CscMatrix<U> {
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowidx: self.rowidx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
            sorted: self.sorted,
        }
    }

    /// The sparsity structure alone: the same column pointers and row
    /// indices with unit values. Copies the indices only — a `Vec<()>` owns
    /// no memory — which is all a structure-only pass (Symbolic3D) needs to
    /// hold or move.
    pub fn pattern(&self) -> CscMatrix<()> {
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowidx: self.rowidx.clone(),
            vals: vec![(); self.rowidx.len()],
            sorted: self.sorted,
        }
    }

    /// Retain only entries satisfying `keep(row, col, value)`, compacting in
    /// place. Preserves per-column entry order (and thus sortedness).
    pub fn retain(&mut self, mut keep: impl FnMut(u32, usize, T) -> bool) {
        let mut w = 0usize;
        let mut new_colptr = vec![0usize; self.ncols + 1];
        for j in 0..self.ncols {
            let (lo, hi) = (self.colptr[j], self.colptr[j + 1]);
            for k in lo..hi {
                let (r, v) = (self.rowidx[k], self.vals[k]);
                if keep(r, j, v) {
                    self.rowidx[w] = r;
                    self.vals[w] = v;
                    w += 1;
                }
            }
            new_colptr[j + 1] = w;
        }
        self.rowidx.truncate(w);
        self.vals.truncate(w);
        self.colptr = new_colptr;
    }

    /// Memory footprint in bytes under the paper's storage model:
    /// `r` bytes per nonzero (the paper uses r = 24: two 8-byte indices plus
    /// an 8-byte value), ignoring the colptr array as the paper does.
    pub fn modeled_bytes(&self, r_bytes_per_nnz: usize) -> usize {
        self.nnz() * r_bytes_per_nnz
    }
}

impl<T: Copy + PartialEq> CscMatrix<T> {
    /// Structural + numerical equality ignoring within-column entry order.
    ///
    /// Both operands are normalized by sorting copies; use for comparing an
    /// unsorted kernel output against a sorted reference.
    pub fn eq_modulo_order(&self, other: &Self) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols || self.nnz() != other.nnz() {
            return false;
        }
        let a = self.sorted_copy();
        let b = other.sorted_copy();
        a.colptr == b.colptr && a.rowidx == b.rowidx && a.vals == b.vals
    }
}

impl CscMatrix<f64> {
    /// Approximate equality ignoring entry order: same pattern, values within
    /// `tol` (absolute + relative). For comparing float results merged in
    /// different orders.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols || self.nnz() != other.nnz() {
            return false;
        }
        let a = self.sorted_copy();
        let b = other.sorted_copy();
        if a.colptr != b.colptr || a.rowidx != b.rowidx {
            return false;
        }
        a.vals
            .iter()
            .zip(b.vals.iter())
            .all(|(&x, &y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n as u32).collect(),
            vals: vec![1.0; n],
            sorted: true,
        }
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for CscMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "CscMatrix {}x{}, nnz={}, sorted={}",
            self.nrows,
            self.ncols,
            self.nnz(),
            self.sorted
        )?;
        if self.nnz() <= 64 {
            for j in 0..self.ncols {
                let (rows, vals) = self.col(j);
                if !rows.is_empty() {
                    writeln!(f, "  col {j}: {:?}", rows.iter().zip(vals).collect::<Vec<_>>())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triples::Triples;

    fn sample() -> CscMatrix<f64> {
        // 3x3: [[1,0,2],[0,3,0],[4,0,5]]
        CscMatrix::from_parts(3, 3, vec![0, 2, 3, 5], vec![0, 2, 1, 0, 2], vec![1.0, 4.0, 3.0, 2.0, 5.0])
            .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 5);
        assert!(m.is_sorted());
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col(1), (&[1u32][..], &[3.0][..]));
    }

    #[test]
    fn zero_matrix() {
        let z = CscMatrix::<f64>::zero(4, 7);
        assert_eq!(z.nnz(), 0);
        assert!(z.is_sorted());
        assert_eq!(z.colptr().len(), 8);
    }

    #[test]
    fn rejects_bad_colptr_length() {
        let e = CscMatrix::<f64>::from_parts(2, 2, vec![0, 0], vec![], vec![]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn rejects_nonmonotone_colptr() {
        let e = CscMatrix::<f64>::from_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn rejects_out_of_bounds_row() {
        let e = CscMatrix::<f64>::from_parts(2, 1, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn rejects_len_mismatch() {
        let e = CscMatrix::<f64>::from_parts(2, 1, vec![0, 1], vec![0], vec![]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn detects_unsorted_on_construction() {
        let m = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        assert!(!m.is_sorted());
    }

    #[test]
    fn sort_columns_orders_and_flags() {
        let mut m = CscMatrix::from_parts(3, 2, vec![0, 2, 4], vec![2, 0, 1, 0], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(!m.is_sorted());
        m.sort_columns();
        assert!(m.is_sorted());
        assert_eq!(m.col(0), (&[0u32, 2][..], &[2.0, 1.0][..]));
        assert_eq!(m.col(1), (&[0u32, 1][..], &[4.0, 3.0][..]));
    }

    #[test]
    fn eq_modulo_order_matches_permuted_columns() {
        let a = CscMatrix::from_parts(3, 1, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).unwrap();
        let b = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![2.0, 1.0]).unwrap();
        assert!(a.eq_modulo_order(&b));
        let c = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![2.0, 1.5]).unwrap();
        assert!(!a.eq_modulo_order(&c));
    }

    #[test]
    fn iter_and_to_triples_roundtrip() {
        let m = sample();
        let mut t = Triples::new(m.nrows(), m.ncols());
        for (r, c, v) in m.iter() {
            t.push(r, c as u32, v);
        }
        let back = t.to_csc();
        assert!(m.eq_modulo_order(&back));
    }

    #[test]
    fn map_preserves_structure() {
        let m = sample();
        let doubled = m.map(|v| v * 2.0);
        assert_eq!(doubled.col(2).1, &[4.0, 10.0]);
        assert_eq!(doubled.colptr(), m.colptr());
    }

    #[test]
    fn pattern_keeps_indices_and_drops_values() {
        let m = sample();
        let p = m.pattern();
        assert_eq!(
            (p.nrows(), p.ncols(), p.nnz()),
            (m.nrows(), m.ncols(), m.nnz())
        );
        assert_eq!((p.colptr(), p.rowidx()), (m.colptr(), m.rowidx()));
        assert_eq!(p.is_sorted(), m.is_sorted());
        assert_eq!(std::mem::size_of_val(p.vals()), 0);
    }

    #[test]
    fn retain_filters_and_compacts() {
        let mut m = sample();
        m.retain(|_, _, v| v > 2.5);
        assert_eq!(m.nnz(), 3); // 4.0, 3.0, 5.0 survive
        assert_eq!(m.col(0), (&[2u32][..], &[4.0][..]));
        assert!(m.check_sorted());
    }

    #[test]
    fn identity_squares_to_itself() {
        let i = CscMatrix::identity(5);
        assert_eq!(i.nnz(), 5);
        assert!(i.is_sorted());
    }

    #[test]
    fn modeled_bytes_uses_r() {
        let m = sample();
        assert_eq!(m.modeled_bytes(24), 5 * 24);
    }
}
