//! COO (coordinate / triple) representation.
//!
//! Used at matrix-assembly boundaries: generators, Matrix Market I/O, and
//! the scatter/gather paths of the distributed layer. Everything
//! performance-critical converts to [`CscMatrix`] first.

use crate::csc::CscMatrix;
use crate::semiring::Semiring;

/// A list of `(row, col, value)` entries with explicit shape.
///
/// Duplicates are permitted until [`Triples::to_csc_dedup`] combines them
/// with a semiring `⊕`.
#[derive(Debug, Clone, PartialEq)]
pub struct Triples<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> Triples<T> {
    /// Empty triple list with the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Triples {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Empty triple list with reserved capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Triples {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Assemble from parallel coordinate arrays without bounds checks, for
    /// the corruption tests of [`crate::validate::Validate::validate`].
    ///
    /// # Panics
    /// If the three arrays differ in length.
    #[cfg(test)]
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        assert_eq!(rows.len(), cols.len(), "rows/cols length mismatch");
        assert_eq!(rows.len(), vals.len(), "rows/vals length mismatch");
        Triples {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        }
    }

    /// Append one entry. Panics (debug) on out-of-bounds coordinates.
    #[inline]
    pub fn push(&mut self, row: u32, col: u32, val: T) {
        debug_assert!((row as usize) < self.nrows, "row {row} out of bounds");
        debug_assert!((col as usize) < self.ncols, "col {col} out of bounds");
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of entries (duplicates counted).
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Iterate `(row, col, value)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.vals.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSC via counting sort on columns. Duplicate coordinates are
    /// preserved as duplicate entries (use [`Triples::to_csc_dedup`] to
    /// combine). Output columns are sorted by row.
    pub fn to_csc(&self) -> CscMatrix<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.cols {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let colptr = counts.clone();
        let nnz = self.len();
        let mut rowidx = vec![0u32; nnz];
        // SAFETY-free approach: build with placeholder then fill; T: Copy so
        // we seed with the first value (or return empty).
        if nnz == 0 {
            return CscMatrix::from_parts_unchecked(self.nrows, self.ncols, colptr, rowidx, Vec::new(), true);
        }
        let mut vals = vec![self.vals[0]; nnz];
        let mut next = counts;
        for ((&r, &c), &v) in self.rows.iter().zip(self.cols.iter()).zip(self.vals.iter()) {
            let slot = next[c as usize];
            rowidx[slot] = r;
            vals[slot] = v;
            next[c as usize] += 1;
        }
        let mut m = CscMatrix::from_parts_unchecked(self.nrows, self.ncols, colptr, rowidx, vals, false);
        m.sort_columns();
        m
    }

    /// Convert to CSC, combining duplicate coordinates with the semiring add.
    pub fn to_csc_dedup<S: Semiring<T = T>>(&self) -> CscMatrix<T>
    where
        T: PartialEq + std::fmt::Debug + Send + Sync + 'static,
    {
        let dense = self.to_csc();
        // Collapse adjacent duplicates (columns are sorted by row).
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx: Vec<u32> = Vec::with_capacity(dense.nnz());
        let mut vals: Vec<T> = Vec::with_capacity(dense.nnz());
        for j in 0..self.ncols {
            let (rows, vs) = dense.col(j);
            let mut k = 0;
            while k < rows.len() {
                let r = rows[k];
                let mut acc = vs[k];
                k += 1;
                while k < rows.len() && rows[k] == r {
                    acc = S::add(acc, vs[k]);
                    k += 1;
                }
                rowidx.push(r);
                vals.push(acc);
            }
            colptr[j + 1] = rowidx.len();
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, colptr, rowidx, vals, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesF64;

    #[test]
    fn to_csc_sorts_columns() {
        let mut t = Triples::new(4, 2);
        t.push(3, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        let m = t.to_csc();
        assert!(m.is_sorted());
        assert_eq!(m.col(0), (&[0u32, 3][..], &[2.0, 1.0][..]));
        assert_eq!(m.col(1), (&[1u32][..], &[3.0][..]));
    }

    #[test]
    fn empty_triples() {
        let t = Triples::<f64>::new(3, 3);
        assert_eq!(t.len(), 0);
        let m = t.to_csc();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dedup_combines_duplicates() {
        let mut t = Triples::new(3, 1);
        t.push(1, 0, 1.0);
        t.push(1, 0, 2.5);
        t.push(0, 0, 1.0);
        let m = t.to_csc_dedup::<PlusTimesF64>();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.col(0), (&[0u32, 1][..], &[1.0, 3.5][..]));
    }

    #[test]
    fn roundtrip_via_iter() {
        let mut t = Triples::new(5, 5);
        t.push(4, 2, 7.0);
        t.push(0, 0, 1.0);
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected, vec![(4, 2, 7.0), (0, 0, 1.0)]);
    }
}
