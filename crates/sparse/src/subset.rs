//! Column-subset extraction and reassembly for sparsity-aware exchange.
//!
//! The `SparseFetch` exchange strategy (see `spgemm_core::exchange`) ships
//! only the stage-operand columns a receiver will actually touch: the
//! receiver derives its needed-column set from the row structure of its
//! other operand ([`needed_rows`]), the owner extracts exactly those
//! columns into a compact wire form ([`extract_cols_compact`]), and the
//! receiver scatters the reply back into a full-width operand
//! ([`scatter_cols_padded`]) so downstream kernels see the same shape a
//! dense broadcast would have produced — with every untouched column empty.
//!
//! The hot per-stage scratch (a stamp-versioned row-mark table) lives in a
//! caller-owned [`SubsetWorkspace`] with monotone capacity, so steady-state
//! stages allocate nothing for the derivation step.

use crate::csc::CscMatrix;
use crate::ops::extract_cols;

/// Reusable scratch for [`needed_rows`]: a stamp-versioned mark table.
///
/// Capacity grows monotonically to the largest row count seen; resetting
/// between calls is O(1) (bump the epoch) rather than O(rows).
#[derive(Debug, Default)]
pub struct SubsetWorkspace {
    marks: Vec<u64>,
    epoch: u64,
}

impl SubsetWorkspace {
    /// An empty workspace; arenas grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, rows: usize) -> &mut Vec<u64> {
        if self.marks.len() < rows {
            self.marks.resize(rows, 0);
        }
        self.epoch += 1;
        &mut self.marks
    }
}

/// The sorted distinct row indices occupied by `m`.
///
/// When `m` is the local piece of the *other* operand of a multiply
/// `A·B`, these rows are exactly the columns of the stage operand `A`
/// that the local kernel will read — the needed-column set a
/// `SparseFetch` receiver posts to the stage owner.
pub fn needed_rows<T: Copy>(m: &CscMatrix<T>, ws: &mut SubsetWorkspace) -> Vec<u32> {
    let epoch = ws.epoch + 1;
    let marks = ws.begin(m.nrows());
    let mut out = Vec::new();
    for &r in m.rowidx() {
        let slot = &mut marks[r as usize];
        if *slot != epoch {
            *slot = epoch;
            out.push(r);
        }
    }
    out.sort_unstable();
    out
}

/// Owner-side extraction: the listed columns of `m` (ascending, distinct)
/// as a compact matrix with `cols.len()` columns — the wire form of a
/// fetch reply. Per-column entry order (and sortedness) preserved.
pub fn extract_cols_compact<T: Copy>(m: &CscMatrix<T>, cols: &[u32]) -> CscMatrix<T> {
    debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "column subset must be ascending");
    debug_assert!(cols.last().is_none_or(|&j| (j as usize) < m.ncols()));
    let idx: Vec<usize> = cols.iter().map(|&j| j as usize).collect();
    extract_cols(m, &idx)
}

/// Receiver-side reassembly: place column `i` of `compact` at global
/// column `cols[i]` of an `ncols`-wide matrix, every other column empty.
///
/// Inverse of [`extract_cols_compact`] on the listed columns, so the
/// reassembled operand is shape-conformant with what a dense broadcast
/// would have delivered and bit-identical on every column the local
/// multiply reads.
pub fn scatter_cols_padded<T: Copy>(
    compact: &CscMatrix<T>,
    cols: &[u32],
    ncols: usize,
) -> CscMatrix<T> {
    assert_eq!(compact.ncols(), cols.len(), "one target column per compact column");
    debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "column subset must be ascending");
    debug_assert!(cols.last().is_none_or(|&j| (j as usize) < ncols));
    let mut colptr = vec![0usize; ncols + 1];
    for (i, &j) in cols.iter().enumerate() {
        colptr[j as usize + 1] = compact.col_nnz(i);
    }
    for j in 0..ncols {
        colptr[j + 1] += colptr[j];
    }
    CscMatrix::from_parts_unchecked(
        compact.nrows(),
        ncols,
        colptr,
        compact.rowidx().to_vec(),
        compact.vals().to_vec(),
        compact.is_sorted(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::ops::col_block;
    use crate::semiring::PlusTimesF64;
    use crate::triples::Triples;

    #[test]
    fn needed_rows_are_sorted_distinct_occupied() {
        let mut t = Triples::new(6, 3);
        t.push(4, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(4, 2, 1.0);
        t.push(0, 2, 1.0);
        let m = t.to_csc();
        let mut ws = SubsetWorkspace::new();
        assert_eq!(needed_rows(&m, &mut ws), vec![0, 1, 4]);
        // Workspace reuse across differently-shaped inputs.
        let empty: CscMatrix<f64> = Triples::new(2, 2).to_csc();
        assert_eq!(needed_rows(&empty, &mut ws), Vec::<u32>::new());
        assert_eq!(needed_rows(&m, &mut ws), vec![0, 1, 4]);
    }

    #[test]
    fn extract_then_scatter_roundtrips_listed_columns() {
        let m = er_random::<PlusTimesF64>(20, 15, 3, 42);
        let cols: Vec<u32> = vec![0, 3, 7, 14];
        let compact = extract_cols_compact(&m, &cols);
        assert_eq!(compact.ncols(), cols.len());
        let padded = scatter_cols_padded(&compact, &cols, m.ncols());
        assert_eq!((padded.nrows(), padded.ncols()), (m.nrows(), m.ncols()));
        for j in 0..m.ncols() {
            if cols.contains(&(j as u32)) {
                assert_eq!(padded.col(j), m.col(j), "column {j}");
            } else {
                assert_eq!(padded.col_nnz(j), 0, "column {j} should be empty");
            }
        }
    }

    #[test]
    fn full_subset_is_identity() {
        let m = er_random::<PlusTimesF64>(10, 8, 2, 7);
        let cols: Vec<u32> = (0..8).collect();
        let padded = scatter_cols_padded(&extract_cols_compact(&m, &cols), &cols, 8);
        assert!(padded.eq_modulo_order(&m));
    }

    #[test]
    fn padded_operand_multiplies_identically_to_dense() {
        // The defining property of the fetch reply: if the subset covers
        // the occupied rows of the other operand, A_padded · B == A · B.
        let a = er_random::<PlusTimesF64>(12, 16, 3, 5);
        let b = col_block(&er_random::<PlusTimesF64>(16, 9, 3, 6), 0..9);
        let mut ws = SubsetWorkspace::new();
        let need = needed_rows(&b, &mut ws);
        let a_fetched = scatter_cols_padded(&extract_cols_compact(&a, &need), &need, a.ncols());
        let (dense, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        let (sparse, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a_fetched, &b, &mut []).unwrap();
        assert!(dense.eq_modulo_order(&sparse));
    }
}
