//! Column subsets for sparsity-aware exchange, and the lengths of their
//! wire format.
//!
//! The `SparseFetch` exchange strategy (see `spgemm_core::exchange`) ships
//! only the stage-operand columns a receiver will actually touch: the
//! receiver derives its needed-column set from the row structure of its
//! other operand ([`needed_rows`]) and posts it to the owner; the owner cuts
//! exactly those columns into a compact matrix (`ops::extract_cols`), and
//! the receiver places them back at their global indices ([`pad_cols`]) so
//! downstream kernels see the same shape a dense broadcast would have
//! produced — with every untouched column empty.
//!
//! A message is charged what a varint wire format would take, but nothing
//! is encoded: the matrices move on the host, and each message is only
//! *sized*. A request is a gap-coded list of column ids ([`request_len`]);
//! a reply tile is a varint count and the row gaps of each requested column
//! beside a plain value vector ([`tile_len`]). A sparse block that moves
//! whole — a fiber piece, a refresh slice of `B̃`, a 1.5D A-shift block —
//! travels as a *coded block*: the request of its nonempty columns, then
//! their tile ([`coded_len`]). The tile and the coded block sum one
//! per-column length, and the request and the coded block one gap rule.
//!
//! The hot per-stage scratch (a stamp-versioned row-mark table) lives in a
//! caller-owned [`SubsetWorkspace`] with monotone capacity, so steady-state
//! stages allocate nothing for the derivation step.

use crate::csc::CscMatrix;

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
    let marks = &mut ws.begin(m.nrows())[..m.nrows()];
    let mut distinct = 0;
    for &r in m.rowidx() {
        let slot = &mut marks[r as usize];
        distinct += usize::from(*slot != epoch);
        *slot = epoch;
    }
    // Reading the marks back in row order gives the rows sorted and
    // distinct without a sort, in one pass over the rows — the pass the
    // padded operand's column pointer costs the round anyway. Every row is
    // written and only a marked one advances, so the density takes no
    // branch; the slot past the last marked row absorbs the rest.
    let mut out = vec![0; distinct + 1];
    let mut n = 0;
    for (r, &mark) in marks.iter().enumerate() {
        out[n] = r as u32;
        n += usize::from(mark == epoch);
    }
    out.truncate(distinct);
    out
}

/// Bytes of the LEB128 varint of `x`: seven bits per byte.
#[inline]
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes one column takes in a tile: its count, then its rows — the first
/// row in full and then `row − prev` when the matrix is `sorted`, every
/// row in full when it is not. [`tile_len`] and [`coded_len`] sum it.
#[inline]
fn col_len(rows: &[u32], sorted: bool) -> usize {
    let coded: usize = if sorted {
        let mut prev = 0;
        rows.iter()
            .map(|&r| {
                let gap = r - prev;
                prev = r;
                varint_len(u64::from(gap))
            })
            .sum()
    } else {
        rows.iter().map(|&r| varint_len(u64::from(r))).sum()
    };
    varint_len(rows.len() as u64) + coded
}

/// Bytes of the request naming the ascending, distinct column ids `cols`
/// (the count, the first id, then `c − prev − 1` for each later one), and
/// how many ids it names. [`request_len`] and [`coded_len`] take it.
fn ids_len(cols: impl Iterator<Item = usize>) -> (usize, usize) {
    // `next` is one past the previous column, so the first gap is the
    // column itself.
    let (mut bytes, mut k, mut next) = (0, 0, 0);
    for c in cols {
        bytes += varint_len((c - next) as u64);
        next = c + 1;
        k += 1;
    }
    (varint_len(k as u64) + bytes, k)
}

/// Length of the fetch request naming `cols` (ascending, distinct): the
/// column count, then the first column, then `c − prev − 1` for each later
/// column, every number a varint. A run of adjacent columns costs one zero
/// byte each.
#[must_use]
pub fn request_len(cols: &[u32]) -> usize {
    debug_assert!(
        cols.windows(2).all(|w| w[0] < w[1]),
        "column set must be ascending"
    );
    ids_len(cols.iter().map(|&c| c as usize)).0
}

/// Length of the index section of the fetch reply carrying `cols` of `m`:
/// per requested column, in request order, a varint count and then the
/// column's rows — the first row in full and then `row − prev` when `m` is
/// sorted, every row in full when it is not. The column ids are not
/// spelled (the requester sent them); the value section is one value per
/// nonzero beside it.
#[must_use]
pub fn tile_len<T: Copy>(m: &CscMatrix<T>, cols: &[u32]) -> usize {
    let sorted = m.is_sorted();
    cols.iter().map(|&j| col_len(m.col(j as usize).0, sorted)).sum()
}

/// Length of the index section of all of `m` sent as one *coded block*,
/// and the number of its nonempty columns.
///
/// A coded block is how a sparse block travels when no request named its
/// columns: the request of its nonempty column ids, then the tile of those
/// columns, then one value per nonzero (not counted here). The length is
/// exactly `request_len(&nonempty) + tile_len(m, &nonempty)`.
#[must_use]
pub fn coded_len<T: Copy>(m: &CscMatrix<T>) -> (usize, usize) {
    let sorted = m.is_sorted();
    let nonempty = (0..m.ncols()).filter(|&j| m.col_nnz(j) > 0);
    let tile: usize = nonempty.clone().map(|j| col_len(m.col(j).0, sorted)).sum();
    let (request, k) = ids_len(nonempty);
    (request + tile, k)
}

/// The full-width operand of a fetch reply: column `i` of `compact` at
/// global column `cols[i]` of an `ncols`-wide matrix, every other column
/// empty — the shape a dense broadcast would have delivered, bit-identical
/// on every listed column. The rows and values move into the result, and
/// the sortedness flag is `compact`'s.
#[must_use]
pub fn pad_cols<T: Copy>(compact: CscMatrix<T>, cols: &[u32], ncols: usize) -> CscMatrix<T> {
    debug_assert_eq!(compact.ncols(), cols.len(), "one column id per column");
    debug_assert!(cols.last().is_none_or(|&j| (j as usize) < ncols));
    let mut colptr = vec![0; ncols + 1];
    for (i, &j) in cols.iter().enumerate() {
        colptr[j as usize + 1] = compact.col_nnz(i);
    }
    // Counts to offsets; the unlisted columns stay empty.
    for j in 0..ncols {
        colptr[j + 1] += colptr[j];
    }
    let (nrows, _, _, rowidx, vals, sorted) = compact.into_parts();
    CscMatrix::from_parts_unchecked(nrows, ncols, colptr, rowidx, vals, sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::ops::{col_block, extract_cols};
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

    /// The mark table read back in row order is the sorted distinct rows,
    /// from nearly empty to full.
    #[test]
    fn needed_rows_at_any_density() {
        let mut ws = SubsetWorkspace::new();
        for (nrows, per_col, seed) in [(50, 1, 1), (50, 8, 2), (1000, 2, 3), (64, 30, 4)] {
            let m = er_random::<PlusTimesF64>(nrows, 40, per_col, seed);
            let mut want = m.rowidx().to_vec();
            want.sort_unstable();
            want.dedup();
            assert_eq!(
                needed_rows(&m, &mut ws),
                want,
                "nrows {nrows}, {per_col}/col"
            );
        }
    }

    #[test]
    fn padding_places_listed_columns_and_empties_the_rest() {
        let m = er_random::<PlusTimesF64>(20, 15, 3, 42);
        let cols: Vec<u32> = vec![0, 3, 7, 14];
        let padded = pad_cols(extract_cols(&m, &[0, 3, 7, 14]), &cols, m.ncols());
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
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(pad_cols(extract_cols(&m, &all), &cols, 8), m);
    }

    #[test]
    fn padded_operand_multiplies_identically_to_dense() {
        // The defining property of the fetch reply: if the subset covers
        // the occupied rows of the other operand, A_padded · B == A · B.
        let a = er_random::<PlusTimesF64>(12, 16, 3, 5);
        let b = col_block(&er_random::<PlusTimesF64>(16, 9, 3, 6), 0..9);
        let mut ws = SubsetWorkspace::new();
        let need = needed_rows(&b, &mut ws);
        let idx: Vec<usize> = need.iter().map(|&j| j as usize).collect();
        let a_fetched = pad_cols(extract_cols(&a, &idx), &need, a.ncols());
        let (dense, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        let (sparse, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a_fetched, &b, &mut []).unwrap();
        assert!(dense.eq_modulo_order(&sparse));
    }
}
