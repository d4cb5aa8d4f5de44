//! Dense operand support: column-major blocks and the sparse×dense
//! (SpMM) accumulation kernels.
//!
//! The 1.5D communication-avoiding algorithms (ColA / InnerABC) multiply a
//! sparse `A` by a **dense** `B` — the iterative-feature-propagation /
//! embedding workload class. [`DenseBlock`] is their operand type:
//! column-major, so one column is contiguous like a CSC column and a
//! column *stripe* is a contiguous range of the buffer that can be read in
//! place.
//!
//! Two kernels compute `C += A · B`. [`spmm_acc`] is the definition: one
//! dense column at a time, the order of every `⊕` written down in twenty
//! lines — the serial reference and the oracle of the conformance tests.
//! [`TiledStripe`] is what the drivers run: the same sums in the same
//! order, with `C` laid out so that one nonzero of `A` updates one cache
//! line instead of [`TILE`] different ones.

use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::spgemm::{WorkStats, C_SPMM_FLOP};
use crate::{Result, SparseError};
use std::borrow::Borrow;
use std::ops::Range;

/// A dense matrix block in column-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseBlock<T> {
    nrows: usize,
    ncols: usize,
    /// Column-major: entry `(i, j)` lives at `data[j * nrows + i]`.
    data: Vec<T>,
}

impl<T: Copy> DenseBlock<T> {
    /// A block with every entry set to `fill` (a semiring's zero, usually).
    pub fn new_fill(nrows: usize, ncols: usize, fill: T) -> Self {
        DenseBlock {
            nrows,
            ncols,
            data: vec![fill; nrows * ncols],
        }
    }

    /// Build from a generator called as `f(i, j)` in column-major order.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        DenseBlock { nrows, ncols, data }
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

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[j * self.nrows + i] = v;
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// The raw column-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Copy out the column range `cols` as a new block (all rows).
    pub fn col_slice(&self, cols: Range<usize>) -> DenseBlock<T> {
        debug_assert!(cols.end <= self.ncols);
        DenseBlock {
            nrows: self.nrows,
            ncols: cols.len(),
            data: self.data[cols.start * self.nrows..cols.end * self.nrows].to_vec(),
        }
    }

    /// Densify a sparse matrix: zero-fill (`S::zero()`) plus stored
    /// entries. Duplicate coordinates are combined with `S::add`.
    pub fn from_csc<S: Semiring<T = T>>(m: &CscMatrix<T>) -> Self {
        let mut d = DenseBlock::new_fill(m.nrows(), m.ncols(), S::zero());
        for (i, j, v) in m.iter() {
            let slot = &mut d.data[j * d.nrows + i as usize];
            *slot = S::add(*slot, v);
        }
        d
    }

    /// Sparsify: drop entries `S::is_zero` reports as zero. Columns come
    /// out sorted (row-ascending) by construction.
    pub fn to_csc<S: Semiring<T = T>>(&self) -> CscMatrix<T> {
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx: Vec<u32> = Vec::new();
        let mut vals: Vec<T> = Vec::new();
        for j in 0..self.ncols {
            for (i, &v) in self.col(j).iter().enumerate() {
                if !S::is_zero(v) {
                    rowidx.push(i as u32);
                    vals.push(v);
                }
            }
            colptr[j + 1] = rowidx.len();
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, colptr, rowidx, vals, true)
    }
}

/// SpMM accumulation: `C += A · B[b_row_offset.., :]` over semiring `S`.
///
/// `A` is a sparse block whose columns index rows
/// `b_row_offset..b_row_offset + ncols(A)` of `b`; `c` must have
/// `nrows(A)` rows and `ncols(b)` columns and is accumulated **in place**
/// (the 1.5D drivers call this once per shift round, with the same `c`).
///
/// For each dense column the kernel walks `A` column-by-column and
/// scatters `A(:,k) · b(k, j)` into the dense output column — Gustavson
/// with a dense accumulator that *is* the output, so there is no merge or
/// drain step. Accumulation order is deterministic: ascending `k`, then
/// `A`'s stored order within a column.
pub fn spmm_acc<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &DenseBlock<S::T>,
    b_row_offset: usize,
    c: &mut DenseBlock<S::T>,
) -> Result<WorkStats> {
    if b_row_offset + a.ncols() > b.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: (b_row_offset + a.ncols(), b.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    if c.nrows() != a.nrows() || c.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.nrows(), b.ncols()),
            found: (c.nrows(), c.ncols()),
        });
    }
    let mut stats = WorkStats::default();
    for j in 0..b.ncols() {
        let bcol = b.col(j);
        let ccol = c.col_mut(j);
        for k in 0..a.ncols() {
            let bv = bcol[b_row_offset + k];
            if S::is_zero(bv) {
                continue;
            }
            let (rows, vals) = a.col(k);
            stats.flops += rows.len() as u64;
            for (&i, &av) in rows.iter().zip(vals.iter()) {
                let slot = &mut ccol[i as usize];
                *slot = S::add(*slot, S::mul(av, bv));
            }
        }
    }
    stats.nnz_out = (c.nrows() * c.ncols()) as u64;
    stats.work_units = stats.flops as f64 * C_SPMM_FLOP;
    Ok(stats)
}

/// Columns per tile of a [`TiledStripe`]: one 64-byte cache line of `f64`,
/// so a nonzero of `A` touches one line's worth of `C`. A constant, not a
/// knob: on the `spmm-15d` benchmark operands (R-MAT 2¹⁴, 8 per column,
/// 16 384-row stripes) one thread measured 0.78 ns/flop at 4, 0.58 at 8 and
/// 0.55 at 16 — against 2.08 for [`spmm_acc`] — and 16 buys that last 5 %
/// with a tile working set of 2 MB instead of 1.
pub const TILE: usize = 8;

/// An `nrows × ncols` stripe of `C`, stored for accumulation: columns are
/// grouped into tiles of [`TILE`] (the last tile takes the remainder) and
/// each tile is **row-major**, so the `TILE` partial sums a nonzero `A(i, k)`
/// contributes to — `C(i, j)` for the tile's `j` — are 64 contiguous bytes.
/// (Aligning the buffer to the line was measured and changes nothing.)
///
/// [`TiledStripe::accumulate`] performs, for every `C(i, j)`, exactly the
/// additions [`spmm_acc`] performs and in the same order; only the order in
/// which *different* entries of `C` are visited differs. The two are equal
/// bit for bit, results and counters.
#[derive(Debug)]
pub struct TiledStripe<T> {
    nrows: usize,
    ncols: usize,
    /// Tile `t` holds columns `t·TILE .. min((t+1)·TILE, ncols)`, starts at
    /// `nrows · t · TILE`, and keeps entry `(i, t·TILE + jj)` at `i · w + jj`
    /// where `w` is the tile's width.
    data: Vec<T>,
}

impl<T: Copy> TiledStripe<T> {
    /// A stripe with every entry set to `fill` (the semiring's zero).
    pub fn new_fill(nrows: usize, ncols: usize, fill: T) -> Self {
        TiledStripe {
            nrows,
            ncols,
            data: vec![fill; nrows * ncols],
        }
    }

    /// Modeled bytes of the stripe: one scalar slot per entry (dense
    /// storage has no index overhead, unlike the sparse `r`-bytes-per-nnz
    /// model).
    pub fn modeled_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// `self += A · B[b_row_offset.., b_cols]` over semiring `S`: what
    /// [`spmm_acc`] computes on `b.col_slice(b_cols)`, without the copy.
    ///
    /// Per tile and per column `k` of `A`, the tile's `B(k, j)` are read
    /// from their (sequential) column streams once, and each nonzero
    /// `A(i, k)` then updates row `i` of the tile — 64 contiguous bytes. A
    /// `B(k, j)` that `S::is_zero` is skipped per `(k, j)`, as in
    /// [`spmm_acc`], so `flops` counts the same products.
    pub fn accumulate<S: Semiring<T = T>>(
        &mut self,
        a: &CscMatrix<T>,
        b: &DenseBlock<T>,
        b_cols: Range<usize>,
        b_row_offset: usize,
    ) -> Result<WorkStats> {
        let b_rows = b_row_offset..b_row_offset + a.ncols();
        if b_rows.end > b.nrows() || b_cols.end > b.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: (b_rows.end, b_cols.end),
                found: (b.nrows(), b.ncols()),
            });
        }
        if self.nrows != a.nrows() || self.ncols != b_cols.len() {
            return Err(SparseError::DimensionMismatch {
                expected: (a.nrows(), b_cols.len()),
                found: (self.nrows, self.ncols),
            });
        }
        let mut stats = WorkStats::default();
        let nrows = self.nrows;
        // No rows, no tiles: `A` has no entries either, so no flops.
        for (t, tile) in self.data.chunks_mut((nrows * TILE).max(1)).enumerate() {
            let w = tile.len() / nrows;
            let mut streams: [&[T]; TILE] = [&[]; TILE];
            for (jj, stream) in streams.iter_mut().enumerate().take(w) {
                *stream = &b.col(b_cols.start + t * TILE + jj)[b_rows.clone()];
            }
            // Two call sites of one inlined body: the first is compiled for
            // the constant width, the second serves the remainder tile.
            stats.flops += if w == TILE {
                accumulate_tile::<S>(tile, TILE, a, &streams)
            } else {
                accumulate_tile::<S>(tile, w, a, &streams)
            };
        }
        stats.nnz_out = (self.nrows * self.ncols) as u64;
        stats.work_units = stats.flops as f64 * C_SPMM_FLOP;
        Ok(stats)
    }

    /// Rows `rows` of the element-wise `⊕` of same-shape stripes, as a new
    /// `rows.len() × ncols` stripe, each entry summed in slice order:
    /// `((p₀ ⊕ p₁) ⊕ p₂) ⊕ …`. A tile's rows are contiguous, so the fold
    /// reads `rows.start·w .. rows.end·w` of every tile of every part and
    /// nothing else.
    ///
    /// # Panics
    /// If `parts` is empty, the shapes differ, or `rows` is not a range of
    /// the stripe's rows.
    pub fn fold<S: Semiring<T = T>>(parts: &[impl Borrow<Self>], rows: Range<usize>) -> Self {
        let (first, rest) = parts.split_first().expect("fold needs at least one stripe");
        let first = first.borrow();
        let (nrows, ncols) = (first.nrows, first.ncols);
        for part in rest {
            let part = part.borrow();
            assert_eq!(
                (part.nrows, part.ncols),
                (nrows, ncols),
                "folded stripes must share a shape"
            );
        }
        assert!(
            rows.start <= rows.end && rows.end <= nrows,
            "rows {rows:?} of a {nrows}-row stripe"
        );
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for j0 in (0..ncols).step_by(TILE) {
            let w = TILE.min(ncols - j0);
            let base = nrows * j0;
            let span = base + rows.start * w..base + rows.end * w;
            let out = data.len();
            data.extend_from_slice(&first.data[span.clone()]);
            for part in rest {
                let src = &part.borrow().data[span.clone()];
                for (acc, &v) in data[out..].iter_mut().zip(src) {
                    *acc = S::add(*acc, v);
                }
            }
        }
        TiledStripe {
            nrows: rows.len(),
            ncols,
            data,
        }
    }

    /// The stripe as a column-major block.
    pub fn to_block(&self) -> DenseBlock<T> {
        let mut data = Vec::with_capacity(self.data.len());
        for tile in self.data.chunks((self.nrows * TILE).max(1)) {
            let w = tile.len() / self.nrows;
            for jj in 0..w {
                data.extend(tile.iter().skip(jj).step_by(w).copied());
            }
        }
        DenseBlock {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        }
    }
}

/// One tile's share of [`TiledStripe::accumulate`]: `tile` is `nrows × w`
/// row-major, `streams[jj][k]` is `B(b_row_offset + k, j₀ + jj)`. Returns
/// the flops performed.
#[inline(always)]
fn accumulate_tile<S: Semiring>(
    tile: &mut [S::T],
    w: usize,
    a: &CscMatrix<S::T>,
    streams: &[&[S::T]; TILE],
) -> u64 {
    let mut flops = 0u64;
    for k in 0..a.ncols() {
        let mut bvs = [S::zero(); TILE];
        let mut live = [false; TILE];
        let mut nlive = 0;
        for ((bv, live), stream) in bvs.iter_mut().zip(&mut live).zip(streams).take(w) {
            *bv = stream[k];
            *live = !S::is_zero(*bv);
            nlive += usize::from(*live);
        }
        if nlive == 0 {
            continue;
        }
        let (rows, vals) = a.col(k);
        flops += (nlive * rows.len()) as u64;
        // The all-live case (the common one for a dense operand) has no
        // branch in its inner loop, so it vectorizes.
        if nlive == w {
            for (&i, &av) in rows.iter().zip(vals) {
                let line = &mut tile[i as usize * w..][..w];
                for (slot, &bv) in line.iter_mut().zip(&bvs) {
                    *slot = S::add(*slot, S::mul(av, bv));
                }
            }
        } else {
            for (&i, &av) in rows.iter().zip(vals) {
                let line = &mut tile[i as usize * w..][..w];
                for ((slot, &bv), &live) in line.iter_mut().zip(&bvs).zip(&live) {
                    if live {
                        *slot = S::add(*slot, S::mul(av, bv));
                    }
                }
            }
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};
    use crate::spgemm::spgemm_spa;

    #[test]
    fn roundtrip_csc_dense_csc() {
        let m = er_random::<PlusTimesF64>(13, 9, 3, 5);
        let d = DenseBlock::from_csc::<PlusTimesF64>(&m);
        assert_eq!((d.nrows(), d.ncols()), (13, 9));
        let back = d.to_csc::<PlusTimesF64>();
        assert!(back.eq_modulo_order(&m));
    }

    #[test]
    fn minplus_zero_is_infinity() {
        // MinPlus zero is +∞: densify fills with ∞ and sparsify drops it.
        let m = er_random::<MinPlusF64>(8, 8, 2, 7);
        let d = DenseBlock::from_csc::<MinPlusF64>(&m);
        let back = d.to_csc::<MinPlusF64>();
        assert!(back.eq_modulo_order(&m));
        assert!(d.col(0)[0].is_infinite() || m.col(0).0.contains(&0));
    }

    #[test]
    fn spmm_matches_spa_on_densified_b() {
        let a = er_random::<PlusTimesU64>(20, 16, 3, 11).map(|_| 3u64);
        let b_sparse = er_random::<PlusTimesU64>(16, 6, 4, 12).map(|_| 2u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b_sparse).unwrap();
        let b = DenseBlock::from_csc::<PlusTimesU64>(&b_sparse);
        let mut c = DenseBlock::new_fill(20, 6, 0u64);
        let stats = spmm_acc::<PlusTimesU64>(&a, &b, 0, &mut c).unwrap();
        assert!(stats.flops > 0);
        let c_sparse = c.to_csc::<PlusTimesU64>();
        assert!(c_sparse.eq_modulo_order(&reference));
    }

    #[test]
    fn spmm_accumulates_block_splits() {
        // Splitting A into column blocks and accumulating must equal one
        // full multiply — the 1.5D shift-round invariant.
        let a = er_random::<PlusTimesU64>(18, 12, 3, 21).map(|_| 1u64);
        let b = DenseBlock::from_fn(12, 5, |i, j| ((i * 5 + j) % 7) as u64);
        let mut whole = DenseBlock::new_fill(18, 5, 0u64);
        spmm_acc::<PlusTimesU64>(&a, &b, 0, &mut whole).unwrap();
        let mut split = DenseBlock::new_fill(18, 5, 0u64);
        for (k, blk) in crate::ops::col_split_blocks(&a, 3).iter().enumerate() {
            let range = crate::ops::block_range(12, 3, k);
            spmm_acc::<PlusTimesU64>(blk, &b, range.start, &mut split).unwrap();
        }
        assert_eq!(whole, split);
    }

    #[test]
    fn slices_are_consistent() {
        let d = DenseBlock::from_fn(6, 4, |i, j| (i * 10 + j) as u64);
        let cols = d.col_slice(1..3);
        assert_eq!((cols.nrows(), cols.ncols()), (6, 2));
        assert_eq!(cols.col(0)[4], 41);
    }

    #[test]
    fn bad_shapes_rejected() {
        let a = CscMatrix::<u64>::zero(4, 3);
        let b = DenseBlock::new_fill(2, 2, 0u64);
        let mut c = DenseBlock::new_fill(4, 2, 0u64);
        assert!(spmm_acc::<PlusTimesU64>(&a, &b, 0, &mut c).is_err());
    }
}
