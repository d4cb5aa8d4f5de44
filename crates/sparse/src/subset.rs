//! Column subsets for sparsity-aware exchange, and their wire format.
//!
//! The `SparseFetch` exchange strategy (see `spgemm_core::exchange`) ships
//! only the stage-operand columns a receiver will actually touch: the
//! receiver derives its needed-column set from the row structure of its
//! other operand ([`needed_rows`]) and posts it gap-coded
//! ([`ColRequest`]); the owner encodes exactly those columns
//! ([`ColTile::encode`]), and the receiver decodes the reply straight into a
//! full-width operand ([`ColTile::decode`]) so downstream kernels see the
//! same shape a dense broadcast would have produced — with every untouched
//! column empty.
//!
//! A sparse block that moves whole — a fiber piece, a refresh slice of `B̃`,
//! a 1.5D A-shift block — travels as a *coded block*: the request of its
//! nonempty columns, then their tile. The run only sizes it ([`coded_len`]);
//! the matrix itself moves on the host.
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

/// Append `x` as an LEB128 varint: seven bits per byte, low group first,
/// the high bit set on every byte but the last. The one- and two-byte forms
/// (every gap of a hypersparse column) take no data-dependent branch: both
/// bytes are written and the second is dropped again when it is not needed.
#[inline]
fn put_varint(out: &mut Vec<u8>, x: u64) {
    if x < 1 << 14 {
        let two = u8::from(x >= 0x80);
        out.extend_from_slice(&[(x as u8 & 0x7F) | (two << 7), (x >> 7) as u8]);
        out.truncate(out.len() - 1 + usize::from(two));
        return;
    }
    let mut x = x;
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Bytes of the LEB128 varint of `x`.
#[inline]
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// The varint at `bytes[*pos..]`, advancing `pos` past it; branch-free for
/// the one- and two-byte forms like [`put_varint`].
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let b0 = u64::from(bytes[*pos]);
    let b1 = u64::from(bytes.get(*pos + 1).copied().unwrap_or(0));
    if b0 & b1 & 0x80 == 0 {
        let two = b0 >> 7;
        *pos += 1 + two as usize;
        return (b0 & 0x7F) | ((b1 << 7) & 0u64.wrapping_sub(two));
    }
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        x |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// The needed-column set of a fetch request in its wire format: the column
/// count, then the first column, then `c − prev − 1` for each later column,
/// every number a varint. The columns are ascending and distinct, so a run
/// of adjacent columns costs one zero byte each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRequest(Vec<u8>);

impl ColRequest {
    /// Encode `cols` (ascending, distinct).
    #[must_use]
    pub fn encode(cols: &[u32]) -> Self {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "column set must be ascending"
        );
        let mut out = Vec::with_capacity(cols.len() + 1);
        put_varint(&mut out, cols.len() as u64);
        // `next` is one past the previous column, so the first gap is the
        // column itself.
        let mut next = 0u64;
        for &c in cols {
            put_varint(&mut out, u64::from(c) - next);
            next = u64::from(c) + 1;
        }
        ColRequest(out)
    }

    /// The columns, ascending.
    #[must_use]
    pub fn decode(&self) -> Vec<u32> {
        let mut pos = 0;
        let k = get_varint(&self.0, &mut pos) as usize;
        let mut next = 0u64;
        let cols = (0..k)
            .map(|_| {
                let c = next + get_varint(&self.0, &mut pos);
                next = c + 1;
                c as u32
            })
            .collect();
        debug_assert_eq!(pos, self.0.len(), "trailing bytes in a column request");
        cols
    }

    /// Encoded length in bytes.
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.0.len()
    }
}

/// A column subset of a matrix in the fetch reply's wire format, and the
/// codec between it and the matrix.
///
/// The *index section* holds, per requested column in request order, a
/// varint count and then the column's rows: when the source matrix is
/// sorted, the first row in full and then `row − prev`; when it is not,
/// every row in full. The column ids are not spelled — the requester sent
/// them. The *value section* is the columns' values in the same order, a
/// plain `Vec<T>` that occupies no memory for the `()` of a pattern. The
/// source's shape and sortedness ride along as metadata.
///
/// [`ColTile::encode`] runs on the owner; [`ColTile::decode`] rebuilds the
/// full-width operand on the requester, each listed column at its global
/// index and every other column empty — the shape a dense broadcast would
/// have delivered, bit-identical on every column the local multiply reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ColTile<T> {
    nrows: usize,
    ncols: usize,
    sorted: bool,
    index: Vec<u8>,
    vals: Vec<T>,
}

impl<T: Copy> ColTile<T> {
    /// Encode the listed columns of `m` (ascending, distinct), keeping each
    /// column's entry order.
    #[must_use]
    pub fn encode(m: &CscMatrix<T>, cols: &[u32]) -> Self {
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "column subset must be ascending"
        );
        debug_assert!(cols.last().is_none_or(|&j| (j as usize) < m.ncols()));
        let nnz: usize = cols.iter().map(|&j| m.col_nnz(j as usize)).sum();
        let mut index = Vec::with_capacity(2 * (nnz + cols.len()));
        let mut vals = Vec::with_capacity(nnz);
        let sorted = m.is_sorted();
        for &j in cols {
            let (rows, vs) = m.col(j as usize);
            put_varint(&mut index, rows.len() as u64);
            if sorted {
                let mut prev = 0;
                for &r in rows {
                    put_varint(&mut index, u64::from(r - prev));
                    prev = r;
                }
            } else {
                for &r in rows {
                    put_varint(&mut index, u64::from(r));
                }
            }
            vals.extend_from_slice(vs);
        }
        ColTile {
            nrows: m.nrows(),
            ncols: m.ncols(),
            sorted,
            index,
            vals,
        }
    }

    /// The full-width operand: column `i` of the tile at global column
    /// `cols[i]`, where `cols` is the list the tile was encoded from. The
    /// value section moves into the result.
    #[must_use]
    pub fn decode(self, cols: &[u32]) -> CscMatrix<T> {
        debug_assert!(cols.last().is_none_or(|&j| (j as usize) < self.ncols));
        let mut colptr = vec![0; self.ncols + 1];
        let mut rowidx = vec![0u32; self.vals.len()];
        let (mut pos, mut nnz) = (0, 0);
        for &j in cols {
            let count = get_varint(&self.index, &mut pos) as usize;
            colptr[j as usize + 1] = count;
            let rows = &mut rowidx[nnz..nnz + count];
            if self.sorted {
                let mut prev = 0;
                for row in rows {
                    prev += get_varint(&self.index, &mut pos) as u32;
                    *row = prev;
                }
            } else {
                for row in rows {
                    *row = get_varint(&self.index, &mut pos) as u32;
                }
            }
            nnz += count;
        }
        // Counts to offsets; the unlisted columns stay empty.
        let mut offset = 0;
        for ptr in &mut colptr {
            offset += *ptr;
            *ptr = offset;
        }
        debug_assert_eq!(pos, self.index.len(), "trailing bytes in a reply tile");
        CscMatrix::from_parts_unchecked(
            self.nrows,
            self.ncols,
            colptr,
            rowidx,
            self.vals,
            self.sorted,
        )
    }

    /// Length of the index section in bytes.
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.index.len()
    }

    /// Entries the tile carries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// Length of the index section of all of `m` sent as one *coded block*,
/// and the number of its nonempty columns — computed without encoding.
///
/// A coded block is how a sparse block travels when no request named its
/// columns: the [`ColRequest`] of its nonempty column ids, then the
/// [`ColTile`] index section of those columns, then one value per nonzero
/// (not counted here). The length is exactly
/// `ColRequest::encode(&nonempty).index_bytes() + ColTile::encode(m,
/// &nonempty).index_bytes()`.
#[must_use]
pub fn coded_len<T: Copy>(m: &CscMatrix<T>) -> (usize, usize) {
    let sorted = m.is_sorted();
    let (mut bytes, mut cols, mut next) = (0, 0, 0);
    for (j, span) in m.colptr().windows(2).enumerate() {
        let rows = &m.rowidx()[span[0]..span[1]];
        if rows.is_empty() {
            continue;
        }
        // The column's gap in the request, then its count in the tile.
        bytes += varint_len((j - next) as u64) + varint_len(rows.len() as u64);
        next = j + 1;
        cols += 1;
        if sorted {
            let mut prev = 0;
            for &r in rows {
                bytes += varint_len(u64::from(r - prev));
                prev = r;
            }
        } else {
            bytes += rows.iter().map(|&r| varint_len(u64::from(r))).sum::<usize>();
        }
    }
    (varint_len(cols as u64) + bytes, cols)
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
    fn decode_places_listed_columns_and_empties_the_rest() {
        let m = er_random::<PlusTimesF64>(20, 15, 3, 42);
        let cols: Vec<u32> = vec![0, 3, 7, 14];
        let padded = ColTile::encode(&m, &cols).decode(&cols);
        assert_eq!((padded.nrows(), padded.ncols()), (m.nrows(), m.ncols()));
        for j in 0..m.ncols() {
            if cols.contains(&(j as u32)) {
                assert_eq!(padded.col(j), m.col(j), "column {j}");
            } else {
                assert_eq!(padded.col_nnz(j), 0, "column {j} should be empty");
            }
        }
        assert_eq!(ColRequest::encode(&cols).decode(), cols);
    }

    #[test]
    fn full_subset_is_identity() {
        let m = er_random::<PlusTimesF64>(10, 8, 2, 7);
        let cols: Vec<u32> = (0..8).collect();
        assert_eq!(ColTile::encode(&m, &cols).decode(&cols), m);
    }

    #[test]
    fn padded_operand_multiplies_identically_to_dense() {
        // The defining property of the fetch reply: if the subset covers
        // the occupied rows of the other operand, A_padded · B == A · B.
        let a = er_random::<PlusTimesF64>(12, 16, 3, 5);
        let b = col_block(&er_random::<PlusTimesF64>(16, 9, 3, 6), 0..9);
        let mut ws = SubsetWorkspace::new();
        let need = needed_rows(&b, &mut ws);
        let a_fetched = ColTile::encode(&a, &need).decode(&need);
        let (dense, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        let (sparse, _, _) =
            crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(&a_fetched, &b, &mut []).unwrap();
        assert!(dense.eq_modulo_order(&sparse));
    }

    /// The host measurement behind `spgemm::C_CODEC`: nanoseconds per coded
    /// integer per side of the reply codec, beside the hash kernel's
    /// nanoseconds per flop on the products the tiles feed, for one rank of
    /// the reads × k-mers `A·Aᵀ` of 8000 reads at `p = 16, l = 4` in nine
    /// batches. Best of 15 sweeps each. Run with `cargo test -p
    /// spgemm-sparse --release --lib codec_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "host timing: prints the measurement behind C_CODEC"]
    fn codec_cost() {
        use crate::gen::kmer_matrix;
        use crate::ops::{
            block_range, col_concat, permute_rows, random_permutation, row_block, transpose,
        };
        use crate::semiring::PlusTimesU64;
        use crate::spgemm::{spgemm_hash_unsorted, SpGemmWorkspace};
        use std::time::Instant;

        let nreads = 8000;
        let windows = kmer_matrix(nreads, nreads * 6, 6, 1);
        let repeats = er_random::<PlusTimesU64>(nreads, nreads * 4, 6, 2).map(|_| 1u64);
        let both = col_concat(&[windows, repeats]).unwrap();
        let a = permute_rows(&both, &random_permutation(nreads, 3)).map(|v| v as f64);
        // Rank (0, 0, 0): A-style piece of `A`, B-style piece of `Aᵀ`.
        let a_piece = row_block(&col_block(&a, 0..a.ncols() / 8), 0..nreads / 2);
        let b_piece = row_block(&col_block(&transpose(&a), 0..nreads / 2), 0..a.ncols() / 8);
        let batches: Vec<CscMatrix<f64>> = (0..9)
            .map(|t| col_block(&b_piece, block_range(b_piece.ncols(), 9, t)))
            .collect();
        let needed: Vec<Vec<u32>> = batches
            .iter()
            .map(|b| needed_rows(b, &mut SubsetWorkspace::new()))
            .collect();

        let mut ws = [SpGemmWorkspace::<f64>::new()];
        let (mut encode, mut decode, mut multiply) = (f64::MAX, f64::MAX, f64::MAX);
        let (mut coded, mut flops) = (0, 0);
        for _ in 0..15 {
            let t = Instant::now();
            let tiles: Vec<ColTile<f64>> = needed
                .iter()
                .map(|cols| ColTile::encode(&a_piece, cols))
                .collect();
            encode = encode.min(t.elapsed().as_secs_f64());
            coded = needed
                .iter()
                .zip(&tiles)
                .map(|(c, t)| c.len() + t.nnz())
                .sum::<usize>();
            let t = Instant::now();
            let fetched: Vec<CscMatrix<f64>> = tiles
                .into_iter()
                .zip(&needed)
                .map(|(t, c)| t.decode(c))
                .collect();
            decode = decode.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            flops = 0;
            for (a_fetched, b) in fetched.iter().zip(&batches) {
                let (_, stats, _) =
                    spgemm_hash_unsorted::<PlusTimesF64>(a_fetched, b, &mut ws).unwrap();
                flops += stats.flops;
            }
            multiply = multiply.min(t.elapsed().as_secs_f64());
        }
        let per_int = |secs: f64| secs * 1e9 / coded as f64;
        let codec = per_int((encode + decode) / 2.0);
        let kernel = multiply * 1e9 / flops as f64;
        println!(
            "{coded} coded integers, {flops} flops: encode {:.2} ns, decode {:.2} ns, \
             mean {codec:.2} ns per integer per side; hash kernel {kernel:.2} ns/flop; \
             ratio {:.3}",
            per_int(encode),
            per_int(decode),
            codec / kernel
        );
    }
}
