//! Structural and elementwise matrix operations.
//!
//! These back both the distributed layer (column/row splitting for 3D
//! distribution and batching, transpose for `A·Aᵀ` workloads) and the
//! applications (pruning for Markov clustering, masking for triangle
//! counting).

use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::spgemm::accum::HashAccum;
use crate::Result;
use std::ops::Range;

/// The `k`-th of `parts` contiguous index blocks of `0..n`, with the
/// remainder spread over the first `n % parts` blocks (CombBLAS-style
/// balanced block distribution).
///
/// Degenerate splits are well-defined: when `n < parts` the first `n`
/// blocks hold one element each and the rest are empty (`n..n`), so
/// over-partitioned grids see empty-but-in-bounds ranges rather than
/// panics.
pub fn block_range(n: usize, parts: usize, k: usize) -> Range<usize> {
    assert!(k < parts, "block index {k} out of {parts}");
    let base = n / parts;
    let rem = n % parts;
    let start = k * base + k.min(rem);
    let len = base + usize::from(k < rem);
    debug_assert!(start + len <= n, "block_range({n}, {parts}, {k}) escapes 0..{n}");
    start..start + len
}

/// The paper's block-cyclic batch split (Sec. IV-B, Fig. 1(i)), the only
/// batching rule: each layer's sub-slice `block_range(ncols, l, k)` of the
/// `ncols` local columns is cut into `b` blocks and batch `t` takes block
/// `t` of every layer. Yields batch `t`'s `l` column ranges in ascending
/// order; range `k` is the batch's ColSplit piece for layer `k` and lies
/// inside layer `k`'s sub-slice, which is where the A-style layout keeps
/// those columns of `C`. When `b·l` divides `ncols` these are blocks
/// `t, t+b, …, t+(l−1)b` of `b·l` equal blocks. The union over batches is
/// a disjoint cover of `0..ncols`.
pub fn batch_pieces(
    ncols: usize,
    b: usize,
    l: usize,
    t: usize,
) -> impl Iterator<Item = Range<usize>> {
    assert!(t < b, "batch index {t} out of {b}");
    (0..l).map(move |k| {
        let slice = block_range(ncols, l, k);
        let piece = block_range(slice.len(), b, t);
        slice.start + piece.start..slice.start + piece.end
    })
}

/// Transpose via counting sort. Output columns are sorted regardless of the
/// input's sortedness.
pub fn transpose<T: Copy>(m: &CscMatrix<T>) -> CscMatrix<T> {
    let (nr, nc, nnz) = (m.nrows(), m.ncols(), m.nnz());
    let mut counts = vec![0usize; nr + 1];
    for &r in m.rowidx() {
        counts[r as usize + 1] += 1;
    }
    for i in 0..nr {
        counts[i + 1] += counts[i];
    }
    let colptr = counts.clone();
    let mut rowidx = vec![0u32; nnz];
    if nnz == 0 {
        return CscMatrix::from_parts_unchecked(nc, nr, colptr, rowidx, Vec::new(), true);
    }
    let mut vals = vec![m.vals()[0]; nnz];
    let mut next = counts;
    for j in 0..nc {
        let (rows, vs) = m.col(j);
        for (&r, &v) in rows.iter().zip(vs.iter()) {
            let slot = next[r as usize];
            rowidx[slot] = j as u32;
            vals[slot] = v;
            next[r as usize] += 1;
        }
    }
    // Scanning columns 0..nc in order makes each output column's entries
    // ascend in j automatically.
    CscMatrix::from_parts_unchecked(nc, nr, colptr, rowidx, vals, true)
}

/// Extract the listed columns (in the given order) into a new matrix with
/// `cols.len()` columns. Per-column entry order (and sortedness) preserved.
pub fn extract_cols<T: Copy>(m: &CscMatrix<T>, cols: &[usize]) -> CscMatrix<T> {
    let mut colptr = vec![0usize; cols.len() + 1];
    let nnz: usize = cols.iter().map(|&j| m.col_nnz(j)).sum();
    let mut rowidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (out_j, &j) in cols.iter().enumerate() {
        let (rows, vs) = m.col(j);
        rowidx.extend_from_slice(rows);
        vals.extend_from_slice(vs);
        colptr[out_j + 1] = rowidx.len();
    }
    CscMatrix::from_parts_unchecked(m.nrows(), cols.len(), colptr, rowidx, vals, m.is_sorted())
}

/// Contiguous column block `range` as a new matrix.
pub fn col_block<T: Copy>(m: &CscMatrix<T>, range: Range<usize>) -> CscMatrix<T> {
    let cols: Vec<usize> = range.collect();
    extract_cols(m, &cols)
}

/// Split into `parts` balanced contiguous column blocks.
pub fn col_split_blocks<T: Copy>(m: &CscMatrix<T>, parts: usize) -> Vec<CscMatrix<T>> {
    (0..parts)
        .map(|k| col_block(m, block_range(m.ncols(), parts, k)))
        .collect()
}

/// Concatenate matrices left-to-right (`ncols` adds up; `nrows` must match).
pub fn col_concat<T: Copy>(parts: &[CscMatrix<T>]) -> Result<CscMatrix<T>> {
    let nrows = parts
        .first()
        .map(|p| p.nrows())
        .ok_or_else(|| crate::SparseError::InvalidStructure("concat of zero matrices".into()))?;
    for p in parts {
        if p.nrows() != nrows {
            return Err(crate::SparseError::DimensionMismatch {
                expected: (nrows, 0),
                found: (p.nrows(), p.ncols()),
            });
        }
    }
    let ncols: usize = parts.iter().map(|p| p.ncols()).sum();
    let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
    let mut colptr = Vec::with_capacity(ncols + 1);
    colptr.push(0usize);
    let mut rowidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    let mut sorted = true;
    for p in parts {
        sorted &= p.is_sorted();
        for j in 0..p.ncols() {
            let (rows, vs) = p.col(j);
            rowidx.extend_from_slice(rows);
            vals.extend_from_slice(vs);
            colptr.push(rowidx.len());
        }
    }
    Ok(CscMatrix::from_parts_unchecked(nrows, ncols, colptr, rowidx, vals, sorted))
}

/// Keep only rows in `range`, re-based so the output has
/// `range.len()` rows. Used to slice `B` along rows for 3D layering.
pub fn row_block<T: Copy>(m: &CscMatrix<T>, range: Range<usize>) -> CscMatrix<T> {
    let lo = range.start as u32;
    let hi = range.end as u32;
    let mut colptr = vec![0usize; m.ncols() + 1];
    let mut rowidx = Vec::new();
    let mut vals = Vec::new();
    for j in 0..m.ncols() {
        let (rows, vs) = m.col(j);
        for (&r, &v) in rows.iter().zip(vs.iter()) {
            if r >= lo && r < hi {
                rowidx.push(r - lo);
                vals.push(v);
            }
        }
        colptr[j + 1] = rowidx.len();
    }
    CscMatrix::from_parts_unchecked(range.len(), m.ncols(), colptr, rowidx, vals, m.is_sorted())
}

/// Split into `parts` balanced contiguous row blocks (each re-based to row 0).
pub fn row_split_blocks<T: Copy>(m: &CscMatrix<T>, parts: usize) -> Vec<CscMatrix<T>> {
    (0..parts)
        .map(|k| row_block(m, block_range(m.nrows(), parts, k)))
        .collect()
}

/// Elementwise ⊕ of two same-shaped matrices.
pub fn elementwise_add<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<CscMatrix<S::T>> {
    crate::merge::merge_hash_sorted::<S>(&[a.clone(), b.clone()], &mut []).map(|(m, ..)| m)
}

/// Hadamard (elementwise ⊗) product restricted to coordinates present in
/// **both** operands. Used as the mask step of masked SpGEMM applications
/// (e.g. triangle counting's `(L·U) .* A`).
pub fn hadamard<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>) -> Result<CscMatrix<S::T>> {
    if (a.nrows(), a.ncols()) != (b.nrows(), b.ncols()) {
        return Err(crate::SparseError::DimensionMismatch {
            expected: (a.nrows(), a.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    let mut acc: HashAccum<S::T> = HashAccum::new(S::zero());
    let mut colptr = vec![0usize; a.ncols() + 1];
    let mut rowidx = Vec::new();
    let mut vals = Vec::new();
    for j in 0..a.ncols() {
        let (b_rows, b_vals) = b.col(j);
        if b_rows.is_empty() || a.col_nnz(j) == 0 {
            colptr[j + 1] = rowidx.len();
            continue;
        }
        acc.reset(b_rows.len(), b.nrows());
        acc.accumulate_col::<S>(b_rows, b_vals, |v| v);
        // Probe a's entries against b's table.
        let (a_rows, a_vals) = a.col(j);
        let mut pairs: Vec<(u32, S::T)> = Vec::new();
        {
            // Reuse drain to get (key, val) pairs of b's column.
            let (mut br, mut bv) = (Vec::new(), Vec::new());
            acc.drain_into(&mut br, &mut bv);
            let lookup: std::collections::HashMap<u32, S::T> = br.into_iter().zip(bv).collect();
            for (&r, &av) in a_rows.iter().zip(a_vals.iter()) {
                if let Some(&bvv) = lookup.get(&r) {
                    pairs.push((r, S::mul(av, bvv)));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(r, _)| r);
        for (r, v) in pairs {
            rowidx.push(r);
            vals.push(v);
        }
        colptr[j + 1] = rowidx.len();
    }
    Ok(CscMatrix::from_parts_unchecked(a.nrows(), a.ncols(), colptr, rowidx, vals, true))
}

/// ⊕-reduce all stored entries (structural zeros excluded).
pub fn sum_all<S: Semiring>(m: &CscMatrix<S::T>) -> S::T {
    m.vals().iter().fold(S::zero(), |acc, &v| S::add(acc, v))
}

/// ⊕-reduce each column; returns a dense vector of length `ncols`.
pub fn col_sums<S: Semiring>(m: &CscMatrix<S::T>) -> Vec<S::T> {
    (0..m.ncols())
        .map(|j| m.col(j).1.iter().fold(S::zero(), |acc, &v| S::add(acc, v)))
        .collect()
}

/// Keep at most the `k` largest-magnitude entries of each column
/// (HipMCL's column-wise top-k selection). Preserves sortedness.
pub fn prune_topk_cols(m: &CscMatrix<f64>, k: usize) -> CscMatrix<f64> {
    let mut colptr = vec![0usize; m.ncols() + 1];
    let mut rowidx = Vec::new();
    let mut vals = Vec::new();
    for j in 0..m.ncols() {
        let (rows, vs) = m.col(j);
        if rows.len() <= k {
            rowidx.extend_from_slice(rows);
            vals.extend_from_slice(vs);
        } else {
            let mut idx: Vec<usize> = (0..rows.len()).collect();
            idx.sort_unstable_by(|&x, &y| vs[y].abs().partial_cmp(&vs[x].abs()).unwrap());
            let mut kept: Vec<(u32, f64)> = idx[..k].iter().map(|&i| (rows[i], vs[i])).collect();
            kept.sort_unstable_by_key(|&(r, _)| r);
            for (r, v) in kept {
                rowidx.push(r);
                vals.push(v);
            }
        }
        colptr[j + 1] = rowidx.len();
    }
    CscMatrix::from_parts_unchecked(m.nrows(), m.ncols(), colptr, rowidx, vals, m.is_sorted())
}

/// Multiply every entry of column `j` by `factors[j]` (column scaling, used
/// by Markov clustering's column normalization).
pub fn scale_cols(m: &mut CscMatrix<f64>, factors: &[f64]) {
    assert_eq!(factors.len(), m.ncols());
    // Work around the lack of col_mut: rebuild values in place via map.
    let scaled = {
        let mut vals = m.vals().to_vec();
        for (j, &f) in factors.iter().enumerate() {
            let r = m.colptr()[j]..m.colptr()[j + 1];
            for v in &mut vals[r] {
                *v *= f;
            }
        }
        vals
    };
    *m = CscMatrix::from_parts_unchecked(
        m.nrows(),
        m.ncols(),
        m.colptr().to_vec(),
        m.rowidx().to_vec(),
        scaled,
        m.is_sorted(),
    );
}

/// Apply a symmetric permutation `P·A·Pᵀ` to a square matrix:
/// entry `(r, c)` moves to `(perm[r], perm[c])`.
///
/// Random symmetric permutation is standard practice in distributed sparse
/// frameworks (CombBLAS/HipMCL permute inputs on ingestion): it destroys
/// any alignment between matrix structure (e.g. protein-cluster blocks)
/// and process-grid block boundaries, which would otherwise concentrate an
/// entire SUMMA stage's broadcast volume on one process row.
pub fn permute_symmetric<T: Copy>(m: &CscMatrix<T>, perm: &[u32]) -> CscMatrix<T> {
    assert_eq!(m.nrows(), m.ncols(), "symmetric permutation needs a square matrix");
    assert_eq!(perm.len(), m.nrows());
    debug_assert!({
        let mut seen = vec![false; perm.len()];
        perm.iter().all(|&p| {
            let ok = (p as usize) < seen.len() && !seen[p as usize];
            if ok {
                seen[p as usize] = true;
            }
            ok
        })
    });
    let mut t = crate::triples::Triples::with_capacity(m.nrows(), m.ncols(), m.nnz());
    for (r, c, v) in m.iter() {
        t.push(perm[r as usize], perm[c], v);
    }
    t.to_csc()
}

/// Apply a row permutation `P·A`: entry `(r, c)` moves to `(perm[r], c)`.
/// Used to scramble rectangular matrices (e.g. shuffle reads of a
/// reads × k-mers matrix) the way ingestion pipelines do.
pub fn permute_rows<T: Copy>(m: &CscMatrix<T>, perm: &[u32]) -> CscMatrix<T> {
    assert_eq!(perm.len(), m.nrows());
    let mut t = crate::triples::Triples::with_capacity(m.nrows(), m.ncols(), m.nnz());
    for (r, c, v) in m.iter() {
        t.push(perm[r as usize], c as u32, v);
    }
    t.to_csc()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates, seeded).
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9E3_779B9);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Strictly lower-triangular part (row > col). For triangle counting.
pub fn tril_strict<T: Copy>(m: &CscMatrix<T>) -> CscMatrix<T> {
    let mut out = m.clone();
    out.retain(|r, c, _| (r as usize) > c);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::triples::Triples;

    #[test]
    fn block_range_covers_disjointly() {
        for n in [0usize, 1, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut seen = 0;
                let mut prev_end = 0;
                for k in 0..parts {
                    let r = block_range(n, parts, k);
                    assert_eq!(r.start, prev_end);
                    prev_end = r.end;
                    seen += r.len();
                }
                assert_eq!(seen, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_range_degenerate_more_parts_than_elements() {
        // n < parts: the first n blocks get one element, the rest are
        // empty ranges pinned at n (never out of bounds, never panicking).
        for n in [0usize, 1, 3] {
            for parts in [4usize, 7, 16] {
                for k in 0..parts {
                    let r = block_range(n, parts, k);
                    assert!(r.end <= n, "n={n} parts={parts} k={k}: {r:?}");
                    if k < n {
                        assert_eq!(r.len(), 1, "n={n} parts={parts} k={k}");
                    } else {
                        assert!(r.is_empty(), "n={n} parts={parts} k={k}: {r:?}");
                        assert_eq!(r.start, n);
                    }
                }
            }
        }
    }

    #[test]
    fn block_range_balanced_within_one() {
        let sizes: Vec<usize> = (0..7).map(|k| block_range(100, 7, k).len()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(mx - mn <= 1);
    }

    #[test]
    fn cyclic_batches_disjointly_cover_inside_layer_slices() {
        for ncols in [13usize, 16, 64, 100] {
            for b in [1usize, 2, 4] {
                for l in [1usize, 2, 4] {
                    let mut all: Vec<usize> = Vec::new();
                    for t in 0..b {
                        for (k, piece) in batch_pieces(ncols, b, l, t).enumerate() {
                            let slice = block_range(ncols, l, k);
                            assert!(
                                slice.start <= piece.start && piece.end <= slice.end,
                                "ncols={ncols} b={b} l={l} t={t}: {piece:?} off layer {k}'s {slice:?}"
                            );
                            all.extend(piece);
                        }
                    }
                    all.sort_unstable();
                    assert_eq!(all, (0..ncols).collect::<Vec<_>>(), "ncols={ncols} b={b} l={l}");
                }
            }
        }
    }

    #[test]
    fn cyclic_batches_balance_colsplit_blocks() {
        // Under block-cyclic batching, each batch's local columns form l
        // equal-ish runs, one per layer — so ColSplit pieces are balanced.
        let (ncols, nb, l) = (64usize, 4usize, 4usize);
        for t in 0..nb {
            let pieces: Vec<_> = batch_pieces(ncols, nb, l, t).collect();
            assert_eq!(pieces.len(), l);
            assert!(pieces.iter().all(|p| p.len() == ncols / (nb * l)));
            assert!(pieces.windows(2).all(|w| w[0].end < w[1].start), "{pieces:?}");
        }
    }

    #[test]
    fn cyclic_batch_interleaves_blocks() {
        // ncols=8, b=2, l=2 -> 4 blocks of 2; batch0 = blocks {0,2} = cols 0,1,4,5.
        assert_eq!(batch_pieces(8, 2, 2, 0).collect::<Vec<_>>(), vec![0..2, 4..6]);
        assert_eq!(batch_pieces(8, 2, 2, 1).collect::<Vec<_>>(), vec![2..4, 6..8]);
    }

    #[test]
    fn transpose_involutive() {
        let m = er_random::<PlusTimesF64>(30, 20, 4, 77);
        let tt = transpose(&transpose(&m));
        assert!(m.eq_modulo_order(&tt));
    }

    #[test]
    fn transpose_moves_entries() {
        let mut t = Triples::new(3, 2);
        t.push(2, 0, 5.0);
        let m = t.to_csc();
        let mt = transpose(&m);
        assert_eq!((mt.nrows(), mt.ncols()), (2, 3));
        assert_eq!(mt.col(2), (&[0u32][..], &[5.0][..]));
    }

    #[test]
    fn split_concat_roundtrip() {
        let m = er_random::<PlusTimesF64>(25, 33, 3, 5);
        for parts in [1, 2, 5, 33] {
            let pieces = col_split_blocks(&m, parts);
            let back = col_concat(&pieces).unwrap();
            assert!(m.eq_modulo_order(&back), "parts={parts}");
        }
    }

    #[test]
    fn row_blocks_reassemble_under_transpose() {
        let m = er_random::<PlusTimesF64>(30, 10, 3, 6);
        let blocks = row_split_blocks(&m, 4);
        assert_eq!(blocks.iter().map(|b| b.nnz()).sum::<usize>(), m.nnz());
        assert_eq!(blocks.iter().map(|b| b.nrows()).sum::<usize>(), 30);
    }

    #[test]
    fn extract_cols_in_arbitrary_order() {
        let m = er_random::<PlusTimesF64>(10, 5, 2, 8);
        let e = extract_cols(&m, &[4, 0, 2]);
        assert_eq!(e.ncols(), 3);
        assert_eq!(e.col(0), m.col(4));
        assert_eq!(e.col(1), m.col(0));
        assert_eq!(e.col(2), m.col(2));
    }

    #[test]
    fn hadamard_masks_intersection() {
        let mut ta = Triples::new(3, 2);
        ta.push(0, 0, 2.0);
        ta.push(1, 0, 3.0);
        let mut tb = Triples::new(3, 2);
        tb.push(1, 0, 5.0);
        tb.push(2, 1, 7.0);
        let c = hadamard::<PlusTimesF64>(&ta.to_csc(), &tb.to_csc()).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.col(0), (&[1u32][..], &[15.0][..]));
    }

    #[test]
    fn sum_all_and_col_sums() {
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 1);
        t.push(1, 0, 2);
        t.push(0, 1, 4);
        let m: CscMatrix<u64> = t.to_csc();
        assert_eq!(sum_all::<PlusTimesU64>(&m), 7);
        assert_eq!(col_sums::<PlusTimesU64>(&m), vec![3, 4]);
    }

    #[test]
    fn prune_topk_keeps_largest() {
        let mut t = Triples::new(4, 1);
        t.push(0, 0, 0.1);
        t.push(1, 0, 0.9);
        t.push(2, 0, 0.5);
        t.push(3, 0, 0.3);
        let m = t.to_csc();
        let p = prune_topk_cols(&m, 2);
        assert_eq!(p.col(0), (&[1u32, 2][..], &[0.9, 0.5][..]));
    }

    #[test]
    fn scale_cols_multiplies() {
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        let mut m = t.to_csc();
        scale_cols(&mut m, &[10.0, 100.0]);
        assert_eq!(m.col(0).1, &[20.0]);
        assert_eq!(m.col(1).1, &[300.0]);
    }

    #[test]
    fn permutation_is_bijective_and_seeded() {
        let p = random_permutation(100, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100u32).collect::<Vec<_>>());
        assert_eq!(p, random_permutation(100, 7));
        assert_ne!(p, random_permutation(100, 8));
    }

    #[test]
    fn symmetric_permutation_preserves_values_and_symmetry() {
        let m = crate::gen::clustered_similarity(3, 10, 4, 1, 3);
        let perm = random_permutation(m.nrows(), 5);
        let pm = permute_symmetric(&m, &perm);
        assert_eq!(pm.nnz(), m.nnz());
        // Symmetry preserved.
        let pt = transpose(&pm.map(|_| 1u64));
        assert!(pm.map(|_| 1u64).eq_modulo_order(&pt));
        // Entry values relocated, not changed: multisets of values equal.
        let mut v1: Vec<u64> = m.vals().iter().map(|v| v.to_bits()).collect();
        let mut v2: Vec<u64> = pm.vals().iter().map(|v| v.to_bits()).collect();
        v1.sort_unstable();
        v2.sort_unstable();
        assert_eq!(v1, v2);
    }

    #[test]
    fn identity_permutation_is_noop() {
        let m = er_random::<PlusTimesF64>(20, 20, 3, 9);
        let id: Vec<u32> = (0..20).collect();
        assert!(permute_symmetric(&m, &id).eq_modulo_order(&m));
    }

    #[test]
    fn tril_keeps_exactly_the_strictly_lower_entries() {
        let m = er_random::<PlusTimesF64>(20, 20, 4, 13);
        let l = tril_strict(&m);
        let below = m.iter().filter(|&(r, c, _)| r as usize > c).count();
        assert_eq!(l.nnz(), below);
        assert!(l.iter().all(|(r, c, _)| (r as usize) > c));
    }
}
