//! Doubly compressed sparse column (DCSC) storage for hypersparse
//! matrices.
//!
//! At extreme scale the 3D distribution makes local blocks *hypersparse*:
//! `nnz ≪ ncols`, so CSC's `O(ncols)` column-pointer array dwarfs the data
//! (on a `√(p/l) × √(p/l) × l` grid a local block has `n/√(pl)` columns
//! but only `nnz/p` entries). CombBLAS — the substrate of the paper's
//! implementation — stores such blocks doubly compressed (Buluç & Gilbert):
//! only non-empty columns keep a pointer, found by binary search or a
//! merge-style scan.
//!
//! This type interoperates with the CSC kernels through cheap conversions
//! and offers a hypersparse-aware SpGEMM (`spgemm_hash_dcsc`) that never
//! touches empty columns of either operand.

use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::spgemm::accum::HashAccum;
use crate::spgemm::{WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::{check_mul_dims, Result};

/// A sparse matrix storing pointers only for its non-empty columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DcscMatrix<T> {
    nrows: usize,
    ncols: usize,
    /// Global ids of non-empty columns, strictly ascending.
    jc: Vec<u32>,
    /// `colptr[k]..colptr[k+1]` indexes column `jc[k]`'s entries.
    colptr: Vec<usize>,
    rowidx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> DcscMatrix<T> {
    /// Compress a CSC matrix (drops empty columns' pointers).
    pub fn from_csc(m: &CscMatrix<T>) -> Self {
        let mut jc = Vec::new();
        let mut colptr = vec![0usize];
        let mut rowidx = Vec::with_capacity(m.nnz());
        let mut vals = Vec::with_capacity(m.nnz());
        for j in 0..m.ncols() {
            let (rows, vs) = m.col(j);
            if !rows.is_empty() {
                jc.push(j as u32);
                rowidx.extend_from_slice(rows);
                vals.extend_from_slice(vs);
                colptr.push(rowidx.len());
            }
        }
        DcscMatrix {
            nrows: m.nrows(),
            ncols: m.ncols(),
            jc,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Expand back to plain CSC.
    pub fn to_csc(&self) -> CscMatrix<T> {
        let mut colptr = vec![0usize; self.ncols + 1];
        for (k, &j) in self.jc.iter().enumerate() {
            colptr[j as usize + 1] = self.colptr[k + 1] - self.colptr[k];
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        CscMatrix::from_parts_unchecked(
            self.nrows,
            self.ncols,
            colptr,
            self.rowidx.clone(),
            self.vals.clone(),
            false,
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of (logical) columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// Number of non-empty columns.
    pub fn nzc(&self) -> usize {
        self.jc.len()
    }

    /// Hypersparsity ratio `nzc / ncols` (≪ 1 means CSC would waste its
    /// column-pointer array).
    pub fn fill_ratio(&self) -> f64 {
        if self.ncols == 0 {
            return 0.0;
        }
        self.nzc() as f64 / self.ncols as f64
    }

    /// The `k`-th non-empty column: `(global column id, rows, values)`.
    pub fn nz_col(&self, k: usize) -> (u32, &[u32], &[T]) {
        let r = self.colptr[k]..self.colptr[k + 1];
        (self.jc[k], &self.rowidx[r.clone()], &self.vals[r])
    }

    /// Look up a column by global id (binary search over `jc`).
    pub fn col(&self, j: usize) -> Option<(&[u32], &[T])> {
        self.jc.binary_search(&(j as u32)).ok().map(|k| {
            let r = self.colptr[k]..self.colptr[k + 1];
            (&self.rowidx[r.clone()], &self.vals[r])
        })
    }

    /// Iterate `(row, col, value)` over stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize, T)> + '_ {
        (0..self.nzc()).flat_map(move |k| {
            let (j, rows, vals) = self.nz_col(k);
            rows.iter()
                .zip(vals.iter())
                .map(move |(&r, &v)| (r, j as usize, v))
        })
    }

    /// Assemble from raw arrays without validation — the caller vouches
    /// for the invariants (or runs
    /// [`crate::validate::Validate::validate`] afterwards, as the
    /// corruption tests do). Debug builds spot-check array lengths only.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        jc: Vec<u32>,
        colptr: Vec<usize>,
        rowidx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(colptr.len(), jc.len() + 1);
        debug_assert_eq!(rowidx.len(), vals.len());
        DcscMatrix {
            nrows,
            ncols,
            jc,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Global ids of the non-empty columns (strictly ascending).
    pub fn jc(&self) -> &[u32] {
        &self.jc
    }

    /// Column pointers over the non-empty columns:
    /// `colptr[k]..colptr[k+1]` indexes column `jc[k]`'s entries.
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// All row indices, column-major over the non-empty columns.
    pub fn rowidx(&self) -> &[u32] {
        &self.rowidx
    }

    /// All values, aligned with [`DcscMatrix::rowidx`].
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Actual storage bytes of this representation (indices + pointers +
    /// values), for comparing against CSC's `O(ncols)` pointer cost.
    pub fn storage_bytes(&self) -> usize {
        self.jc.len() * 4 + self.colptr.len() * 8 + self.rowidx.len() * 4 + self.vals.len() * std::mem::size_of::<T>()
    }

    /// Storage bytes a CSC copy of this matrix would need.
    pub fn csc_storage_bytes(&self) -> usize {
        (self.ncols + 1) * 8 + self.rowidx.len() * 4 + self.vals.len() * std::mem::size_of::<T>()
    }
}

/// Hypersparse SpGEMM: `C = A·B` over DCSC operands, visiting only
/// non-empty columns of `B` and, within each, only non-empty columns of
/// `A` (via binary search). Unsorted output, like the paper's sort-free
/// kernel.
pub fn spgemm_hash_dcsc<S: Semiring>(
    a: &DcscMatrix<S::T>,
    b: &DcscMatrix<S::T>,
) -> Result<(DcscMatrix<S::T>, WorkStats)> {
    check_mul_dims(a.ncols(), (b.nrows(), b.ncols()))?;
    let mut jc = Vec::new();
    let mut colptr = vec![0usize];
    let mut rowidx = Vec::new();
    let mut vals = Vec::new();
    let mut acc: HashAccum<S::T> = HashAccum::new(S::zero());
    let mut stats = WorkStats::default();
    for k in 0..b.nzc() {
        let (j, b_rows, b_vals) = b.nz_col(k);
        let mut ub = 0usize;
        for &i in b_rows {
            if let Some((a_rows, _)) = a.col(i as usize) {
                ub += a_rows.len();
            }
        }
        if ub == 0 {
            continue;
        }
        acc.reset(ub, a.nrows());
        for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
            if let Some((a_rows, a_vals)) = a.col(i as usize) {
                acc.accumulate_col::<S>(a_rows, a_vals, |av| S::mul(av, bv));
            }
        }
        let before = rowidx.len();
        acc.drain_into(&mut rowidx, &mut vals);
        let produced = rowidx.len() - before;
        if produced > 0 {
            jc.push(j);
            colptr.push(rowidx.len());
        }
        stats.flops += ub as u64;
        stats.nnz_out += produced as u64;
        stats.work_units += ub as f64 * C_HASH_FLOP + produced as f64 * C_DRAIN;
    }
    let c = DcscMatrix {
        nrows: a.nrows(),
        ncols: b.ncols(),
        jc,
        colptr,
        rowidx,
        vals,
    };
    crate::debug_validate!(c, crate::Sortedness::Unsorted, "hypersparse hash SpGEMM output");
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::spgemm::spgemm_spa;
    use crate::Triples;

    fn hypersparse(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> CscMatrix<u64> {
        // Far fewer entries than columns.
        let mut t = Triples::new(nrows, ncols);
        let mut x = seed;
        for _ in 0..nnz {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = (x >> 33) as usize % nrows;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = (x >> 33) as usize % ncols;
            t.push(r as u32, c as u32, 1);
        }
        t.to_csc_dedup::<PlusTimesU64>()
    }

    #[test]
    fn roundtrip_csc_dcsc() {
        let m = er_random::<PlusTimesF64>(40, 60, 2, 91);
        let d = DcscMatrix::from_csc(&m);
        assert_eq!(d.nnz(), m.nnz());
        assert!(d.to_csc().eq_modulo_order(&m));
    }

    #[test]
    fn hypersparse_roundtrip_and_fill_ratio() {
        let m = hypersparse(1000, 10_000, 50, 1);
        let d = DcscMatrix::from_csc(&m);
        assert!(d.fill_ratio() < 0.01);
        assert!(d.to_csc().eq_modulo_order(&m));
    }

    #[test]
    fn storage_wins_for_hypersparse() {
        let m = hypersparse(1000, 100_000, 200, 2);
        let d = DcscMatrix::from_csc(&m);
        assert!(
            d.storage_bytes() * 10 < d.csc_storage_bytes(),
            "DCSC {} vs CSC {}",
            d.storage_bytes(),
            d.csc_storage_bytes()
        );
    }

    #[test]
    fn column_lookup() {
        let mut t = Triples::new(5, 100);
        t.push(2, 50, 7.0);
        t.push(4, 99, 3.0);
        let d = DcscMatrix::from_csc(&t.to_csc());
        assert_eq!(d.nzc(), 2);
        assert_eq!(d.col(50), Some((&[2u32][..], &[7.0][..])));
        assert_eq!(d.col(51), None);
        let (j, rows, _) = d.nz_col(1);
        assert_eq!(j, 99);
        assert_eq!(rows, &[4]);
    }

    #[test]
    fn dcsc_spgemm_matches_csc_kernels() {
        let a = hypersparse(80, 80, 120, 3);
        let b = hypersparse(80, 80, 120, 4);
        let (oracle, ostats) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let (dc, stats) =
            spgemm_hash_dcsc::<PlusTimesU64>(&DcscMatrix::from_csc(&a), &DcscMatrix::from_csc(&b))
                .unwrap();
        assert!(dc.to_csc().eq_modulo_order(&oracle));
        assert_eq!(stats.flops, ostats.flops);
        assert_eq!(stats.nnz_out, oracle.nnz() as u64);
    }

    #[test]
    fn dcsc_spgemm_empty_result() {
        // A's non-empty columns never intersect B's row indices.
        let mut ta = Triples::new(10, 10);
        ta.push(0, 9, 1u64);
        let mut tb = Triples::new(10, 10);
        tb.push(0, 0, 1u64);
        let (c, stats) = spgemm_hash_dcsc::<PlusTimesU64>(
            &DcscMatrix::from_csc(&ta.to_csc()),
            &DcscMatrix::from_csc(&tb.to_csc()),
        )
        .unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.flops, 0);
    }

    #[test]
    fn iter_visits_all_entries() {
        let m = hypersparse(50, 500, 40, 5);
        let d = DcscMatrix::from_csc(&m);
        let mut from_d: Vec<_> = d.iter().collect();
        let mut from_m: Vec<_> = m.iter().collect();
        from_d.sort_by_key(|&(r, c, _)| (c, r));
        from_m.sort_by_key(|&(r, c, _)| (c, r));
        assert_eq!(from_d.len(), from_m.len());
        for (x, y) in from_d.iter().zip(from_m.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
        }
    }
}
