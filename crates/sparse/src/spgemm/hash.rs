//! Sort-free "unsorted-hash" SpGEMM — this paper's local kernel (Sec. IV-D).
//!
//! Computes `C(:,j) = Σ_{i : B(i,j)≠0} A(:,i)·B(i,j)` with a hash
//! accumulator per output column. Neither input needs sorted columns and
//! the output columns are left **unsorted**: the distributed pipeline only
//! sorts once, after Merge-Fiber.

use super::accum::HashAccum;
use super::workspace::SpGemmWorkspace;
use super::{WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::ops::col_concat;
use crate::par::{self, col_flops, output_bound, RangeBalance, Ranged};
use crate::semiring::Semiring;
use crate::Result;

/// Multiply `a · b` with hash accumulation; unsorted output columns.
///
/// Works with sorted or unsorted inputs. Returns the product, the work
/// performed (`flops` = scalar multiplications) and the per-thread
/// balance. `scratch.len()` is the thread count (see [`crate::par`]): hot
/// paths (one multiply per SUMMA stage per batch) hold long-lived arenas,
/// which after warm-up perform only the exact-size output copies; `&mut []`
/// runs on throwaway scratch.
pub fn spgemm_hash_unsorted<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    scratch: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par::multiply(a, b, scratch, hash_cols::<S>, |parts| col_concat(&parts))
}

/// The kernel over one column range of `b`, on one arena.
fn hash_cols<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Ranged<CscMatrix<S::T>> {
    let n_out = b.ncols();
    let nrows = a.nrows();
    let allocs_before = ws.total_allocs();
    ws.prepare_output(n_out, output_bound(a, b));
    let mut stats = WorkStats::default();
    let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
    ws.colptr.push(0);

    for j in 0..n_out {
        let (b_rows, b_vals) = b.col(j);
        // The column's flop count: with `nrows`, the bound on its distinct
        // output rows.
        let ub = col_flops(a, b_rows);
        if ub > 0 {
            acc.reset(ub, nrows);
            for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
                let (a_rows, a_vals) = a.col(i as usize);
                acc.accumulate_col::<S>(a_rows, a_vals, |av| S::mul(av, bv));
            }
            let before = ws.rowidx.len();
            acc.drain_into(&mut ws.rowidx, &mut ws.vals);
            let produced = ws.rowidx.len() - before;
            stats.flops += ub as u64;
            stats.nnz_out += produced as u64;
            stats.work_units += ub as f64 * C_HASH_FLOP + produced as f64 * C_DRAIN;
        }
        ws.colptr.push(ws.rowidx.len());
    }
    // Columns of length ≤ 1 are trivially sorted; keeps the flag honest for
    // degenerate outputs without scanning row indices.
    let sorted = ws.colptr.windows(2).all(|w| w[1] - w[0] <= 1);
    let (c, copied) = ws.take_output(nrows, n_out, sorted);
    stats.allocs = ws.total_allocs() - allocs_before;
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    stats.memcpy_bytes = copied;
    crate::debug_validate!(c, crate::Sortedness::Unsorted, "unsorted-hash SpGEMM output");
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{BoolOrAnd, PlusTimesF64, PlusTimesU64};
    use crate::spgemm::dense_acc::spgemm_spa;
    use crate::triples::Triples;

    fn small_a() -> CscMatrix<f64> {
        // [[1,2],[3,0]]
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 3.0);
        t.push(0, 1, 2.0);
        t.to_csc()
    }

    fn small_b() -> CscMatrix<f64> {
        // [[5,0],[6,7]]
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 5.0);
        t.push(1, 0, 6.0);
        t.push(1, 1, 7.0);
        t.to_csc()
    }

    #[test]
    fn small_product_matches_manual() {
        let (c, stats, _) =
            spgemm_hash_unsorted::<PlusTimesF64>(&small_a(), &small_b(), &mut []).unwrap();
        // C = [[17,14],[15,0]]
        let c = c.sorted_copy();
        assert_eq!(c.col(0), (&[0u32, 1][..], &[17.0, 15.0][..]));
        assert_eq!(c.col(1), (&[0u32][..], &[14.0][..]));
        assert_eq!(stats.flops, 4); // 3 + 1 scalar multiplies... (col0: A(:,0)*5 has 2, A(:,1)*6 has 1; col1: A(:,1)*7 has 1)
        assert_eq!(stats.nnz_out, 3);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CscMatrix::<f64>::zero(2, 3);
        let b = CscMatrix::<f64>::zero(2, 2);
        assert!(spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).is_err());
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let a = CscMatrix::<f64>::zero(4, 4);
        let b = CscMatrix::<f64>::zero(4, 4);
        let (c, stats, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.flops, 0);
    }

    #[test]
    fn matches_spa_oracle_on_random_u64() {
        let a = er_random::<PlusTimesU64>(40, 40, 5, 42).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(40, 40, 5, 43).map(|_| 1u64);
        let (c_hash, _, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b, &mut []).unwrap();
        let (c_spa, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        assert!(c_hash.eq_modulo_order(&c_spa));
    }

    #[test]
    fn works_with_unsorted_inputs() {
        // Shuffle columns of A, result must be identical.
        let a = CscMatrix::from_parts(3, 2, vec![0, 2, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!a.is_sorted());
        let b = CscMatrix::identity(2);
        let b = CscMatrix::from_parts(2, 2, b.colptr().to_vec(), b.rowidx().to_vec(), b.vals().to_vec()).unwrap();
        let (c, _, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        assert!(c.eq_modulo_order(&a));
    }

    #[test]
    fn boolean_semiring_reachability() {
        // Path 0 -> 1 -> 2: A² should contain (2,0).
        let mut t = Triples::new(3, 3);
        t.push(1, 0, true);
        t.push(2, 1, true);
        let a = t.to_csc();
        let (c, _, _) = spgemm_hash_unsorted::<BoolOrAnd>(&a, &a, &mut []).unwrap();
        let c = c.sorted_copy();
        assert_eq!(c.col(0), (&[2u32][..], &[true][..]));
    }

    #[test]
    fn flops_counts_scalar_multiplies() {
        let a = er_random::<PlusTimesF64>(30, 30, 4, 7);
        let b = er_random::<PlusTimesF64>(30, 30, 4, 8);
        let (_, stats, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        // flops = sum over b entries of nnz(A(:, i))
        let mut expect = 0u64;
        for (i, _j, _v) in b.iter() {
            expect += a.col_nnz(i as usize) as u64;
        }
        // note: b.iter() yields (row, col, val) of B; inner index is the row of B
        assert_eq!(stats.flops, expect);
    }
}
