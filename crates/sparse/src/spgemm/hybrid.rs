//! Hybrid sorted SpGEMM — the kernel of Nagasaka et al. \[25\] that the
//! paper's previous-generation pipeline used after \[13\].
//!
//! Per output column: if the column has few input streams (low estimated
//! compression work) use a heap merge, otherwise a hash accumulator; either
//! way the finished column is **sorted** before moving on. The paper's
//! unsorted-hash kernel removes exactly this final sort (and the heap
//! path's input-sortedness requirement); Fig. 15 / Table VII quantify the
//! difference.

use super::accum::HashAccum;
use super::workspace::SpGemmWorkspace;
use super::{lg, WorkStats, C_HASH_FLOP, C_HEAP_FLOP, C_SORT};
use crate::csc::CscMatrix;
use crate::ops::col_concat;
use crate::par::{self, col_flops, output_bound, RangeBalance, Ranged};
use crate::semiring::Semiring;
use crate::{Result, SparseError};
use std::cmp::Reverse;

/// Streams-per-column threshold below which the heap path wins (few streams
/// mean the log factor is tiny and the heap's sorted output is free).
const HEAP_STREAMS_MAX: usize = 4;

/// Multiply `a · b`, choosing heap or hash per column; sorted output.
///
/// Requires sorted `a` (the heap path consumes sorted columns, matching the
/// prior-work pipeline where every intermediate was kept sorted).
/// `scratch.len()` is the thread count (see [`crate::par`]); each arena
/// lends its hash table, merge heap, cursors and output arenas.
pub fn spgemm_hybrid<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    scratch: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par::multiply(a, b, scratch, hybrid_cols::<S>, |parts| col_concat(&parts))
}

/// The kernel over one column range of `b`, on one arena.
fn hybrid_cols<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Ranged<CscMatrix<S::T>> {
    if !a.is_sorted() {
        return Err(SparseError::InvalidStructure(
            "hybrid SpGEMM requires sorted columns in A".into(),
        ));
    }
    let n_out = b.ncols();
    let allocs_before = ws.total_allocs();
    ws.prepare_output(n_out, output_bound(a, b));
    ws.ensure_streams(HEAP_STREAMS_MAX);
    let mut stats = WorkStats::default();
    let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
    ws.colptr.push(0);

    for j in 0..n_out {
        let (b_rows, b_vals) = b.col(j);
        let k = b_rows.len();
        if k == 0 {
            ws.colptr.push(ws.rowidx.len());
            continue;
        }
        let flops = col_flops(a, b_rows) as u64;
        let col_start = ws.rowidx.len();
        if k <= HEAP_STREAMS_MAX {
            // Heap path: sorted output for free.
            ws.heap.clear();
            ws.cursors.clear();
            ws.cursors.resize(k, 0);
            for (s, &i) in b_rows.iter().enumerate() {
                let (a_rows, _) = a.col(i as usize);
                if !a_rows.is_empty() {
                    ws.heap.push(Reverse((a_rows[0], s as u32)));
                }
            }
            while let Some(Reverse((row, s))) = ws.heap.pop() {
                let s = s as usize;
                let (a_rows, a_vals) = a.col(b_rows[s] as usize);
                let pos = ws.cursors[s];
                let prod = S::mul(a_vals[pos], b_vals[s]);
                match ws.rowidx.last() {
                    Some(&last) if last == row && ws.rowidx.len() > col_start => {
                        let v = ws.vals.last_mut().unwrap();
                        *v = S::add(*v, prod);
                    }
                    _ => {
                        ws.rowidx.push(row);
                        ws.vals.push(prod);
                    }
                }
                ws.cursors[s] = pos + 1;
                if pos + 1 < a_rows.len() {
                    ws.heap.push(Reverse((a_rows[pos + 1], s as u32)));
                }
            }
            stats.work_units += flops as f64 * lg(k) * C_HEAP_FLOP;
        } else {
            // Hash path + explicit sort of the finished column.
            acc.reset(flops as usize, a.nrows());
            for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
                let (a_rows, a_vals) = a.col(i as usize);
                acc.accumulate_col::<S>(a_rows, a_vals, |av| S::mul(av, bv));
            }
            acc.drain_into_sorted(&mut ws.rowidx, &mut ws.vals);
            let produced = ws.rowidx.len() - col_start;
            stats.work_units +=
                flops as f64 * C_HASH_FLOP + produced as f64 * lg(produced) * C_SORT;
        }
        let produced = ws.rowidx.len() - col_start;
        stats.flops += flops;
        stats.nnz_out += produced as u64;
        ws.colptr.push(ws.rowidx.len());
    }
    let (c, copied) = ws.take_output(a.nrows(), n_out, true);
    stats.allocs = ws.total_allocs() - allocs_before;
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    stats.memcpy_bytes = copied;
    crate::debug_validate!(c, crate::Sortedness::Sorted, "hybrid SpGEMM output");
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::spgemm::dense_acc::spgemm_spa;
    use crate::spgemm::hash::spgemm_hash_unsorted;

    #[test]
    fn matches_spa_and_hash_kernels() {
        let a = er_random::<PlusTimesU64>(80, 80, 7, 21).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(80, 80, 7, 22).map(|_| 1u64);
        let (c_hy, _, _) = spgemm_hybrid::<PlusTimesU64>(&a, &b, &mut []).unwrap();
        let (c_spa, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let (c_hash, _, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b, &mut []).unwrap();
        assert!(c_hy.eq_modulo_order(&c_spa));
        assert!(c_hy.eq_modulo_order(&c_hash));
        assert!(c_hy.is_sorted());
    }

    #[test]
    fn exercises_both_paths() {
        // Columns with 1 stream (heap path) and columns with many (hash path).
        let a = er_random::<PlusTimesF64>(60, 60, 3, 31);
        let b_sparse = er_random::<PlusTimesF64>(60, 30, 1, 32); // heap path
        let b_dense = er_random::<PlusTimesF64>(60, 30, 12, 33); // hash path
        let (c1, _, _) = spgemm_hybrid::<PlusTimesF64>(&a, &b_sparse, &mut []).unwrap();
        let (c2, _, _) = spgemm_hybrid::<PlusTimesF64>(&a, &b_dense, &mut []).unwrap();
        let (o1, _) = spgemm_spa::<PlusTimesF64>(&a, &b_sparse).unwrap();
        let (o2, _) = spgemm_spa::<PlusTimesF64>(&a, &b_dense).unwrap();
        assert!(c1.approx_eq(&o1, 1e-12));
        assert!(c2.approx_eq(&o2, 1e-12));
    }

    #[test]
    fn hybrid_work_exceeds_unsorted_hash() {
        // The extra sort makes hybrid cost more work units on hash-path columns.
        let a = er_random::<PlusTimesF64>(120, 120, 10, 41);
        let b = er_random::<PlusTimesF64>(120, 120, 10, 42);
        let (_, s_hy, _) = spgemm_hybrid::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        let (_, s_hash, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        assert!(s_hy.work_units > s_hash.work_units);
    }

    #[test]
    fn rejects_unsorted_a() {
        let a = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        let b = CscMatrix::<f64>::zero(1, 2);
        assert!(spgemm_hybrid::<PlusTimesF64>(&a, &b, &mut []).is_err());
    }
}
