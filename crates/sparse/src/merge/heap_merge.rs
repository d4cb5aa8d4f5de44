//! Heap-based merging — the previous-generation Merge-Layer / Merge-Fiber
//! kernel of 2D \[30\] and 3D \[13\] sparse SUMMA.
//!
//! Requires all inputs sorted; k-way merges each column with a binary heap.
//! The paper replaces this with hash merging and reports an order of
//! magnitude improvement (Table VII); we keep it as the measured baseline.

use crate::csc::CscMatrix;
use crate::par::{self, RangeBalance, Ranged};
use crate::semiring::Semiring;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::{lg, WorkStats, C_MERGE_HEAP};
use crate::{Result, SparseError};
use std::cmp::Reverse;

use super::common_shape;

/// Merge (⊕-sum) same-shaped *sorted* matrices; sorted output.
/// `scratch.len()` is the thread count (see [`crate::par`]); each arena
/// lends its heap, cursors and output arenas.
pub fn merge_heap<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    scratch: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par::merge::<S, _>(parts, scratch, merge_heap_cols::<S>)
}

/// The merge over one column range of `parts`, on one arena.
fn merge_heap_cols<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    ws: &mut SpGemmWorkspace<S::T>,
) -> Ranged<CscMatrix<S::T>> {
    let (nrows, ncols) = common_shape(parts)?;
    if parts.iter().any(|p| !p.is_sorted()) {
        return Err(SparseError::InvalidStructure(
            "heap merge requires sorted inputs".into(),
        ));
    }
    let k = parts.len();
    let allocs_before = ws.total_allocs();
    let total_nnz: usize = parts.iter().map(|p| p.nnz()).sum();
    ws.prepare_output(ncols, total_nnz);
    ws.ensure_streams(k);
    ws.cursors.clear();
    ws.cursors.resize(k, 0);
    let mut stats = WorkStats::default();
    ws.colptr.push(0);

    for j in 0..ncols {
        ws.heap.clear();
        let mut col_in = 0usize;
        for (s, p) in parts.iter().enumerate() {
            ws.cursors[s] = 0;
            let (rows, _) = p.col(j);
            col_in += rows.len();
            if !rows.is_empty() {
                ws.heap.push(Reverse((rows[0], s as u32)));
            }
        }
        let col_start = ws.rowidx.len();
        while let Some(Reverse((row, s))) = ws.heap.pop() {
            let si = s as usize;
            let (rows, vs) = parts[si].col(j);
            let pos = ws.cursors[si];
            let v = vs[pos];
            match ws.rowidx.last() {
                Some(&last) if last == row && ws.rowidx.len() > col_start => {
                    let dst = ws.vals.last_mut().unwrap();
                    *dst = S::add(*dst, v);
                }
                _ => {
                    ws.rowidx.push(row);
                    ws.vals.push(v);
                }
            }
            ws.cursors[si] = pos + 1;
            if pos + 1 < rows.len() {
                ws.heap.push(Reverse((rows[pos + 1], s)));
            }
        }
        let produced = ws.rowidx.len() - col_start;
        stats.nnz_out += produced as u64;
        stats.work_units += col_in as f64 * lg(k) * C_MERGE_HEAP;
        ws.colptr.push(ws.rowidx.len());
    }
    let (c, copied) = ws.take_output(nrows, ncols, true);
    stats.allocs = ws.total_allocs() - allocs_before;
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    stats.memcpy_bytes = copied;
    crate::debug_validate!(c, crate::Sortedness::Sorted, "heap-merge output ({} parts)", parts.len());
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::merge::hash_merge::merge_hash_sorted;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};

    #[test]
    fn matches_hash_merge() {
        let parts: Vec<_> = (0..5)
            .map(|s| er_random::<PlusTimesU64>(40, 25, 3, 200 + s).map(|_| 1u64))
            .collect();
        let (a, _, _) = merge_heap::<PlusTimesU64>(&parts, &mut []).unwrap();
        let (b, _, _) = merge_hash_sorted::<PlusTimesU64>(&parts, &mut []).unwrap();
        assert!(a.eq_modulo_order(&b));
        assert!(a.is_sorted());
    }

    #[test]
    fn rejects_unsorted_input() {
        let unsorted =
            CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        let parts = vec![unsorted];
        assert!(merge_heap::<PlusTimesF64>(&parts, &mut []).is_err());
    }

    #[test]
    fn heap_merge_costs_more_work_than_hash_merge() {
        let parts: Vec<_> = (0..16)
            .map(|s| er_random::<PlusTimesF64>(100, 50, 4, 300 + s))
            .collect();
        let (_, s_heap, _) = merge_heap::<PlusTimesF64>(&parts, &mut []).unwrap();
        let (_, s_hash, _) = merge_hash_sorted::<PlusTimesF64>(&parts, &mut []).unwrap();
        assert!(
            s_heap.work_units > s_hash.work_units,
            "heap {} vs hash {}",
            s_heap.work_units,
            s_hash.work_units
        );
    }

    #[test]
    fn merging_disjoint_patterns_concatenates() {
        // part1 has rows {0}, part2 has rows {1}: no accumulation needed.
        let p1 = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 0], vec![1.0, 2.0]).unwrap();
        let p2 = CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 1], vec![3.0, 4.0]).unwrap();
        let (m, stats, _) = merge_heap::<PlusTimesF64>(&[p1, p2], &mut []).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(stats.nnz_out, 4);
        assert_eq!(m.col(0), (&[0u32, 1][..], &[1.0, 3.0][..]));
    }
}
