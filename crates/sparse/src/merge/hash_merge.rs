//! Sort-free hash merging — this paper's "unsorted-hash-merge" (Sec. IV-D).
//!
//! Forms column `j` of the merged output from column `j` of every input via
//! a reusable hash accumulator. Inputs may be unsorted (they are, coming
//! out of the unsorted-hash SpGEMM); output is unsorted unless the sorted
//! variant is requested (final Merge-Fiber only).

use crate::csc::CscMatrix;
use crate::par::{self, RangeBalance, Ranged};
use crate::semiring::Semiring;
use crate::spgemm::accum::HashAccum;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::{lg, WorkStats, C_DRAIN, C_MERGE_HASH, C_SORT};
use crate::Result;

use super::common_shape;

/// Merge (⊕-sum) same-shaped matrices; unsorted output columns.
/// `scratch.len()` is the thread count (see [`crate::par`]).
pub fn merge_hash_unsorted<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    scratch: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par::merge::<S, _>(parts, scratch, |parts, ws| merge_hash_cols::<S>(parts, false, ws))
}

/// Merge (⊕-sum) same-shaped matrices; sorted output columns.
///
/// Used for the final Merge-Fiber, after which the application sees a
/// conventionally sorted matrix. `scratch.len()` is the thread count.
pub fn merge_hash_sorted<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    scratch: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par::merge::<S, _>(parts, scratch, |parts, ws| merge_hash_cols::<S>(parts, true, ws))
}

/// The merge over one column range of `parts`, on one arena.
fn merge_hash_cols<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    sort: bool,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Ranged<CscMatrix<S::T>> {
    let (nrows, ncols) = common_shape(parts)?;
    // Single input needing no sort: merging is the identity. The clone
    // bypasses the arenas, so no workspace traffic to meter. (A single
    // *unsorted* input falls through to the general path below: draining
    // the accumulator sorted through the arenas is allocation-free,
    // unlike an in-place per-column sort of the clone.)
    if parts.len() == 1 && (!sort || parts[0].is_sorted()) {
        let only = parts[0].clone();
        let stats = WorkStats {
            flops: 0,
            nnz_out: only.nnz() as u64,
            work_units: 0.0,
            ..WorkStats::default()
        };
        let expected = if sort { crate::Sortedness::Sorted } else { crate::Sortedness::Unsorted };
        crate::debug_validate!(only, expected, "hash-merge output (single part)");
        return Ok((only, stats));
    }
    let allocs_before = ws.total_allocs();
    let col_in = |j: usize| parts.iter().map(|p| p.col_nnz(j)).sum::<usize>();
    // A merged column holds at most its inputs' entries, and at most `nrows`.
    ws.prepare_output(ncols, (0..ncols).map(|j| col_in(j).min(nrows)).sum());
    let mut stats = WorkStats::default();
    let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
    ws.colptr.push(0);

    for j in 0..ncols {
        let total_in = col_in(j);
        if total_in == 0 {
            ws.colptr.push(ws.rowidx.len());
            continue;
        }
        acc.reset(total_in, nrows);
        for p in parts {
            let (rows, vs) = p.col(j);
            acc.accumulate_col::<S>(rows, vs, |v| v);
        }
        let before = ws.rowidx.len();
        if sort {
            acc.drain_into_sorted(&mut ws.rowidx, &mut ws.vals);
        } else {
            acc.drain_into(&mut ws.rowidx, &mut ws.vals);
        }
        let produced = ws.rowidx.len() - before;
        stats.nnz_out += produced as u64;
        stats.work_units += total_in as f64 * C_MERGE_HASH + produced as f64 * C_DRAIN;
        if sort {
            stats.work_units += produced as f64 * lg(produced) * C_SORT;
        }
        ws.colptr.push(ws.rowidx.len());
    }
    let trivially_sorted = ws.colptr.windows(2).all(|w| w[1] - w[0] <= 1);
    let (c, copied) = ws.take_output(nrows, ncols, sort || trivially_sorted);
    stats.allocs = ws.total_allocs() - allocs_before;
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    stats.memcpy_bytes = copied;
    let expected = if sort { crate::Sortedness::Sorted } else { crate::Sortedness::Unsorted };
    crate::debug_validate!(c, expected, "hash-merge output ({} parts)", parts.len());
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::triples::Triples;

    fn parts_u64() -> Vec<CscMatrix<u64>> {
        (0..4)
            .map(|s| er_random::<PlusTimesU64>(30, 30, 3, 100 + s).map(|_| 1u64))
            .collect()
    }

    /// Oracle: concatenate all triples and dedup-sum.
    fn oracle(parts: &[CscMatrix<u64>]) -> CscMatrix<u64> {
        let mut t = Triples::new(parts[0].nrows(), parts[0].ncols());
        for p in parts {
            for (r, c, v) in p.iter() {
                t.push(r, c as u32, v);
            }
        }
        t.to_csc_dedup::<PlusTimesU64>()
    }

    #[test]
    fn matches_triple_sum_oracle() {
        let parts = parts_u64();
        let (merged, _, _) = merge_hash_unsorted::<PlusTimesU64>(&parts, &mut []).unwrap();
        assert!(merged.eq_modulo_order(&oracle(&parts)));
    }

    #[test]
    fn sorted_variant_is_sorted_and_equal() {
        let parts = parts_u64();
        let (merged, _, _) = merge_hash_sorted::<PlusTimesU64>(&parts, &mut []).unwrap();
        assert!(merged.is_sorted());
        assert!(merged.check_sorted());
        assert!(merged.eq_modulo_order(&oracle(&parts)));
    }

    #[test]
    fn single_part_identity() {
        let p = er_random::<PlusTimesF64>(20, 20, 4, 9);
        let (merged, stats, _) =
            merge_hash_unsorted::<PlusTimesF64>(std::slice::from_ref(&p), &mut []).unwrap();
        assert!(merged.eq_modulo_order(&p));
        assert_eq!(stats.nnz_out, p.nnz() as u64);
    }

    #[test]
    fn empty_input_list_is_error() {
        let parts: Vec<CscMatrix<f64>> = vec![];
        assert!(merge_hash_unsorted::<PlusTimesF64>(&parts, &mut []).is_err());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let parts = vec![CscMatrix::<f64>::zero(2, 2), CscMatrix::<f64>::zero(3, 2)];
        assert!(merge_hash_unsorted::<PlusTimesF64>(&parts, &mut []).is_err());
    }

    #[test]
    fn overlapping_entries_sum() {
        let mut t1 = Triples::new(2, 1);
        t1.push(0, 0, 1.5);
        let mut t2 = Triples::new(2, 1);
        t2.push(0, 0, 2.5);
        t2.push(1, 0, 1.0);
        let parts = vec![t1.to_csc(), t2.to_csc()];
        let (m, _, _) = merge_hash_sorted::<PlusTimesF64>(&parts, &mut []).unwrap();
        assert_eq!(m.col(0), (&[0u32, 1][..], &[4.0, 1.0][..]));
    }

    #[test]
    fn accepts_unsorted_inputs() {
        let unsorted =
            CscMatrix::from_parts(3, 1, vec![0, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!unsorted.is_sorted());
        let parts = vec![unsorted.clone(), unsorted];
        let (m, _, _) = merge_hash_sorted::<PlusTimesF64>(&parts, &mut []).unwrap();
        assert_eq!(m.col(0), (&[0u32, 1, 2][..], &[4.0, 6.0, 2.0][..]));
    }
}
