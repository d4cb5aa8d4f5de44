//! Heap-based SpGEMM — the *previous-generation* kernel of SUMMA3D \[13\].
//!
//! Forms each output column by k-way merging the (sorted) columns
//! `A(:,i)·B(i,j)` with a binary min-heap keyed on row index. Requires
//! sorted input columns in `A`; produces sorted output. Kept as the
//! baseline the paper improves upon (Table VII, Fig. 15).

use super::{lg, WorkStats, C_HEAP_FLOP};
use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::{check_mul_dims, Result, SparseError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Multiply `a · b` by k-way heap merge per output column.
///
/// Precondition: `a` has sorted columns (returns `InvalidStructure`
/// otherwise — the prior-work kernel fundamentally requires it).
pub fn spgemm_heap<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    check_mul_dims(a.ncols(), (b.nrows(), b.ncols()))?;
    if !a.is_sorted() {
        return Err(SparseError::InvalidStructure(
            "heap SpGEMM requires sorted columns in A".into(),
        ));
    }
    let n_out = b.ncols();
    let mut colptr = vec![0usize; n_out + 1];
    let mut rowidx: Vec<u32> = Vec::new();
    let mut vals: Vec<S::T> = Vec::new();
    let mut stats = WorkStats::default();
    // (row, stream) min-heap; `cursor[s]` walks stream s's position in A's column.
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut cursors: Vec<usize> = Vec::new();

    for j in 0..n_out {
        let (b_rows, b_vals) = b.col(j);
        let k = b_rows.len();
        if k == 0 {
            colptr[j + 1] = rowidx.len();
            continue;
        }
        heap.clear();
        cursors.clear();
        cursors.resize(k, 0);
        let mut col_flops = 0u64;
        for (s, &i) in b_rows.iter().enumerate() {
            let (a_rows, _) = a.col(i as usize);
            col_flops += a_rows.len() as u64;
            if !a_rows.is_empty() {
                heap.push(Reverse((a_rows[0], s as u32)));
            }
        }
        let col_start = rowidx.len();
        while let Some(Reverse((row, s))) = heap.pop() {
            let s = s as usize;
            let i = b_rows[s] as usize;
            let (a_rows, a_vals) = a.col(i);
            let pos = cursors[s];
            let prod = S::mul(a_vals[pos], b_vals[s]);
            match rowidx.last() {
                Some(&last) if last == row && rowidx.len() > col_start => {
                    let v = vals.last_mut().unwrap();
                    *v = S::add(*v, prod);
                }
                _ => {
                    rowidx.push(row);
                    vals.push(prod);
                }
            }
            cursors[s] = pos + 1;
            if pos + 1 < a_rows.len() {
                heap.push(Reverse((a_rows[pos + 1], s as u32)));
            }
        }
        let produced = rowidx.len() - col_start;
        stats.flops += col_flops;
        stats.nnz_out += produced as u64;
        stats.work_units += col_flops as f64 * lg(k) * C_HEAP_FLOP;
        colptr[j + 1] = rowidx.len();
    }
    let c = CscMatrix::from_parts_unchecked(a.nrows(), n_out, colptr, rowidx, vals, true);
    debug_assert!(c.check_sorted());
    crate::debug_validate!(c, crate::Sortedness::Sorted, "heap SpGEMM output");
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};
    use crate::spgemm::dense_acc::spgemm_spa;
    use crate::spgemm::hash::spgemm_hash_unsorted;
    use crate::triples::Triples;

    #[test]
    fn output_is_sorted() {
        let a = er_random::<PlusTimesF64>(50, 50, 6, 1);
        let b = er_random::<PlusTimesF64>(50, 50, 6, 2);
        let (c, _) = spgemm_heap::<PlusTimesF64>(&a, &b).unwrap();
        assert!(c.is_sorted());
        assert!(c.check_sorted());
    }

    #[test]
    fn matches_hash_kernel_u64() {
        let a = er_random::<PlusTimesU64>(60, 60, 5, 11).map(|_| 2u64);
        let b = er_random::<PlusTimesU64>(60, 60, 5, 12).map(|_| 3u64);
        let (c_heap, s_heap) = spgemm_heap::<PlusTimesU64>(&a, &b).unwrap();
        let (c_hash, s_hash, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b, &mut []).unwrap();
        assert!(c_heap.eq_modulo_order(&c_hash));
        assert_eq!(s_heap.flops, s_hash.flops);
        assert_eq!(s_heap.nnz_out, s_hash.nnz_out);
    }

    #[test]
    fn matches_spa_oracle() {
        let a = er_random::<PlusTimesU64>(40, 30, 4, 5).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(30, 20, 4, 6).map(|_| 1u64);
        let (c_heap, _) = spgemm_heap::<PlusTimesU64>(&a, &b).unwrap();
        let (c_spa, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        assert!(c_heap.eq_modulo_order(&c_spa));
    }

    #[test]
    fn rejects_unsorted_a() {
        let a = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        let b = CscMatrix::<f64>::zero(1, 1);
        assert!(spgemm_heap::<PlusTimesF64>(&a, &b).is_err());
    }

    #[test]
    fn min_plus_semiring_shortest_two_hop() {
        // 0 -> 1 (w=2), 1 -> 2 (w=3): (A²)(2,0) = 5 under (min,+).
        let mut t = Triples::new(3, 3);
        t.push(1, 0, 2.0);
        t.push(2, 1, 3.0);
        let a = t.to_csc();
        let (c, _) = spgemm_heap::<MinPlusF64>(&a, &a).unwrap();
        assert_eq!(c.col(0), (&[2u32][..], &[5.0][..]));
    }

    #[test]
    fn heap_work_units_exceed_hash_for_wide_columns() {
        let a = er_random::<PlusTimesF64>(100, 100, 8, 3);
        let b = er_random::<PlusTimesF64>(100, 100, 8, 4);
        let (_, s_heap) = spgemm_heap::<PlusTimesF64>(&a, &b).unwrap();
        let (_, s_hash, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        assert!(
            s_heap.work_units > s_hash.work_units,
            "heap {} should exceed hash {}",
            s_heap.work_units,
            s_hash.work_units
        );
    }
}
