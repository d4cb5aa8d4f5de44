//! ESC (expand–sort–compress) SpGEMM.
//!
//! The accumulator style favoured by GPU SpGEMM work the paper surveys
//! (\[23, 26, 28\]): per output column, *expand* all scaled entries into a
//! buffer, *sort* the buffer by row index, and *compress* runs of equal
//! rows with the semiring add. Simple and branch-light, at the cost of an
//! `O(flops·lg flops)` sort per column. Included as a third accumulator
//! baseline alongside heap and hash for the kernel-comparison benches.

use super::{lg, WorkStats, C_SORT};
use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::{check_mul_dims, Result};

/// Multiply `a · b` by expand–sort–compress. Sorted output columns; works
/// with unsorted inputs.
pub fn spgemm_esc<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    check_mul_dims(a.ncols(), (b.nrows(), b.ncols()))?;
    let n_out = b.ncols();
    let mut colptr = vec![0usize; n_out + 1];
    let mut rowidx: Vec<u32> = Vec::new();
    let mut vals: Vec<S::T> = Vec::new();
    let mut buffer: Vec<(u32, S::T)> = Vec::new();
    let mut stats = WorkStats::default();

    for j in 0..n_out {
        let (b_rows, b_vals) = b.col(j);
        buffer.clear();
        // Expand.
        for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
            let (a_rows, a_vals) = a.col(i as usize);
            for (&r, &av) in a_rows.iter().zip(a_vals.iter()) {
                buffer.push((r, S::mul(av, bv)));
            }
        }
        let flops = buffer.len();
        // Sort.
        buffer.sort_unstable_by_key(|&(r, _)| r);
        // Compress.
        let col_start = rowidx.len();
        for &(r, v) in buffer.iter() {
            match rowidx.last() {
                Some(&last) if last == r && rowidx.len() > col_start => {
                    let dst = vals.last_mut().unwrap();
                    *dst = S::add(*dst, v);
                }
                _ => {
                    rowidx.push(r);
                    vals.push(v);
                }
            }
        }
        let produced = rowidx.len() - col_start;
        stats.flops += flops as u64;
        stats.nnz_out += produced as u64;
        stats.work_units += flops as f64 * (1.0 + lg(flops) * C_SORT);
        colptr[j + 1] = rowidx.len();
    }
    let c = CscMatrix::from_parts_unchecked(a.nrows(), n_out, colptr, rowidx, vals, true);
    crate::debug_validate!(c, crate::Sortedness::Sorted, "ESC SpGEMM output");
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
    fn matches_oracle() {
        let a = er_random::<PlusTimesU64>(70, 70, 6, 201).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(70, 70, 6, 202).map(|_| 1u64);
        let (oracle, ostats) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let (esc, stats) = spgemm_esc::<PlusTimesU64>(&a, &b).unwrap();
        assert!(esc.eq_modulo_order(&oracle));
        assert!(esc.is_sorted());
        assert_eq!(stats.flops, ostats.flops);
        assert_eq!(stats.nnz_out, oracle.nnz() as u64);
    }

    #[test]
    fn accepts_unsorted_inputs() {
        let a = CscMatrix::from_parts(3, 2, vec![0, 2, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!a.is_sorted());
        let b = CscMatrix::identity(2);
        let (c, _) = spgemm_esc::<PlusTimesF64>(&a, &b).unwrap();
        assert!(c.eq_modulo_order(&a));
    }

    #[test]
    fn esc_costs_more_work_units_than_hash() {
        let a = er_random::<PlusTimesF64>(120, 120, 10, 203);
        let b = er_random::<PlusTimesF64>(120, 120, 10, 204);
        let (_, esc) = spgemm_esc::<PlusTimesF64>(&a, &b).unwrap();
        let (_, hash, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b, &mut []).unwrap();
        assert!(esc.work_units > hash.work_units);
    }

    #[test]
    fn empty_product() {
        let a = CscMatrix::<f64>::zero(4, 4);
        let (c, stats) = spgemm_esc::<PlusTimesF64>(&a, &a).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.flops, 0);
    }
}
