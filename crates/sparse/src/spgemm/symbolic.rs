//! Symbolic (structure-only) SpGEMM — `LocalSymbolic` in Alg. 3.
//!
//! Counts `nnz(A·B)` without computing values. Much cheaper than a numeric
//! multiply (no value traffic, no output materialization), which is why the
//! paper's Symbolic3D step is communication-dominated (Fig. 8).

use super::workspace::SpGemmWorkspace;
use super::{WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::par::{self, col_flops, RangeBalance, Ranged};
use crate::Result;

/// Per-column output nnz of `a · b`, plus flop count.
///
/// Returns `(col_counts, stats, balance)` where
/// `col_counts[j] = nnz((A·B)(:,j))`. `stats.nnz_out` is the total;
/// `stats.flops` the multiplication count the numeric kernel would
/// perform. `scratch.len()` is the thread count (see [`crate::par`]). Only
/// each arena's structure-only accumulator is used, so the arenas' value
/// type `W` is free of the operands': the per-rank arenas that serve the
/// numeric kernels serve a sweep over [`CscMatrix::pattern`]s too. Callers
/// that keep no arena use [`symbolic_col_counts_fresh`].
pub fn symbolic_col_counts<T, U, W>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    scratch: &mut [SpGemmWorkspace<W>],
) -> Result<(Vec<u64>, WorkStats, RangeBalance)>
where
    T: Copy + Sync,
    U: Copy + Sync,
    W: Copy + Send,
{
    par::multiply(a, b, scratch, count_cols, |chunks| Ok(chunks.concat()))
}

/// The sweep over one column range of `b`, on one arena.
fn count_cols<T: Copy, U: Copy, W: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    ws: &mut SpGemmWorkspace<W>,
) -> Ranged<Vec<u64>> {
    crate::debug_validate!(*a, crate::Sortedness::Unsorted, "symbolic sweep input A");
    crate::debug_validate!(*b, crate::Sortedness::Unsorted, "symbolic sweep input B");
    let n_out = b.ncols();
    let allocs_before = ws.total_allocs();
    let mut counts = vec![0u64; n_out];
    let acc = &mut ws.sym;
    let mut stats = WorkStats::default();
    #[allow(clippy::needless_range_loop)] // indexes both `b` and `counts`
    for j in 0..n_out {
        let (b_rows, _) = b.col(j);
        let ub = col_flops(a, b_rows);
        if ub == 0 {
            continue;
        }
        acc.reset(ub, a.nrows());
        for &i in b_rows {
            acc.insert_keys(a.col(i as usize).0);
        }
        counts[j] = acc.len() as u64;
        stats.flops += ub as u64;
        stats.nnz_out += acc.len() as u64;
        // Symbolic probes cost like numeric probes but skip the value math
        // and the drain; model at half the per-flop constant.
        stats.work_units += ub as f64 * (C_HASH_FLOP * 0.5) + acc.len() as f64 * (C_DRAIN * 0.25);
    }
    // One exact-size allocation for the counts themselves, plus any table
    // growth the sweep caused.
    stats.allocs = ws.total_allocs() - allocs_before + 1;
    ws.note_peak();
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    Ok((counts, stats))
}

/// [`symbolic_col_counts`] inline, on a throwaway arena: `(col_counts,
/// stats)` for a caller that keeps no workspace.
pub fn symbolic_col_counts_fresh<T, U>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
) -> Result<(Vec<u64>, WorkStats)>
where
    T: Copy + Sync,
    U: Copy + Sync,
{
    let (counts, stats, _) = symbolic_col_counts::<_, _, ()>(a, b, &mut [])?;
    Ok((counts, stats))
}

/// Total `nnz(A·B)`: [`symbolic_col_counts_fresh`], summed.
pub fn symbolic_nnz<T, U>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> Result<(u64, WorkStats)>
where
    T: Copy + Sync,
    U: Copy + Sync,
{
    let (_, stats) = symbolic_col_counts_fresh(a, b)?;
    Ok((stats.nnz_out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::PlusTimesF64;
    use crate::spgemm::dense_acc::spgemm_spa;

    #[test]
    fn counts_match_numeric_kernel() {
        let a = er_random::<PlusTimesF64>(70, 70, 6, 51);
        let b = er_random::<PlusTimesF64>(70, 70, 6, 52);
        let (counts, stats) = symbolic_col_counts_fresh(&a, &b).unwrap();
        let (c, num_stats) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        for (j, &count) in counts.iter().enumerate() {
            assert_eq!(count as usize, c.col_nnz(j), "column {j}");
        }
        assert_eq!(stats.nnz_out, c.nnz() as u64);
        assert_eq!(stats.flops, num_stats.flops);
    }

    #[test]
    fn symbolic_cheaper_than_numeric_in_work_units() {
        let a = er_random::<PlusTimesF64>(100, 100, 8, 61);
        let b = er_random::<PlusTimesF64>(100, 100, 8, 62);
        let (_, sym) = symbolic_nnz(&a, &b).unwrap();
        let (_, num) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        assert!(sym.work_units < num.work_units);
    }

    #[test]
    fn empty_product() {
        let a = CscMatrix::<f64>::zero(5, 5);
        let b = er_random::<PlusTimesF64>(5, 5, 2, 1);
        let (n, _) = symbolic_nnz(&a, &b).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn dimension_check() {
        let a = CscMatrix::<f64>::zero(5, 4);
        let b = CscMatrix::<f64>::zero(5, 5);
        assert!(symbolic_nnz(&a, &b).is_err());
    }
}
