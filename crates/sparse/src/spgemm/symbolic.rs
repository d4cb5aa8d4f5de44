//! Symbolic (structure-only) SpGEMM — `LocalSymbolic` in Alg. 3.
//!
//! Counts `nnz(A·B)` without computing values. Cheaper than a numeric
//! multiply (no value traffic, no output materialization), which is why the
//! paper's Symbolic3D step is communication-dominated (Fig. 8).
//!
//! A column's count is the number of distinct rows among the `A` columns
//! its `B` column selects, and the sweep finds it one of two ways:
//!
//! * **accumulator** — insert every flop's row into the shared
//!   [`HashAccum`](super::accum::HashAccum) (hashed or directly addressed,
//!   by its own rule) and read its length: `ub` inserts for a column whose
//!   flop bound is `ub`, so a count costs as many steps as a multiply;
//! * **union** — OR the bitsets of the selected `A` columns and count the
//!   ones: `nnz(B(:,j))·⌈nrows/64⌉` word operations, whatever the flops.
//!   This is what a high-compression column (the protein-similarity
//!   squarings of the paper's headline runs, where one output column costs
//!   hundreds of flops per distinct row) is cheap in. On the 848-row
//!   protein matrix of the benchmark's `control-plane` workload, the
//!   planner's probe (212 sampled columns, 26 M flops) took 51 ms through
//!   the accumulator and takes 1.7 ms by union; all 848 columns take 5.7
//!   ms instead of 156 ms (best of 7, one thread of a 2-core box).
//!
//! The union needs a table of `A`'s column bitsets, `⌈nrows/64⌉` words per
//! column, built once per call. It is built only when `A` is dense enough
//! that the table costs at most 4 bytes per nonzero of `A` (a mean column
//! of at least 1/32 of the rows), so a hypersparse block never pays for
//! one; then each column takes the union unless it would do more than
//! [`UNION_WORDS_PER_FLOP`] word operations per flop. Both ways count the
//! same rows, so `counts`, `flops`, `nnz_out` and `work_units` do not
//! depend on the way: the modeled cost is always the paper's hash count.

use super::workspace::SpGemmWorkspace;
use super::{WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::par::{self, col_flops, RangeBalance, Ranged};
use crate::Result;

/// A column of a bitset-tabled `A` is counted by union when its word
/// operations are at most this many per flop:
/// `nnz(B(:,j)) · ⌈nrows/64⌉ ≤ UNION_WORDS_PER_FLOP · ub`.
///
/// Measured through [`symbolic_col_counts`] on `clustered_similarity`
/// blocks of 424, 4 096 and 16 384 rows (`tests::union_crossover`; the
/// table is in DESIGN.md §3, "Counting by bitset union"). On the 16 384-row
/// block, whose table spills the cache, the union becomes the faster way
/// below about 7 word operations per flop and is 2.2× faster at 4; on the
/// smaller blocks it is faster at every density measured. 4 keeps that
/// margin on the largest block.
const UNION_WORDS_PER_FLOP: usize = 4;

#[cfg(any(test, feature = "test-hooks"))]
thread_local! {
    /// Overrides the regime rule for sweeps started on this thread (see
    /// [`force_union`]).
    static FORCE_UNION: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Test hook: `Some(true)` counts every non-empty column of the next
/// sweeps started on this thread by bitset union, `Some(false)` every one
/// through the accumulator, `None` restores the rule. The choice is read
/// once per [`symbolic_col_counts`] call and carried to every arena's
/// range, so it holds under the multi-arena split too.
#[cfg(feature = "test-hooks")]
pub fn force_union(force: Option<bool>) {
    FORCE_UNION.set(force);
}

/// Per-column output nnz of `a · b`, plus flop count.
///
/// Returns `(col_counts, stats, balance)` where
/// `col_counts[j] = nnz((A·B)(:,j))`. `stats.nnz_out` is the total;
/// `stats.flops` the multiplication count the numeric kernel would
/// perform. `scratch.len()` is the thread count (see [`crate::par`]). Only
/// each arena's structure-only scratch (the accumulator and the bitset
/// table) is used, so the arenas' value type `W` is free of the operands':
/// the per-rank arenas that serve the numeric kernels serve a sweep over
/// [`CscMatrix::pattern`]s too. Callers that keep no arena use
/// [`symbolic_col_counts_fresh`].
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
    // The regime is chosen per column by the rule unless a test pins it.
    let force = None;
    #[cfg(any(test, feature = "test-hooks"))]
    let force = force.or(FORCE_UNION.get());
    par::multiply(
        a,
        b,
        scratch,
        |a, b, ws| count_cols(a, b, ws, force),
        |chunks| Ok(chunks.concat()),
    )
}

/// Does `a` get a bitset table? When the table, `words` per column, costs
/// at most 4 bytes per nonzero: `8·ncols·words ≤ 4·nnz`.
fn tables_cheaply<T: Copy>(a: &CscMatrix<T>, words: usize) -> bool {
    a.nnz() >= 2 * a.ncols() * words
}

/// The sweep over one column range of `b`, on one arena.
fn count_cols<T: Copy, U: Copy, W: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    ws: &mut SpGemmWorkspace<W>,
    force: Option<bool>,
) -> Ranged<Vec<u64>> {
    crate::debug_validate!(*a, crate::Sortedness::Unsorted, "symbolic sweep input A");
    crate::debug_validate!(*b, crate::Sortedness::Unsorted, "symbolic sweep input B");
    let n_out = b.ncols();
    let allocs_before = ws.total_allocs();
    let mut counts = vec![0u64; n_out];
    let words = a.nrows().div_ceil(64);
    let tabled = words > 0 && force.unwrap_or_else(|| tables_cheaply(a, words));
    let (table, union) = if tabled {
        ws.fill_col_bitsets(a, words);
        ws.bits.split_at_mut(a.ncols() * words)
    } else {
        (&mut [][..], &mut [][..])
    };
    let acc = &mut ws.sym;
    let mut stats = WorkStats::default();
    #[allow(clippy::needless_range_loop)] // indexes both `b` and `counts`
    for j in 0..n_out {
        let (b_rows, _) = b.col(j);
        let ub = col_flops(a, b_rows);
        if ub == 0 {
            continue;
        }
        let by_union =
            tabled && force.unwrap_or_else(|| b_rows.len() * words <= UNION_WORDS_PER_FLOP * ub);
        let count = if by_union {
            union.fill(0);
            for &i in b_rows {
                let i = i as usize;
                for (u, &w) in union.iter_mut().zip(&table[i * words..(i + 1) * words]) {
                    *u |= w;
                }
            }
            union.iter().map(|w| w.count_ones() as usize).sum()
        } else {
            acc.reset(ub, a.nrows());
            for &i in b_rows {
                acc.insert_keys(a.col(i as usize).0);
            }
            acc.len()
        };
        counts[j] = count as u64;
        stats.flops += ub as u64;
        stats.nnz_out += count as u64;
        // Symbolic probes cost like numeric probes but skip the value math
        // and the drain; model at half the per-flop constant.
        stats.work_units += ub as f64 * (C_HASH_FLOP * 0.5) + count as f64 * (C_DRAIN * 0.25);
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

    /// The measurement behind [`UNION_WORDS_PER_FLOP`]: ns per output
    /// column of the sweep `A₀₀·A₀₀[:, ..ncols]`, every column forced into
    /// one regime. `A₀₀` is the leading `n × n` block of a permuted
    /// two-cluster `clustered_similarity(2, n, intra, 1)`, as in
    /// `accum::tests::crossover`. `ratio` is `ub / (nnz(B(:,j))·words)`
    /// averaged over the columns: the union pays from the ratio at which
    /// its column time drops below the accumulator's.
    /// `cargo test -p spgemm-sparse --release --lib union_crossover -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn union_crossover() {
        use crate::gen::clustered_similarity;
        use crate::ops::{col_block, permute_symmetric, random_permutation, row_block};
        use std::time::Instant;
        let time = |a: &CscMatrix<f64>, b: &CscMatrix<f64>, union: bool| {
            FORCE_UNION.set(Some(union));
            let mut ws = [SpGemmWorkspace::<()>::new()];
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let start = Instant::now();
                std::hint::black_box(symbolic_col_counts(a, b, &mut ws).unwrap());
                best = best.min(start.elapsed().as_secs_f64());
            }
            FORCE_UNION.set(None);
            best * 1e9 / b.ncols() as f64
        };
        println!("     n intra  tabled  ratio   accum   union  (ns/column, best of 5)");
        for (n, intras) in [
            (424usize, &[1usize, 2, 4, 6, 8, 12, 16, 32, 64, 352][..]),
            (4096, &[4, 8, 16, 32, 64, 96, 128, 256, 512][..]),
            (16_384, &[16, 32, 64, 128, 256, 384, 512][..]),
        ] {
            let words = n.div_ceil(64);
            for &intra in intras {
                let m = clustered_similarity(2, n, intra, 1, 7);
                let m = permute_symmetric(&m, &random_permutation(2 * n, 7));
                let a = row_block(&col_block(&m, 0..n), 0..n);
                let ncols = (20_000_000 / (intra * intra).max(1)).clamp(16, n);
                let b = col_block(&a, 0..ncols);
                let (ub, streams): (usize, usize) = (0..ncols)
                    .map(|j| (col_flops(&a, b.col(j).0), b.col_nnz(j)))
                    .fold((0, 0), |(u, s), (cu, cs)| (u + cu, s + cs));
                let ratio = ub as f64 / (streams * words).max(1) as f64;
                let accum = time(&a, &b, false);
                let union = time(&a, &b, true);
                println!(
                    "{n:6} {intra:5} {:>7} {ratio:6.2} {accum:7.0} {union:7.0}",
                    tables_cheaply(&a, words)
                );
            }
        }
    }

    #[test]
    fn dimension_check() {
        let a = CscMatrix::<f64>::zero(5, 4);
        let b = CscMatrix::<f64>::zero(5, 5);
        assert!(symbolic_nnz(&a, &b).is_err());
    }
}
