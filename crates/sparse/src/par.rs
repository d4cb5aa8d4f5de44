//! Column-range dispatch: how one kernel call spreads over its scratch
//! arenas.
//!
//! The paper runs 16 OpenMP threads per MPI process; every local kernel in
//! this crate is embarrassingly parallel over *output columns* (Azad et al.,
//! "Exploiting Multiple Levels of Parallelism in SpGEMM"). Each kernel
//! therefore has one entry point taking `scratch: &mut [SpGemmWorkspace]`,
//! and the slice length *is* the thread count:
//!
//! * `&mut []` — run inline on a throwaway arena (tests, one-off calls);
//! * one arena — run inline on the caller's arena, nothing else computed;
//! * `n > 1` arenas — split the output column space into at most `n`
//!   contiguous ranges balanced by a **flop estimate** (not column count),
//!   run the kernel on each range in its own thread with its own arena,
//!   and concatenate the per-range outputs.
//!
//! ## Bit-identity
//!
//! The output is bit-identical for any arena count, because every kernel
//! here is per-output-column independent:
//!
//! * column `j` of the result depends only on `B(:,j)` (and all of `A`),
//!   which [`col_block`] extraction preserves exactly;
//! * `HashAccum`'s insertion order and
//!   per-key accumulation order depend only on the order the column's data
//!   is fed in — never on table capacity, on how the column is addressed,
//!   or on what previous columns did;
//! * the `sorted` flag every kernel computes is a per-column conjunction,
//!   so AND-ing the per-range flags (what [`col_concat`] does) reproduces
//!   the one-range flag.
//!
//! Only the *metering* differs: `WorkStats::allocs`/`peak_scratch_bytes`/
//! `memcpy_bytes` depend on per-thread arena warmth, and the f64
//! `work_units` sum may differ in the last ulp from the one-range
//! left-to-right sum. `flops` and `nnz_out` are exact integers and match
//! exactly. A one-range call reports a default [`RangeBalance`]: there is
//! no balance to speak of.

use crate::csc::CscMatrix;
use crate::ops::{col_block, col_concat};
use crate::semiring::Semiring;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::WorkStats;
use crate::{check_mul_dims, Result};
use std::ops::Range;

/// Split `0..weights.len()` into at most `nparts` contiguous, non-empty
/// ranges with approximately equal total weight.
///
/// Greedy prefix cut against a fair-share target recomputed from the
/// remaining weight. Each column's weight is scaled by `n` and offset by 1 so
/// zero-weight (empty) columns still spread across ranges instead of all
/// landing in one. Guarantees: the ranges cover `0..n` in order, every
/// range is non-empty (when `n > 0`), and at most `nparts` are returned —
/// possibly fewer when the weight mass makes more cuts pointless (e.g. all
/// weight in the last column).
pub fn split_cols_by_weight(weights: &[u64], nparts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if nparts <= 1 || n <= 1 {
        #[allow(clippy::single_range_in_vec_init)] // a one-range plan, not a [0; n] typo
        return vec![0..n];
    }
    let nparts = nparts.min(n);
    let scaled = |j: usize| weights[j] as u128 * n as u128 + 1;
    let mut remaining: u128 = (0..n).map(scaled).sum();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(nparts);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for j in 0..n {
        acc += scaled(j);
        let parts_left = (nparts - ranges.len()) as u128;
        let target = remaining.div_ceil(parts_left);
        if acc >= target && ranges.len() + 1 < nparts && j + 1 < n {
            ranges.push(start..j + 1);
            start = j + 1;
            remaining -= acc;
            acc = 0;
        }
    }
    ranges.push(start..n);
    ranges
}

/// Flop estimate per output column of `a · b` — what the symbolic pass
/// counts: `est[j] = Σ_{i ∈ B(:,j)} nnz(A(:,i))`.
pub(crate) fn multiply_col_flops<T: Copy, U: Copy>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> Vec<u64> {
    (0..b.ncols())
        .map(|j| col_flops(a, b.col(j).0) as u64)
        .collect()
}

/// Flops of the output column whose `B` column has rows `b_rows`.
pub(crate) fn col_flops<T: Copy>(a: &CscMatrix<T>, b_rows: &[u32]) -> usize {
    b_rows.iter().map(|&i| a.col_nnz(i as usize)).sum()
}

/// Output-arena bound of `a · b`: a column holds at most one entry per
/// multiply before accumulation, and never more than `nrows(a)`.
pub(crate) fn output_bound<T: Copy, U: Copy>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> usize {
    (0..b.ncols())
        .map(|j| col_flops(a, b.col(j).0).min(a.nrows()))
        .sum()
}

/// Work estimate per output column of a merge: total input entries landing
/// in the column across all parts.
pub(crate) fn merge_col_weights<T: Copy>(parts: &[CscMatrix<T>]) -> Vec<u64> {
    let ncols = parts.first().map_or(0, |p| p.ncols());
    (0..ncols)
        .map(|j| parts.iter().map(|p| p.col_nnz(j) as u64).sum())
        .collect()
}

/// Observed per-thread load balance of one or more parallel kernel
/// invocations.
///
/// Per invocation the splitter's ranges each report their work (modeled
/// work units — the flop-cost estimate the splitter balances); the balance
/// records the busiest range and the mean. Merging across invocations sums
/// both, so [`Self::imbalance`] is the work-weighted average of the
/// per-invocation max/mean ratios: `Σ max_i / Σ mean_i`. A value of 1.0
/// means perfectly balanced ranges; 0.0 means nothing was recorded (serial
/// execution).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RangeBalance {
    /// Parallel kernel invocations recorded.
    pub invocations: u64,
    /// Sum over invocations of the busiest range's work units.
    pub sum_max_work: f64,
    /// Sum over invocations of the mean work units per range.
    pub sum_mean_work: f64,
}

impl RangeBalance {
    /// Balance of a single invocation from its per-range work units.
    pub(crate) fn from_work(per_range: &[f64]) -> Self {
        if per_range.is_empty() {
            return RangeBalance::default();
        }
        let total: f64 = per_range.iter().sum();
        let max = per_range.iter().copied().fold(0.0f64, f64::max);
        RangeBalance {
            invocations: 1,
            sum_max_work: max,
            sum_mean_work: total / per_range.len() as f64,
        }
    }

    /// Fold another invocation (or another rank's aggregate) into this one.
    pub fn merge(&mut self, other: RangeBalance) {
        self.invocations += other.invocations;
        self.sum_max_work += other.sum_max_work;
        self.sum_mean_work += other.sum_mean_work;
    }

    /// Work-weighted max/mean ratio; `>= 1.0` once anything is recorded,
    /// `0.0` when nothing is (serial runs).
    pub fn imbalance(&self) -> f64 {
        if self.sum_mean_work > 0.0 {
            self.sum_max_work / self.sum_mean_work
        } else {
            0.0
        }
    }
}

/// What one column range of a kernel call returns: its output and work.
pub(crate) type Ranged<R> = Result<(R, WorkStats)>;

/// The one-range call: `run` inline on the caller's first arena, or on a
/// throwaway one when `scratch` is empty.
fn run_inline<R, W: Copy>(
    scratch: &mut [SpGemmWorkspace<W>],
    run: impl FnOnce(&mut SpGemmWorkspace<W>) -> Ranged<R>,
) -> Result<(R, WorkStats, RangeBalance)> {
    let mut throwaway = SpGemmWorkspace::new();
    let (out, stats) = run(scratch.first_mut().unwrap_or(&mut throwaway))?;
    Ok((out, stats, RangeBalance::default()))
}

/// Split `0..weights.len()` over the arenas and run `run` on each range in
/// its own thread with its own arena, folding the results in range order.
/// The splitter may find a single range enough; that one runs inline.
fn run_ranges<R, W, F>(
    weights: &[u64],
    scratch: &mut [SpGemmWorkspace<W>],
    run: F,
) -> Result<(Vec<R>, WorkStats, RangeBalance)>
where
    R: Send,
    W: Copy + Send,
    F: Fn(Range<usize>, &mut SpGemmWorkspace<W>) -> Ranged<R> + Sync,
{
    let ranges = split_cols_by_weight(weights, scratch.len());
    if let [whole] = ranges.as_slice() {
        let (out, stats, bal) = run_inline(scratch, |ws| run(whole.clone(), ws))?;
        return Ok((vec![out], stats, bal));
    }
    let mut slots: Vec<Option<Ranged<R>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for ((range, ws), slot) in ranges.into_iter().zip(scratch.iter_mut()).zip(&mut slots) {
            let run = &run;
            scope.spawn(move || *slot = Some(run(range, ws)));
        }
    });
    let mut outs = Vec::with_capacity(slots.len());
    let mut stats = WorkStats::default();
    let mut per_range = Vec::with_capacity(slots.len());
    for slot in slots {
        let (r, s) = slot.expect("every spawned range writes its slot")?;
        per_range.push(s.work_units);
        stats.merge(s);
        outs.push(r);
    }
    Ok((outs, stats, RangeBalance::from_work(&per_range)))
}

/// Dispatch a multiply-shaped `kernel` (`a · b` on one arena) over
/// flop-balanced column ranges of `b`; `stitch` joins the per-range outputs
/// in column order.
pub(crate) fn multiply<T, U, W, R, F>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    scratch: &mut [SpGemmWorkspace<W>],
    kernel: F,
    stitch: impl FnOnce(Vec<R>) -> Result<R>,
) -> Result<(R, WorkStats, RangeBalance)>
where
    T: Copy + Sync,
    U: Copy + Sync,
    W: Copy + Send,
    R: Send,
    F: Fn(&CscMatrix<T>, &CscMatrix<U>, &mut SpGemmWorkspace<W>) -> Ranged<R> + Sync,
{
    check_mul_dims(a.ncols(), (b.nrows(), b.ncols()))?;
    if scratch.len() <= 1 || b.ncols() <= 1 {
        return run_inline(scratch, |ws| kernel(a, b, ws));
    }
    let (parts, stats, bal) = run_ranges(&multiply_col_flops(a, b), scratch, |range, ws| {
        kernel(a, &col_block(b, range), ws)
    })?;
    Ok((stitch(parts)?, stats, bal))
}

/// Dispatch a merge-shaped `kernel` over weight-balanced column ranges of
/// same-shaped `parts`.
pub(crate) fn merge<S, F>(
    parts: &[CscMatrix<S::T>],
    scratch: &mut [SpGemmWorkspace<S::T>],
    kernel: F,
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)>
where
    S: Semiring,
    F: Fn(&[CscMatrix<S::T>], &mut SpGemmWorkspace<S::T>) -> Ranged<CscMatrix<S::T>> + Sync,
{
    let (_, ncols) = crate::merge::common_shape(parts)?;
    if scratch.len() <= 1 || ncols <= 1 {
        return run_inline(scratch, |ws| kernel(parts, ws));
    }
    let (outs, stats, bal) = run_ranges(&merge_col_weights(parts), scratch, |range, ws| {
        let subs: Vec<CscMatrix<S::T>> =
            parts.iter().map(|p| col_block(p, range.clone())).collect();
        kernel(&subs, ws)
    })?;
    Ok((col_concat(&outs)?, stats, bal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_cover(ranges: &[Range<usize>], n: usize, nparts: usize) {
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= nparts.max(1));
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        if n > 0 {
            for r in ranges {
                assert!(!r.is_empty(), "range {r:?} is empty");
            }
        }
    }

    #[test]
    fn splitter_covers_and_bounds_parts() {
        for nparts in [1, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 100] {
                let weights = vec![1u64; n];
                let ranges = split_cols_by_weight(&weights, nparts);
                assert_cover(&ranges, n, nparts);
            }
        }
    }

    #[test]
    fn splitter_balances_uniform_weights() {
        let weights = vec![10u64; 64];
        let ranges = split_cols_by_weight(&weights, 8);
        assert_eq!(ranges.len(), 8);
        for r in &ranges {
            assert_eq!(r.len(), 8, "uniform weights split evenly: {ranges:?}");
        }
    }

    #[test]
    fn splitter_isolates_a_dense_column() {
        // One column dwarfs the rest: it should get (essentially) its own
        // range rather than dragging half the matrix with it.
        let mut weights = vec![1u64; 32];
        weights[5] = 100_000;
        let ranges = split_cols_by_weight(&weights, 4);
        assert_cover(&ranges, 32, 4);
        let heavy = ranges.iter().find(|r| r.contains(&5)).unwrap();
        assert!(heavy.len() <= 6, "dense column's range too wide: {ranges:?}");
    }

    #[test]
    fn splitter_handles_empty_columns() {
        // All-zero weights still spread columns across ranges.
        let ranges = split_cols_by_weight(&[0u64; 16], 4);
        assert_cover(&ranges, 16, 4);
        assert_eq!(ranges.len(), 4);
        for r in &ranges {
            assert_eq!(r.len(), 4);
        }
    }

    #[test]
    fn splitter_all_weight_in_last_column() {
        let mut weights = vec![0u64; 8];
        weights[7] = 1_000;
        let ranges = split_cols_by_weight(&weights, 4);
        assert_cover(&ranges, 8, 4);
    }

    #[test]
    fn balance_merges_as_weighted_average() {
        let mut b = RangeBalance::from_work(&[4.0, 4.0]);
        assert!((b.imbalance() - 1.0).abs() < 1e-12);
        b.merge(RangeBalance::from_work(&[6.0, 2.0]));
        // (4 + 6) / (4 + 4) = 1.25
        assert!((b.imbalance() - 1.25).abs() < 1e-12);
        assert_eq!(b.invocations, 2);
        assert_eq!(RangeBalance::default().imbalance(), 0.0);
    }
}
