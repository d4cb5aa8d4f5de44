//! BatchedSUMMA3D (Alg. 4): memory-constrained 3D SpGEMM.
//!
//! The batch count `b` comes from Symbolic3D (or a forced override for
//! parameter sweeps). Each rank splits its local `B̃` column-wise into `b`
//! batches — **block-cyclically** with `b·l` blocks of
//! `n/(b·l·√(p/l))` columns, a batch taking every `b`-th block (Fig. 1(i));
//! plain block splitting is available as an ablation of the paper's
//! load-balance argument for Merge-Fiber. One SUMMA3D runs per batch, and
//! the resulting `C` piece is handed to the application, which may prune,
//! persist, transform, or discard it before the next batch begins — the
//! HipMCL/BELLA/hypergraph-coarsening usage pattern the paper targets.

use crate::dist::{CPiece, DistMatrix};
use crate::exchange::{ExchangePlan, StagePending};
use crate::harness::RunConfig;
use crate::kernels::LocalKernels;
use crate::memory::MemTracker;
use crate::schedule::{self, Op};
use crate::summa2d::StageAccumulator;
use crate::summa3d::{fiber_exchange, merge_fiber};
use crate::symbolic::{symbolic3d_with_weights, SymbolicOutcome};
use crate::{CoreError, Result};
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::ops::{block_range, cyclic_batch_cols, extract_cols};
use spgemm_sparse::par::RangeBalance;
use spgemm_sparse::{CscMatrix, Semiring, WorkStats};
use std::collections::VecDeque;
use std::sync::Arc;

/// How batches partition the columns of `B` (and `C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchingStrategy {
    /// The paper's block-cyclic split: `b·l` blocks, batch `t` takes every
    /// `b`-th block — keeps each ColSplit piece inside its layer's
    /// sub-slice of `C`'s distribution.
    #[default]
    BlockCyclic,
    /// Plain contiguous blocks (ablation baseline; scrambles the output
    /// distribution — see the fig4 ablation).
    Block,
    /// **Extension beyond the paper**: weight-balanced batching. Uses the
    /// symbolic pass's per-column unmerged counts to cut each layer
    /// sub-slice into `b` runs of near-equal intermediate volume, so every
    /// batch costs about the same memory — tightening Alg. 3's even-split
    /// assumption on skewed matrices while preserving the block-cyclic
    /// split's distribution conformance.
    Balanced,
}

/// One batch's output as delivered to the application callback.
#[derive(Debug)]
pub struct BatchOutput<T: Copy> {
    /// Batch index, `0..nbatches`.
    pub batch: usize,
    /// Total batch count.
    pub nbatches: usize,
    /// This rank's piece of the batch's columns of `C` (sorted columns,
    /// global coordinates attached).
    pub piece: CPiece<T>,
}

/// What the application decided to do with a batch (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDisposition {
    /// Piece retained (possibly transformed).
    Kept,
    /// Piece discarded after inspection (pruned away / persisted
    /// externally) — the memory-constrained pattern.
    Discarded,
}

/// Result of a batched multiplication on one rank.
#[derive(Debug)]
pub struct BatchedResult<T: Copy> {
    /// Pieces the application kept, in batch order.
    pub pieces: Vec<CPiece<T>>,
    /// Number of batches executed.
    pub nbatches: usize,
    /// Symbolic outcome (absent when the batch count was forced).
    pub symbolic: Option<SymbolicOutcome>,
    /// Peak modeled bytes on this rank (inputs + intermediates).
    pub peak_bytes: usize,
    /// Aggregate kernel-side counters for this rank across the symbolic
    /// sweep and every batch: real flops, output nnz, heap allocations,
    /// peak workspace scratch bytes, and copy-out volume. All local
    /// multiplies, merges, and symbolic counts share one
    /// [`LocalKernels`] engine, so `allocs` directly measures how much the
    /// workspace reuse avoided the allocator.
    pub kernel_stats: WorkStats,
    /// Per-thread load balance of the parallel kernel calls under a
    /// `Native` multi-thread backend (default/zero when kernels ran
    /// serially).
    pub load_balance: RangeBalance,
}

/// One batch's local column selection: the column indices plus the
/// boundaries at which ColSplit cuts them into `l` fiber pieces
/// (`piece_offsets.len() == l + 1`, indices into `cols`). Explicit
/// boundaries let every strategy keep piece `k` inside layer `k`'s
/// sub-slice of the output distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCols {
    /// Local column indices of `B̃` in this batch, ascending.
    pub cols: Vec<usize>,
    /// ColSplit boundaries into `cols` (length `l + 1`).
    pub piece_offsets: Vec<usize>,
}

/// Local column selection of batch `t`. `weights` (per local column; the
/// symbolic pass's unmerged counts) are required by
/// [`BatchingStrategy::Balanced`] and ignored otherwise.
pub fn batch_local_cols(
    ncols_local: usize,
    nbatches: usize,
    l: usize,
    batch: usize,
    strategy: BatchingStrategy,
    weights: Option<&[u64]>,
) -> BatchCols {
    match strategy {
        BatchingStrategy::BlockCyclic => {
            let cols = cyclic_batch_cols(ncols_local, nbatches, l, batch);
            // Piece s is block `batch + s·nbatches` of the b·l blocks.
            let mut piece_offsets = Vec::with_capacity(l + 1);
            piece_offsets.push(0);
            let mut acc = 0usize;
            for s in 0..l {
                acc += block_range(ncols_local, nbatches * l, batch + s * nbatches).len();
                piece_offsets.push(acc);
            }
            debug_assert_eq!(acc, cols.len());
            BatchCols { cols, piece_offsets }
        }
        BatchingStrategy::Block => {
            let cols: Vec<usize> = block_range(ncols_local, nbatches, batch).collect();
            let mut piece_offsets = Vec::with_capacity(l + 1);
            piece_offsets.push(0);
            for s in 0..l {
                piece_offsets.push(block_range(cols.len(), l, s).end);
            }
            BatchCols { cols, piece_offsets }
        }
        BatchingStrategy::Balanced => {
            let weights = weights.expect("Balanced batching needs per-column weights");
            assert_eq!(weights.len(), ncols_local);
            let mut cols = Vec::new();
            let mut piece_offsets = Vec::with_capacity(l + 1);
            piece_offsets.push(0);
            for s in 0..l {
                // Within layer sub-slice s, cut columns into `nbatches`
                // contiguous runs of near-equal total weight and take run
                // `batch`. Deterministic, identical on every rank that
                // shares the weights. Each weight is scaled to
                // `w·len + 1` (u128: no overflow): the `+1` epsilon makes
                // zero- and constant-weight slices degrade to column-count
                // balance instead of dumping every column into run 0, and
                // the `len` scaling keeps real weight ratios dominant.
                // The target is recomputed from the *remaining* weight
                // after each run closes (ceil division), so early
                // overshoot can never starve the last runs.
                let slice = block_range(ncols_local, l, s);
                let scaled: Vec<u128> = slice
                    .clone()
                    .map(|j| weights[j] as u128 * slice.len() as u128 + 1)
                    .collect();
                let mut remaining: u128 = scaled.iter().sum();
                let mut runs_left = nbatches as u128;
                let mut target = remaining.div_ceil(runs_left.max(1));
                let mut run = 0usize; // current run id
                let mut acc = 0u128;
                for (w, j) in scaled.into_iter().zip(slice) {
                    if run == batch {
                        cols.push(j);
                    }
                    acc += w;
                    remaining -= w;
                    // Close the run when it reaches its share, keeping at
                    // least one remaining run per remaining batch.
                    if acc >= target && run + 1 < nbatches {
                        run += 1;
                        acc = 0;
                        runs_left -= 1;
                        target = remaining.div_ceil(runs_left);
                    }
                }
                piece_offsets.push(cols.len());
            }
            BatchCols { cols, piece_offsets }
        }
    }
}

/// One batch's inputs: its index, the global ids of its columns, the
/// ColSplit boundaries into them, and the extracted piece of `B̃`.
struct Staged<T> {
    batch: usize,
    global_cols: Vec<u32>,
    piece_offsets: Vec<usize>,
    b_piece: Arc<CscMatrix<T>>,
}

/// Run BatchedSUMMA3D. `on_batch` receives every batch's piece and
/// returns `Some(piece)` to keep (possibly transformed — e.g. pruned) or
/// `None` to discard. The returned [`BatchedResult`] collects kept pieces.
///
/// Of the run policy this reads `kernels`, `batching`, `budget`,
/// `forced_batches`, `overlap`, `exchange`, `backend` and `algorithm` (the
/// 1.5D families never batch and are rejected — route them through
/// `run_spmm`/`run_spgemm`); the grid and the cluster are the caller's.
pub fn batched_summa3d<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    b: &DistMatrix<S::T>,
    cfg: &RunConfig,
    on_batch: impl FnMut(&mut Rank, BatchOutput<S::T>) -> Option<CPiece<S::T>>,
) -> Result<BatchedResult<S::T>> {
    // One kernel engine for the whole run: the symbolic sweep warms its
    // accumulator and every batch's multiplies and merges reuse the same
    // scratch, so steady-state batches run allocation-free. The backend
    // decides serial-modeled vs multithreaded-measured execution.
    let mut kernels = LocalKernels::with_backend(cfg.kernels, cfg.backend);
    // One exchange plan for the whole run: the symbolic sweep and every
    // batch share its fetch workspace and tag counter.
    let mut plan = ExchangePlan::new(cfg.exchange);
    let a_shared = Arc::new(a.local.clone());
    batched_summa3d_with::<S>(rank, grid, a, &a_shared, b, cfg, &mut kernels, &mut plan, on_batch)
}

/// [`batched_summa3d`] with caller-owned state: the kernel engine, the
/// exchange plan, and the broadcast-shareable copy of `a.local` live
/// outside the call, so an iterative session ([`crate::session`]) can
/// keep all three warm across multiplications — preserving kernel
/// workspaces, the fetch-tag sequence, and the cross-iteration fetch
/// cache. `a_shared` must hold the same matrix as `a.local`.
#[allow(clippy::too_many_arguments)] // the seam that lets sessions own the state
pub fn batched_summa3d_with<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    a_shared: &Arc<CscMatrix<S::T>>,
    b: &DistMatrix<S::T>,
    cfg: &RunConfig,
    kernels: &mut LocalKernels<S::T>,
    plan: &mut ExchangePlan,
    mut on_batch: impl FnMut(&mut Rank, BatchOutput<S::T>) -> Option<CPiece<S::T>>,
) -> Result<BatchedResult<S::T>> {
    let r = cfg.budget.r;
    if cfg.algorithm.is_15d() {
        return Err(CoreError::Config(format!(
            "the batched SUMMA pipeline cannot run the 1.5D family {}; \
             use run_spmm/run_spgemm, which route 1.5D to the family driver",
            cfg.algorithm.label()
        )));
    }
    if plan.mode() != cfg.exchange {
        return Err(CoreError::Config(format!(
            "exchange plan mode '{}' disagrees with cfg.exchange '{}'",
            plan.mode().name(),
            cfg.exchange.name()
        )));
    }
    debug_assert_eq!(
        (a_shared.nrows(), a_shared.ncols(), a_shared.nnz()),
        (a.local.nrows(), a.local.ncols(), a.local.nnz()),
        "a_shared must be the caller's copy of a.local"
    );
    if cfg.forced_batches == Some(0) {
        return Err(CoreError::Config("forced batch count must be ≥ 1".into()));
    }
    let needs_weights = cfg.batching == BatchingStrategy::Balanced;
    // Alg. 4 line 2: the symbolic step determines b (unless forced).
    // Balanced batching needs the symbolic per-column counts either way.
    let (nbatches, symbolic, local_weights) = match (cfg.forced_batches, needs_weights) {
        (Some(forced), false) => (forced, None, None),
        (forced, _) => {
            let (outcome, weights) =
                symbolic3d_with_weights::<S>(rank, grid, a, b, &cfg.budget, kernels, plan)?;
            let nb = forced.unwrap_or(outcome.batches);
            let weights = needs_weights.then_some(weights);
            (nb, Some(outcome), weights)
        }
    };

    // Balanced batching must agree across every rank that shares a column
    // block of B (all i and k for this j): reduce the per-column counts
    // over that group.
    let weights = local_weights.map(|mine| {
        let members: Vec<usize> = (0..grid.l)
            .flat_map(|k| (0..grid.pr).map(move |i| (i, k)))
            .map(|(i, k)| grid.rank_of(i, grid.j, k))
            .collect();
        let group = rank.comm(members, 0xBA1A);
        let all = rank.allgather(&group, mine, b.local.ncols() * 8, Step::Other);
        let mut total = vec![0u64; b.local.ncols()];
        for contrib in &all {
            for (t, &c) in total.iter_mut().zip(contrib.iter()) {
                *t += c;
            }
        }
        total
    });

    let mut mem = MemTracker::new();
    mem.alloc(a.local.modeled_bytes(r) + b.local.modeled_bytes(r));

    let b_col_start = b.col_range(grid).start;
    let mut pieces = Vec::new();

    // Inputs are staged when the program first names their batch — under
    // OverlapMode::Overlapped that is one batch ahead, when batch t's last
    // SUMMA stage posts batch t+1's stage-0 broadcasts (extraction is local
    // bookkeeping and costs no modeled time).
    let stage = |t: usize| {
        let batch_cols = batch_local_cols(
            b.local.ncols(),
            nbatches,
            grid.l,
            t,
            cfg.batching,
            weights.as_deref(),
        );
        let global_cols: Vec<u32> = batch_cols
            .cols
            .iter()
            .map(|&c| (b_col_start + c) as u32)
            .collect();
        let b_piece = Arc::new(extract_cols(&b.local, &batch_cols.cols));
        spgemm_sparse::debug_validate!(
            *b_piece,
            spgemm_sparse::Sortedness::Sorted,
            "batch {t} B-piece ({} of {} local columns)",
            batch_cols.cols.len(),
            b.local.ncols()
        );
        Staged {
            batch: t,
            global_cols,
            piece_offsets: batch_cols.piece_offsets,
            b_piece,
        }
    };

    // What one op leaves for the next: the staged batches (the running one
    // in front), the posted stage, the operands a stage delivered, the
    // stage partials, the layer product, the fiber pieces, the C piece.
    let mut staged: VecDeque<Staged<S::T>> = VecDeque::with_capacity(2);
    let mut pending = StagePending::default();
    let mut operands = None;
    let mut partials = StageAccumulator::new(grid.pr);
    let (mut layer, mut fiber, mut piece) = (None, None, None);

    // Alg. 4 lines 4–6: split B̃ and multiply batch by batch.
    for op in schedule::batches(nbatches, grid.pr, cfg.overlap) {
        match op {
            Op::Stage { batch: Some(t), .. } => {
                if staged.back().is_none_or(|last| last.batch < t) {
                    staged.push_back(stage(t));
                }
                let of_t = staged
                    .iter()
                    .find(|st| st.batch == t)
                    .expect("staged above");
                let steps = (Step::ABcast, Step::BBcast);
                operands = plan
                    .stage(
                        rank,
                        grid,
                        op,
                        a_shared,
                        &of_t.b_piece,
                        r,
                        steps,
                        &mut pending,
                    )
                    .or(operands);
            }
            Op::Multiply => {
                let landed = operands
                    .take()
                    .expect("a stage delivers before every multiply");
                partials.multiply::<S>(rank, grid, kernels, &landed, r, &mut mem)?;
            }
            Op::MergeLayer => layer = Some(partials.merge::<S>(rank, kernels, r, &mut mem)?),
            Op::Fiber { overlap } => {
                let d = layer
                    .take()
                    .expect("Merge-Layer precedes the fiber exchange");
                let of_t = staged.front().expect("the running batch is staged");
                let (cols, cuts) = (&of_t.global_cols, &of_t.piece_offsets);
                fiber = Some(fiber_exchange(rank, grid, overlap, d, cols, cuts, r, &mut mem));
            }
            Op::MergeFiber => {
                let got = fiber
                    .take()
                    .expect("the fiber exchange precedes Merge-Fiber");
                piece = Some(merge_fiber::<S>(rank, grid, a, kernels, got, r, &mut mem)?);
            }
            Op::Deliver { batch } => {
                staged.pop_front();
                let piece = piece.take().expect("Merge-Fiber precedes delivery");
                let piece_bytes = piece.bytes(r);
                let out = BatchOutput {
                    batch,
                    nbatches,
                    piece,
                };
                match on_batch(rank, out) {
                    Some(kept) => {
                        mem.free(piece_bytes);
                        mem.alloc(kept.bytes(r));
                        pieces.push(kept);
                    }
                    None => mem.free(piece_bytes),
                }
            }
            other => unreachable!("{other:?} is not a batch op"),
        }
    }
    debug_assert!(
        pending.iter().all(Option::is_none),
        "the last batch posts no follow-on stage"
    );

    Ok(BatchedResult {
        pieces,
        nbatches,
        symbolic,
        peak_bytes: mem.peak(),
        kernel_stats: kernels.totals(),
        load_balance: kernels.balance(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_local_cols_cover_for_all_strategies() {
        // Synthetic skewed weights for the Balanced strategy.
        for ncols in [10usize, 17, 64] {
            let weights: Vec<u64> = (0..ncols as u64).map(|j| 1 + j * j % 37).collect();
            for strat in [
                BatchingStrategy::BlockCyclic,
                BatchingStrategy::Block,
                BatchingStrategy::Balanced,
            ] {
                for nb in [1usize, 3, 5] {
                    let mut all = Vec::new();
                    for t in 0..nb {
                        let bc = batch_local_cols(ncols, nb, 4, t, strat, Some(&weights));
                        assert_eq!(bc.piece_offsets.len(), 5, "{strat:?}");
                        assert_eq!(*bc.piece_offsets.last().unwrap(), bc.cols.len());
                        assert!(bc.piece_offsets.windows(2).all(|w| w[0] <= w[1]));
                        all.extend(bc.cols);
                    }
                    all.sort_unstable();
                    assert_eq!(all, (0..ncols).collect::<Vec<_>>(), "{strat:?} nb={nb}");
                }
            }
        }
    }

    #[test]
    fn cyclic_batches_balance_colsplit_blocks() {
        // Under block-cyclic batching, each batch's local columns form l
        // equal-ish runs, one per layer — so ColSplit pieces are balanced.
        let (ncols, nb, l) = (64usize, 4usize, 4usize);
        for t in 0..nb {
            let bc = batch_local_cols(ncols, nb, l, t, BatchingStrategy::BlockCyclic, None);
            assert_eq!(bc.cols.len(), ncols / nb);
            // Runs of consecutive indices: exactly l of them.
            let runs = bc.cols.windows(2).filter(|w| w[1] != w[0] + 1).count() + 1;
            assert_eq!(runs, l);
            // Piece offsets land exactly at the run boundaries.
            for s in 0..l {
                let piece = &bc.cols[bc.piece_offsets[s]..bc.piece_offsets[s + 1]];
                assert!(piece.windows(2).all(|w| w[1] == w[0] + 1), "piece {s} contiguous");
            }
        }
    }

    #[test]
    fn balanced_batches_equalize_weight() {
        // Strongly skewed weights: Balanced must flatten per-batch totals
        // far below the spread the plain cyclic split leaves.
        let ncols = 120usize;
        let (nb, l) = (4usize, 2usize);
        // A steep ramp: later columns are ~100x heavier than early ones.
        let weights: Vec<u64> = (0..ncols as u64).map(|j| 1 + j * j).collect();
        let spread = |strat: BatchingStrategy| {
            let mut totals = Vec::new();
            for t in 0..nb {
                let bc = batch_local_cols(ncols, nb, l, t, strat, Some(&weights));
                totals.push(bc.cols.iter().map(|&c| weights[c]).sum::<u64>());
            }
            let max = *totals.iter().max().unwrap() as f64;
            let mean = totals.iter().sum::<u64>() as f64 / nb as f64;
            max / mean
        };
        let balanced = spread(BatchingStrategy::Balanced);
        let block = spread(BatchingStrategy::Block);
        assert!(
            balanced < 1.25,
            "balanced spread should be near 1, got {balanced}"
        );
        assert!(
            block > 2.0,
            "plain blocks on a ramp should be badly imbalanced, got {block}"
        );
        assert!(balanced < block);
    }

    #[test]
    fn balanced_zero_and_constant_weights_fall_back_to_column_balance() {
        // Regression: a zero-weight slice once made `target = 0/nb + 1 = 1`
        // unreachable, dumping every column into run 0 and leaving batches
        // 1..nb empty from that slice.
        let (ncols, nb, l) = (10usize, 3usize, 1usize);
        for weights in [vec![0u64; ncols], vec![7u64; ncols]] {
            let mut sizes = Vec::new();
            let mut all = Vec::new();
            for t in 0..nb {
                let bc =
                    batch_local_cols(ncols, nb, l, t, BatchingStrategy::Balanced, Some(&weights));
                sizes.push(bc.cols.len());
                all.extend(bc.cols);
            }
            all.sort_unstable();
            assert_eq!(all, (0..ncols).collect::<Vec<_>>());
            assert!(sizes.iter().all(|&s| s > 0), "every batch gets columns: {sizes:?}");
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "column counts must balance: {sizes:?}");
        }
    }

    #[test]
    fn balanced_small_totals_do_not_starve_last_runs() {
        // Regression: 6 unit-weight columns into 4 batches under the old
        // `total/nb + 1` overshoot target landed as 2,2,2,0.
        let weights = vec![1u64; 6];
        let sizes: Vec<usize> = (0..4)
            .map(|t| {
                batch_local_cols(6, 4, 1, t, BatchingStrategy::Balanced, Some(&weights))
                    .cols
                    .len()
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert!(sizes.iter().all(|&s| s > 0), "no starved run: {sizes:?}");
    }
}
