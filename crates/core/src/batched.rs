//! BatchedSUMMA3D (Alg. 4): memory-constrained 3D SpGEMM.
//!
//! The batch count `b` comes from Symbolic3D (or a forced override for
//! parameter sweeps). Each rank splits its local `B̃` column-wise into `b`
//! batches by the paper's block-cyclic rule ([`batch_pieces`], Fig. 1(i)):
//! each layer's sub-slice of the local columns is cut into `b` blocks and
//! a batch takes one block of every layer, so ColSplit piece `k` of a
//! batch is destined for layer `k` and lands on the rank that owns those
//! columns of `C` A-style, for every `b`. One SUMMA3D runs per
//! batch, and the resulting `C` piece is handed to the application, which
//! may prune, persist, transform, or discard it before the next batch
//! begins — the HipMCL/BELLA/hypergraph-coarsening usage pattern the paper
//! targets.

use crate::dist::{CPiece, DistMatrix};
use crate::exchange::{ExchangePlan, StagePending};
use crate::harness::RunConfig;
use crate::kernels::LocalKernels;
use crate::memory::MemTracker;
use crate::schedule::{self, Op};
use crate::summa2d::StageAccumulator;
use crate::summa3d::{fiber_exchange, merge_fiber};
use crate::symbolic::{symbolic3d, SymbolicOutcome};
use crate::{CoreError, Result};
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::ops::{batch_pieces, extract_cols};
use spgemm_sparse::par::RangeBalance;
use spgemm_sparse::{CscMatrix, Semiring, WorkStats};
use std::collections::VecDeque;
use std::sync::Arc;

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

/// Result of a batched multiplication on one rank.
#[derive(Debug)]
pub(crate) struct BatchedResult<T: Copy> {
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
/// Of the run policy this reads `kernels`, `budget`,
/// `forced_batches`, `overlap`, `exchange`, `backend` and `algorithm` (the
/// 1.5D families never batch and are rejected — route them through
/// `run_spmm`/`run_spgemm`); the grid and the cluster are the caller's.
pub(crate) fn batched_summa3d<S: Semiring>(
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
    batched_summa3d_with::<S>(rank, grid, a, b, cfg, &mut kernels, &mut plan, on_batch)
}

/// [`batched_summa3d`] with caller-owned state: the kernel engine and the
/// exchange plan live outside the call, so an iterative session
/// ([`crate::session`]) can keep both warm across multiplications —
/// preserving kernel workspaces, the fetch-tag sequence, and the
/// cross-iteration fetch cache.
#[allow(clippy::too_many_arguments)] // the seam that lets sessions own the state
pub(crate) fn batched_summa3d_with<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
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
    if cfg.forced_batches == Some(0) {
        return Err(CoreError::Config("forced batch count must be ≥ 1".into()));
    }
    // Alg. 4 line 2: the symbolic step determines b (unless forced).
    let (nbatches, symbolic) = match cfg.forced_batches {
        Some(forced) => (forced, None),
        None => {
            let outcome = symbolic3d::<S>(rank, grid, a, b, &cfg.budget, kernels, plan)?;
            (outcome.batches, Some(outcome))
        }
    };

    let mut mem = MemTracker::new();
    mem.alloc(a.local.modeled_bytes(r) + b.local.modeled_bytes(r));

    let b_col_start = b.col_range(grid).start;
    let mut pieces = Vec::new();

    // Inputs are staged when the program first names their batch — under
    // OverlapMode::Overlapped that is one batch ahead, when batch t's last
    // SUMMA stage posts batch t+1's stage-0 broadcasts (extraction is local
    // bookkeeping and costs no modeled time).
    let stage = |t: usize| {
        let mut cols = Vec::new();
        let mut piece_offsets = vec![0];
        for piece in batch_pieces(b.local.ncols(), nbatches, grid.l, t) {
            cols.extend(piece);
            piece_offsets.push(cols.len());
        }
        let global_cols: Vec<u32> = cols.iter().map(|&c| (b_col_start + c) as u32).collect();
        let b_piece = Arc::new(extract_cols(&b.local, &cols));
        spgemm_sparse::debug_validate!(
            *b_piece,
            spgemm_sparse::Sortedness::Sorted,
            "batch {t} B-piece ({} of {} local columns)",
            cols.len(),
            b.local.ncols()
        );
        Staged {
            batch: t,
            global_cols,
            piece_offsets,
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
                        &a.local,
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
            Op::Fiber => {
                let d = layer
                    .take()
                    .expect("Merge-Layer precedes the fiber exchange");
                let of_t = staged.front().expect("the running batch is staged");
                let (cols, cuts) = (&of_t.global_cols, &of_t.piece_offsets);
                fiber = Some(fiber_exchange(rank, grid, d, cols, cuts, r, &mut mem));
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
