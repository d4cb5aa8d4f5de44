//! BatchedSUMMA3D (Alg. 4): memory-constrained 3D SpGEMM.
//!
//! The batch count `b` comes from Symbolic3D unless
//! [`schedule::fixed_batches`] fixes it. Each rank splits its local `B̃`
//! column-wise into `b` batches by the paper's block-cyclic rule
//! ([`batch_pieces`], Fig. 1(i)): each layer's sub-slice of the local
//! columns is cut into `b` blocks and a batch takes one block of every
//! layer, so ColSplit piece `k` of a batch is destined for layer `k` and
//! lands on the rank that owns those columns of `C` A-style, for every `b`.
//! One SUMMA3D runs per batch, and the resulting `C` piece is handed to the
//! application, which may prune, persist, transform, or discard it before
//! the next batch begins — the HipMCL/BELLA/hypergraph-coarsening usage
//! pattern the paper targets. One driver walks `schedule::iteration` for a
//! one-shot multiply and for a session step alike.

use crate::dist::{scatter, transpose_to_bstyle, CPiece, DistKind, DistMatrix};
use crate::exchange::{ExchangePlan, StagePending};
use crate::harness::{BOperand, RunConfig};
use crate::kernels::LocalKernels;
use crate::memory::{MemTracker, R_BYTES_PER_NNZ};
use crate::schedule::{self, Op};
use crate::session::{assemble_pieces, dirty_cols};
use crate::summa2d::StageAccumulator;
use crate::summa3d::{coded_fiber_alltoall, fiber_exchange, merge_fiber};
use crate::symbolic::{symbolic3d, SymbolicOutcome};
use crate::{CoreError, Result};
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::ops::{batch_pieces, block_range, col_concat, extract_cols, row_block};
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
    /// Iterate columns a session iteration changed.
    pub dirty_cols: usize,
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

/// One rank's operands, kernel engine and exchange plan. A one-shot run
/// multiplies once; an [`crate::IterSession`] keeps them across iterations,
/// so workspaces, the fetch-tag sequence and the fetch cache stay warm.
pub(crate) struct RankState<S: Semiring> {
    pub(crate) cfg: RunConfig,
    pub(crate) a: DistMatrix<S::T>,
    pub(crate) b: DistMatrix<S::T>,
    pub(crate) kernels: LocalKernels<S::T>,
    pub(crate) plan: ExchangePlan,
}

impl<S: Semiring> RankState<S> {
    /// Scatter `a` (held by world rank 0) A-style, then obtain `B̃` from
    /// `b` (`None`: `a` itself, scattered B-style). The 1.5D families never
    /// batch and are rejected.
    pub(crate) fn new(
        rank: &mut Rank,
        grid: &Grid3D,
        a: Option<Arc<CscMatrix<S::T>>>,
        b: Option<&BOperand<S::T>>,
        cfg: &RunConfig,
        cache: bool,
    ) -> Result<Self> {
        if cfg.algorithm.is_15d() {
            return Err(CoreError::Config(format!(
                "the batched SUMMA pipeline cannot run the 1.5D family {}; \
                 use run_spmm/run_spgemm, which route 1.5D to the family driver",
                cfg.algorithm.label()
            )));
        }
        if cfg.forced_batches == Some(0) {
            return Err(CoreError::Config("forced batch count must be ≥ 1".into()));
        }
        let root = rank.rank() == 0;
        let da = scatter(rank, grid, DistKind::AStyle, a.clone());
        let db = match b {
            None => scatter(rank, grid, DistKind::BStyle, a),
            Some(BOperand::Global(b)) => {
                scatter(rank, grid, DistKind::BStyle, root.then(|| Arc::clone(b)))
            }
            Some(BOperand::TransposeOfA) => transpose_to_bstyle(rank, grid, &da),
        };
        let mut plan = ExchangePlan::new(cfg.exchange);
        if cache {
            plan.enable_cache();
        }
        Ok(RankState {
            cfg: *cfg,
            a: da,
            b: db,
            kernels: LocalKernels::with_backend(cfg.kernels, cfg.backend),
            plan,
        })
    }
}

/// BatchedSUMMA3D: `on_batch` receives every batch's piece and returns
/// `Some(piece)` to keep (possibly pruned) or `None` to discard. A
/// `resident` session makes the kept pieces its next iterate and
/// refreshes `B̃` from it.
pub(crate) fn multiply<S: Semiring>(
    state: &mut RankState<S>,
    rank: &mut Rank,
    grid: &Grid3D,
    resident: bool,
    mut on_batch: impl FnMut(&mut Rank, BatchOutput<S::T>) -> Option<CPiece<S::T>>,
) -> Result<BatchedResult<S::T>> {
    let RankState {
        cfg,
        a,
        b,
        kernels,
        plan,
    } = state;
    // Alg. 4 line 2: the symbolic step determines b unless the rule fixes it.
    let fixed = schedule::fixed_batches(cfg.forced_batches, resident, cfg.budget.is_unlimited());
    let (nbatches, symbolic) = match fixed {
        Some(fixed) => (fixed, None),
        None => {
            let outcome = symbolic3d::<S>(rank, grid, a, b, &cfg.budget, kernels, plan)?;
            (outcome.batches, Some(outcome))
        }
    };
    // The one memory ledger of the run: the inputs, then what each compute
    // op holds. The running batch's intermediate (stage partials, then the
    // layer product, the fiber pieces, the C piece) passes from op to op,
    // and each op releases what it consumed before holding what it made:
    // merging and ColSplit are modeled as streaming, so the unmerged
    // partials are the high-water mark, as in Alg. 3's accounting.
    let bytes = |m: &CscMatrix<S::T>| m.modeled_bytes(R_BYTES_PER_NNZ);
    let mut mem = MemTracker::new();
    mem.alloc(bytes(&a.local) + bytes(&b.local));
    let mut held = 0;

    let b_col_start = b.col_range(grid).start;
    let (mut pieces, mut changed) = (Vec::new(), 0);

    // Inputs are staged when the program first names their batch — under
    // OverlapMode::Overlapped that is one batch ahead, when batch t's last
    // SUMMA stage posts batch t+1's stage-0 broadcasts (extraction is local
    // bookkeeping and costs no modeled time).
    let stage = |b: &CscMatrix<S::T>, t: usize| {
        let mut cols = Vec::new();
        let mut piece_offsets = vec![0];
        for piece in batch_pieces(b.ncols(), nbatches, grid.l, t) {
            cols.extend(piece);
            piece_offsets.push(cols.len());
        }
        let global_cols: Vec<u32> = cols.iter().map(|&c| (b_col_start + c) as u32).collect();
        let b_piece = Arc::new(extract_cols(b, &cols));
        spgemm_sparse::debug_validate!(
            *b_piece,
            spgemm_sparse::Sortedness::Sorted,
            "batch {t} B-piece ({} of {} local columns)",
            cols.len(),
            b.ncols()
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

    // Alg. 4 lines 4–6: split B̃ and multiply batch by batch; a session
    // iteration then refreshes B̃.
    let refresh = resident && grid.l > 1;
    for op in schedule::iteration(nbatches, grid.pr, cfg.overlap, refresh) {
        match op {
            Op::Stage { batch: Some(t), .. } => {
                if staged.back().is_none_or(|last| last.batch < t) {
                    staged.push_back(stage(&b.local, t));
                }
                let of_t = staged
                    .iter()
                    .find(|st| st.batch == t)
                    .expect("staged above");
                let steps = (Step::ABcast, Step::BBcast);
                operands = plan
                    .stage(rank, grid, op, &a.local, &of_t.b_piece, steps, &mut pending)
                    .or(operands);
            }
            Op::Multiply => {
                let landed = operands
                    .take()
                    .expect("a stage delivers before every multiply");
                let partial = bytes(partials.multiply::<S>(rank, grid, kernels, &landed)?);
                held += partial;
                mem.alloc(partial);
            }
            Op::MergeLayer => {
                let merged = partials.merge::<S>(rank, kernels)?;
                pass_on(&mut mem, &mut held, bytes(&merged));
                layer = Some(merged);
            }
            Op::Fiber => {
                let d = layer
                    .take()
                    .expect("Merge-Layer precedes the fiber exchange");
                let of_t = staged.front().expect("the running batch is staged");
                let (cols, cuts) = (&of_t.global_cols, &of_t.piece_offsets);
                let got = fiber_exchange(rank, grid, d, cols, cuts);
                pass_on(&mut mem, &mut held, got.pieces.iter().map(bytes).sum());
                fiber = Some(got);
            }
            Op::MergeFiber => {
                let got = fiber
                    .take()
                    .expect("the fiber exchange precedes Merge-Fiber");
                let merged = merge_fiber::<S>(rank, grid, a, kernels, got)?;
                pass_on(&mut mem, &mut held, bytes(&merged.local));
                piece = Some(merged);
            }
            Op::Deliver { batch } => {
                staged.pop_front();
                let piece = piece.take().expect("Merge-Fiber precedes delivery");
                let out = BatchOutput {
                    batch,
                    nbatches,
                    piece,
                };
                let kept = on_batch(rank, out);
                // What the application keeps stays resident.
                pass_on(&mut mem, &mut held, 0);
                if let Some(kept) = kept {
                    mem.alloc(bytes(&kept.local));
                    pieces.push(kept);
                }
                if resident && batch + 1 == nbatches {
                    // Local steps: the kept pieces become the next
                    // iterate, which on one layer is B̃ as well, and the
                    // columns that changed are dirty in the fetch cache.
                    let next = assemble_pieces(&pieces, &a.row_range(grid), &a.col_range(grid))?;
                    let dirty = dirty_cols::<S>(&a.local, &next);
                    plan.note_dirty_cols(&dirty);
                    (a.local, changed) = (Arc::new(next), dirty.len());
                    if grid.l == 1 {
                        b.local = Arc::clone(&a.local);
                    }
                }
            }
            Op::RefreshB => {
                // Slice `k` of the new iterate's rows goes to fiber
                // member `k`; the received slices side by side are the
                // B-style piece. Step::Other: application-side movement.
                let rows = a.local.nrows();
                let parts = (0..grid.l)
                    .map(|k| (row_block(&a.local, block_range(rows, grid.l, k)), ()))
                    .collect();
                let got = coded_fiber_alltoall(rank, grid, op, Step::Other, parts);
                let slices: Vec<_> = got.into_iter().map(|(slice, ())| slice).collect();
                b.local = Arc::new(col_concat(&slices).map_err(CoreError::Sparse)?);
                debug_assert_eq!(b.local.nrows(), b.row_range(grid).len());
                debug_assert_eq!(b.local.ncols(), b.col_range(grid).len());
            }
            other => unreachable!("{other:?} is not an op of a multiplication"),
        }
    }
    debug_assert!(
        pending.iter().all(Option::is_none),
        "the last batch posts no follow-on stage"
    );

    Ok(BatchedResult {
        pieces,
        nbatches,
        dirty_cols: changed,
        symbolic,
        peak_bytes: mem.peak(),
        kernel_stats: kernels.totals(),
        load_balance: kernels.balance(),
    })
}

/// Release the running batch's intermediate, `held`, and hold `produced`,
/// what the op made of it, in its place.
fn pass_on(mem: &mut MemTracker, held: &mut usize, produced: usize) {
    mem.free(std::mem::replace(held, produced));
    mem.alloc(produced);
}
