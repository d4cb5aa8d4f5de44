//! 3D sparse SUMMA (Alg. 2).
//!
//! Each layer independently runs SUMMA2D on its slice of `A` and the
//! current batch's slice of `B`, producing the low-rank intermediate
//! `D̃⁽ᵏ⁾`. Each rank then splits `D̃⁽ᵏ⁾` into `l` column pieces
//! (*ColSplit*), exchanges piece `k'` with fiber member `k'`
//! (*AllToAll-Fiber*), and merges the `l` received pieces
//! (*Merge-Fiber*) into its final piece of `C` for this batch.

use crate::dist::{CPiece, DistMatrix};
use crate::exchange::ExchangePlan;
use crate::kernels::{KernelStrategy, LocalKernels};
use crate::memory::MemTracker;
use crate::summa2d::{summa2d_layer, summa2d_layer_pipelined, NextStage, OverlapMode, StageCarry};
use crate::Result;
use spgemm_simgrid::{Grid3D, PendingOp, Rank, Step};
use spgemm_sparse::ops::{block_range, col_block};
use spgemm_sparse::{CscMatrix, Semiring};
use std::sync::Arc;

/// Run one (batch of the) 3D multiplication. `b_batch` is this rank's
/// piece of `B` restricted to the batch's columns and `batch_global_cols`
/// the matching global column ids. Returns this rank's final `C` piece
/// for the batch (sorted columns).
///
/// Under [`OverlapMode::Overlapped`] the SUMMA stages run pipelined:
/// `carry` is the stage-0 broadcast pair the *previous* batch posted (or
/// `None` for the first batch), and `next` — when another batch follows —
/// names the next batch's stage-0 inputs so this batch's last stage can
/// post them; the returned `StagePending` must then be passed back in as
/// the next batch's `carry`. Blocking callers pass `None`/`None` and get
/// `None` back.
///
/// Cache-keying contract: when `plan` has its cross-iteration fetch cache
/// enabled, the caller must have called [`ExchangePlan::begin_batch`] with
/// this batch's index before entering — even under pipelining, sparse
/// fetches resolve at wait-time *inside this call*, so they key under the
/// batch set here, not under whichever batch posted the overlapped
/// broadcast. `batched_summa3d` upholds this; direct callers must too.
// SPMD plumbing (grid + matrices + policies); the paired-with-carry return
// is what the pipeline protocol is.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn summa3d_batch<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    a_shared: &Arc<CscMatrix<S::T>>,
    b_batch: &Arc<CscMatrix<S::T>>,
    batch_global_cols: &[u32],
    piece_offsets: &[usize],
    kernels: &mut LocalKernels<S::T>,
    r: usize,
    mem: &mut MemTracker,
    plan: &mut ExchangePlan,
    overlap: OverlapMode,
    carry: StageCarry<S::T>,
    next: Option<&NextStage<S::T>>,
) -> Result<(CPiece<S::T>, StageCarry<S::T>)> {
    debug_assert_eq!(b_batch.ncols(), batch_global_cols.len());
    debug_assert_eq!(piece_offsets.len(), grid.l + 1);
    debug_assert_eq!(*piece_offsets.last().unwrap(), b_batch.ncols());
    debug_assert!(
        !plan.cache_enabled() || plan.batch_context().is_some(),
        "fetch cache enabled but no batch context: call plan.begin_batch() \
         before summa3d_batch or cached tiles will key incorrectly"
    );

    // Per-layer 2D SUMMA producing D̃⁽ᵏ⁾ (Alg. 2 line 3).
    let (d, next_carry) = match overlap {
        OverlapMode::Blocking => {
            debug_assert!(carry.is_none() && next.is_none(), "blocking mode never pipelines");
            let d = summa2d_layer::<S>(rank, grid, a, a_shared, b_batch, kernels, r, mem, plan)?;
            (d, None)
        }
        OverlapMode::Overlapped => summa2d_layer_pipelined::<S>(
            rank, grid, a, a_shared, b_batch, kernels, r, mem, plan, carry, next,
        )?,
    };


    // ColSplit D̃⁽ᵏ⁾ into l column pieces (Alg. 2 line 4). Piece k' also
    // carries its global column ids so fiber peers can verify conformance.
    let l = grid.l;
    let mut parts: Vec<(CscMatrix<S::T>, Vec<u32>)> = Vec::with_capacity(l);
    let mut part_bytes: Vec<usize> = Vec::with_capacity(l);
    for kk in 0..l {
        let cols = piece_offsets[kk]..piece_offsets[kk + 1];
        let piece = col_block(&d, cols.clone());
        part_bytes.push(piece.modeled_bytes(r));
        let gcols = batch_global_cols[cols].to_vec();
        parts.push((piece, gcols));
    }
    // ColSplit replaces D with same-size pieces (streaming residency model,
    // consistent with Alg. 3's unmerged-high-water-mark accounting).
    drop(d);

    // AllToAll-Fiber (Alg. 2 line 5). In overlapped mode the exchange is
    // posted nonblocking — its completion then shares the timeline with
    // the already-posted next-batch stage-0 broadcasts, which the merge
    // phases below keep hiding (an immediate wait is cost-neutral with the
    // blocking call, see `spgemm_simgrid::nonblocking`).
    let sent_bytes: usize = part_bytes.iter().sum();
    let received = match overlap {
        OverlapMode::Blocking => {
            rank.alltoallv(&grid.fiber, parts, &part_bytes, Step::AllToAllFiber)
        }
        OverlapMode::Overlapped => rank
            .ialltoallv(&grid.fiber, parts, &part_bytes, Step::AllToAllFiber)
            .wait(rank),
    };
    let recv_bytes: usize = received.iter().map(|(p, _)| p.modeled_bytes(r)).sum();
    mem.free(sent_bytes);
    mem.alloc(recv_bytes);

    // All received pieces cover the same global columns: every fiber member
    // split the same local column set and sent us piece #k.
    let my_cols = received[0].1.clone();
    debug_assert!(received.iter().all(|(_, g)| g == &my_cols));

    // Merge-Fiber (Alg. 2 line 6) — the one place output is sorted. The
    // pieces crossed the fiber all-to-all, so re-check them against the
    // strategy's intermediate contract before merging.
    let pieces: Vec<CscMatrix<S::T>> = received.into_iter().map(|(p, _)| p).collect();
    if cfg!(debug_assertions) {
        for (k, piece) in pieces.iter().enumerate() {
            spgemm_sparse::debug_validate!(
                *piece,
                kernels.strategy().intermediate_sortedness(),
                "fiber all-to-all piece {k} (layer {})",
                grid.k
            );
        }
    }
    let (merged, _stats) =
        kernels.charged(rank, Step::MergeFiber, |k| k.merge_fiber::<S>(&pieces))?;
    mem.free(recv_bytes);
    mem.alloc(merged.modeled_bytes(r));
    spgemm_sparse::debug_validate!(
        merged,
        spgemm_sparse::Sortedness::Sorted,
        "Merge-Fiber output (layer {}, batch piece)",
        grid.k
    );

    Ok((
        CPiece {
            local: merged,
            row_offset: a.row_range(grid).start,
            global_cols: my_cols,
        },
        next_carry,
    ))
}

/// Convenience: full (single-batch) SUMMA3D over a distributed `B`
/// (Alg. 2 as published, without batching). Returns this rank's `C` piece.
/// Spins up a one-shot [`LocalKernels`] engine; callers that run many
/// batches should call [`summa3d_batch`] with a long-lived engine instead.
pub fn summa3d<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    b: &DistMatrix<S::T>,
    strategy: KernelStrategy,
    r: usize,
    mem: &mut MemTracker,
) -> Result<CPiece<S::T>> {
    let mut kernels = LocalKernels::new(strategy);
    let mut plan = ExchangePlan::default();
    let a_shared = Arc::new(a.local.clone());
    let b_shared = Arc::new(b.local.clone());
    let gcols: Vec<u32> = b.col_range(grid).map(|c| c as u32).collect();
    // Single batch: ColSplit along the hierarchical layer sub-slices.
    let mut offsets = Vec::with_capacity(grid.l + 1);
    offsets.push(0);
    for s in 0..grid.l {
        offsets.push(block_range(gcols.len(), grid.l, s).end);
    }
    let (piece, carry) = summa3d_batch::<S>(
        rank,
        grid,
        a,
        &a_shared,
        &b_shared,
        &gcols,
        &offsets,
        &mut kernels,
        r,
        mem,
        &mut plan,
        OverlapMode::Blocking,
        None,
        None,
    )?;
    debug_assert!(carry.is_none());
    Ok(piece)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{gather_pieces, scatter, DistKind};
    use spgemm_simgrid::{run_ranks, Machine};
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    fn run_summa3d<S: Semiring>(
        p: usize,
        l: usize,
        a_global: CscMatrix<S::T>,
        b_global: CscMatrix<S::T>,
        strategy: KernelStrategy,
    ) -> CscMatrix<S::T>
    where
        S::T: Send + Sync,
    {
        let (m, n) = (a_global.nrows(), b_global.ncols());
        let results = run_ranks(p, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, l);
            let a = scatter(
                rank,
                &grid,
                DistKind::AStyle,
                (rank.rank() == 0).then(|| Arc::new(a_global.clone())),
            );
            let b = scatter(
                rank,
                &grid,
                DistKind::BStyle,
                (rank.rank() == 0).then(|| Arc::new(b_global.clone())),
            );
            let mut mem = MemTracker::new();
            let piece = summa3d::<S>(rank, &grid, &a, &b, strategy, 24, &mut mem)
                .expect("summa3d failed");
            gather_pieces(rank, &grid.world, vec![piece], m, n)
        });
        results.into_iter().next().unwrap().expect("root gathers C")
    }

    #[test]
    fn summa3d_matches_serial_across_grids() {
        let a = er_random::<PlusTimesU64>(50, 50, 5, 21).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(50, 50, 5, 22).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for (p, l) in [(4, 1), (4, 4), (8, 2), (16, 4), (16, 16), (12, 3)] {
            for strat in [KernelStrategy::New, KernelStrategy::Previous] {
                let c = run_summa3d::<PlusTimesU64>(p, l, a.clone(), b.clone(), strat);
                assert!(
                    c.eq_modulo_order(&reference),
                    "p={p} l={l} strategy={}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn summa3d_rectangular_awkward() {
        let a = er_random::<PlusTimesU64>(41, 29, 3, 23).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(29, 35, 3, 24).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let c = run_summa3d::<PlusTimesU64>(8, 2, a, b, KernelStrategy::New);
        assert!(c.eq_modulo_order(&reference));
    }

    #[test]
    fn summa3d_float() {
        let a = er_random::<PlusTimesF64>(36, 36, 4, 25);
        let b = er_random::<PlusTimesF64>(36, 36, 4, 26);
        let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        let c = run_summa3d::<PlusTimesF64>(16, 4, a, b, KernelStrategy::New);
        assert!(c.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn more_layers_reduce_abcast_time() {
        // The communication-avoiding effect (Fig. 5): with the same p,
        // increasing l shrinks the A-Bcast communicator, cutting its cost.
        let a = er_random::<PlusTimesF64>(64, 64, 8, 27);
        let b = er_random::<PlusTimesF64>(64, 64, 8, 28);
        let mut abcast = Vec::new();
        for l in [1usize, 4, 16] {
            let (a, b) = (a.clone(), b.clone());
            let breakdowns = run_ranks(16, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, l);
                let a = scatter(
                    rank,
                    &grid,
                    DistKind::AStyle,
                    (rank.rank() == 0).then(|| Arc::new(a.clone())),
                );
                let b = scatter(
                    rank,
                    &grid,
                    DistKind::BStyle,
                    (rank.rank() == 0).then(|| Arc::new(b.clone())),
                );
                let mut mem = MemTracker::new();
                summa3d::<PlusTimesF64>(rank, &grid, &a, &b, KernelStrategy::New, 24, &mut mem)
                    .unwrap();
                *rank.clock().breakdown()
            });
            let max = spgemm_simgrid::max_breakdown(&breakdowns);
            abcast.push(max.secs_of(Step::ABcast));
        }
        assert!(
            abcast[0] > abcast[1] && abcast[1] > abcast[2],
            "A-Bcast should fall with l: {abcast:?}"
        );
    }
}
