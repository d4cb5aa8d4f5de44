//! 3D sparse SUMMA (Alg. 2).
//!
//! Each layer independently runs SUMMA2D on its slice of `A` and the
//! current batch's slice of `B`, producing the low-rank intermediate
//! `D̃⁽ᵏ⁾`. Each rank then splits `D̃⁽ᵏ⁾` into `l` column pieces
//! (*ColSplit*), exchanges piece `k'` with fiber member `k'`
//! (*AllToAll-Fiber*), and merges the `l` received pieces
//! (*Merge-Fiber*) into its final piece of `C` for this batch.
//!
//! This module holds the two fiber ops; [`crate::schedule::iteration`] places
//! them after each batch's Merge-Layer.

use crate::dist::{CPiece, DistMatrix};
use crate::exchange::{block_leg, charge_codec};
use crate::kernels::LocalKernels;
use crate::schedule::Op;
use crate::Result;
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::ops::col_block;
use spgemm_sparse::{CscMatrix, Semiring};

/// What the fiber all-to-all delivered to this rank: one piece per layer,
/// all covering the same global columns of `C`.
pub(crate) struct FiberPieces<T: Copy> {
    pub(crate) pieces: Vec<CscMatrix<T>>,
    global_cols: Vec<u32>,
}

/// ColSplit + AllToAll-Fiber (Alg. 2 lines 4–5) of the layer product `d`,
/// whose columns are `batch_global_cols`, cut at `piece_offsets`. The
/// exchange is one blocking collective under either overlap mode: the
/// merge that needs its pieces runs right after it, so a nonblocking post
/// would be waited at once, which costs exactly the blocking call (see
/// `spgemm_simgrid::nonblocking`). Under
/// [`crate::OverlapMode::Overlapped`] the next batch's stage-0 broadcasts,
/// already posted, stay in flight across it.
pub(crate) fn fiber_exchange<T: Copy + Send + Sync + 'static>(
    rank: &mut Rank,
    grid: &Grid3D,
    d: CscMatrix<T>,
    batch_global_cols: &[u32],
    piece_offsets: &[usize],
) -> FiberPieces<T> {
    debug_assert_eq!(d.ncols(), batch_global_cols.len());
    debug_assert_eq!(piece_offsets.len(), grid.l + 1);
    debug_assert_eq!(*piece_offsets.last().unwrap(), d.ncols());

    // Piece k' also carries its global column ids so fiber peers can
    // verify conformance.
    let parts: Vec<(CscMatrix<T>, Vec<u32>)> = piece_offsets
        .windows(2)
        .map(|cut| {
            let cols = batch_global_cols[cut[0]..cut[1]].to_vec();
            (col_block(&d, cut[0]..cut[1]), cols)
        })
        .collect();
    drop(d); // ColSplit replaces D with its pieces

    let received = coded_fiber_alltoall(rank, grid, Op::Fiber, Step::AllToAllFiber, parts);

    // All received pieces cover the same global columns: every fiber member
    // split the same local column set and sent us piece #k.
    let global_cols = received[0].1.clone();
    debug_assert!(received.iter().all(|(_, g)| g == &global_cols));
    FiberPieces {
        pieces: received.into_iter().map(|(p, _)| p).collect(),
        global_cols,
    }
}

/// One all-to-all of sparse blocks along the fiber, charged to `step`:
/// `parts[k]` goes to fiber member `k` with its metadata. A block that
/// leaves the rank travels as a coded block ([`crate::exchange::block_leg`]
/// under `op`), sized once by its sender; its coded integer count rides
/// along so the receiver charges its decode without recounting. The rank's
/// own block stays put and is never sized.
pub(crate) fn coded_fiber_alltoall<T: Copy + Send + Sync + 'static, X: Send + 'static>(
    rank: &mut Rank,
    grid: &Grid3D,
    op: Op,
    step: Step,
    parts: Vec<(CscMatrix<T>, X)>,
) -> Vec<(CscMatrix<T>, X)> {
    let me = grid.fiber.my_index();
    let mut bytes = Vec::with_capacity(parts.len());
    let mut sent = Vec::with_capacity(parts.len());
    for (k, (block, meta)) in parts.into_iter().enumerate() {
        let (wire, coded) = if k == me {
            (0, 0)
        } else {
            block_leg(op, &block)
        };
        bytes.push(wire);
        sent.push((block, meta, coded));
    }
    charge_codec(rank, step, sent.iter().map(|part| part.2).sum());
    let received = rank.alltoallv(&grid.fiber, sent, &bytes, step);
    charge_codec(rank, step, received.iter().map(|part| part.2).sum());
    received
        .into_iter()
        .map(|(block, meta, _)| (block, meta))
        .collect()
}

/// Merge-Fiber (Alg. 2 line 6) — the one place output is sorted. Returns
/// this rank's final `C` piece for the batch.
pub(crate) fn merge_fiber<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    kernels: &mut LocalKernels<S::T>,
    received: FiberPieces<S::T>,
) -> Result<CPiece<S::T>> {
    // The pieces crossed the fiber all-to-all, so re-check them against the
    // strategy's intermediate contract before merging.
    if cfg!(debug_assertions) {
        for (k, piece) in received.pieces.iter().enumerate() {
            spgemm_sparse::debug_validate!(
                *piece,
                kernels.strategy().intermediate_sortedness(),
                "fiber all-to-all piece {k} (layer {})",
                grid.k
            );
        }
    }
    let (merged, _stats) = kernels.charged(rank, Step::MergeFiber, |k| {
        k.merge_fiber::<S>(&received.pieces)
    })?;
    spgemm_sparse::debug_validate!(
        merged,
        spgemm_sparse::Sortedness::Sorted,
        "Merge-Fiber output (layer {}, batch piece)",
        grid.k
    );
    Ok(CPiece {
        local: merged,
        row_offset: a.row_range(grid).start,
        global_cols: received.global_cols,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::harness::{run_spgemm, RunConfig};
    use crate::kernels::KernelStrategy;
    use spgemm_simgrid::StepBreakdown;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    /// Alg. 2 as published: one un-batched SUMMA3D (with `l = 1`, Alg. 1).
    /// Returns the product gathered on rank 0 and every rank's step
    /// breakdown.
    pub(crate) fn run_summa3d<S: Semiring>(
        p: usize,
        l: usize,
        a_global: &CscMatrix<S::T>,
        b_global: &CscMatrix<S::T>,
        strategy: KernelStrategy,
    ) -> (CscMatrix<S::T>, Vec<StepBreakdown>) {
        let cfg = RunConfig {
            kernels: strategy,
            forced_batches: Some(1),
            ..RunConfig::new(p, l)
        };
        let out = run_spgemm::<S>(&cfg, a_global, b_global).expect("summa3d failed");
        (out.c.expect("root gathers C"), out.per_rank)
    }

    #[test]
    fn summa3d_matches_serial_across_grids() {
        let a = er_random::<PlusTimesU64>(50, 50, 5, 21).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(50, 50, 5, 22).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for (p, l) in [(4, 1), (4, 4), (8, 2), (16, 4), (16, 16), (12, 3)] {
            for strat in [KernelStrategy::New, KernelStrategy::Previous] {
                let (c, _) = run_summa3d::<PlusTimesU64>(p, l, &a, &b, strat);
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
        let (c, _) = run_summa3d::<PlusTimesU64>(8, 2, &a, &b, KernelStrategy::New);
        assert!(c.eq_modulo_order(&reference));
    }

    #[test]
    fn summa3d_float() {
        let a = er_random::<PlusTimesF64>(36, 36, 4, 25);
        let b = er_random::<PlusTimesF64>(36, 36, 4, 26);
        let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        let (c, _) = run_summa3d::<PlusTimesF64>(16, 4, &a, &b, KernelStrategy::New);
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
            let (_, breakdowns) =
                run_summa3d::<PlusTimesF64>(16, l, &a, &b, KernelStrategy::New);
            let max = spgemm_simgrid::max_breakdown(&breakdowns);
            abcast.push(max.secs_of(Step::ABcast));
        }
        assert!(
            abcast[0] > abcast[1] && abcast[1] > abcast[2],
            "A-Bcast should fall with l: {abcast:?}"
        );
    }
}
