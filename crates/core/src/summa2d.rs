//! 2D sparse SUMMA (Alg. 1), as executed inside one layer of the 3D grid.
//!
//! Proceeds in `pr` stages. At stage `s`, process `(i, s, k)` broadcasts
//! its local `Ã` along the process row and `(s, j, k)` broadcasts its
//! local `B̃` (restricted to the current batch's columns) along the
//! process column; every process multiplies the received pieces and
//! stores the partial product. After all stages the partials are merged
//! (Merge-Layer). With `l = 1` this *is* the complete 2D algorithm; with
//! `l > 1` it produces the layer's intermediate `D̃⁽ᵏ⁾` for
//! [`crate::summa3d`] to reduce across fibers.

use crate::dist::DistMatrix;
use crate::exchange::ExchangePlan;
use crate::kernels::LocalKernels;
use crate::memory::MemTracker;
use crate::Result;
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::{CscMatrix, Semiring};
use std::sync::Arc;

pub use crate::exchange::StagePending;

/// Whether stage broadcasts run blocking or pipelined (the overlap
/// tentpole). Blocking is the default: it reproduces the paper's strictly
/// phased execution, and every existing figure and modeled-time test is
/// built on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapMode {
    /// Alg. 1 as published: each stage's A/B broadcasts complete before
    /// its Local-Multiply starts.
    #[default]
    Blocking,
    /// Double-buffered pipeline: stage `s+1`'s broadcasts are posted
    /// (nonblocking) before stage `s`'s Local-Multiply, so the multiply
    /// hides their modeled cost; across batches, the next batch's stage-0
    /// broadcasts are posted before the current batch's merge phases.
    Overlapped,
}

/// A pipeline carry: stage-0 exchange already posted for the *next*
/// batch (absent in blocking mode and after the final batch).
pub type StageCarry<T> = Option<StagePending<T>>;

/// Stage-0 inputs of the *next* batch, staged one batch ahead so the
/// current batch's last SUMMA stage can post their broadcasts (the
/// cross-batch leg of the pipeline: Merge-Layer, AllToAll-Fiber and
/// Merge-Fiber of the current batch then hide them).
pub struct NextStage<T> {
    /// The rank's `Ã` (rebroadcast every batch).
    pub a_shared: Arc<CscMatrix<T>>,
    /// Modeled size of `a_shared`.
    pub a_bytes: usize,
    /// The next batch's extracted B piece.
    pub b_piece: Arc<CscMatrix<T>>,
    /// Modeled size of `b_piece`.
    pub b_bytes: usize,
}

impl<T> std::fmt::Debug for NextStage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NextStage")
            .field("a_bytes", &self.a_bytes)
            .field("b_bytes", &self.b_bytes)
            .finish_non_exhaustive()
    }
}

/// One layer's SUMMA2D: returns the merged layer product `D̃⁽ᵏ⁾`
/// (rows: `A`'s row block `i`; columns: the batch's local columns).
///
/// `a_local` must be shared as an `Arc` by the caller so repeated batches
/// don't re-clone it. `b_batch` is this rank's B piece for the current
/// batch. The modeled clock of `rank` is advanced per step; `mem` tracks
/// the modeled footprint of the intermediates. `kernels` is the rank's
/// long-lived kernel engine: its workspace is reused across every stage,
/// batch, and layer this rank executes, so steady-state stages run
/// allocation-free (the tentpole of the workspace-reuse PR). `plan` is
/// the rank's exchange layer ([`crate::exchange`]): it decides whether
/// stage operands move by dense broadcast or sparsity-aware fetch.
#[allow(clippy::too_many_arguments)] // SPMD plumbing: grid + matrices + policies
pub fn summa2d_layer<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    a_shared: &Arc<CscMatrix<S::T>>,
    b_batch: &Arc<CscMatrix<S::T>>,
    kernels: &mut LocalKernels<S::T>,
    r: usize,
    mem: &mut MemTracker,
    plan: &mut ExchangePlan,
) -> Result<CscMatrix<S::T>> {
    let stages = grid.pr;
    let mut acc = StageAccumulator::new(stages);

    for s in 0..stages {
        // Stage exchange: A along the process row (root: column s), B
        // along the process column (root: row s) — by broadcast or fetch,
        // per the plan's mode.
        let a_bytes = a.local.modeled_bytes(r);
        let b_bytes = b_batch.modeled_bytes(r);
        let (a_recv, b_recv) = plan.exchange_stage(
            rank,
            grid,
            s,
            a_shared,
            a_bytes,
            b_batch,
            b_bytes,
            r,
            (Step::ABcast, Step::BBcast),
        )?;

        debug_assert_eq!(
            a_recv.ncols(),
            b_recv.nrows(),
            "stage {s}: A column slice and B row slice must conform \
             (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        spgemm_sparse::debug_validate!(
            *a_recv,
            spgemm_sparse::Sortedness::Sorted,
            "stage {s} A-Bcast operand (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        spgemm_sparse::debug_validate!(
            *b_recv,
            spgemm_sparse::Sortedness::Sorted,
            "stage {s} B-Bcast operand (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );

        // Local-Multiply, executed and clock-charged by the backend.
        let (partial, _stats) = kernels.charged(rank, Step::LocalMultiply, |k| {
            k.local_multiply::<S>(&a_recv, &b_recv)
        })?;
        acc.push(partial, r, mem);
    }

    acc.merge::<S>(rank, kernels, r, mem)
}

/// Pipelined twin of [`summa2d_layer`] ([`OverlapMode::Overlapped`]).
///
/// Stage `s+1`'s broadcasts are posted before stage `s`'s Local-Multiply,
/// so the multiply hides their modeled cost. Stage 0 is either waited from
/// `carry` (posted by the previous batch's last stage) or posted on entry;
/// when `next` is given, the last stage posts the *next* batch's stage-0
/// broadcasts and returns the handle for the caller to carry forward.
// SPMD plumbing (grid + matrices + policies); the paired-with-carry return
// is what the pipeline protocol is.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
pub fn summa2d_layer_pipelined<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    a_shared: &Arc<CscMatrix<S::T>>,
    b_batch: &Arc<CscMatrix<S::T>>,
    kernels: &mut LocalKernels<S::T>,
    r: usize,
    mem: &mut MemTracker,
    plan: &mut ExchangePlan,
    carry: StageCarry<S::T>,
    next: Option<&NextStage<S::T>>,
) -> Result<(CscMatrix<S::T>, StageCarry<S::T>)> {
    let stages = grid.pr;
    let a_bytes = a.local.modeled_bytes(r);
    let b_bytes = b_batch.modeled_bytes(r);
    let mut acc = StageAccumulator::new(stages);

    let mut pending = Some(carry.unwrap_or_else(|| {
        plan.post_stage(rank, grid, 0, a_shared, a_bytes, b_batch, b_bytes)
    }));
    let mut next_carry = None;

    for s in 0..stages {
        let posted = pending.take().expect("stage exchange posted");
        let (a_recv, b_recv) = plan.wait_stage(rank, grid, posted, a_shared, r);

        // Double buffering: post the following stage (or the next batch's
        // stage 0) *before* multiplying, so the multiply hides it.
        if s + 1 < stages {
            pending =
                Some(plan.post_stage(rank, grid, s + 1, a_shared, a_bytes, b_batch, b_bytes));
        } else if let Some(n) = next {
            next_carry = Some(plan.post_stage(
                rank,
                grid,
                0,
                &n.a_shared,
                n.a_bytes,
                &n.b_piece,
                n.b_bytes,
            ));
        }

        debug_assert_eq!(
            a_recv.ncols(),
            b_recv.nrows(),
            "stage {s}: A column slice and B row slice must conform \
             (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        spgemm_sparse::debug_validate!(
            *a_recv,
            spgemm_sparse::Sortedness::Sorted,
            "stage {s} pipelined A-Bcast operand (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        spgemm_sparse::debug_validate!(
            *b_recv,
            spgemm_sparse::Sortedness::Sorted,
            "stage {s} pipelined B-Bcast operand (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );

        let (partial, _stats) = kernels.charged(rank, Step::LocalMultiply, |k| {
            k.local_multiply::<S>(&a_recv, &b_recv)
        })?;
        acc.push(partial, r, mem);
    }

    let merged = acc.merge::<S>(rank, kernels, r, mem)?;
    Ok((merged, next_carry))
}

/// The per-stage partial products of one layer, shared by the blocking
/// and pipelined layers. The paper merges once after all stages
/// (Sec. III-A): merging incrementally is costlier in the worst case.
struct StageAccumulator<T: Copy> {
    partials: Vec<CscMatrix<T>>,
    bytes: usize,
}

impl<T: Copy> StageAccumulator<T> {
    fn new(stages: usize) -> Self {
        StageAccumulator {
            partials: Vec::with_capacity(stages),
            bytes: 0,
        }
    }

    /// Keep one stage's partial for the merge at the end.
    fn push(&mut self, partial: CscMatrix<T>, r: usize, mem: &mut MemTracker) {
        self.bytes += partial.modeled_bytes(r);
        mem.alloc(partial.modeled_bytes(r));
        self.partials.push(partial);
    }

    /// Merge-Layer: combine the per-stage partials. Footprint model
    /// follows Alg. 3's accounting: the budgeted high-water mark is the
    /// *unmerged* residency (inputs + stage partials); merging is modeled
    /// as streaming (inputs released column-by-column as they are
    /// consumed), so the merged output replaces rather than stacks on the
    /// partials.
    fn merge<S: Semiring<T = T>>(
        self,
        rank: &mut Rank,
        kernels: &mut LocalKernels<T>,
        r: usize,
        mem: &mut MemTracker,
    ) -> Result<CscMatrix<T>> {
        let (merged, _stats) =
            kernels.charged(rank, Step::MergeLayer, |k| k.merge_layer::<S>(&self.partials))?;
        mem.free(self.bytes);
        mem.alloc(merged.modeled_bytes(r));
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{gather_pieces, scatter, CPiece, DistKind};
    use crate::kernels::KernelStrategy;
    use spgemm_simgrid::{run_ranks, Machine};
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    /// Run pure 2D SUMMA (l = 1) and gather the product on rank 0.
    fn run_summa2d<S: Semiring>(
        p: usize,
        a_global: CscMatrix<S::T>,
        b_global: CscMatrix<S::T>,
        strategy: KernelStrategy,
    ) -> CscMatrix<S::T>
    where
        S::T: Send + Sync,
    {
        let (m, n) = (a_global.nrows(), b_global.ncols());
        let results = run_ranks(p, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 1);
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
            let a_shared = Arc::new(a.local.clone());
            #[allow(clippy::redundant_clone)] // `b` is used again below
            let b_shared = Arc::new(b.local.clone());
            let mut mem = MemTracker::new();
            let mut kernels = LocalKernels::new(strategy);
            let mut plan = ExchangePlan::default();
            let mut d = summa2d_layer::<S>(
                rank, &grid, &a, &a_shared, &b_shared, &mut kernels, 24, &mut mem, &mut plan,
            )
            .expect("summa2d failed");
            d.sort_columns();
            let piece = CPiece {
                local: d,
                row_offset: a.row_range(&grid).start,
                global_cols: b.col_range(&grid).map(|c| c as u32).collect(),
            };
            gather_pieces(rank, &grid.world, vec![piece], m, n)
        });
        results.into_iter().next().unwrap().expect("root gathers C")
    }

    #[test]
    fn summa2d_matches_serial_u64() {
        let a = er_random::<PlusTimesU64>(48, 48, 5, 1).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(48, 48, 5, 2).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for p in [1usize, 4, 9, 16] {
            for strat in [KernelStrategy::New, KernelStrategy::Previous] {
                let c = run_summa2d::<PlusTimesU64>(p, a.clone(), b.clone(), strat);
                assert!(
                    c.eq_modulo_order(&reference),
                    "p={p} strategy={}",
                    strat.name()
                );
            }
        }
    }

    #[test]
    fn summa2d_rectangular_and_awkward_sizes() {
        // Dimensions not divisible by the grid side.
        let a = er_random::<PlusTimesU64>(37, 23, 4, 3).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(23, 31, 4, 4).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let c = run_summa2d::<PlusTimesU64>(9, a, b, KernelStrategy::New);
        assert!(c.eq_modulo_order(&reference));
    }

    #[test]
    fn summa2d_float_matches_serial() {
        let a = er_random::<PlusTimesF64>(40, 40, 4, 5);
        let b = er_random::<PlusTimesF64>(40, 40, 4, 6);
        let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        let c = run_summa2d::<PlusTimesF64>(4, a, b, KernelStrategy::New);
        assert!(c.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn summa2d_clock_accounts_all_steps() {
        let a = er_random::<PlusTimesF64>(32, 32, 4, 7);
        let b = er_random::<PlusTimesF64>(32, 32, 4, 8);
        let breakdowns = run_ranks(4, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 1);
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
            let a_shared = Arc::new(a.local.clone());
            #[allow(clippy::redundant_clone)] // `b` is used again below
            let b_shared = Arc::new(b.local.clone());
            let mut mem = MemTracker::new();
            let mut kernels = LocalKernels::new(KernelStrategy::New);
            summa2d_layer::<PlusTimesF64>(
                rank,
                &grid,
                &a,
                &a_shared,
                &b_shared,
                &mut kernels,
                24,
                &mut mem,
                &mut ExchangePlan::default(),
            )
            .unwrap();
            *rank.clock().breakdown()
        });
        for b in &breakdowns {
            assert!(b.secs_of(Step::ABcast) > 0.0);
            assert!(b.secs_of(Step::BBcast) > 0.0);
            assert!(b.secs_of(Step::LocalMultiply) > 0.0);
            assert!(b.secs_of(Step::MergeLayer) > 0.0);
            assert_eq!(b.secs_of(Step::AllToAllFiber), 0.0);
        }
    }
}
