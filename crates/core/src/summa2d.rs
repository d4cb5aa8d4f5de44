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
//!
//! The stage order — blocking or pipelined — is [`crate::schedule::iteration`]
//! and the operand movement is [`crate::exchange`]; this module holds the
//! layer's two compute ops.

use crate::exchange::OperandPair;
use crate::kernels::LocalKernels;
use crate::Result;
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::{CscMatrix, Semiring};

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

/// The per-stage partial products of one batch on one layer. The paper
/// merges once after all stages (Sec. III-A): merging incrementally is
/// costlier in the worst case.
pub(crate) struct StageAccumulator<T: Copy> {
    partials: Vec<CscMatrix<T>>,
}

impl<T: Copy> StageAccumulator<T> {
    pub(crate) fn new(stages: usize) -> Self {
        StageAccumulator {
            partials: Vec::with_capacity(stages),
        }
    }

    /// Local-Multiply of the operands a stage delivered, executed and
    /// clock-charged by the backend; the partial is kept for the merge and
    /// returned.
    /// `kernels` is the rank's long-lived engine: its scratch is reused
    /// across every stage, batch and layer, so steady-state stages run
    /// allocation-free.
    pub(crate) fn multiply<S: Semiring<T = T>>(
        &mut self,
        rank: &mut Rank,
        grid: &Grid3D,
        kernels: &mut LocalKernels<T>,
        (a_recv, b_recv): &OperandPair<T>,
    ) -> Result<&CscMatrix<T>> {
        let s = self.partials.len();
        debug_assert_eq!(
            a_recv.ncols(),
            b_recv.nrows(),
            "stage {s}: A column slice and B row slice must conform \
             (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        for (operand, name) in [(a_recv, "A"), (b_recv, "B")] {
            spgemm_sparse::debug_validate!(
                **operand,
                spgemm_sparse::Sortedness::Sorted,
                "stage {s} {name} operand (layer {}, row {}, col {})",
                grid.k,
                grid.i,
                grid.j
            );
        }
        let (partial, _stats) = kernels.charged(rank, Step::LocalMultiply, |k| {
            k.local_multiply::<S>(a_recv, b_recv)
        })?;
        self.partials.push(partial);
        Ok(self.partials.last().expect("pushed above"))
    }

    /// Merge-Layer: combine the per-stage partials into `D̃⁽ᵏ⁾` (rows:
    /// `A`'s row block `i`; columns: the batch's local columns) and start
    /// over for the next batch.
    pub(crate) fn merge<S: Semiring<T = T>>(
        &mut self,
        rank: &mut Rank,
        kernels: &mut LocalKernels<T>,
    ) -> Result<CscMatrix<T>> {
        let (merged, _stats) = kernels.charged(rank, Step::MergeLayer, |k| {
            k.merge_layer::<S>(&self.partials)
        })?;
        self.partials.clear();
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelStrategy;
    // Pure 2D SUMMA is the one driver on a single layer.
    use crate::summa3d::tests::run_summa3d;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    #[test]
    fn summa2d_matches_serial_u64() {
        let a = er_random::<PlusTimesU64>(48, 48, 5, 1).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(48, 48, 5, 2).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for p in [1usize, 4, 9, 16] {
            for strat in [KernelStrategy::New, KernelStrategy::Previous] {
                let (c, _) = run_summa3d::<PlusTimesU64>(p, 1, &a, &b, strat);
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
        let (c, _) = run_summa3d::<PlusTimesU64>(9, 1, &a, &b, KernelStrategy::New);
        assert!(c.eq_modulo_order(&reference));
    }

    #[test]
    fn summa2d_float_matches_serial() {
        let a = er_random::<PlusTimesF64>(40, 40, 4, 5);
        let b = er_random::<PlusTimesF64>(40, 40, 4, 6);
        let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        let (c, _) = run_summa3d::<PlusTimesF64>(4, 1, &a, &b, KernelStrategy::New);
        assert!(c.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn summa2d_clock_accounts_all_steps() {
        let a = er_random::<PlusTimesF64>(32, 32, 4, 7);
        let b = er_random::<PlusTimesF64>(32, 32, 4, 8);
        let (_, breakdowns) = run_summa3d::<PlusTimesF64>(4, 1, &a, &b, KernelStrategy::New);
        for b in &breakdowns {
            assert!(b.secs_of(Step::ABcast) > 0.0);
            assert!(b.secs_of(Step::BBcast) > 0.0);
            assert!(b.secs_of(Step::LocalMultiply) > 0.0);
            assert!(b.secs_of(Step::MergeLayer) > 0.0);
            assert_eq!(b.secs_of(Step::AllToAllFiber), 0.0);
        }
    }
}
