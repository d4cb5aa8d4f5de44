//! Symbolic3D (Alg. 3): determine the number of batches `b`.
//!
//! A structure-only sweep with the same communication pattern as one full
//! (un-batched) SUMMA2D per layer: move the *patterns* of `Ã` and `B̃` per
//! stage (indices without values — [`schedule::payload_bytes`] sizes them),
//! run `LocalSymbolic` to count how many nonzeros the numeric stage *would*
//! produce, and accumulate the per-process **unmerged** total (the sum
//! over stages is exactly what must be resident before Merge-Layer — the
//! memory high-water mark the batch count must control).
//!
//! The final reduction takes the **maximum** per-process count (line 9) so
//! that no process exhausts its budget even under load imbalance: as the
//! paper notes, Symbolic3D deliberately over-batches for imbalanced
//! matrices relative to the perfectly-balanced Eq. 2 bound.

use crate::dist::DistMatrix;
use crate::exchange::{ExchangePlan, StagePending};
use crate::kernels::LocalKernels;
use crate::memory::{Footprint, MemoryBudget, R_BYTES_PER_NNZ};
use crate::schedule::{self, Op};
use crate::{CoreError, Result};
use spgemm_simgrid::{Grid3D, Rank, Step};
use spgemm_sparse::Semiring;
use std::sync::Arc;

/// Everything the symbolic step learns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolicOutcome {
    /// The batch count Alg. 3 line 12 computes (≥ 1).
    pub batches: usize,
    /// Maximum per-process unmerged intermediate nonzeros (`maxnnzC`).
    pub max_unmerged_nnz: u64,
    /// Total unmerged intermediate nonzeros across processes
    /// (`Σₖ nnz(D⁽ᵏ⁾)` plus intra-stage duplication; the paper's
    /// `mem(C)/r`).
    pub total_unmerged_nnz: u64,
    /// Maximum per-process `nnz(Ã)`.
    pub max_nnz_a: u64,
    /// Maximum per-process `nnz(B̃)`.
    pub max_nnz_b: u64,
    /// Global `nnz(A)` / `nnz(B)` (sums).
    pub total_nnz_a: u64,
    /// Global `nnz(B)`.
    pub total_nnz_b: u64,
    /// Total multiplication count (the paper's `flops`).
    pub flops: u64,
    /// Eq. 2's analytic lower bound on `b` under perfect balance
    /// (`None` when the inputs alone exceed the budget).
    pub eq2_lower_bound: Option<usize>,
    /// Largest unmerged intermediate of any *single output column* on any
    /// process. Column-wise batching cannot split below one column, so
    /// this drives the upper bound on what batching can achieve: if even
    /// one column's intermediate exceeds the leftover per-process memory,
    /// no batch count is feasible (the paper's contribution 3 discusses
    /// both bounds on `b`).
    pub max_col_unmerged_nnz: u64,
    /// The number of batches beyond which batching cannot be refined
    /// (one column per batch): `ncols(B)`.
    pub upper_bound: usize,
}

/// Run Symbolic3D and compute the batch count for `budget`.
///
/// Fails with [`CoreError::InputsExceedMemory`] when even `b → ∞` cannot
/// fit (Alg. 3's denominator is non-positive), which is exactly the regime
/// where the paper's premise `M > nnz(A) + nnz(B)` is violated.
///
/// `kernels` supplies the reusable symbolic accumulator; passing the same
/// engine later used for the numeric batches means the hash table warmed
/// up here is already sized when the numeric sweep begins. `plan` decides
/// how the structure-only stage operands move: the sweep walks the same
/// wire-table rows as the numeric stages it predicts, carrying patterns.
pub(crate) fn symbolic3d<S: Semiring>(
    rank: &mut Rank,
    grid: &Grid3D,
    a: &DistMatrix<S::T>,
    b: &DistMatrix<S::T>,
    budget: &MemoryBudget,
    kernels: &mut LocalKernels<S::T>,
    plan: &mut ExchangePlan,
) -> Result<SymbolicOutcome> {
    let a_shared = Arc::new(a.local.pattern());
    let b_shared = Arc::new(b.local.pattern());
    let world = &grid.world;
    let max_u64: fn(u64, u64) -> u64 = |x, y| x.max(y);
    let sum_u64: fn(u64, u64) -> u64 = |x, y| x + y;

    // Per-stage symbolic products, accumulated *unmerged* (Alg. 3 line 8),
    // plus the per-output-column accumulation that determines batching
    // feasibility (a batch cannot contain less than one column).
    let mut my_unmerged: u64 = 0;
    let mut my_flops: u64 = 0;
    let mut my_col_unmerged: Vec<u64> = vec![0; b.local.ncols()];
    let mut operands = None;
    let mut reduced = [0u64; 8];
    for op in schedule::symbolic(grid.pr) {
        match op {
            Op::Stage { .. } => {
                let steps = (Step::SymbolicComm, Step::SymbolicComm);
                let mut none_posted = StagePending::default();
                operands = plan.stage(
                    rank,
                    grid,
                    op,
                    &a_shared,
                    &b_shared,
                    steps,
                    &mut none_posted,
                );
            }
            Op::SymbolicCount => {
                let (a_recv, b_recv) = operands
                    .take()
                    .expect("a stage delivers before every count");
                let (counts, stats) = kernels.charged(rank, Step::SymbolicComp, |k| {
                    k.symbolic_col_counts(&a_recv, &b_recv)
                })?;
                my_unmerged += stats.nnz_out;
                my_flops += stats.flops;
                for (acc, c) in my_col_unmerged.iter_mut().zip(counts.iter()) {
                    *acc += c;
                }
            }
            // Global reductions (Alg. 3 lines 9–11) plus the sums needed for
            // the Eq. 2 bound and the cost-model validation: one allreduce
            // per action of the op's wire-table row.
            Op::SymbolicReduce => {
                let (nnz_a, nnz_b) = (a.local.nnz() as u64, b.local.nnz() as u64);
                let mine = [
                    (my_unmerged, max_u64),
                    (my_unmerged, sum_u64),
                    (nnz_a, max_u64),
                    (nnz_b, max_u64),
                    (nnz_a, sum_u64),
                    (nnz_b, sum_u64),
                    (my_flops, sum_u64),
                    (my_col_unmerged.iter().copied().max().unwrap_or(0), max_u64),
                ];
                assert_eq!(schedule::wire(op, plan.mode()).len(), mine.len());
                for (slot, (mine, f)) in reduced.iter_mut().zip(mine) {
                    *slot = rank.allreduce(world, mine, f, 8, Step::SymbolicComm);
                }
            }
            other => unreachable!("{other:?} is not a symbolic-sweep op"),
        }
    }
    let [max_unmerged, total_unmerged, max_nnz_a, max_nnz_b, total_nnz_a, total_nnz_b, flops, max_col_unmerged] =
        reduced;

    // Alg. 3 line 12: b = r·maxnnzC / (M/p − r·(maxnnzA + maxnnzB)).
    let batches = alg3_batch_count(
        budget.per_process(grid.p()),
        max_nnz_a,
        max_nnz_b,
        max_unmerged,
        max_col_unmerged,
        b.gcols.max(1),
    )?;

    let eq2_lower_bound = budget.eq2_lower_bound(
        R_BYTES_PER_NNZ * total_unmerged as usize,
        total_nnz_a as usize,
        total_nnz_b as usize,
    );

    Ok(SymbolicOutcome {
        batches,
        max_unmerged_nnz: max_unmerged,
        total_unmerged_nnz: total_unmerged,
        max_nnz_a,
        max_nnz_b,
        total_nnz_a,
        total_nnz_b,
        flops,
        eq2_lower_bound,
        max_col_unmerged_nnz: max_col_unmerged,
        upper_bound: b.gcols.max(1),
    })
}

/// Alg. 3 line 12 as a pure function of the reduced symbolic quantities:
/// the fewest batches that fit the per-process [`Footprint`] of the
/// heaviest inputs and unmerged intermediate, clamped to `upper_bound`
/// (one column per batch is the finest split).
///
/// Extracted from [`symbolic3d`] so the schedule auditor can
/// reproduce the exact batch count a run would choose — including both
/// failure modes — from modeled nonzero counts alone.
pub(crate) fn alg3_batch_count(
    per_proc_budget: usize,
    max_nnz_a: u64,
    max_nnz_b: u64,
    max_unmerged: u64,
    max_col_unmerged: u64,
    upper_bound: usize,
) -> Result<usize> {
    let footprint = Footprint {
        inputs: R_BYTES_PER_NNZ * (max_nnz_a + max_nnz_b) as usize,
        unmerged: R_BYTES_PER_NNZ * max_unmerged as usize,
    };
    let Some(batches) = footprint.fewest_batches(per_proc_budget) else {
        return Err(CoreError::InputsExceedMemory {
            needed_bytes: footprint.inputs,
            budget_bytes: per_proc_budget,
        });
    };
    // Upper-bound feasibility: column-wise batching cannot split a single
    // output column, so its intermediate must fit in the leftover memory.
    let (column_bytes, available_bytes) = (
        R_BYTES_PER_NNZ * max_col_unmerged as usize,
        per_proc_budget - footprint.inputs,
    );
    if column_bytes > available_bytes {
        return Err(CoreError::BatchingInfeasible {
            column_bytes,
            available_bytes,
        });
    }
    Ok(batches.min(upper_bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{scatter, DistKind};
    use crate::kernels::KernelStrategy;
    use spgemm_simgrid::{run_ranks, Machine, StepBreakdown};
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;
    use spgemm_sparse::spgemm::symbolic_nnz;
    use spgemm_sparse::CscMatrix;

    fn symbolic_on_grid(
        p: usize,
        l: usize,
        a: CscMatrix<f64>,
        b: CscMatrix<f64>,
        budget: MemoryBudget,
    ) -> (Vec<Result<SymbolicOutcome>>, Vec<StepBreakdown>) {
        let per_rank = run_ranks(p, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, l);
            let da = scatter(
                rank,
                &grid,
                DistKind::AStyle,
                (rank.rank() == 0).then(|| Arc::new(a.clone())),
            );
            let db = scatter(
                rank,
                &grid,
                DistKind::BStyle,
                (rank.rank() == 0).then(|| Arc::new(b.clone())),
            );
            let mut kernels = LocalKernels::new(KernelStrategy::default());
            let mut plan = ExchangePlan::default();
            let outcome = symbolic3d::<PlusTimesF64>(
                rank,
                &grid,
                &da,
                &db,
                &budget,
                &mut kernels,
                &mut plan,
            );
            (outcome, *rank.clock().breakdown())
        });
        per_rank.into_iter().unzip()
    }

    #[test]
    fn all_ranks_agree_on_outcome() {
        let a = er_random::<PlusTimesF64>(48, 48, 6, 31);
        let b = er_random::<PlusTimesF64>(48, 48, 6, 32);
        let (outcomes, _) = symbolic_on_grid(8, 2, a, b, MemoryBudget::new(24 * 100_000));
        let first = outcomes[0].clone().unwrap();
        for o in &outcomes {
            assert_eq!(o.clone().unwrap(), first);
        }
        assert_eq!(first.batches, 1, "huge budget needs one batch");
    }

    #[test]
    fn flops_match_serial_count() {
        let a = er_random::<PlusTimesF64>(40, 40, 5, 33);
        let b = er_random::<PlusTimesF64>(40, 40, 5, 34);
        let (_, serial) = symbolic_nnz(&a, &b).unwrap();
        for (p, l) in [(4, 1), (8, 2), (16, 4)] {
            let (outcomes, _) =
                symbolic_on_grid(p, l, a.clone(), b.clone(), MemoryBudget::unlimited());
            let o = outcomes[0].clone().unwrap();
            assert_eq!(o.flops, serial.flops, "p={p} l={l}: distributed flops must be exact");
        }
    }

    #[test]
    fn tighter_budget_means_more_batches() {
        let a = er_random::<PlusTimesF64>(64, 64, 8, 35);
        let b = er_random::<PlusTimesF64>(64, 64, 8, 36);
        let loose = symbolic_on_grid(
            4,
            1,
            a.clone(),
            b.clone(),
            MemoryBudget::new(24 * 1_000_000),
        )
        .0[0]
            .clone()
            .unwrap();
        let inputs = (a.nnz() + b.nnz()) * 24;
        let tight = symbolic_on_grid(4, 1, a, b, MemoryBudget::new(inputs * 4 + 4096)).0[0]
            .clone()
            .unwrap();
        assert!(tight.batches > loose.batches, "{} vs {}", tight.batches, loose.batches);
    }

    #[test]
    fn exact_b_at_least_eq2_bound() {
        // The max-based Alg. 3 count dominates the perfectly-balanced
        // analytic bound.
        let a = er_random::<PlusTimesF64>(60, 60, 7, 37);
        let b = er_random::<PlusTimesF64>(60, 60, 7, 38);
        let inputs = (a.nnz() + b.nnz()) * 24;
        for (p, l) in [(4, 1), (16, 4)] {
            let o = symbolic_on_grid(p, l, a.clone(), b.clone(), MemoryBudget::new(inputs * 3)).0
                [0]
            .clone()
            .unwrap();
            let bound = o.eq2_lower_bound.expect("inputs fit");
            assert!(
                o.batches >= bound,
                "p={p} l={l}: exact b {} below Eq. 2 bound {bound}",
                o.batches
            );
        }
    }

    #[test]
    fn inputs_exceeding_memory_is_an_error() {
        let a = er_random::<PlusTimesF64>(32, 32, 6, 39);
        let b = er_random::<PlusTimesF64>(32, 32, 6, 40);
        let (res, _) = symbolic_on_grid(4, 1, a, b, MemoryBudget::new(64));
        assert!(matches!(res[0], Err(CoreError::InputsExceedMemory { .. })));
    }

    #[test]
    fn symbolic_step_records_comm_and_comp() {
        let a = er_random::<PlusTimesF64>(32, 32, 4, 41);
        let b = er_random::<PlusTimesF64>(32, 32, 4, 42);
        let (_, breakdowns) = symbolic_on_grid(4, 1, a, b, MemoryBudget::unlimited());
        for bd in &breakdowns {
            assert!(bd.secs_of(Step::SymbolicComm) > 0.0);
            assert!(bd.secs_of(Step::SymbolicComp) > 0.0);
        }
    }
}
