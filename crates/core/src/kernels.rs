//! Local kernel strategies: the *previous generation* (sorted, heap/hybrid
//! — CombBLAS SUMMA3D \[13\] with the hybrid kernel of \[25\]) versus
//! **this paper's** sort-free unsorted-hash pipeline (Sec. IV-D).
//!
//! The strategy decides three things at once, because sortedness must be
//! consistent across the pipeline: how Local-Multiply forms columns, how
//! Merge-Layer combines stage outputs, and how Merge-Fiber combines layer
//! pieces. Under `Previous` every intermediate stays sorted; under `New`
//! only the final Merge-Fiber output is sorted.

use crate::backend::BackendKind;
use spgemm_simgrid::{Rank, Step};
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted, merge_heap};
use spgemm_sparse::par::RangeBalance;
use spgemm_sparse::spgemm::{spgemm_hash_unsorted, spgemm_hybrid, symbolic_col_counts};
use spgemm_sparse::{CscMatrix, Semiring, Sortedness, SpGemmWorkspace, WorkStats};
use std::time::Instant;

/// Which local-kernel generation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// Prior work \[13, 25\]: hybrid (hash-or-heap) sorted SpGEMM,
    /// heap-based merging, everything kept sorted.
    Previous,
    /// This paper: unsorted-hash SpGEMM and hash merging; only the final
    /// Merge-Fiber output is sorted.
    #[default]
    New,
}

impl KernelStrategy {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelStrategy::Previous => "previous(heap/hybrid,sorted)",
            KernelStrategy::New => "new(unsorted-hash)",
        }
    }

    /// The column-order contract of this generation's *intermediates*
    /// (Local-Multiply and Merge-Layer outputs). `Previous` keeps
    /// everything sorted; `New` defers sorting to Merge-Fiber (Sec. IV-D).
    pub(crate) fn intermediate_sortedness(self) -> Sortedness {
        match self {
            KernelStrategy::Previous => Sortedness::Sorted,
            KernelStrategy::New => Sortedness::Unsorted,
        }
    }
}

/// A rank's local-kernel engine: the chosen [`KernelStrategy`] bound to
/// long-lived [`SpGemmWorkspace`] arenas so every Local-Multiply,
/// Merge-Layer, Merge-Fiber and symbolic sweep on the rank reuses one set
/// of scratch buffers across SUMMA stages and batches (allocation-free hot
/// paths).
///
/// The engine holds one arena per kernel thread of its [`BackendKind`]:
/// one under the default `Simgrid` backend (kernels run inline), `threads`
/// under `Native` (kernels split their output columns over that many
/// threads; see [`spgemm_sparse::par`]). Each arena is owned by exactly one
/// thread for the duration of a kernel call — the column ranges are
/// disjoint, so no sharing, no locking. Output is bit-identical either way.
///
/// Also accumulates the per-rank [`WorkStats`] totals — flops, output nnz,
/// work units, and the arenas' allocation/byte counters — and the
/// per-thread [`RangeBalance`], which the harness surfaces in reports.
pub struct LocalKernels<T: Copy> {
    strategy: KernelStrategy,
    backend: BackendKind,
    scratch: Vec<SpGemmWorkspace<T>>,
    totals: WorkStats,
    balance: RangeBalance,
}

impl<T: Copy> std::fmt::Debug for LocalKernels<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalKernels")
            .field("strategy", &self.strategy)
            .field("backend", &self.backend)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl<T: Copy> LocalKernels<T> {
    /// Fresh engine for one rank; scratch starts empty and warms up over
    /// the first stages. Runs the default modeled-clock backend.
    pub fn new(strategy: KernelStrategy) -> Self {
        Self::with_backend(strategy, BackendKind::Simgrid)
    }

    /// Fresh engine bound to an explicit backend.
    pub(crate) fn with_backend(strategy: KernelStrategy, backend: BackendKind) -> Self {
        LocalKernels {
            strategy,
            backend,
            scratch: (0..backend.threads()).map(|_| SpGemmWorkspace::new()).collect(),
            totals: WorkStats::default(),
            balance: RangeBalance::default(),
        }
    }

    /// The kernel generation this engine runs.
    pub(crate) fn strategy(&self) -> KernelStrategy {
        self.strategy
    }

    /// Accumulated stats over every kernel invocation so far.
    pub(crate) fn totals(&self) -> WorkStats {
        self.totals
    }

    /// Accumulated per-thread load balance of the multi-range kernel calls
    /// (default/empty when every call ran on one arena).
    pub(crate) fn balance(&self) -> RangeBalance {
        self.balance
    }

    /// Fold one kernel invocation into the totals and the balance.
    fn record<R>(&mut self, (out, stats, bal): (R, WorkStats, RangeBalance)) -> (R, WorkStats) {
        self.totals.merge(stats);
        self.balance.merge(bal);
        (out, stats)
    }

    /// Local-Multiply: one SUMMA stage's `Ã_recv · B̃_recv`.
    pub fn local_multiply<S: Semiring<T = T>>(
        &mut self,
        a: &CscMatrix<T>,
        b: &CscMatrix<T>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let out = match self.strategy {
            KernelStrategy::Previous => spgemm_hybrid::<S>(a, b, &mut self.scratch)?,
            KernelStrategy::New => spgemm_hash_unsorted::<S>(a, b, &mut self.scratch)?,
        };
        spgemm_sparse::debug_validate!(
            out.0,
            self.strategy.intermediate_sortedness(),
            "Local-Multiply output ({})",
            self.strategy.name()
        );
        Ok(self.record(out))
    }

    /// Merge-Layer: combine the per-stage partial products within a layer.
    pub fn merge_layer<S: Semiring<T = T>>(
        &mut self,
        parts: &[CscMatrix<T>],
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let out = match self.strategy {
            KernelStrategy::Previous => merge_heap::<S>(parts, &mut self.scratch)?,
            KernelStrategy::New => merge_hash_unsorted::<S>(parts, &mut self.scratch)?,
        };
        spgemm_sparse::debug_validate!(
            out.0,
            self.strategy.intermediate_sortedness(),
            "Merge-Layer output ({}, {} parts)",
            self.strategy.name(),
            parts.len()
        );
        Ok(self.record(out))
    }

    /// Merge-Fiber: combine the per-layer pieces. Both strategies produce
    /// sorted output here — the final matrix is conventionally sorted
    /// (Sec. IV-D keeps exactly this one result sorted).
    pub fn merge_fiber<S: Semiring<T = T>>(
        &mut self,
        parts: &[CscMatrix<T>],
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let out = match self.strategy {
            KernelStrategy::Previous => merge_heap::<S>(parts, &mut self.scratch)?,
            KernelStrategy::New => merge_hash_sorted::<S>(parts, &mut self.scratch)?,
        };
        spgemm_sparse::debug_validate!(
            out.0,
            Sortedness::Sorted,
            "Merge-Fiber output ({}, {} parts)",
            self.strategy.name(),
            parts.len()
        );
        Ok(self.record(out))
    }

    /// `LocalSymbolic` (Alg. 3) on the arenas' structure-only accumulators;
    /// the operands' values are never read, so patterns serve.
    pub(crate) fn symbolic_col_counts<U: Copy + Sync>(
        &mut self,
        a: &CscMatrix<U>,
        b: &CscMatrix<U>,
    ) -> spgemm_sparse::Result<(Vec<u64>, WorkStats)>
    where
        T: Send,
    {
        let out = symbolic_col_counts(a, b, &mut self.scratch)?;
        Ok(self.record(out))
    }

    /// Run one kernel call (`run`, one of the methods above) and charge it
    /// to `rank`'s clock under `step` — modeled work units or measured
    /// seconds, per the backend.
    pub(crate) fn charged<R>(
        &mut self,
        rank: &mut Rank,
        step: Step,
        run: impl FnOnce(&mut Self) -> spgemm_sparse::Result<(R, WorkStats)>,
    ) -> spgemm_sparse::Result<(R, WorkStats)> {
        let t0 = Instant::now();
        let (out, stats) = run(self)?;
        self.backend.charge(rank, step, &stats, t0.elapsed().as_secs_f64());
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesU64 as S;

    fn engines() -> (LocalKernels<u64>, LocalKernels<u64>) {
        (
            LocalKernels::new(KernelStrategy::Previous),
            LocalKernels::new(KernelStrategy::New),
        )
    }

    #[test]
    fn strategies_agree_on_products() {
        let a = er_random::<S>(50, 50, 5, 1).map(|_| 1u64);
        let b = er_random::<S>(50, 50, 5, 2).map(|_| 1u64);
        let (mut prev, mut new) = engines();
        let (c_prev, _) = prev.local_multiply::<S>(&a, &b).unwrap();
        let (c_new, _) = new.local_multiply::<S>(&a, &b).unwrap();
        assert!(c_prev.eq_modulo_order(&c_new));
        assert!(c_prev.is_sorted(), "previous keeps intermediates sorted");
    }

    #[test]
    fn strategies_agree_on_merges() {
        let parts: Vec<_> = (0..4)
            .map(|s| er_random::<S>(40, 20, 3, 10 + s).map(|_| 1u64))
            .collect();
        let (mut prev, mut new) = engines();
        let (m_prev, _) = prev.merge_layer::<S>(&parts).unwrap();
        let (m_new, _) = new.merge_layer::<S>(&parts).unwrap();
        assert!(m_prev.eq_modulo_order(&m_new));
        let (f_prev, _) = prev.merge_fiber::<S>(&parts).unwrap();
        let (f_new, _) = new.merge_fiber::<S>(&parts).unwrap();
        assert!(f_prev.eq_modulo_order(&f_new));
        assert!(f_new.is_sorted(), "final merge-fiber output must be sorted");
        assert!(f_prev.is_sorted());
    }

    #[test]
    fn local_kernels_accumulate_totals_and_reuse_scratch() {
        let mut engine = LocalKernels::<u64>::new(KernelStrategy::New);
        let a = er_random::<S>(60, 60, 6, 11).map(|_| 1u64);
        let b = er_random::<S>(60, 60, 6, 12).map(|_| 1u64);
        engine.local_multiply::<S>(&a, &b).unwrap();
        let warm_allocs = engine.totals().allocs;
        let warm_scratch = engine.scratch[0].scratch_bytes();
        assert!(warm_allocs > 0);
        // Same-shape repeats only pay the exact-size output copies (3
        // allocations per call), never scratch growth.
        for _ in 0..5 {
            engine.local_multiply::<S>(&a, &b).unwrap();
        }
        assert_eq!(engine.totals().allocs, warm_allocs + 5 * 3);
        assert_eq!(engine.scratch[0].scratch_bytes(), warm_scratch);
        assert!(engine.totals().flops > 0);
        assert!(engine.totals().memcpy_bytes > 0);
    }

    #[test]
    fn new_pipeline_consumes_its_own_unsorted_output() {
        // Merge-layer of unsorted local products must work (heap merge
        // would reject them) — the crux of the sort-free pipeline.
        let a = er_random::<S>(60, 60, 6, 3).map(|_| 1u64);
        let b = er_random::<S>(60, 60, 6, 4).map(|_| 1u64);
        let mut new = LocalKernels::<u64>::new(KernelStrategy::New);
        let (c1, _) = new.local_multiply::<S>(&a, &b).unwrap();
        let (c2, _) = new.local_multiply::<S>(&b, &a).unwrap();
        let (merged, _) = new.merge_layer::<S>(&[c1, c2]).unwrap();
        assert!(merged.nnz() > 0);
    }
}
