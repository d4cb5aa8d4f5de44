//! The paper's memory model and runtime footprint tracking.
//!
//! Storage model (Sec. IV-A): a stored nonzero costs [`R_BYTES_PER_NNZ`]
//! bytes, the paper's `r = 24` (two 8-byte indices plus an 8-byte value).
//! The aggregate budget `M` covers the inputs plus one batch's unmerged
//! intermediate output. That shape, `inputs + ⌈unmerged/b⌉`, and its
//! inverse are [`Footprint`]: Alg. 3 turns a per-process budget into a
//! batch count with it, Eq. 2 gives the analytic lower bound on that count
//! with it aggregated over the processes, and the auditor, the planner
//! and serve admission read the same two methods.
//!
//! [`MemTracker`] follows the modeled footprint of one rank through a run
//! so tests can assert the central invariant: *with the symbolic batch
//! count, no rank ever exceeds its per-process budget.* The SUMMA driver's
//! op loop is the only code that charges it.

/// The paper's bytes per stored nonzero (16 bytes of indices + 8 of value).
pub const R_BYTES_PER_NNZ: usize = 24;

/// An aggregate memory budget for the whole simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Total bytes across all processes (the paper's `M`).
    pub total_bytes: usize,
}

impl MemoryBudget {
    /// Budget of `total_bytes`.
    pub fn new(total_bytes: usize) -> Self {
        MemoryBudget { total_bytes }
    }

    /// Effectively unlimited budget (forces `b = 1` unless overridden).
    pub fn unlimited() -> Self {
        MemoryBudget::new(usize::MAX / 2)
    }

    /// Whether this is the [`MemoryBudget::unlimited`] sentinel — the case
    /// where the symbolic batch count is always 1, so an iterative session
    /// can skip re-running the symbolic sweep every iteration.
    pub fn is_unlimited(&self) -> bool {
        self.total_bytes >= usize::MAX / 2
    }

    /// Per-process budget `M/p`.
    pub fn per_process(&self, p: usize) -> usize {
        self.total_bytes / p
    }

    /// Eq. 2: the analytic lower bound on the number of batches, given the
    /// total memory needed for the (unmerged) output and the input sizes.
    /// Returns `None` when the inputs alone exhaust the budget.
    pub(crate) fn eq2_lower_bound(
        &self,
        mem_c_bytes: usize,
        nnz_a: usize,
        nnz_b: usize,
    ) -> Option<usize> {
        Footprint {
            inputs: R_BYTES_PER_NNZ * (nnz_a + nnz_b),
            unmerged: mem_c_bytes,
        }
        .fewest_batches(self.total_bytes)
    }
}

/// The memory shape Eq. 2 and Alg. 3 share, in bytes: `inputs` stay
/// resident for the whole multiply, while column batching divides the
/// `unmerged` intermediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Irreducible bytes: the resident inputs.
    pub inputs: usize,
    /// Batch-divisible bytes: the unmerged intermediate at `b = 1`.
    pub unmerged: usize,
}

impl Footprint {
    /// Bytes held at batch count `b` (read as 1 when 0):
    /// `inputs + ⌈unmerged/b⌉`, saturating.
    pub(crate) fn at(&self, b: usize) -> usize {
        self.inputs.saturating_add(self.unmerged.div_ceil(b.max(1)))
    }

    /// The least `b ≥ 1` with `inputs + ⌈unmerged/b⌉ ≤ budget` — Alg. 3
    /// line 12, `⌈unmerged / (budget − inputs)⌉` — or `None` when the
    /// inputs alone exhaust `budget`.
    pub(crate) fn fewest_batches(&self, budget: usize) -> Option<usize> {
        let room = budget.checked_sub(self.inputs).filter(|&room| room > 0)?;
        Some(self.unmerged.div_ceil(room).max(1))
    }
}

/// Modeled memory footprint of one rank over time.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemTracker {
    current: usize,
    peak: usize,
}

impl MemTracker {
    /// Fresh tracker at zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record an allocation of `bytes`.
    pub(crate) fn alloc(&mut self, bytes: usize) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    /// Record a release of `bytes`. Releasing more than is held is a
    /// ledger bug and panics.
    pub(crate) fn free(&mut self, bytes: usize) {
        assert!(
            bytes <= self.current,
            "ledger releases {bytes} bytes but holds {}",
            self.current
        );
        self.current -= bytes;
    }

    /// Peak modeled bytes seen so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Byte counts that hit the edges — 0, 1, `usize::MAX` and one below
    /// it — besides small and arbitrary ones.
    fn bytes() -> impl Strategy<Value = usize> {
        (0..6usize, 0..10_000usize, 0..=usize::MAX)
            .prop_map(|(pick, small, any)| [0, 1, usize::MAX, usize::MAX - 1, small, any][pick])
    }

    proptest! {
        /// `at` never overflows, and `fewest_batches` is the least `b`
        /// whose exact footprint fits `budget`, `None` exactly when
        /// `budget ≤ inputs`.
        #[test]
        fn footprint_inverse_is_the_least_fitting_b(
            inputs in bytes(),
            unmerged in bytes(),
            b in bytes(),
            pick in 0..6usize,
            any_budget in bytes(),
        ) {
            let fp = Footprint { inputs, unmerged };
            let exact = |b: usize| inputs as u128 + unmerged.div_ceil(b.max(1)) as u128;
            prop_assert_eq!(fp.at(b) as u128, exact(b).min(usize::MAX as u128));
            let budget = [0, 1, inputs, inputs.saturating_add(1), usize::MAX, any_budget][pick];
            match fp.fewest_batches(budget) {
                None => prop_assert!(budget <= inputs),
                Some(least) => {
                    prop_assert!(budget > inputs);
                    prop_assert!(least >= 1);
                    prop_assert!(exact(least) <= budget as u128);
                    prop_assert!(least == 1 || exact(least - 1) > budget as u128);
                }
            }
        }
    }

    #[test]
    fn eq2_matches_paper_arithmetic() {
        // M = 100 units of r... work in bytes: r=24.
        let budget = MemoryBudget::new(24 * 1000);
        // mem(C) = 24 * 5000 bytes, inputs 300 nnz total.
        let b = budget.eq2_lower_bound(24 * 5000, 200, 100).unwrap();
        // denom = 24000 - 7200 = 16800; ceil(120000/16800) = 8.
        assert_eq!(b, 8);
    }

    #[test]
    fn eq2_is_one_when_memory_ample() {
        let budget = MemoryBudget::unlimited();
        assert_eq!(budget.eq2_lower_bound(1 << 40, 1000, 1000), Some(1));
    }

    #[test]
    fn eq2_none_when_inputs_too_big() {
        let budget = MemoryBudget::new(24 * 100);
        assert_eq!(budget.eq2_lower_bound(1, 80, 30), None);
    }

    #[test]
    fn tracker_tracks_peak() {
        let mut t = MemTracker::new();
        t.alloc(100);
        t.alloc(50);
        t.free(120);
        t.alloc(10);
        assert_eq!(t.current, 40);
        assert_eq!(t.peak(), 150);
    }

    #[test]
    #[should_panic(expected = "ledger releases 11 bytes but holds 10")]
    fn tracker_over_release_panics() {
        let mut t = MemTracker::new();
        t.alloc(10);
        t.free(11);
    }
}
