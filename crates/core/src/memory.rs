//! The paper's memory model and runtime footprint tracking.
//!
//! Storage model (Sec. IV-A): a nonzero costs `r` bytes — the paper uses
//! `r = 24` (two 8-byte indices plus an 8-byte value). The aggregate
//! budget `M` covers the inputs plus one batch's unmerged intermediate
//! output; Alg. 3 turns a budget into a batch count, and Eq. 2 gives the
//! analytic lower bound on that count.
//!
//! [`MemTracker`] follows the modeled footprint of one rank through a run
//! so tests can assert the central invariant: *with the symbolic batch
//! count, no rank ever exceeds its per-process budget.*

/// The paper's default bytes-per-nonzero (16 bytes of indices + 8 of value).
pub const R_BYTES_PER_NNZ: usize = 24;

/// An aggregate memory budget for the whole simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Total bytes across all processes (the paper's `M`).
    pub total_bytes: usize,
    /// Bytes per stored nonzero (the paper's `r`).
    pub r: usize,
}

impl MemoryBudget {
    /// Budget of `total_bytes` with the paper's default `r`.
    pub fn new(total_bytes: usize) -> Self {
        MemoryBudget {
            total_bytes,
            r: R_BYTES_PER_NNZ,
        }
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
        let inputs = self.r * (nnz_a + nnz_b);
        if self.total_bytes <= inputs {
            return None;
        }
        let denom = self.total_bytes - inputs;
        Some(mem_c_bytes.div_ceil(denom).max(1))
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

    /// Record a release of `bytes` (saturating: double-frees in the model
    /// clamp to zero rather than panicking mid-simulation).
    pub(crate) fn free(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Peak modeled bytes seen so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn tracker_free_saturates() {
        let mut t = MemTracker::new();
        t.alloc(10);
        t.free(100);
        assert_eq!(t.current, 0);
    }
}
