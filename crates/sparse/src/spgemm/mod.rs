//! Local SpGEMM kernels.
//!
//! Three generations of kernels, mirroring the paper's Sec. IV-D narrative:
//!
//! * [`heap::spgemm_heap`] — the multithreaded *heap* kernel of the original
//!   SUMMA3D work \[13\]: columns formed by k-way merging sorted columns of
//!   `A`; output always sorted.
//! * [`hybrid::spgemm_hybrid`] — the *hybrid* kernel of \[25\]: per column,
//!   chooses a heap or a hash accumulator depending on the column's
//!   compression characteristics, then sorts the column.
//! * [`hash::spgemm_hash_unsorted`] — **this paper's** sort-free kernel:
//!   hash accumulation, no sorting of inputs required, unsorted output. Its
//!   accumulator (`accum::HashAccum`) indexes the table by row — SPA-style
//!   — for columns whose flop bound is at least half the block's rows, where
//!   the table has that many slots anyway; the hybrid kernel's hash path,
//!   the hash merges and the symbolic sweep share it.
//! * [`dense_acc::spgemm_spa`] — a dense sparse-accumulator (Gustavson/SPA)
//!   reference with an unconditional `nrows`-sized array: independent of
//!   `accum`, used as the oracle in tests.
//! * `symbolic` — hash-based nnz counting (`LocalSymbolic` in Alg. 3).
//!
//! Every kernel returns [`WorkStats`]: real flop counts plus abstract
//! *work units* that `spgemm-simgrid`'s machine model converts to modeled
//! seconds. Work-unit constants encode the relative per-element costs of the
//! accumulator data structures (heap ops and sorts cost more per element
//! than hash probes), calibrated so that the previous-vs-new kernel ratios
//! land in the ranges the paper reports (Table VII, Fig. 15).

pub(crate) mod accum;
pub(crate) mod dense_acc;
pub(crate) mod hash;
pub(crate) mod heap;
pub(crate) mod hybrid;
pub(crate) mod symbolic;
pub(crate) mod workspace;

pub use dense_acc::spgemm_spa;
pub use hash::spgemm_hash_unsorted;
pub use heap::spgemm_heap;
pub use hybrid::spgemm_hybrid;
pub use symbolic::{symbolic_col_counts, symbolic_col_counts_fresh, symbolic_nnz};
pub use workspace::SpGemmWorkspace;

/// Work performed by a local kernel, in both physical and modeled units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkStats {
    /// Scalar semiring multiplications performed (the paper's `flops`).
    pub flops: u64,
    /// Nonzeros in the kernel's output.
    pub nnz_out: u64,
    /// Abstract work units for the α–β machine model (dimensionless;
    /// multiplied by a machine's seconds-per-unit and divided by its
    /// threads-per-process).
    pub work_units: f64,
    /// Heap allocations performed for scratch and output during the
    /// invocation (vector growth events, accumulator-table growths, and
    /// the exact-size output copies). Zero-cost in the α–β model but the
    /// quantity the workspace reuse of Sec. IV-D's "reusable workhorse
    /// collections" eliminates; see the `criterion_workspace` bench.
    pub allocs: u64,
    /// High-water mark of reusable scratch (accumulator tables, output
    /// arenas, heap/cursor buffers) in bytes. Aggregates by `max`, not sum.
    pub peak_scratch_bytes: u64,
    /// Bytes copied from reusable arenas into finished (exact-size)
    /// outputs.
    pub memcpy_bytes: u64,
}

impl WorkStats {
    /// Accumulate another kernel invocation's stats. Counters sum except
    /// `peak_scratch_bytes`, which is a high-water mark (max).
    pub fn merge(&mut self, other: WorkStats) {
        self.flops += other.flops;
        self.nnz_out += other.nnz_out;
        self.work_units += other.work_units;
        self.allocs += other.allocs;
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(other.peak_scratch_bytes);
        self.memcpy_bytes += other.memcpy_bytes;
    }
}

impl std::ops::Add for WorkStats {
    type Output = WorkStats;
    fn add(mut self, rhs: WorkStats) -> WorkStats {
        self.merge(rhs);
        self
    }
}

/// Per-flop cost of a hash-accumulator insert/update (baseline unit).
pub const C_HASH_FLOP: f64 = 1.0;
/// Per-output-nonzero cost of draining a hash accumulator.
pub const C_DRAIN: f64 = 0.5;
/// Per-flop, per-log₂(streams) cost of a heap pop/push. Heaps suffer
/// branchy comparisons and poor locality relative to linear probing.
pub const C_HEAP_FLOP: f64 = 1.6;
/// Per-element, per-log₂(length) cost of sorting a finished column.
pub const C_SORT: f64 = 0.6;
/// Per-integer cost of the varint codec of the fetch wire format, charged
/// once by the side that would encode a message and once by the side that
/// would decode it. The model charges what a real implementation's codec
/// costs; the host runs none — it moves the matrices and only sizes each
/// message ([`crate::subset::request_len`], [`crate::subset::tile_len`],
/// [`crate::subset::coded_len`]).
///
/// Measured, not fitted: the ignored `codec_cost` test of the sparse
/// crate's `codec_proptests` (a host timing of the reference codec over one
/// rank's nine reply tiles of the reads × k-mers `A·Aᵀ`,
/// ≈12 700 coded integers each) reads 4.4–4.6 ns per coded integer per
/// side (encode ≈ 5.0, decode ≈ 4.0, the decode including the full-width
/// column pointer) on a 2-core Xeon. Against `sparse.multiply_ns_per_flop`
/// = 12.4–16.3 ns of the tracked benchmark's `kmer-aat-membound`, the
/// workload the codec serves, that is 0.27–0.37 hash flops. On the products
/// of the tiles themselves the same test's hash kernel runs at 7.7–8.2
/// ns/flop (ratio 0.57): one more instance of the per-flop spread a single
/// `C_HASH_FLOP` stands for (ROADMAP item 10).
pub const C_CODEC: f64 = 0.3;
/// Per-input-element cost of hash merging (no multiplication, just ⊕).
pub const C_MERGE_HASH: f64 = 0.8;
/// Per-element, per-log₂(k) cost of heap merging `k` sorted matrices.
pub const C_MERGE_HEAP: f64 = 2.2;
/// Per-flop cost of the sparse×dense (SpMM) scatter-accumulate: no hash
/// probe, no drain — a direct indexed add into the dense output column —
/// so it is cheaper than a hash flop. The planner's 1.5D compute terms
/// use this same constant (`predict` mirrors the kernel exactly).
pub const C_SPMM_FLOP: f64 = 0.4;

/// log₂ clamped below at 1 (so a single stream still costs one comparison).
#[inline]
pub(crate) fn lg(x: usize) -> f64 {
    (x.max(2) as f64).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workstats_merge_adds_fields() {
        let mut a = WorkStats {
            flops: 10,
            nnz_out: 4,
            work_units: 12.5,
            allocs: 3,
            peak_scratch_bytes: 100,
            memcpy_bytes: 64,
        };
        a.merge(WorkStats {
            flops: 5,
            nnz_out: 1,
            work_units: 2.5,
            allocs: 2,
            peak_scratch_bytes: 250,
            memcpy_bytes: 16,
        });
        assert_eq!(a.flops, 15);
        assert_eq!(a.nnz_out, 5);
        assert!((a.work_units - 15.0).abs() < 1e-12);
        assert_eq!(a.allocs, 5);
        assert_eq!(a.peak_scratch_bytes, 250, "peak is a high-water mark");
        assert_eq!(a.memcpy_bytes, 80);
    }

    #[test]
    fn lg_is_clamped() {
        assert_eq!(lg(0), 1.0);
        assert_eq!(lg(1), 1.0);
        assert_eq!(lg(2), 1.0);
        assert_eq!(lg(8), 3.0);
    }
}
