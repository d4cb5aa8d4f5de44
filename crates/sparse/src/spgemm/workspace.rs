//! Reusable kernel workspace: allocation-free hot paths for local SpGEMM
//! and merge.
//!
//! The distributed pipeline calls a local kernel once per SUMMA stage and
//! a merge kernel once per layer/fiber — on every batch. Naively each call
//! allocates its hash table, its heap/cursor scratch, and grows its output
//! vectors geometrically from empty, so a `b`-batch, `√(p/l)`-stage run
//! performs thousands of heap allocations that the paper's "reusable
//! workhorse collection" design (Sec. IV-D) is explicitly about avoiding.
//!
//! [`SpGemmWorkspace`] owns every piece of reusable state — the numeric
//! and symbolic [`HashAccum`]s, the symbolic sweep's column-bitset table,
//! the k-way-merge heap and cursors, and output arenas for
//! `colptr`/`rowidx`/`vals` — with monotonically growing capacity. The
//! kernels build their result in the arenas (preallocated
//! to the kernel's own upper bound: the per-column `ub`/`total_in`, each
//! capped at `nrows`, summed) and finish with one exact-size copy
//! per buffer, so a warmed-up workspace performs a small constant number
//! of allocations per kernel call instead of `O(log nnz)` growth events
//! per vector plus a table reallocation per column-size regime.
//!
//! The workspace also meters itself: allocation events, the scratch
//! high-water mark, and bytes memcpy'd into finished outputs flow into
//! [`WorkStats`](super::WorkStats) so the savings are observable in
//! reports and benches (`criterion_workspace`).

use super::accum::HashAccum;
use crate::csc::CscMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

/// Long-lived scratch shared by all scratch-taking kernels.
///
/// One instance per rank (or per thread) is intended to live across every
/// SUMMA stage, merge, and batch of a multiplication — and across
/// multiplications. All buffers grow monotonically and are logically reset
/// (never shrunk) between calls, so shape changes between invocations are
/// safe: stale keys cannot leak because the accumulator's `reset` clears
/// occupancy and the arenas are length-cleared before each kernel.
///
/// The numeric accumulator is created lazily on first use and reused even
/// across semirings of the same value type: its `fill` value is only an
/// initializer for freshly grown value slots, and every occupied slot is
/// overwritten before being read (the key sentinel is authoritative), so a
/// `fill` from a previously used semiring is harmless.
pub struct SpGemmWorkspace<T: Copy> {
    /// Numeric hash accumulator (lazily created; see type docs).
    pub(crate) accum: Option<HashAccum<T>>,
    /// Structure-only accumulator for symbolic counting.
    pub(crate) sym: HashAccum<()>,
    /// The symbolic sweep's bitset table of `A`'s columns followed by one
    /// column's union (see [`Self::fill_col_bitsets`]).
    pub(crate) bits: Vec<u64>,
    /// Output arena: column pointers of the matrix under construction.
    pub(crate) colptr: Vec<usize>,
    /// Output arena: row indices.
    pub(crate) rowidx: Vec<u32>,
    /// Output arena: values.
    pub(crate) vals: Vec<T>,
    /// K-way merge heap (heap paths of the hybrid kernel and heap merge).
    pub(crate) heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Per-stream cursors for the k-way merge paths.
    pub(crate) cursors: Vec<usize>,
    /// Allocation events charged to this workspace (arena growth + output
    /// copies); accumulator-table growths are tracked by the accumulators
    /// themselves and folded in by [`Self::total_allocs`].
    allocs: u64,
    /// High-water mark of [`Self::scratch_bytes`].
    peak_scratch: u64,
}

impl<T: Copy> std::fmt::Debug for SpGemmWorkspace<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpGemmWorkspace")
            .field("scratch_bytes", &self.scratch_bytes())
            .finish_non_exhaustive()
    }
}

impl<T: Copy> Default for SpGemmWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> SpGemmWorkspace<T> {
    /// Empty workspace; every buffer starts unallocated.
    pub fn new() -> Self {
        SpGemmWorkspace {
            accum: None,
            sym: HashAccum::new(()),
            bits: Vec::new(),
            colptr: Vec::new(),
            rowidx: Vec::new(),
            vals: Vec::new(),
            heap: BinaryHeap::new(),
            cursors: Vec::new(),
            allocs: 0,
            peak_scratch: 0,
        }
    }

    /// Total allocation events since construction: arena growths, output
    /// copies, and accumulator-table growths. Monotone.
    pub fn total_allocs(&self) -> u64 {
        self.allocs
            + self.sym.grows()
            + self.accum.as_ref().map_or(0, |a| a.grows())
    }

    /// Bytes currently held by all reusable buffers (capacities, not
    /// lengths — this is what stays resident between kernel calls).
    pub fn scratch_bytes(&self) -> u64 {
        let accum_bytes = self.accum.as_ref().map_or(0, |a| a.footprint_bytes());
        (accum_bytes
            + self.sym.footprint_bytes()
            + self.bits.capacity() * size_of::<u64>()
            + self.colptr.capacity() * size_of::<usize>()
            + self.rowidx.capacity() * size_of::<u32>()
            + self.vals.capacity() * size_of::<T>()
            + self.heap.capacity() * size_of::<Reverse<(u32, u32)>>()
            + self.cursors.capacity() * size_of::<usize>()) as u64
    }

    /// High-water mark of [`Self::scratch_bytes`] over the workspace's
    /// lifetime.
    pub fn peak_scratch_bytes(&self) -> u64 {
        self.peak_scratch
    }

    fn reserve_counting<U>(buf: &mut Vec<U>, need: usize, allocs: &mut u64) {
        if buf.capacity() < need {
            *allocs += 1;
            buf.reserve(need - buf.len());
        }
    }

    /// Length-clear the output arenas and ensure capacity for a kernel
    /// producing `ncols` columns and at most `nnz_ub` entries. Capacity
    /// growth (a real allocation) is counted; reuse is free.
    pub(crate) fn prepare_output(&mut self, ncols: usize, nnz_ub: usize) {
        self.colptr.clear();
        self.rowidx.clear();
        self.vals.clear();
        Self::reserve_counting(&mut self.colptr, ncols + 1, &mut self.allocs);
        Self::reserve_counting(&mut self.rowidx, nnz_ub, &mut self.allocs);
        Self::reserve_counting(&mut self.vals, nnz_ub, &mut self.allocs);
    }

    /// Fill [`Self::bits`] with one bitset of `words` words per column of
    /// `a` (bit `r % 64` of word `r / 64` set for each row `r` of the
    /// column), then `words` more for a column's union. Growth is counted;
    /// reuse is free.
    pub(crate) fn fill_col_bitsets<U: Copy>(&mut self, a: &CscMatrix<U>, words: usize) {
        let len = (a.ncols() + 1) * words;
        self.bits.clear();
        Self::reserve_counting(&mut self.bits, len, &mut self.allocs);
        self.bits.resize(len, 0);
        for (i, col) in self
            .bits
            .chunks_exact_mut(words)
            .take(a.ncols())
            .enumerate()
        {
            for &r in a.col(i).0 {
                col[r as usize / 64] |= 1 << (r % 64);
            }
        }
    }

    /// Ensure heap and cursor capacity for a `k`-stream merge path.
    pub(crate) fn ensure_streams(&mut self, k: usize) {
        if self.heap.capacity() < k {
            self.allocs += 1;
            self.heap.reserve(k - self.heap.len());
        }
        Self::reserve_counting(&mut self.cursors, k, &mut self.allocs);
    }

    /// Copy the finished arenas into an exact-size [`CscMatrix`].
    ///
    /// Returns the matrix and the bytes memcpy'd; the (at most three)
    /// output allocations are charged to the workspace counter.
    pub(crate) fn take_output(
        &mut self,
        nrows: usize,
        ncols: usize,
        sorted: bool,
    ) -> (CscMatrix<T>, u64) {
        let copied = (self.colptr.len() * size_of::<usize>()
            + self.rowidx.len() * size_of::<u32>()
            + self.vals.len() * size_of::<T>()) as u64;
        // `Vec::clone` allocates exactly `len` elements; empty vectors
        // don't touch the heap.
        self.allocs += 1
            + u64::from(!self.rowidx.is_empty())
            + u64::from(!self.vals.is_empty());
        let c = CscMatrix::from_parts_unchecked(
            nrows,
            ncols,
            self.colptr.clone(),
            self.rowidx.clone(),
            self.vals.clone(),
            sorted,
        );
        self.note_peak();
        (c, copied)
    }

    /// Record the current footprint into the high-water mark.
    pub(crate) fn note_peak(&mut self) {
        self.peak_scratch = self.peak_scratch.max(self.scratch_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_monotone_and_reuse_is_allocation_free() {
        let mut ws: SpGemmWorkspace<f64> = SpGemmWorkspace::new();
        ws.prepare_output(100, 1000);
        let allocs_warm = ws.total_allocs();
        let bytes_warm = ws.scratch_bytes();
        assert!(allocs_warm > 0 && bytes_warm > 0);
        // Smaller and equal requests must not allocate or shrink.
        ws.prepare_output(10, 50);
        ws.prepare_output(100, 1000);
        assert_eq!(ws.total_allocs(), allocs_warm);
        assert_eq!(ws.scratch_bytes(), bytes_warm);
        // A larger request grows (and is counted).
        ws.prepare_output(100, 5000);
        assert!(ws.total_allocs() > allocs_warm);
        assert!(ws.scratch_bytes() > bytes_warm);
        assert!(ws.peak_scratch_bytes() <= ws.scratch_bytes().max(ws.peak_scratch_bytes()));
    }

    #[test]
    fn stream_scratch_reuse_is_allocation_free() {
        let mut ws: SpGemmWorkspace<u64> = SpGemmWorkspace::new();
        ws.ensure_streams(8);
        let warm = ws.total_allocs();
        ws.ensure_streams(4);
        ws.ensure_streams(8);
        assert_eq!(ws.total_allocs(), warm);
        ws.ensure_streams(64);
        assert!(ws.total_allocs() > warm);
    }

    #[test]
    fn take_output_copies_exact_sizes() {
        let mut ws: SpGemmWorkspace<u64> = SpGemmWorkspace::new();
        ws.prepare_output(2, 8);
        ws.colptr.extend_from_slice(&[0, 1, 2]);
        ws.rowidx.extend_from_slice(&[3, 1]);
        ws.vals.extend_from_slice(&[7, 9]);
        let (c, copied) = ws.take_output(4, 2, true);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.col(0), (&[3u32][..], &[7u64][..]));
        assert_eq!(copied, 3 * 8 + 2 * 4 + 2 * 8);
        // Arena capacity survives the copy-out.
        assert!(ws.rowidx.capacity() >= 8);
    }
}
