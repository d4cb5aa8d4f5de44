//! Cross-iteration sessions for iterative SpGEMM applications (HipMCL
//! expansion, BFS-style sweeps): a **resident distributed iterate**.
//!
//! The paper's headline application (Fig. 3) multiplies a matrix by
//! itself every iteration, prunes the product, and repeats. A naive
//! driver tears the distribution down each time — gather the iterate to
//! root, clone it, re-scatter both operands, re-run the symbolic sweep —
//! even though the iterate's *distribution* never changes. SpComm3D
//! (arXiv:2404.19638) makes the case that sparse-communication setup
//! should be paid once and amortized; [`IterSession`] applies that to
//! BatchedSUMMA3D:
//!
//! * The A-style iterate stays scattered. After each multiplication the
//!   kept (pruned) batch pieces are assembled **in place** into the next
//!   iterate's local piece — no gather-to-root round trip. This works for
//!   every batch count because the block-cyclic split cuts batches inside
//!   each layer's column sub-slice (`sparse::ops::batch_pieces`), so every
//!   output piece lands on the rank that owns its columns A-style.
//! * The B-style operand is refreshed from the new iterate by a single
//!   **fiber all-to-all** (`Op::RefreshB`): rank `(i, j, k)` cuts its
//!   A-style piece (rows `R_i`, cols `C_{j,k}`) row-wise into `l` slices
//!   and exchanges them along the fiber; concatenating the received pieces
//!   in fiber order yields exactly the B-style piece (rows `R_{i,k}`, cols
//!   `C_j`). With `l = 1` the two styles coincide and nothing moves.
//! * One kernel engine and one [`ExchangePlan`] live for the
//!   whole session, so kernel workspaces stay warm and — with the fetch
//!   cache enabled — `SparseFetch` rounds memoize their `needed_rows`
//!   request sets and received tiles across iterations, invalidated only
//!   for the columns an iteration actually changed (the session diffs the
//!   old and new local iterate column by column and feeds
//!   [`ExchangePlan::note_dirty_cols`]).
//! * Under an unlimited memory budget the symbolic sweep provably always
//!   chooses `b = 1`, so the session skips it from the first iteration on.
//!   With a real budget the sweep re-runs each iteration because the
//!   iterate's fill changes ([`crate::schedule::fixed_batches`]).
//!
//! A step runs the SUMMA driver of a one-shot multiply over the program
//! the auditor checks; only the state between steps is the session's.
//!
//! Correctness contract: a session iteration is **bit-identical** to the
//! gather/re-scatter baseline — assembly plus fiber refresh reproduce the
//! scatter of the gathered iterate exactly, and cached fetch operands are
//! bit-equal to freshly fetched ones (property-tested in
//! `core/tests/iter_session.rs`).

use crate::batched::{multiply, BatchOutput, RankState};
use crate::dist::{gather_dist, CPiece};
use crate::exchange::FetchCacheStats;
use crate::harness::RunConfig;
use crate::{CoreError, Result};
use spgemm_simgrid::{Grid3D, Rank, StepBreakdown};
use spgemm_sparse::{CscMatrix, Semiring};
use std::ops::Range;
use std::sync::Arc;

/// Per-iteration measurements of one rank of a session.
#[derive(Debug, Clone, Copy)]
pub struct SessionIterStats {
    /// Batches this iteration's multiplication ran.
    pub nbatches: usize,
    /// This rank's step breakdown for the iteration (clock delta across
    /// the whole [`IterSession::step`] call).
    pub breakdown: StepBreakdown,
    /// Fetch-cache counter deltas for the iteration.
    pub cache: FetchCacheStats,
    /// Local iterate columns the iteration changed (the invalidation set).
    pub dirty_cols: u64,
    /// Peak modeled bytes of the multiplication on this rank.
    pub peak_bytes: usize,
    /// Local nonzeros of the new iterate.
    pub local_nnz: u64,
}

/// A resident distributed iterate multiplied against itself every
/// iteration — see the module docs for the full contract.
pub struct IterSession<S: Semiring> {
    state: RankState<S>,
}

impl<S: Semiring> std::fmt::Debug for IterSession<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterSession")
            .field("local_nnz", &self.state.a.local.nnz())
            .field("plan", &self.state.plan)
            .finish_non_exhaustive()
    }
}

impl<S: Semiring> IterSession<S> {
    /// Scatter the initial iterate (held by world rank 0 as `global`) and
    /// set up the per-rank resident state. `cache` turns on the
    /// cross-iteration fetch cache — meaningful under
    /// [`crate::ExchangeMode::SparseFetch`], harmless otherwise. `cfg` is
    /// read like [`crate::run_batched`] reads it (the grid and the
    /// cluster are the caller's, see [`crate::harness::run_on_grid`]).
    /// SPMD: every rank must construct the session with the same arguments.
    pub fn new(
        rank: &mut Rank,
        grid: &Grid3D,
        global: Option<Arc<CscMatrix<S::T>>>,
        cfg: &RunConfig,
        cache: bool,
    ) -> Result<Self> {
        let state = RankState::new(rank, grid, global, None, cfg, cache)?;
        if state.a.grows != state.a.gcols {
            return Err(CoreError::Config(format!(
                "IterSession squares its iterate; got a {}x{} matrix",
                state.a.grows, state.a.gcols
            )));
        }
        Ok(IterSession { state })
    }

    /// One iteration: multiply the iterate by itself (batched), hand every
    /// batch's piece to `on_batch` (prune/transform/drop — `None` leaves
    /// those columns empty in the next iterate), assemble the kept pieces
    /// into the next resident iterate, mark the changed columns dirty in
    /// the fetch cache, and refresh the B-style operand over the fiber.
    pub fn step(
        &mut self,
        rank: &mut Rank,
        grid: &Grid3D,
        on_batch: impl FnMut(&mut Rank, BatchOutput<S::T>) -> Option<CPiece<S::T>>,
    ) -> Result<SessionIterStats> {
        let bd0 = *rank.clock().breakdown();
        let cache0 = self.state.plan.cache_stats();
        let result = multiply(&mut self.state, rank, grid, true, on_batch)?;
        Ok(SessionIterStats {
            nbatches: result.nbatches,
            breakdown: rank.clock().breakdown().delta(&bd0),
            cache: self.state.plan.cache_stats().delta(&cache0),
            dirty_cols: result.dirty_cols as u64,
            peak_bytes: result.peak_bytes,
            local_nnz: self.state.a.local.nnz() as u64,
        })
    }

    /// Gather the iterate to world rank 0 (`None` elsewhere) — the one
    /// intentionally non-resident operation, for final results.
    pub fn gather(&self, rank: &mut Rank, grid: &Grid3D) -> Option<CscMatrix<S::T>> {
        gather_dist(rank, grid, &self.state.a)
    }
}

/// Assemble kept batch pieces into one A-style local matrix. Pieces carry
/// disjoint global columns inside `col_range` (guaranteed by the batch
/// split); columns no piece covers are empty — that is what "pruned away"
/// means.
pub(crate) fn assemble_pieces<T: Copy>(
    pieces: &[CPiece<T>],
    row_range: &Range<usize>,
    col_range: &Range<usize>,
) -> Result<CscMatrix<T>> {
    let nrows_local = row_range.len();
    let ncols_local = col_range.len();
    let mut src: Vec<Option<(usize, usize)>> = vec![None; ncols_local];
    for (pi, p) in pieces.iter().enumerate() {
        if p.row_offset != row_range.start || p.local.nrows() != nrows_local {
            return Err(CoreError::Config(format!(
                "kept piece rows {}..{} do not match this rank's row block {row_range:?}",
                p.row_offset,
                p.row_offset + p.local.nrows()
            )));
        }
        for (ci, &gc) in p.global_cols.iter().enumerate() {
            let lc = (gc as usize)
                .checked_sub(col_range.start)
                .filter(|&lc| lc < ncols_local)
                .ok_or_else(|| {
                    CoreError::Config(format!(
                        "kept piece column {gc} falls outside this rank's \
                         column sub-slice {col_range:?}"
                    ))
                })?;
            if src[lc].replace((pi, ci)).is_some() {
                return Err(CoreError::Config(format!(
                    "two kept pieces both cover global column {gc}"
                )));
            }
        }
    }
    let mut colptr = Vec::with_capacity(ncols_local + 1);
    colptr.push(0usize);
    let mut rowidx: Vec<u32> = Vec::new();
    let mut vals: Vec<T> = Vec::new();
    for s in src.iter().take(ncols_local) {
        if let Some((pi, ci)) = s {
            let (rows, vs) = pieces[*pi].local.col(*ci);
            rowidx.extend_from_slice(rows);
            vals.extend_from_slice(vs);
        }
        colptr.push(rowidx.len());
    }
    let sorted = pieces.iter().all(|p| p.local.is_sorted());
    let assembled =
        CscMatrix::from_parts_unchecked(nrows_local, ncols_local, colptr, rowidx, vals, sorted);
    // The next iterate is built `from_parts_unchecked` out of column slices
    // the application handed back — a pruning callback that corrupts a kept
    // piece (out-of-bounds rows, duplicate rows, a lying sorted flag) would
    // otherwise only surface iterations later inside a kernel.
    spgemm_sparse::debug_validate!(
        assembled,
        if sorted {
            spgemm_sparse::Sortedness::Sorted
        } else {
            spgemm_sparse::Sortedness::Unsorted
        },
        "assembled next-iterate local piece ({} kept pieces, cols {:?})",
        pieces.len(),
        col_range
    );
    Ok(assembled)
}

/// Local columns on which `old` and `new` differ — the cache-invalidation
/// set. Bit-exact comparison: an unchanged column must be *identical*
/// (indices and value bits, so a flipped sign of zero is a change and a
/// kept NaN is not), which is the only safe direction for a cache.
pub(crate) fn dirty_cols<S: Semiring>(old: &CscMatrix<S::T>, new: &CscMatrix<S::T>) -> Vec<u32> {
    debug_assert_eq!(old.ncols(), new.ncols());
    let identical = |(rows0, vals0): (&[u32], &[S::T]), (rows1, vals1): (&[u32], &[S::T])| {
        rows0 == rows1 && vals0.iter().zip(vals1).all(|(&x, &y)| S::identical(x, y))
    };
    (0..new.ncols())
        .filter(|&j| !identical(old.col(j), new.col(j)))
        .map(|j| j as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;

    #[test]
    fn assemble_covers_and_preserves_columns() {
        // Two pieces with interleaved columns of a 4-wide slice.
        let m = er_random::<PlusTimesF64>(6, 4, 3, 42);
        let piece = |cols: &[usize], globals: &[u32]| CPiece {
            local: spgemm_sparse::ops::extract_cols(&m, cols),
            row_offset: 10,
            global_cols: globals.to_vec(),
        };
        let p0 = piece(&[0, 2], &[20, 22]);
        let p1 = piece(&[1, 3], &[21, 23]);
        let out = assemble_pieces(&[p0, p1], &(10..16), &(20..24)).unwrap();
        assert!(out.eq_modulo_order(&m));
        // A missing piece leaves its columns empty.
        let p0 = piece(&[0, 2], &[20, 22]);
        let partial = assemble_pieces(&[p0], &(10..16), &(20..24)).unwrap();
        assert_eq!(partial.col(0), m.col(0));
        assert!(partial.col(1).0.is_empty());
    }

    #[test]
    fn assemble_rejects_foreign_and_duplicate_columns() {
        let m = er_random::<PlusTimesF64>(4, 2, 2, 7);
        let p = CPiece {
            local: m.clone(),
            row_offset: 0,
            global_cols: vec![8, 9],
        };
        assert!(assemble_pieces(std::slice::from_ref(&p), &(0..4), &(0..2)).is_err());
        let q = CPiece {
            local: m,
            row_offset: 0,
            global_cols: vec![0, 0],
        };
        assert!(assemble_pieces(&[q], &(0..4), &(0..2)).is_err());
    }

    /// Regression for the assembly validation hook: a pruning callback
    /// that hands back a corrupt kept piece (out-of-bounds row index) must
    /// be caught by `debug_validate!` at assembly time, not iterations
    /// later inside a kernel.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_validate! only fires in debug builds"
    )]
    #[should_panic(expected = "invariant violation in assembled next-iterate local piece")]
    fn corrupt_kept_piece_is_caught_at_assembly() {
        let m = er_random::<PlusTimesF64>(4, 2, 2, 11);
        let (nrows, ncols, colptr, mut rowidx, vals, sorted) = m.into_parts();
        assert!(!rowidx.is_empty());
        // Corrupt the last entry: stays ascending within its column (so
        // the sorted fast checks pass) but is out of bounds for the
        // 4-row block — exactly what only full validation catches.
        *rowidx.last_mut().unwrap() = nrows as u32 + 3;
        let corrupt = CscMatrix::from_parts_raw(nrows, ncols, colptr, rowidx, vals, sorted);
        let p = CPiece {
            local: corrupt,
            row_offset: 0,
            global_cols: vec![0, 1],
        };
        let _ = assemble_pieces(&[p], &(0..4), &(0..2));
    }

    #[test]
    fn session_squares_iterate_across_grids() {
        use crate::exchange::ExchangeMode;
        use spgemm_simgrid::{run_ranks, Machine};
        use spgemm_sparse::spgemm::spgemm_spa;

        let m0 = er_random::<PlusTimesF64>(32, 32, 3, 1234);
        let (m2, _) = spgemm_spa::<PlusTimesF64>(&m0, &m0).unwrap();
        let (m4, _) = spgemm_spa::<PlusTimesF64>(&m2, &m2).unwrap();

        for (p, l) in [(1usize, 1usize), (4, 1), (16, 4)] {
            for mode in [ExchangeMode::DenseBcast, ExchangeMode::SparseFetch] {
                let seed = m0.clone();
                let results = run_ranks(p, Machine::knl(), move |rank| {
                    let grid = Grid3D::new(rank, l);
                    let payload = (rank.rank() == 0).then(|| Arc::new(seed.clone()));
                    let cfg = RunConfig {
                        exchange: mode,
                        ..RunConfig::new(p, l)
                    };
                    let mut sess =
                        IterSession::<PlusTimesF64>::new(rank, &grid, payload, &cfg, true)
                            .unwrap();
                    for _ in 0..2 {
                        let stats = sess
                            .step(rank, &grid, |_r, out| Some(out.piece))
                            .unwrap();
                        // Unlimited budget: symbolic skipped, single batch.
                        assert_eq!(stats.nbatches, 1);
                    }
                    sess.gather(rank, &grid)
                });
                let got = results[0].clone().expect("root gathers");
                assert!(
                    got.approx_eq(&m4, 1e-9),
                    "session square failed at p={p} l={l} mode={mode:?}"
                );
            }
        }
    }

    #[test]
    fn dirty_cols_is_bit_exact() {
        let dirty = dirty_cols::<PlusTimesF64>;
        let m = er_random::<PlusTimesF64>(8, 5, 3, 9);
        assert!(dirty(&m, &m.clone()).is_empty());
        let mut changed = m.clone();
        changed.retain(|_, j, _| j != 2);
        assert_eq!(dirty(&m, &changed), vec![2]);
        // Column 1 stores `x` at row 0; column 0 stores a 1 beside it.
        let with =
            |x| CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 0], vec![1.0, x]).unwrap();
        // A stored zero that only flips its sign is a change: `+0.0 == -0.0`
        // would call the column clean and let a receiver replay a stale tile.
        assert_eq!(dirty(&with(0.0), &with(-0.0)), vec![1]);
        // A NaN kept as it was is no change, though `NaN != NaN`.
        assert!(dirty(&with(f64::NAN), &with(f64::NAN)).is_empty());
    }
}
