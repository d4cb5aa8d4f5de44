//! The paper's 3D data distribution (Fig. 1) plus scatter/gather.
//!
//! On a `√(p/l) × √(p/l) × l` grid with per-layer side `pr`:
//!
//! * **A-style** (used by `A` and `C`): rows cut into `pr` blocks (one per
//!   process row `i`); columns cut hierarchically — first into `pr` blocks
//!   (one per process column `j`, "respecting the 2D process boundary"),
//!   then each block into `l` sub-slices (one per layer `k`). A local
//!   piece is `(m/pr) × (cols/(pr·l))` — tall and skinny for large `l`.
//! * **B-style**: the transpose arrangement — rows hierarchically into
//!   `pr·l` slices indexed `(i, k)`, columns into `pr` blocks by `j`.
//!   A local piece is `(rows/(pr·l)) × (n/pr)` — short and fat.
//!
//! The hierarchical inner-dimension partition is what aligns
//! `A`'s column slice `(s, k)` with `B`'s row slice `(s, k)` so that stage
//! `s` of SUMMA2D inside layer `k` multiplies conformant pieces.
//!
//! Scatter and gather exist for testing and harness convenience; their
//! traffic is charged to [`Step::Other`], which paper-style reports skip.

use crate::memory::R_BYTES_PER_NNZ;
use spgemm_simgrid::{Comm, Grid3D, Rank, Step};
use spgemm_sparse::ops::{block_range, col_block, row_block};
use spgemm_sparse::{CscMatrix, Triples};
use std::ops::Range;
use std::sync::Arc;

/// Which of the paper's two local shapes a distributed matrix uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// Rows blocked by `i`; columns sliced by `(j, k)`. Used by `A` and `C`.
    AStyle,
    /// Rows sliced by `(i, k)`; columns blocked by `j`. Used by `B`.
    BStyle,
}

/// Sub-slice `sub` of `subparts` within block `idx` of `parts` of `0..n`
/// (the hierarchical partition described in the module docs).
///
/// Inherits `block_range`'s degenerate-split guarantee: when
/// `n < parts·subparts` some slices come back empty (pinned at the end of
/// their outer block) but always inside `0..n`, and together the
/// `parts·subparts` slices still cover `0..n` disjointly in order.
pub fn sub_block(n: usize, parts: usize, idx: usize, subparts: usize, sub: usize) -> Range<usize> {
    let outer = block_range(n, parts, idx);
    let inner = block_range(outer.len(), subparts, sub);
    let r = outer.start + inner.start..outer.start + inner.end;
    debug_assert!(
        r.end <= outer.end,
        "sub_block({n}, {parts}, {idx}, {subparts}, {sub}) escapes its outer block {outer:?}"
    );
    r
}

/// A matrix distributed on a 3D grid, viewed from one rank.
#[derive(Debug, Clone)]
pub struct DistMatrix<T: Copy> {
    /// This rank's local piece (indices re-based to the local block),
    /// shared with the stage exchanges that ship it without a copy.
    pub local: Arc<CscMatrix<T>>,
    /// Distribution style.
    pub kind: DistKind,
    /// Global row count.
    pub grows: usize,
    /// Global column count.
    pub gcols: usize,
}

impl<T: Copy> DistMatrix<T> {
    /// Global row range of this rank's piece.
    pub fn row_range(&self, grid: &Grid3D) -> Range<usize> {
        match self.kind {
            DistKind::AStyle => block_range(self.grows, grid.pr, grid.i),
            DistKind::BStyle => sub_block(self.grows, grid.pr, grid.i, grid.l, grid.k),
        }
    }

    /// Global column range of this rank's piece.
    pub fn col_range(&self, grid: &Grid3D) -> Range<usize> {
        match self.kind {
            DistKind::AStyle => sub_block(self.gcols, grid.pr, grid.j, grid.l, grid.k),
            DistKind::BStyle => block_range(self.gcols, grid.pr, grid.j),
        }
    }
}

/// Distribute a global matrix held by world rank 0 onto the grid.
///
/// Simulation note: the "scatter" broadcasts the global matrix as an `Arc`
/// (zero-copy in shared memory) and every rank slices out its own block;
/// modeled cost is charged to [`Step::Other`].
pub fn scatter<T: Copy + Send + Sync + 'static>(
    rank: &mut Rank,
    grid: &Grid3D,
    kind: DistKind,
    global: Option<Arc<CscMatrix<T>>>,
) -> DistMatrix<T> {
    let shared = rank.bcast(&grid.world, 0, global, 0, Step::Other);
    let (grows, gcols) = (shared.nrows(), shared.ncols());
    let mut dm = DistMatrix {
        local: Arc::new(CscMatrix::zero(0, 0)),
        kind,
        grows,
        gcols,
    };
    let rr = dm.row_range(grid);
    let cr = dm.col_range(grid);
    dm.local = Arc::new(row_block(&col_block(&shared, cr), rr));
    dm
}

/// One rank's piece of a (possibly batched) output matrix `C`, carrying
/// explicit global coordinates so pieces can be reassembled and verified
/// regardless of batching order.
#[derive(Debug, Clone)]
pub struct CPiece<T: Copy> {
    /// Local rows `0..local.nrows()` map to global rows
    /// `row_offset..row_offset+local.nrows()`.
    pub local: CscMatrix<T>,
    /// Global row offset of local row 0.
    pub row_offset: usize,
    /// Global column id of each local column.
    pub global_cols: Vec<u32>,
}

/// Gather `C` pieces from every rank to world rank 0 and assemble the
/// global matrix (sorted columns). Non-roots get `None`.
///
/// Duplicate coordinates must not occur (pieces are disjoint by
/// construction); an assembly with duplicates indicates an algorithm bug
/// and is surfaced by the round-trip tests.
pub(crate) fn gather_pieces<T: Copy + Send + 'static>(
    rank: &mut Rank,
    world: &Comm,
    pieces: Vec<CPiece<T>>,
    grows: usize,
    gcols: usize,
) -> Option<CscMatrix<T>> {
    let gathered = rank.gather_to_root(world, 0, pieces, 0, Step::Other);
    gathered.map(|all| {
        let mut t = Triples::new(grows, gcols);
        for rank_pieces in all {
            for p in rank_pieces {
                for (r, c, v) in p.local.iter() {
                    t.push(r + p.row_offset as u32, p.global_cols[c], v);
                }
            }
        }
        t.to_csc()
    })
}

/// Distributed transpose: from an A-style distributed `M`, build the
/// B-style distribution of `Mᵀ` without ever materializing the global
/// transpose.
///
/// Under the paper's Fig. 1 layout this is communication-friendly by
/// construction: `M`'s A-style block on rank `(i, j, k)` is exactly the
/// transpose of `Mᵀ`'s B-style block on rank `(j, i, k)` (row blocks ↔
/// column blocks, `(j, k)` column slices ↔ `(i, k)` row slices). So the
/// whole operation is one pairwise exchange across the grid diagonal plus
/// a local transpose. `A·Aᵀ` pipelines (BELLA, Jaccard, hypergraph
/// matching) use this to set up `B = Aᵀ` in place. The exchange is modeled
/// as one point-to-point message of [`crate::R_BYTES_PER_NNZ`] bytes per received
/// nonzero.
pub fn transpose_to_bstyle<T: Copy + Send + 'static>(
    rank: &mut Rank,
    grid: &Grid3D,
    m: &DistMatrix<T>,
) -> DistMatrix<T> {
    assert_eq!(
        m.kind,
        DistKind::AStyle,
        "transpose_to_bstyle takes an A-style matrix"
    );
    let local_t = spgemm_sparse::ops::transpose(&m.local);
    let partner = grid.rank_of(grid.j, grid.i, grid.k);
    let me = rank.rank();
    let received = if partner == me {
        local_t
    } else {
        // Pairwise exchange with the diagonal partner (both sides send
        // first; the runtime's channels are unbounded, so no deadlock).
        let world = grid.world.clone();
        let nnz = local_t.nnz() as u64;
        rank.send(&world, partner, 0x7A_0001, (local_t, nnz));
        let (mat, recv_nnz) = rank.recv::<(CscMatrix<T>, u64)>(&world, partner, 0x7A_0001);
        // Model the exchange as one point-to-point message round.
        let cost = rank
            .machine()
            .send_secs(recv_nnz as usize * R_BYTES_PER_NNZ);
        rank.clock_mut().advance(Step::Other, cost);
        mat
    };
    DistMatrix {
        local: Arc::new(received),
        kind: DistKind::BStyle,
        grows: m.gcols,
        gcols: m.grows,
    }
}

/// Reassemble a distributed A-style or B-style matrix on rank 0 (inverse
/// of [`scatter`]); a session gathers its iterate with it.
pub fn gather_dist<T: Copy + Send + 'static>(
    rank: &mut Rank,
    grid: &Grid3D,
    dm: &DistMatrix<T>,
) -> Option<CscMatrix<T>> {
    let rr = dm.row_range(grid);
    let cr = dm.col_range(grid);
    let piece = CPiece {
        local: CscMatrix::clone(&dm.local),
        row_offset: rr.start,
        global_cols: cr.map(|c| c as u32).collect(),
    };
    gather_pieces(rank, &grid.world, vec![piece], dm.grows, dm.gcols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_simgrid::{run_ranks, Machine};
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;

    #[test]
    fn sub_block_partitions_hierarchically() {
        // n=10, 2 blocks (5+5), each into 2 subs.
        assert_eq!(sub_block(10, 2, 0, 2, 0), 0..3);
        assert_eq!(sub_block(10, 2, 0, 2, 1), 3..5);
        assert_eq!(sub_block(10, 2, 1, 2, 0), 5..8);
        assert_eq!(sub_block(10, 2, 1, 2, 1), 8..10);
    }

    #[test]
    fn sub_blocks_cover_disjointly() {
        for n in [17usize, 32, 100] {
            for parts in [2usize, 3] {
                for subparts in [1usize, 2, 4] {
                    let mut total = 0;
                    let mut prev_end = 0;
                    for idx in 0..parts {
                        for sub in 0..subparts {
                            let r = sub_block(n, parts, idx, subparts, sub);
                            assert_eq!(r.start, prev_end);
                            prev_end = r.end;
                            total += r.len();
                        }
                    }
                    assert_eq!(total, n);
                }
            }
        }
    }

    #[test]
    fn sub_block_degenerate_when_n_below_parts_times_subparts() {
        // Over-partitioned dimensions (n < parts·subparts) must yield
        // in-bounds, in-order, disjoint slices with empties interleaved —
        // the regime tiny matrices on big grids hit.
        for n in [0usize, 1, 2, 5, 7] {
            for parts in [2usize, 3, 4] {
                for subparts in [2usize, 4] {
                    if n >= parts * subparts {
                        continue;
                    }
                    let mut prev_end = 0;
                    let mut total = 0;
                    for idx in 0..parts {
                        for sub in 0..subparts {
                            let r = sub_block(n, parts, idx, subparts, sub);
                            assert!(
                                r.start == prev_end && r.end <= n,
                                "n={n} parts={parts} subparts={subparts} \
                                 idx={idx} sub={sub}: {r:?}"
                            );
                            prev_end = r.end;
                            total += r.len();
                        }
                    }
                    assert_eq!(total, n, "n={n} parts={parts} subparts={subparts}");
                }
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip_a_style() {
        let global = er_random::<PlusTimesF64>(37, 41, 3, 17);
        for (p, l) in [(4, 1), (8, 2), (16, 4), (16, 16)] {
            #[allow(clippy::redundant_clone)] // `global` is used again below
        let g2 = global.clone();
            let results = run_ranks(p, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, l);
                let payload = (rank.rank() == 0).then(|| Arc::new(g2.clone()));
                let dm = scatter(rank, &grid, DistKind::AStyle, payload);
                gather_dist(rank, &grid, &dm)
            });
            let back = results[0].clone().expect("root gets the gather");
            assert!(
                global.eq_modulo_order(&back),
                "A-style roundtrip failed at p={p}, l={l}"
            );
        }
    }

    #[test]
    fn scatter_gather_roundtrip_b_style() {
        let global = er_random::<PlusTimesF64>(29, 33, 4, 18);
        for (p, l) in [(4, 1), (8, 2), (12, 3), (16, 4)] {
            #[allow(clippy::redundant_clone)] // `global` is used again below
        let g2 = global.clone();
            let results = run_ranks(p, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, l);
                let payload = (rank.rank() == 0).then(|| Arc::new(g2.clone()));
                let dm = scatter(rank, &grid, DistKind::BStyle, payload);
                gather_dist(rank, &grid, &dm)
            });
            let back = results[0].clone().expect("root gets the gather");
            assert!(
                global.eq_modulo_order(&back),
                "B-style roundtrip failed at p={p}, l={l}"
            );
        }
    }

    #[test]
    fn distributed_transpose_matches_serial() {
        let global = er_random::<PlusTimesF64>(33, 47, 4, 77);
        for (p, l) in [(1usize, 1usize), (4, 1), (8, 2), (16, 4), (12, 3)] {
            #[allow(clippy::redundant_clone)] // `global` is used again below
        let g2 = global.clone();
            let results = run_ranks(p, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, l);
                let payload = (rank.rank() == 0).then(|| Arc::new(g2.clone()));
                let a = scatter(rank, &grid, DistKind::AStyle, payload);
                let at = transpose_to_bstyle(rank, &grid, &a);
                assert_eq!(at.grows, 47);
                assert_eq!(at.gcols, 33);
                gather_dist(rank, &grid, &at)
            });
            let back = results[0].clone().expect("root gathers");
            let expect = spgemm_sparse::ops::transpose(&global);
            assert!(
                back.eq_modulo_order(&expect),
                "distributed transpose failed at p={p} l={l}"
            );
        }
    }

    #[test]
    fn distributed_transpose_feeds_aat_multiply() {
        use crate::harness::{run_spgemm_aat, RunConfig};
        let global = er_random::<PlusTimesF64>(40, 60, 3, 78);
        let serial_at = spgemm_sparse::ops::transpose(&global);
        let (reference, _) =
            spgemm_sparse::spgemm::spgemm_spa::<PlusTimesF64>(&global, &serial_at).unwrap();
        let cfg = RunConfig {
            forced_batches: Some(3),
            ..RunConfig::new(16, 4)
        };
        let out = run_spgemm_aat::<PlusTimesF64>(&cfg, &global).unwrap();
        assert!(out.c.expect("root gathers").approx_eq(&reference, 1e-10));
    }

    #[test]
    fn a_style_local_shape_is_tall_skinny() {
        let global = er_random::<PlusTimesF64>(64, 64, 2, 19);
        run_ranks(16, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 4); // pr=2, l=4
            let payload = (rank.rank() == 0).then(|| Arc::new(global.clone()));
            let dm = scatter(rank, &grid, DistKind::AStyle, payload);
            // (64/2) x (64/(2*4)) = 32 x 8
            assert_eq!(dm.local.nrows(), 32);
            assert_eq!(dm.local.ncols(), 8);
            // nrows = l * ncols, as the paper notes.
            assert_eq!(dm.local.nrows(), grid.l * dm.local.ncols());
        });
    }

    #[test]
    fn b_style_local_shape_is_short_fat() {
        let global = er_random::<PlusTimesF64>(64, 64, 2, 20);
        run_ranks(16, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 4);
            let payload = (rank.rank() == 0).then(|| Arc::new(global.clone()));
            let dm = scatter(rank, &grid, DistKind::BStyle, payload);
            assert_eq!(dm.local.nrows(), 8);
            assert_eq!(dm.local.ncols(), 32);
        });
    }

    #[test]
    fn inner_dimension_slices_align() {
        // A's column slice (s, k) must equal B's row slice (s, k) for all s,
        // k — the conformance requirement of stage s in layer k.
        let kk = 53; // awkward non-divisible inner dimension
        for (pr, l) in [(2usize, 2usize), (3, 1), (2, 4)] {
            for s in 0..pr {
                for k in 0..l {
                    let a_slice = sub_block(kk, pr, s, l, k);
                    let b_slice = sub_block(kk, pr, s, l, k);
                    assert_eq!(a_slice, b_slice);
                }
            }
        }
    }
}
