//! Property tests for the distribution layers: 3D scatter → gather
//! round-trips and `transpose_to_bstyle` slice conformance over every
//! valid `(p, l)` pair, plus the 1.5D dense-stripe layout — stripe
//! partition round-trips and full scatter → gather through the ColA /
//! InnerABC drivers (`C = I·B` must reproduce `B` bit-for-bit) — over
//! arbitrary (including non-square and degenerate) matrix shapes.

use proptest::prelude::*;
use spgemm_core::dist::{
    gather_dist, scatter, sub_block, transpose_to_bstyle, DistKind,
};
use spgemm_core::{run_spmm, AlgorithmFamily, RunConfig};
use spgemm_simgrid::grid::valid_layer_counts;
use spgemm_simgrid::{run_ranks, Grid3D, Machine};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::ops::block_range;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::{CscMatrix, DenseBlock};
use std::sync::Arc;

const PS: [usize; 6] = [1, 4, 8, 9, 12, 16];

/// Pick a process count and one of its valid layer counts.
fn grid_pair(pi: usize, li: usize) -> (usize, usize) {
    let p = PS[pi % PS.len()];
    let ls = valid_layer_counts(p);
    (p, ls[li % ls.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `scatter` then `gather_pieces` (via `gather_dist`) reproduces the
    /// global matrix exactly for both distribution styles, any valid
    /// grid, and shapes the grid over-partitions (`n < pr·l`).
    #[test]
    fn scatter_gather_roundtrips(
        pi in 0usize..6,
        li in 0usize..4,
        nrows in 1usize..60,
        ncols in 1usize..60,
        deg in 1usize..4,
        seed in 0u64..1_000,
        b_style in 0usize..2,
    ) {
        let (p, l) = grid_pair(pi, li);
        let kind = if b_style == 1 { DistKind::BStyle } else { DistKind::AStyle };
        let global = er_random::<PlusTimesF64>(nrows, ncols, deg, seed);
        let g2 = global.clone();
        let results = run_ranks(p, Machine::knl_mini(), move |rank| {
            let grid = Grid3D::new(rank, l);
            let payload = (rank.rank() == 0).then(|| Arc::new(g2.clone()));
            let dm = scatter(rank, &grid, kind, payload);
            gather_dist(rank, &grid, &dm)
        });
        let back = results[0].clone().expect("root gathers");
        prop_assert!(
            global.eq_modulo_order(&back),
            "roundtrip failed: p={p} l={l} {kind:?} {nrows}x{ncols}"
        );
    }

    /// `transpose_to_bstyle` hands every rank the `(i, k)` row slice that
    /// is conformant with A's `(s, k)` column slices — the requirement
    /// for stage `s` of SUMMA inside layer `k` — and the gathered result
    /// equals the serial transpose, for non-square shapes and every
    /// valid `(p, l)`.
    #[test]
    fn transpose_to_bstyle_slices_conform(
        pi in 0usize..6,
        li in 0usize..4,
        nrows in 1usize..60,
        ncols in 1usize..60,
        deg in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let (p, l) = grid_pair(pi, li);
        let global = er_random::<PlusTimesF64>(nrows, ncols, deg, seed);
        let g2 = global.clone();
        let results = run_ranks(p, Machine::knl_mini(), move |rank| {
            let grid = Grid3D::new(rank, l);
            let payload = (rank.rank() == 0).then(|| Arc::new(g2.clone()));
            let a = scatter(rank, &grid, DistKind::AStyle, payload);
            let at = transpose_to_bstyle(rank, &grid, &a);
            assert_eq!(at.kind, DistKind::BStyle);
            assert_eq!((at.grows, at.gcols), (a.gcols, a.grows));
            // B-style row slice (i, k) of Aᵀ is the hierarchical
            // sub-block of the inner dimension — identical to the
            // column slice A's owner (j=i) holds, so stage pieces
            // multiply conformantly.
            let rr = at.row_range(&grid);
            assert_eq!(
                rr,
                sub_block(at.grows, grid.pr, grid.i, grid.l, grid.k),
                "row slice mismatch at rank ({},{},{})",
                grid.i, grid.j, grid.k
            );
            // Local piece dimensions agree with the claimed global slices.
            assert_eq!(at.local.nrows(), rr.len());
            assert_eq!(at.local.ncols(), at.col_range(&grid).len());
            gather_dist(rank, &grid, &at)
        });
        let back = results[0].clone().expect("root gathers");
        let expect = spgemm_sparse::ops::transpose(&global);
        prop_assert!(
            back.eq_modulo_order(&expect),
            "transpose mismatch: p={p} l={l} {nrows}x{ncols}"
        );
    }
}

// ---------------------------------------------------------------------------
// 1.5D dense-stripe distribution.
// ---------------------------------------------------------------------------

/// The 1.5D world sizes and the families valid at each — including
/// non-square `p` no SUMMA grid covers.
const P15: [usize; 3] = [4, 12, 16];

fn family_15d(pi: usize, fi: usize) -> (usize, AlgorithmFamily) {
    let p = P15[pi % P15.len()];
    let fams: Vec<AlgorithmFamily> = AlgorithmFamily::sweep(p)
        .into_iter()
        .filter(|f| f.is_15d())
        .collect();
    (p, fams[fi % fams.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Striping a dense block by `block_range` and reassembling the
    /// column slices reproduces it exactly — including over-partitioned
    /// widths (`ncols < t`, some stripes empty). This is the stationary
    /// `B`/`C` layout every 1.5D rank slices out after the scatter
    /// broadcast.
    #[test]
    fn dense_stripe_partition_roundtrips(
        nrows in 0usize..40,
        ncols in 0usize..40,
        t in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let block = DenseBlock::from_fn(nrows, ncols, |i, j| {
            ((i * 31 + j * 17 + seed as usize) % 97) as f64
        });
        let mut back = DenseBlock::new_fill(nrows, ncols, -1.0f64);
        let mut covered = 0usize;
        for s in 0..t {
            let r = block_range(ncols, t, s);
            let stripe = block.col_slice(r.clone());
            prop_assert_eq!(stripe.nrows(), nrows);
            prop_assert_eq!(stripe.ncols(), r.len());
            for (jj, j) in r.clone().enumerate() {
                back.col_mut(j).copy_from_slice(stripe.col(jj));
            }
            covered += r.len();
        }
        prop_assert_eq!(covered, ncols, "stripes must partition the columns");
        prop_assert_eq!(back.data(), block.data());
    }

    /// Scatter → gather through the full 1.5D drivers: `C = I·B` must
    /// reproduce `B` bit-for-bit for every 1.5D family, replication
    /// factor, and width — the dense operand is broadcast, sliced into
    /// stationary stripes, multiplied by identity blocks, reduced
    /// (InnerABC) and gathered back to the root.
    #[test]
    fn dense_identity_spmm_roundtrips(
        pi in 0usize..3,
        fi in 0usize..8,
        n in 1usize..40,
        d in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let (p, family) = family_15d(pi, fi);
        let a = CscMatrix::<f64>::identity(n);
        let b = DenseBlock::from_fn(n, d, |i, j| {
            ((i * 13 + j * 29 + seed as usize) % 11) as f64
        });
        let mut cfg = RunConfig::new(p, 1);
        cfg.algorithm = family;
        let out = run_spmm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
        let c = out.c.expect("root gathers the product");
        prop_assert_eq!(
            c.data(),
            b.data(),
            "I·B != B: p={} {} {}x{}",
            p,
            family.label(),
            n,
            d
        );
    }
}
