//! The accumulator's addressing regime never changes the answer.
//!
//! `HashAccum` addresses an output column directly (slot = row) when the
//! column's bound is at least half the block's `nrows`, and through the
//! open-addressing table otherwise. The contract is that the choice is
//! invisible: the kernels built on it must be **array-identical** — same
//! `colptr`, same `rowidx` order, same value bits, same modeled work —
//! to a run in which every column went through the table.
//!
//! That table-only run needs no switch: the regime is decided from `nrows`,
//! which a caller controls. The same entries declared in a matrix with so
//! many (empty) trailing rows that no column's bound reaches half of them
//! take the table path for every column, and the table's result does not
//! depend on its capacity. (`accum.rs`'s unit tests force either regime on
//! one feed directly.) Every result is also checked, modulo row order,
//! against `spgemm_spa`, which shares no code with the accumulator — merges
//! too, as `[P₀ P₁ …]·[I; I; …]`.
//!
//! Shapes straddle the threshold inside one matrix (empty, one-entry and
//! full columns side by side; a ladder with every bound from 0 to past
//! `nrows`), `nrows` sits on both sides of a power of two, values include
//! explicit zeros and magnitudes that make f64 sums order-sensitive, and
//! one workspace is carried from plus-times to min-plus so that a stale
//! sum left in a directly addressed slot would show.

use proptest::prelude::*;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted};
use spgemm_sparse::ops::col_concat;
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_hybrid, spgemm_spa, symbolic_col_counts, symbolic_col_counts_fresh,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, WorkStats};

/// Block heights: degenerate ones and both sides of a table-size boundary.
const NROWS: [usize; 6] = [1, 2, 40, 255, 256, 257];

/// Order-sensitive under f64 `+`: `(1e16 + 0.1) - 1e16 != 0.1 + (1e16 - 1e16)`.
/// The explicit `0.0` is a stored entry like any other.
const VALUES: [f64; 8] = [0.0, 0.1, -0.3, 1.0, 2.5, 1e16, -1e16, 7.0];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sorted-column matrix whose columns differ wildly in fill: a fifth are
/// empty, a fifth full, the rest hold each row with a per-column
/// probability between 1/64 and 1/2.
fn ragged(nrows: usize, ncols: usize, seed: u64) -> CscMatrix<f64> {
    let mut s = seed;
    let (mut colptr, mut rowidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..ncols {
        let keep_of_64 = match splitmix(&mut s) % 5 {
            0 => 0,
            1 => 64,
            _ => 1 + splitmix(&mut s) % 32,
        };
        for r in 0..nrows as u32 {
            if splitmix(&mut s) % 64 < keep_of_64 {
                rowidx.push(r);
                vals.push(VALUES[(splitmix(&mut s) % 8) as usize]);
            }
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap()
}

/// Column `j` holds `j % (nrows + 1)` entries starting at a rotating row:
/// against an `A` with `k` entries per column the output bounds are every
/// multiple of `k` from 0 to `k·nrows`, threshold included.
fn ladder(nrows: usize, ncols: usize) -> CscMatrix<f64> {
    let (mut colptr, mut rowidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    for j in 0..ncols {
        let mut rows: Vec<u32> = (0..j % (nrows + 1))
            .map(|i| ((i + 3 * j) % nrows) as u32)
            .collect();
        rows.sort_unstable();
        for r in rows {
            rowidx.push(r);
            vals.push(VALUES[(r as usize + j) % 8]);
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap()
}

/// The same stored entries under `nrows` no column's bound can reach half
/// of: every column of a kernel on this operand goes through the table.
fn table_only(m: &CscMatrix<f64>, bound: usize) -> CscMatrix<f64> {
    let tall = 2 * bound + m.nrows() + 1;
    CscMatrix::from_parts(
        tall,
        m.ncols(),
        m.colptr().to_vec(),
        m.rowidx().to_vec(),
        m.vals().to_vec(),
    )
    .unwrap()
}

fn assert_same_arrays(got: &CscMatrix<f64>, table: &CscMatrix<f64>, what: &str) {
    assert_eq!(got.colptr(), table.colptr(), "{what}: colptr");
    assert_eq!(got.rowidx(), table.rowidx(), "{what}: row order");
    let bits = |m: &CscMatrix<f64>| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(table), "{what}: value bits");
    assert_eq!(got.is_sorted(), table.is_sorted(), "{what}: sorted flag");
}

/// Exact counts and the modeled work must not know the regime either. (Over
/// several column ranges the f64 sum of per-column work is taken in another
/// order, so its bits are compared on one range only.)
fn assert_same_work(got: WorkStats, table: WorkStats, one_range: bool, what: &str) {
    assert_eq!(
        (got.flops, got.nnz_out),
        (table.flops, table.nnz_out),
        "{what}: counts"
    );
    if one_range {
        assert_eq!(
            got.work_units.to_bits(),
            table.work_units.to_bits(),
            "{what}: work units"
        );
    }
}

/// Multiply, hybrid multiply and symbolic sweep of `a · b`, then both
/// merges of the product with two more products, all on `ws`.
fn check<S: Semiring<T = f64>>(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    one: f64,
    ws: &mut [SpGemmWorkspace<f64>],
) {
    let one_range = ws.len() <= 1;
    let (oracle, spa_stats) = spgemm_spa::<S>(a, b).unwrap();
    let flops = spa_stats.flops as usize;
    let tall_a = table_only(a, flops);

    let (c, stats, _) = spgemm_hash_unsorted::<S>(a, b, ws).unwrap();
    let (t, table_stats, _) = spgemm_hash_unsorted::<S>(&tall_a, b, &mut []).unwrap();
    assert_same_arrays(&c, &t, "hash multiply");
    assert_same_work(stats, table_stats, one_range, "hash multiply");
    assert!(c.eq_modulo_order(&oracle), "hash multiply vs SPA");

    let (h, stats, _) = spgemm_hybrid::<S>(a, b, ws).unwrap();
    let (t, table_stats, _) = spgemm_hybrid::<S>(&tall_a, b, &mut []).unwrap();
    assert_same_arrays(&h, &t, "hybrid multiply");
    assert_same_work(stats, table_stats, one_range, "hybrid multiply");
    assert!(
        h.is_sorted() && h.eq_modulo_order(&oracle),
        "hybrid multiply vs SPA"
    );

    let (counts, stats, _) = symbolic_col_counts(a, b, ws).unwrap();
    let (table_counts, table_stats) = symbolic_col_counts_fresh(&tall_a, b).unwrap();
    assert_eq!(counts, table_counts, "symbolic counts");
    assert_same_work(stats, table_stats, one_range, "symbolic sweep");
    let spa_counts: Vec<u64> = (0..oracle.ncols())
        .map(|j| oracle.col_nnz(j) as u64)
        .collect();
    assert_eq!(counts, spa_counts, "symbolic counts vs SPA");

    // Merge-Layer shaped input: unsorted products of one shape, the first
    // twice so that every one of its entries meets a partner.
    let (d, ..) = spgemm_hash_unsorted::<S>(a, &ladder(b.nrows(), b.ncols()), ws).unwrap();
    let parts = [c.clone(), d, c];
    let total_in: usize = parts.iter().map(|p| p.nnz()).sum();
    let tall_parts: Vec<_> = parts.iter().map(|p| table_only(p, total_in)).collect();
    // [P₀ P₁ P₂] · [I; I; I] feeds column j of each part in part order.
    let ncols = b.ncols();
    let stacked_identity = CscMatrix::from_parts(
        parts.len() * ncols,
        ncols,
        (0..=ncols).map(|j| j * parts.len()).collect(),
        (0..ncols)
            .flat_map(|j| (0..parts.len()).map(move |p| (p * ncols + j) as u32))
            .collect(),
        vec![one; parts.len() * ncols],
    )
    .unwrap();
    let (oracle, _) = spgemm_spa::<S>(&col_concat(&parts).unwrap(), &stacked_identity).unwrap();

    let (m, stats, _) = merge_hash_unsorted::<S>(&parts, ws).unwrap();
    let (t, table_stats, _) = merge_hash_unsorted::<S>(&tall_parts, &mut []).unwrap();
    assert_same_arrays(&m, &t, "unsorted merge");
    assert_same_work(stats, table_stats, one_range, "unsorted merge");
    assert!(m.eq_modulo_order(&oracle), "unsorted merge vs SPA");

    let (m, stats, _) = merge_hash_sorted::<S>(&parts, ws).unwrap();
    let (t, table_stats, _) = merge_hash_sorted::<S>(&tall_parts, &mut []).unwrap();
    assert_same_arrays(&m, &t, "sorted merge");
    assert_same_work(stats, table_stats, one_range, "sorted merge");
    assert!(
        m.is_sorted() && m.eq_modulo_order(&oracle),
        "sorted merge vs SPA"
    );
}

/// Both semirings on one set of arenas, plus-times first: what it leaves in
/// the value slots is garbage to min-plus. 1 arena runs inline, 4 split the
/// columns over threads.
fn check_both_semirings(a: &CscMatrix<f64>, b: &CscMatrix<f64>) {
    for arenas in [1, 4] {
        let mut ws: Vec<SpGemmWorkspace<f64>> =
            (0..arenas).map(|_| SpGemmWorkspace::new()).collect();
        check::<PlusTimesF64>(a, b, 1.0, &mut ws);
        check::<MinPlusF64>(a, b, 0.0, &mut ws);
        check::<PlusTimesF64>(a, b, 1.0, &mut ws);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ragged operands at every block height.
    #[test]
    fn regime_is_invisible_on_ragged_operands(inner in 1usize..24, ncols in 1usize..20, seed in 0u64..u64::MAX) {
        for nrows in NROWS {
            let a = ragged(nrows, inner, seed ^ nrows as u64);
            let b = ragged(inner, ncols, seed.rotate_left(17));
            check_both_semirings(&a, &b);
        }
    }
}

/// Every bound from 0 to past `nrows` in one product, at one and at two
/// entries per column of `A` (the second makes rows collide).
#[test]
fn regime_is_invisible_across_the_threshold() {
    for nrows in NROWS {
        let b = ladder(nrows, nrows + 2);
        let a1 = CscMatrix::from_parts(
            nrows,
            nrows,
            (0..=nrows).collect(),
            (0..nrows as u32).rev().collect(),
            (0..nrows).map(|i| VALUES[i % 8]).collect(),
        )
        .unwrap();
        check_both_semirings(&a1, &b);
        if nrows >= 2 {
            let a2 = CscMatrix::from_parts(
                nrows,
                nrows,
                (0..=nrows).map(|j| 2 * j).collect(),
                (0..nrows)
                    .flat_map(|j| [(j % (nrows - 1)) as u32, nrows as u32 - 1])
                    .collect(),
                (0..2 * nrows).map(|i| VALUES[i % 7]).collect(),
            )
            .unwrap();
            check_both_semirings(&a2, &b);
        }
        // An all-empty `A`, and a `B` with no entries at all.
        check_both_semirings(&CscMatrix::zero(nrows, nrows), &b);
        check_both_semirings(&a1, &CscMatrix::zero(nrows, 3));
    }
}
