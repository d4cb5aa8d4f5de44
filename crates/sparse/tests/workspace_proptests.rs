//! Property tests for arena reuse across kernel calls.
//!
//! A kernel run on a long-lived, already-used arena must be
//! **bit-identical** to the same kernel on throwaway scratch — same
//! `colptr`, same `rowidx` order, same value bits (identical accumulation
//! order makes f64 exact), same sortedness flag — when one arena is reused
//! across an interleaved multiply → merge → multiply sequence whose operand
//! shapes grow and shrink, and across semirings. Stale state in a reused
//! accumulator, arena, heap, or cursor vector is exactly the bug class
//! these tests hunt. (That the arena *count* never matters is
//! `par_proptests.rs`.)

use proptest::prelude::*;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted, merge_heap};
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_hybrid, symbolic_col_counts, symbolic_col_counts_fresh,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, Triples};

/// Exact structural + bit equality (not `eq_modulo_order`).
fn assert_bit_identical<T: Copy + PartialEq + std::fmt::Debug>(
    ws_out: &CscMatrix<T>,
    ref_out: &CscMatrix<T>,
    what: &str,
) {
    assert_eq!(ws_out.nrows(), ref_out.nrows(), "{what}: nrows");
    assert_eq!(ws_out.ncols(), ref_out.ncols(), "{what}: ncols");
    assert_eq!(ws_out.colptr(), ref_out.colptr(), "{what}: colptr");
    assert_eq!(ws_out.rowidx(), ref_out.rowidx(), "{what}: rowidx");
    assert_eq!(ws_out.vals(), ref_out.vals(), "{what}: vals");
    assert_eq!(ws_out.is_sorted(), ref_out.is_sorted(), "{what}: sorted flag");
}

/// One full kernel round on `(a, b)` against the long-lived `ws`, checking
/// every kernel against its run on throwaway scratch.
fn round_trip<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    ws: &mut [SpGemmWorkspace<S::T>],
) where
    S::T: PartialEq + std::fmt::Debug,
{
    let (c_ws, ..) = spgemm_hash_unsorted::<S>(a, b, ws).unwrap();
    let (c_ref, ..) = spgemm_hash_unsorted::<S>(a, b, &mut []).unwrap();
    assert_bit_identical(&c_ws, &c_ref, "hash multiply");

    let (h_ws, ..) = spgemm_hybrid::<S>(a, b, ws).unwrap();
    let (h_ref, ..) = spgemm_hybrid::<S>(a, b, &mut []).unwrap();
    assert_bit_identical(&h_ws, &h_ref, "hybrid multiply");

    let (counts_ws, ..) = symbolic_col_counts(a, b, ws).unwrap();
    let (counts_ref, _) = symbolic_col_counts_fresh(a, b).unwrap();
    assert_eq!(counts_ws, counts_ref, "symbolic counts");

    let parts = [c_ws.clone(), c_ws, c_ref];
    let (mu_ws, ..) = merge_hash_unsorted::<S>(&parts, ws).unwrap();
    let (mu_ref, ..) = merge_hash_unsorted::<S>(&parts, &mut []).unwrap();
    assert_bit_identical(&mu_ws, &mu_ref, "hash merge unsorted");

    let (ms_ws, ..) = merge_hash_sorted::<S>(&parts, ws).unwrap();
    let (ms_ref, ..) = merge_hash_sorted::<S>(&parts, &mut []).unwrap();
    assert_bit_identical(&ms_ws, &ms_ref, "hash merge sorted");
    assert!(ms_ws.is_sorted());

    // Heap merge needs sorted inputs: reuse the sorted merge outputs.
    let sorted_parts = [ms_ws.clone(), ms_ws];
    let (hp_ws, ..) = merge_heap::<S>(&sorted_parts, ws).unwrap();
    let (hp_ref, ..) = merge_heap::<S>(&sorted_parts, &mut []).unwrap();
    assert_bit_identical(&hp_ws, &hp_ref, "heap merge");
}

/// A conformable (A: m×k, B: k×n) pair built from arbitrary triples.
fn arb_pair(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = (CscMatrix<u64>, CscMatrix<u64>)> {
    (1..=maxdim, 1..=maxdim, 1..=maxdim).prop_flat_map(move |(m, k, n)| {
        (
            proptest::collection::vec((0..m as u32, 0..k as u32, 1..9u64), 0..=maxnnz),
            proptest::collection::vec((0..k as u32, 0..n as u32, 1..9u64), 0..=maxnnz),
        )
            .prop_map(move |(ea, eb)| {
                let build = |nr: usize, nc: usize, entries: Vec<(u32, u32, u64)>| {
                    let mut t = Triples::with_capacity(nr, nc, entries.len());
                    for (r, c, v) in entries {
                        t.push(r, c, v);
                    }
                    t.to_csc_dedup::<PlusTimesU64>()
                };
                (build(m, k, ea), build(k, n, eb))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tropical (min,+) semiring's zero is +∞ — the accumulator's
    /// `fill` value differs wildly from (+,×), so a workspace previously
    /// used under one semiring must not leak its fill into another.
    #[test]
    fn reused_workspace_survives_semiring_change((a, b) in arb_pair(20, 70)) {
        let fa = a.map(|v| v as f64);
        let fb = b.map(|v| v as f64);
        let mut ws = [SpGemmWorkspace::new()];
        round_trip::<MinPlusF64>(&fa, &fb, &mut ws);
        // Cross-semiring reuse on the same scratch: the (+,×) round after
        // a (min,+) round must stay exact.
        round_trip::<PlusTimesF64>(&fa, &fb, &mut ws);
    }

    /// A reused workspace stays bit-identical across an interleaved
    /// sequence of rounds whose shapes grow and shrink — the arena
    /// lengths from a big round must never bleed into a small one.
    #[test]
    fn reused_workspace_survives_shape_changes(
        pairs in proptest::collection::vec(arb_pair(22, 60), 2..=4)
    ) {
        let mut ws = [SpGemmWorkspace::new()];
        let mut scratch_prev = 0u64;
        for (a, b) in &pairs {
            round_trip::<PlusTimesU64>(a, b, &mut ws);
            // Capacity is monotone: shrinking shapes never shrink scratch.
            let scratch = ws[0].scratch_bytes();
            prop_assert!(scratch >= scratch_prev, "scratch shrank: {scratch} < {scratch_prev}");
            scratch_prev = scratch;
        }
        prop_assert!(ws[0].peak_scratch_bytes() >= scratch_prev);
    }
}

/// Deterministic capacity-monotonicity check: a big round then a small
/// round leaves capacity at the big round's level while counting zero new
/// allocations for the small one.
#[test]
fn capacity_monotone_and_small_rounds_are_free() {
    use spgemm_sparse::gen::er_random;
    let big_a = er_random::<PlusTimesU64>(120, 120, 6, 1).map(|_| 1u64);
    let big_b = er_random::<PlusTimesU64>(120, 120, 6, 2).map(|_| 1u64);
    let small_a = er_random::<PlusTimesU64>(15, 15, 3, 3).map(|_| 1u64);
    let small_b = er_random::<PlusTimesU64>(15, 15, 3, 4).map(|_| 1u64);

    let mut ws = [SpGemmWorkspace::new()];
    let _ = spgemm_hash_unsorted::<PlusTimesU64>(&big_a, &big_b, &mut ws).unwrap();
    let cap = ws[0].scratch_bytes();
    let allocs = ws[0].total_allocs();

    let (c_small, stats, _) =
        spgemm_hash_unsorted::<PlusTimesU64>(&small_a, &small_b, &mut ws).unwrap();
    assert_eq!(ws[0].scratch_bytes(), cap, "small round must not resize scratch");
    // Only the three exact-size output copies; no scratch allocations.
    assert_eq!(ws[0].total_allocs() - allocs, 3);
    assert_eq!(stats.allocs, 3);

    // And the small output is still exactly right.
    let (c_ref, ..) = spgemm_hash_unsorted::<PlusTimesU64>(&small_a, &small_b, &mut []).unwrap();
    assert_bit_identical(&c_small, &c_ref, "small-after-big multiply");
}
