//! Property-based tests (proptest) on core invariants.

use proptest::prelude::*;
use spgemm_core::{run_spgemm, RunConfig};
use spgemm_sparse::merge::{merge_hash_sorted, merge_heap};
use spgemm_sparse::ops::{batch_pieces, col_concat, col_split_blocks, extract_cols, transpose};
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_heap, spgemm_spa, symbolic_col_counts_fresh,
};
use spgemm_sparse::{CscMatrix, Triples};

/// Strategy: an arbitrary sparse u64 matrix with shape up to `maxdim` and
/// up to `maxnnz` entries (duplicates combined by summation).
fn arb_matrix(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = CscMatrix<u64>> {
    (1..=maxdim, 1..=maxdim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr as u32, 0..nc as u32, 1..5u64), 0..=maxnnz).prop_map(
            move |entries| {
                let mut t = Triples::with_capacity(nr, nc, entries.len());
                for (r, c, v) in entries {
                    t.push(r, c, v);
                }
                t.to_csc_dedup::<PlusTimesU64>()
            },
        )
    })
}

/// A conformable pair (A: m×k, B: k×n).
fn arb_pair(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = (CscMatrix<u64>, CscMatrix<u64>)> {
    (1..=maxdim, 1..=maxdim, 1..=maxdim).prop_flat_map(move |(m, k, n)| {
        let a = proptest::collection::vec((0..m as u32, 0..k as u32, 1..5u64), 0..=maxnnz);
        let b = proptest::collection::vec((0..k as u32, 0..n as u32, 1..5u64), 0..=maxnnz);
        (a, b).prop_map(move |(ea, eb)| {
            let mut ta = Triples::with_capacity(m, k, ea.len());
            for (r, c, v) in ea {
                ta.push(r, c, v);
            }
            let mut tb = Triples::with_capacity(k, n, eb.len());
            for (r, c, v) in eb {
                tb.push(r, c, v);
            }
            (
                ta.to_csc_dedup::<PlusTimesU64>(),
                tb.to_csc_dedup::<PlusTimesU64>(),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three local numeric kernels agree with the SPA oracle.
    #[test]
    fn kernels_agree((a, b) in arb_pair(24, 80)) {
        let (oracle, ostats) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let (hash, hstats, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b, &mut []).unwrap();
        prop_assert!(hash.eq_modulo_order(&oracle));
        prop_assert_eq!(hstats.flops, ostats.flops);
        let (heap, _) = spgemm_heap::<PlusTimesU64>(&a, &b).unwrap();
        prop_assert!(heap.eq_modulo_order(&oracle));
    }

    /// Symbolic counts exactly predict numeric structure.
    #[test]
    fn symbolic_matches_numeric((a, b) in arb_pair(24, 80)) {
        let (counts, _) = symbolic_col_counts_fresh(&a, &b).unwrap();
        let (c, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for (j, &count) in counts.iter().enumerate() {
            prop_assert_eq!(count as usize, c.col_nnz(j));
        }
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution(m in arb_matrix(30, 100)) {
        prop_assert!(transpose(&transpose(&m)).eq_modulo_order(&m));
    }

    /// Column split / concat round-trips for any part count.
    #[test]
    fn split_concat_roundtrip(m in arb_matrix(30, 100), parts in 1usize..6) {
        let pieces = col_split_blocks(&m, parts);
        let back = col_concat(&pieces).unwrap();
        prop_assert!(back.eq_modulo_order(&m));
    }

    /// Block-cyclic batches cover all columns disjointly, and extracting
    /// them loses no entries.
    #[test]
    fn cyclic_batches_partition(m in arb_matrix(30, 100), b in 1usize..5, l in 1usize..5) {
        let mut seen = vec![false; m.ncols()];
        let mut total_nnz = 0usize;
        for t in 0..b {
            let cols: Vec<usize> = batch_pieces(m.ncols(), b, l, t).flatten().collect();
            for &c in &cols {
                prop_assert!(!seen[c], "column {} in two batches", c);
                seen[c] = true;
            }
            total_nnz += extract_cols(&m, &cols).nnz();
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(total_nnz, m.nnz());
    }

    /// Merging k matrices equals the triple-concatenation sum, for both
    /// merge kernels.
    #[test]
    fn merges_equal_triple_sum(parts in proptest::collection::vec(arb_matrix(12, 30), 1..5)) {
        // Force identical shapes by padding to the max dimensions.
        let nr = parts.iter().map(|p| p.nrows()).max().unwrap();
        let nc = parts.iter().map(|p| p.ncols()).max().unwrap();
        let parts: Vec<CscMatrix<u64>> = parts
            .iter()
            .map(|p| {
                let mut t = Triples::with_capacity(nr, nc, p.nnz());
                for (r, c, v) in p.iter() {
                    t.push(r, c as u32, v);
                }
                t.to_csc()
            })
            .collect();
        let mut all = Triples::new(nr, nc);
        for p in &parts {
            for (r, c, v) in p.iter() {
                all.push(r, c as u32, v);
            }
        }
        let oracle = all.to_csc_dedup::<PlusTimesU64>();
        let (hash, _, _) = merge_hash_sorted::<PlusTimesU64>(&parts, &mut []).unwrap();
        prop_assert!(hash.eq_modulo_order(&oracle));
        let sorted_parts: Vec<_> = parts.iter().map(|p| p.sorted_copy()).collect();
        let (heap, _, _) = merge_heap::<PlusTimesU64>(&sorted_parts, &mut []).unwrap();
        prop_assert!(heap.eq_modulo_order(&oracle));
    }
}

proptest! {
    // The distributed runs spawn threads, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full distributed pipeline equals the serial product for
    /// arbitrary matrices, grid shapes and batch counts.
    #[test]
    fn distributed_equals_serial(
        (a, b) in arb_pair(20, 60),
        grid_idx in 0usize..4,
        nb in 1usize..4,
    ) {
        let (p, l) = [(4, 1), (4, 4), (9, 1), (8, 2)][grid_idx];
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let mut cfg = RunConfig::new(p, l);
        cfg.forced_batches = Some(nb);
        let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
        prop_assert!(out.c.unwrap().eq_modulo_order(&reference));
    }
}
