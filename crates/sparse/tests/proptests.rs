//! Property tests for the sparse substrate's structural invariants.

use proptest::prelude::*;
use spgemm_sparse::ops::{
    hadamard, permute_rows, permute_symmetric, prune_topk_cols, random_permutation, row_block,
    row_split_blocks, transpose,
};
use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{spgemm_hash_unsorted, spgemm_spa};
use spgemm_sparse::{CscMatrix, Triples};

fn arb_matrix(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = CscMatrix<u64>> {
    (1..=maxdim, 1..=maxdim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr as u32, 0..nc as u32, 1..9u64), 0..=maxnnz).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sort_columns is idempotent and preserves the entry multiset.
    #[test]
    fn sort_columns_idempotent(m in arb_matrix(30, 120)) {
        let mut s1 = m.clone();
        s1.sort_columns();
        let mut s2 = s1.clone();
        s2.sort_columns();
        prop_assert_eq!(&s1, &s2);
        prop_assert!(s1.eq_modulo_order(&m));
    }

    /// retain(|..| true) is the identity; retain(|..| false) empties.
    #[test]
    fn retain_extremes(m in arb_matrix(25, 80)) {
        let mut all = m.clone();
        all.retain(|_, _, _| true);
        prop_assert!(all.eq_modulo_order(&m));
        let mut none = m.clone();
        none.retain(|_, _, _| false);
        prop_assert_eq!(none.nnz(), 0);
    }

    /// Symmetric permutation preserves products up to relabeling:
    /// P·(A·A)·Pᵀ = (P·A·Pᵀ)·(P·A·Pᵀ).
    #[test]
    fn permutation_commutes_with_squaring(m in arb_matrix(20, 50), seed in 0u64..1000) {
        if m.nrows() == m.ncols() {
            let perm = random_permutation(m.nrows(), seed);
            let pm = permute_symmetric(&m, &perm);
            let (sq_then_perm, _) = spgemm_spa::<PlusTimesU64>(&m, &m).unwrap();
            let lhs = permute_symmetric(&sq_then_perm, &perm);
            let (rhs, _) = spgemm_spa::<PlusTimesU64>(&pm, &pm).unwrap();
            prop_assert!(lhs.eq_modulo_order(&rhs));
        }
    }

    /// Row permutation preserves the transpose relation:
    /// (P·A)ᵀ = Aᵀ·Pᵀ (columns relabeled).
    #[test]
    fn permute_rows_preserves_nnz_and_columns(m in arb_matrix(20, 60), seed in 0u64..1000) {
        let perm = random_permutation(m.nrows(), seed);
        let pm = permute_rows(&m, &perm);
        prop_assert_eq!(pm.nnz(), m.nnz());
        for j in 0..m.ncols() {
            prop_assert_eq!(pm.col_nnz(j), m.col_nnz(j));
        }
    }

    /// Row blocks partition the entries.
    #[test]
    fn row_blocks_partition(m in arb_matrix(30, 100), parts in 1usize..6) {
        let blocks = row_split_blocks(&m, parts);
        prop_assert_eq!(blocks.iter().map(|b| b.nnz()).sum::<usize>(), m.nnz());
        prop_assert_eq!(blocks.iter().map(|b| b.nrows()).sum::<usize>(), m.nrows());
        // Each block is the matching row_block.
        let single = row_block(&m, 0..m.nrows());
        prop_assert!(single.eq_modulo_order(&m));
    }

    /// Hadamard with self under (+,×) squares the values in place.
    #[test]
    fn hadamard_self_squares(m in arb_matrix(20, 60)) {
        let h = hadamard::<PlusTimesU64>(&m, &m).unwrap();
        prop_assert_eq!(h.nnz(), m.nnz());
        let expect = m.map(|v| v * v);
        prop_assert!(h.eq_modulo_order(&expect));
    }

    /// prune_topk keeps column sizes ≤ k and only drops the smallest.
    #[test]
    fn prune_topk_bounds(m in arb_matrix(25, 80), k in 1usize..6) {
        let f = m.map(|v| v as f64);
        let p = prune_topk_cols(&f, k);
        for j in 0..p.ncols() {
            prop_assert!(p.col_nnz(j) <= k);
            prop_assert!(p.col_nnz(j) == f.col_nnz(j).min(k));
            // Every kept value is >= every dropped value.
            let kept_min = p.col(j).1.iter().copied().fold(f64::INFINITY, f64::min);
            let kept: std::collections::HashSet<u32> = p.col(j).0.iter().copied().collect();
            for (&r, &v) in f.col(j).0.iter().zip(f.col(j).1.iter()) {
                if !kept.contains(&r) {
                    prop_assert!(v <= kept_min + 1e-12);
                }
            }
        }
    }

    /// Matrix Market roundtrip preserves the matrix exactly enough.
    #[test]
    fn matrix_market_roundtrip(m in arb_matrix(20, 60)) {
        let f = m.map(|v| v as f64);
        let mut buf = Vec::new();
        spgemm_sparse::io::write_matrix_market(&f, &mut buf).unwrap();
        let back = spgemm_sparse::io::read_matrix_market(&buf[..]).unwrap();
        prop_assert!(f.approx_eq(&back, 1e-12));
    }

    /// transpose turns column degree into row degree.
    #[test]
    fn transpose_swaps_degrees(m in arb_matrix(25, 80)) {
        let t = transpose(&m);
        prop_assert_eq!(t.nrows(), m.ncols());
        prop_assert_eq!(t.ncols(), m.nrows());
        let mut row_deg = vec![0usize; m.nrows()];
        for (r, _, _) in m.iter() {
            row_deg[r as usize] += 1;
        }
        for (j, &d) in row_deg.iter().enumerate() {
            prop_assert_eq!(t.col_nnz(j), d);
        }
    }

    /// f64 distributed-style sums: hash and SPA agree within tolerance
    /// despite different accumulation orders.
    #[test]
    fn float_kernels_agree_within_tolerance(m in arb_matrix(20, 60)) {
        if m.nrows() == m.ncols() {
            let f = m.map(|v| v as f64 * 0.37);
            let (h, _, _) = spgemm_hash_unsorted::<PlusTimesF64>(&f, &f, &mut []).unwrap();
            let (s, _) = spgemm_spa::<PlusTimesF64>(&f, &f).unwrap();
            prop_assert!(h.approx_eq(&s, 1e-9));
        }
    }
}
