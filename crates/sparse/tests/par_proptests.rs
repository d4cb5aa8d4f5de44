//! Conformance of the scratch-taking kernel entry points: the arena count
//! never changes the answer.
//!
//! Every kernel takes `scratch: &mut [SpGemmWorkspace]` whose length is
//! the thread count. The contract is that an empty slice (throwaway
//! scratch), one arena (inline on the caller's arena) and many arenas
//! (column ranges on threads) produce **bit-identical** output — same
//! `colptr`, `rowidx`, `vals` and `sorted` flag (full `PartialEq` on
//! `CscMatrix`) — and the exact-integer meters (`flops`, `nnz_out`) match
//! too. Only arena-warmth meters (allocs, peak scratch, memcpy) may differ,
//! so those are deliberately not compared. The arenas of one count are
//! reused across the kernels of a check, so stale state would show.

use proptest::prelude::*;
use spgemm_sparse::gen::er_random;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted, merge_heap};
use spgemm_sparse::par::{split_cols_by_weight, RangeBalance};
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_hybrid, symbolic_col_counts, symbolic_col_counts_fresh,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, Triples};

/// The arena counts every comparison sweeps against the empty slice (1 is
/// the inline path on a caller-owned arena; 3 gives uneven ranges; 8
/// exceeds small matrices' column counts).
const ARENAS: [usize; 5] = [0, 1, 2, 3, 8];

fn arenas<T: Copy>(n: usize) -> Vec<SpGemmWorkspace<T>> {
    (0..n).map(|_| SpGemmWorkspace::new()).collect()
}

/// Multiply and symbolic kernels: every arena count equals the empty
/// slice bit-for-bit. `a` must be sorted (hybrid requires it; the hash
/// kernel doesn't care).
fn check_multiply<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>) {
    let (hash, hash_stats, _) = spgemm_hash_unsorted::<S>(a, b, &mut []).unwrap();
    let (hybrid, hybrid_stats, _) = spgemm_hybrid::<S>(a, b, &mut []).unwrap();
    let (counts, sym_stats) = symbolic_col_counts_fresh(a, b).unwrap();
    for n in ARENAS {
        let mut ws = arenas::<S::T>(n);
        let (c, stats, bal) = spgemm_hash_unsorted::<S>(a, b, &mut ws).unwrap();
        assert_eq!(c, hash, "hash kernel diverged at {n} arenas");
        assert_eq!((stats.flops, stats.nnz_out), (hash_stats.flops, hash_stats.nnz_out));
        if n <= 1 {
            assert_eq!(bal, RangeBalance::default(), "one range records no balance");
        }

        let (c, stats, _) = spgemm_hybrid::<S>(a, b, &mut ws).unwrap();
        assert_eq!(c, hybrid, "hybrid kernel diverged at {n} arenas");
        assert_eq!((stats.flops, stats.nnz_out), (hybrid_stats.flops, hybrid_stats.nnz_out));

        let (pc, stats, _) = symbolic_col_counts(a, b, &mut ws).unwrap();
        assert_eq!(pc, counts, "symbolic counts diverged at {n} arenas");
        assert_eq!((stats.flops, stats.nnz_out), (sym_stats.flops, sym_stats.nnz_out));
    }
}

/// Merge kernels: every arena count equals the empty slice. Parts must be
/// sorted (heap merge requires it).
fn check_merge<S: Semiring>(parts: &[CscMatrix<S::T>]) {
    let (unsorted, ..) = merge_hash_unsorted::<S>(parts, &mut []).unwrap();
    let (sorted, ..) = merge_hash_sorted::<S>(parts, &mut []).unwrap();
    let (heap, ..) = merge_heap::<S>(parts, &mut []).unwrap();
    for n in ARENAS {
        let mut ws = arenas::<S::T>(n);
        let (c, ..) = merge_hash_unsorted::<S>(parts, &mut ws).unwrap();
        assert_eq!(c, unsorted, "hash merge diverged at {n} arenas");
        let (c, ..) = merge_hash_sorted::<S>(parts, &mut ws).unwrap();
        assert_eq!(c, sorted, "sorted hash merge diverged at {n} arenas");
        let (c, ..) = merge_heap::<S>(parts, &mut ws).unwrap();
        assert_eq!(c, heap, "heap merge diverged at {n} arenas");
    }
}

fn arb_square(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = CscMatrix<u64>> {
    (2..=maxdim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..9u64), 0..=maxnnz).prop_map(
            move |entries| {
                let mut t = Triples::with_capacity(n, n, entries.len());
                for (r, c, v) in entries {
                    t.push(r, c, v);
                }
                let mut m = t.to_csc_dedup::<PlusTimesU64>();
                m.sort_columns();
                m
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random squarings: every multiply kernel is arena-count invariant.
    #[test]
    fn multiply_is_arena_count_invariant(m in arb_square(24, 90)) {
        check_multiply::<PlusTimesU64>(&m, &m);
    }

    /// Random part stacks: every merge kernel is arena-count invariant.
    #[test]
    fn merge_is_arena_count_invariant(m in arb_square(20, 60), seed in 0u64..500) {
        let mut b = er_random::<PlusTimesU64>(m.nrows(), m.ncols(), 3, seed);
        b.sort_columns();
        let parts = [m.clone(), b, m];
        check_merge::<PlusTimesU64>(&parts);
    }
}

/// Every supported semiring round-trips bit-identically — including the
/// non-commutative-add-sensitive min-plus and the boolean semiring.
#[test]
fn all_semirings_bit_identical() {
    let n = 48;
    let af = er_random::<PlusTimesF64>(n, n, 5, 7);
    check_multiply::<PlusTimesF64>(&af, &af);
    check_merge::<PlusTimesF64>(&[af, er_random::<PlusTimesF64>(n, n, 4, 8)]);

    let am = er_random::<MinPlusF64>(n, n, 5, 9);
    check_multiply::<MinPlusF64>(&am, &am);
    check_merge::<MinPlusF64>(&[am, er_random::<MinPlusF64>(n, n, 4, 10)]);

    let ab = er_random::<BoolOrAnd>(n, n, 5, 11);
    check_multiply::<BoolOrAnd>(&ab, &ab);
    check_merge::<BoolOrAnd>(&[ab, er_random::<BoolOrAnd>(n, n, 4, 12)]);

    let au = er_random::<PlusTimesU64>(n, n, 5, 13);
    check_multiply::<PlusTimesU64>(&au, &au);
    check_merge::<PlusTimesU64>(&[au, er_random::<PlusTimesU64>(n, n, 4, 14)]);
}

/// Degenerate splitter input: B made almost entirely of empty columns.
#[test]
fn empty_columns_split_and_match() {
    let a = er_random::<PlusTimesU64>(32, 32, 4, 21);
    let mut t = Triples::with_capacity(32, 32, 6);
    for r in 0..6u32 {
        t.push(r, 17, 1 + r as u64); // one lone populated column
    }
    let b = t.to_csc_dedup::<PlusTimesU64>();
    check_multiply::<PlusTimesU64>(&a, &b);
    // A fully empty operand too.
    let empty = Triples::<u64>::with_capacity(32, 32, 0).to_csc_dedup::<PlusTimesU64>();
    check_multiply::<PlusTimesU64>(&a, &empty);
    check_merge::<PlusTimesU64>(&[empty.clone(), empty]);
}

/// Degenerate splitter input: one dense column dwarfing everything else.
#[test]
fn single_dense_column_matches() {
    let a = er_random::<PlusTimesU64>(40, 40, 3, 22);
    let mut t = Triples::with_capacity(40, 40, 40 + 39);
    for r in 0..40u32 {
        t.push(r, 13, (r + 1) as u64); // dense column 13
    }
    for c in 0..40u32 {
        if c != 13 {
            t.push(c % 40, c, 1);
        }
    }
    let mut b = t.to_csc_dedup::<PlusTimesU64>();
    b.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &b);
}

/// Degenerate splitter input: all nonzeros land in one thread's range
/// (leading columns hold everything; trailing columns are structural
/// only). Also covers ncols < nthreads via a 3-column B against 8 threads.
#[test]
fn all_nnz_in_one_thread_range_matches() {
    let a = er_random::<PlusTimesU64>(24, 24, 4, 23);
    let mut t = Triples::with_capacity(24, 24, 24 * 3);
    for c in 0..3u32 {
        for r in 0..24u32 {
            t.push(r, c, (r + c + 1) as u64);
        }
    }
    let mut b = t.to_csc_dedup::<PlusTimesU64>();
    b.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &b);

    // Narrower than the thread pool: 3 output columns, 8 threads.
    let mut narrow = Triples::with_capacity(24, 3, 24 * 3);
    for c in 0..3u32 {
        for r in 0..24u32 {
            narrow.push(r, c, (r + 2 * c + 1) as u64);
        }
    }
    let mut nb = narrow.to_csc_dedup::<PlusTimesU64>();
    nb.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &nb);
}

/// The splitter itself on degenerate weight vectors: covers, stays in
/// bounds, and never emits an empty range.
#[test]
fn splitter_degenerate_weights() {
    for nparts in ARENAS {
        for weights in [
            vec![],
            vec![0u64; 1],
            vec![0u64; 13],
            {
                let mut w = vec![0u64; 9];
                w[0] = u64::MAX / 16;
                w
            },
            {
                let mut w = vec![1u64; 9];
                w[8] = 1 << 40;
                w
            },
        ] {
            let ranges = split_cols_by_weight(&weights, nparts);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= nparts.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, weights.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if !weights.is_empty() {
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }
}
