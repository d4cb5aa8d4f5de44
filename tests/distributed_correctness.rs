//! Cross-crate integration tests: the distributed algorithms against the
//! serial reference, across grids, batch counts, kernel generations, and
//! semirings.

use spgemm_core::{run_spgemm, KernelStrategy, MemoryBudget, RunConfig};
use spgemm_sparse::gen::{clustered_similarity, er_random, kmer_matrix, rmat};
use spgemm_sparse::ops::transpose;
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64, Semiring};
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::CscMatrix;

fn check_all_configs<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>, tag: &str)
where
    S::T: Send + Sync,
{
    let (reference, _) = spgemm_spa::<S>(a, b).expect("serial reference");
    for (p, l) in [(1usize, 1usize), (4, 1), (4, 4), (9, 1), (12, 3), (16, 4), (16, 16)] {
        for nb in [1usize, 3, 7] {
            for kernels in [KernelStrategy::New, KernelStrategy::Previous] {
                let mut cfg = RunConfig::new(p, l);
                cfg.kernels = kernels;
                cfg.forced_batches = Some(nb);
                let out = run_spgemm::<S>(&cfg, a, b).expect("distributed run");
                let c = out.c.expect("gathered product");
                assert!(
                    c.eq_modulo_order(&reference),
                    "{tag}: mismatch at p={p} l={l} b={nb} kernels={}",
                    kernels.name()
                );
            }
        }
    }
}

#[test]
fn er_square_u64_all_configs() {
    let a = er_random::<PlusTimesU64>(60, 60, 5, 1).map(|_| 2u64);
    let b = er_random::<PlusTimesU64>(60, 60, 5, 2).map(|_| 3u64);
    check_all_configs::<PlusTimesU64>(&a, &b, "er-u64");
}

#[test]
fn rectangular_no_divisibility() {
    // Dimensions deliberately coprime with every grid side used.
    let a = er_random::<PlusTimesU64>(53, 37, 4, 3).map(|_| 1u64);
    let b = er_random::<PlusTimesU64>(37, 41, 4, 4).map(|_| 1u64);
    check_all_configs::<PlusTimesU64>(&a, &b, "rectangular");
}

#[test]
fn rmat_power_law_square() {
    let a = rmat::<PlusTimesU64>(7, 8, None, true, 5).map(|_| 1u64);
    check_all_configs::<PlusTimesU64>(&a, &a, "rmat");
}

#[test]
fn kmer_aat_rectangular() {
    let a = kmer_matrix(40, 160, 3, 6);
    let at = transpose(&a);
    check_all_configs::<PlusTimesU64>(&a, &at, "kmer-aat");
}

#[test]
fn float_clustered_square() {
    let a = clustered_similarity(4, 12, 5, 1, 7);
    let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &a).unwrap();
    for (p, l, nb) in [(4usize, 1usize, 2usize), (16, 4, 3), (16, 16, 1)] {
        let mut cfg = RunConfig::new(p, l);
        cfg.forced_batches = Some(nb);
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).unwrap();
        assert!(
            out.c.unwrap().approx_eq(&reference, 1e-10),
            "float mismatch at p={p} l={l} b={nb}"
        );
    }
}

#[test]
fn min_plus_semiring_distributed() {
    // Two-hop shortest paths over (min, +): semiring generality end-to-end.
    let a = er_random::<MinPlusF64>(40, 40, 4, 8);
    let (reference, _) = spgemm_spa::<MinPlusF64>(&a, &a).unwrap();
    let mut cfg = RunConfig::new(16, 4);
    cfg.forced_batches = Some(3);
    let out = run_spgemm::<MinPlusF64>(&cfg, &a, &a).unwrap();
    let c = out.c.unwrap();
    assert!(c.eq_modulo_order(&reference));
}

#[test]
fn boolean_semiring_distributed() {
    let a = er_random::<BoolOrAnd>(50, 50, 3, 9);
    let (reference, _) = spgemm_spa::<BoolOrAnd>(&a, &a).unwrap();
    let mut cfg = RunConfig::new(9, 1);
    cfg.forced_batches = Some(2);
    let out = run_spgemm::<BoolOrAnd>(&cfg, &a, &a).unwrap();
    assert!(out.c.unwrap().eq_modulo_order(&reference));
}

#[test]
fn empty_and_identity_edge_cases() {
    // Zero matrix in, zero matrix out.
    let z = CscMatrix::<u64>::zero(30, 30);
    let mut cfg = RunConfig::new(4, 1);
    cfg.forced_batches = Some(2);
    let out = run_spgemm::<PlusTimesU64>(&cfg, &z, &z).unwrap();
    assert_eq!(out.c.unwrap().nnz(), 0);

    // Identity times X equals X.
    let i = CscMatrix::identity(30);
    let x = er_random::<PlusTimesF64>(30, 30, 3, 11);
    let cfg = RunConfig::new(4, 4);
    let out = run_spgemm::<PlusTimesF64>(&cfg, &i, &x).unwrap();
    assert!(out.c.unwrap().approx_eq(&x, 1e-14));
}

#[test]
fn more_batches_than_columns_still_correct() {
    // b exceeding local column counts leaves some batches empty.
    let a = er_random::<PlusTimesU64>(20, 20, 3, 12).map(|_| 1u64);
    let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &a).unwrap();
    let mut cfg = RunConfig::new(4, 1);
    cfg.forced_batches = Some(15);
    let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &a).unwrap();
    assert!(out.c.unwrap().eq_modulo_order(&reference));
}

#[test]
fn symbolic_driven_run_matches_forced_run() {
    let a = clustered_similarity(4, 16, 6, 1, 13);
    let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &a).unwrap();
    let mut cfg = RunConfig::new(16, 4);
    cfg.budget = MemoryBudget::new((a.nnz() * 24 * 2) * 4);
    let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).unwrap();
    assert!(out.nbatches >= 1);
    assert!(out.symbolic.is_some());
    assert!(out.c.unwrap().approx_eq(&reference, 1e-10));
}
