//! Criterion micro-benchmarks of the local SpGEMM kernels across
//! compression-factor regimes (real time; complements Table VII and the
//! Sec. IV-D claims: unsorted-hash 30–50% faster than hybrid).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spgemm_sparse::gen::{er_random, rmat};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::{spgemm_hash_unsorted, spgemm_heap, spgemm_hybrid, spgemm_spa};
use spgemm_sparse::CscMatrix;

fn pairs() -> Vec<(&'static str, CscMatrix<f64>, CscMatrix<f64>)> {
    // Low cf (~1): sparse uniform. High cf: denser columns. Skewed: R-MAT.
    let er_sparse = er_random::<PlusTimesF64>(4000, 4000, 4, 11);
    let er_dense = er_random::<PlusTimesF64>(2000, 2000, 24, 12);
    let skewed = rmat::<PlusTimesF64>(11, 10, None, true, 13);
    vec![
        ("er-low-cf", er_sparse.clone(), er_sparse),
        ("er-high-cf", er_dense.clone(), er_dense),
        ("rmat-skewed", skewed.clone(), skewed),
    ]
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_spgemm");
    group.sample_size(10);
    for (name, a, b) in pairs() {
        group.bench_with_input(BenchmarkId::new("unsorted-hash", name), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| spgemm_hash_unsorted::<PlusTimesF64>(a, b, &mut []).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("hybrid-sorted", name), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| spgemm_hybrid::<PlusTimesF64>(a, b, &mut []).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("heap", name), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| spgemm_heap::<PlusTimesF64>(a, b).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("spa", name), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| spgemm_spa::<PlusTimesF64>(a, b).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
