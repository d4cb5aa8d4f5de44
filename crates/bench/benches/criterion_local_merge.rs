//! Criterion micro-benchmarks of the merge kernels (real time): the
//! paper's order-of-magnitude hash-vs-heap merging claim (Table VII), as
//! a function of the number of merged matrices (= layers or stages).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted, merge_heap};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::CscMatrix;

fn parts(k: usize) -> Vec<CscMatrix<f64>> {
    (0..k)
        .map(|s| er_random::<PlusTimesF64>(4000, 2000, 6, 100 + s as u64))
        .collect()
}

fn bench_merges(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_merge");
    group.sample_size(10);
    for k in [4usize, 16] {
        let ps = parts(k);
        group.bench_with_input(BenchmarkId::new("hash-unsorted", k), &ps, |b, ps| {
            b.iter(|| merge_hash_unsorted::<PlusTimesF64>(ps, &mut []).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("hash-sorted", k), &ps, |b, ps| {
            b.iter(|| merge_hash_sorted::<PlusTimesF64>(ps, &mut []).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("heap", k), &ps, |b, ps| {
            b.iter(|| merge_heap::<PlusTimesF64>(ps, &mut []).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merges);
criterion_main!(benches);
