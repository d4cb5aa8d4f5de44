//! Criterion micro-benchmarks for hypersparse (DCSC) storage: SpGEMM over
//! doubly compressed operands versus the plain CSC kernel, in the regime
//! the 3D distribution creates at scale (`nnz ≪ ncols` local blocks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spgemm_sparse::dcsc::{spgemm_hash_dcsc, DcscMatrix};
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::spgemm::spgemm_hash_unsorted;
use spgemm_sparse::{CscMatrix, Triples};

/// A hypersparse square matrix: `nnz` entries across `n` columns, `nnz ≪ n`.
fn hypersparse(n: usize, nnz: usize, seed: u64) -> CscMatrix<u64> {
    let mut t = Triples::new(n, n);
    let mut x = seed | 1;
    for _ in 0..nnz {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = (x >> 33) as usize % n;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let c = (x >> 33) as usize % n;
        t.push(r as u32, c as u32, 1);
    }
    t.to_csc_dedup::<PlusTimesU64>()
}

fn bench_dcsc(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypersparse_spgemm");
    group.sample_size(10);
    for (n, nnz) in [(100_000usize, 2_000usize), (1_000_000, 5_000)] {
        let a = hypersparse(n, nnz, 7);
        let b = hypersparse(n, nnz, 8);
        let (da, db) = (DcscMatrix::from_csc(&a), DcscMatrix::from_csc(&b));
        println!(
            "n={n} nnz={} fill={:.5} — DCSC {} B vs CSC {} B",
            a.nnz(),
            da.fill_ratio(),
            da.storage_bytes(),
            da.csc_storage_bytes()
        );
        group.bench_with_input(BenchmarkId::new("csc", n), &(&a, &b), |bch, (a, b)| {
            bch.iter(|| spgemm_hash_unsorted::<PlusTimesU64>(a, b, &mut []).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("dcsc", n), &(&da, &db), |bch, (da, db)| {
            bch.iter(|| spgemm_hash_dcsc::<PlusTimesU64>(da, db).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dcsc);
criterion_main!(benches);
