//! Fig. 12 companion: real thread-scaling of the local kernels.
//!
//! The paper runs 16 OpenMP threads per MPI process (Sec. V-A); the Native
//! backend reproduces that level of parallelism by handing each kernel one
//! scratch arena per thread (`spgemm_sparse::par`). This bench sweeps the
//! arena count on a Friendster-like power-law squaring and reports measured
//! wall-clock speedup vs one thread for the unsorted-hash and hybrid
//! kernels, plus the hash merge — the paths the distributed pipeline
//! drives under `KernelStrategy::New` / `Previous`. Output includes a
//! speedup-vs-threads CSV (`fig12_threads.csv`).
//!
//! Absolute speedups depend on the host: on a ≥8-core machine the hash
//! kernel reaches >3x at 8 threads; on fewer cores the curve flattens at
//! the core count (the harness prints the available parallelism so the
//! numbers can be judged in context).

use criterion::{criterion_group, BenchmarkId, Criterion};
use spgemm_bench::{workloads, write_csv};
use spgemm_sparse::merge::merge_hash_unsorted;
use spgemm_sparse::ops::{block_range, col_block, row_block};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::{spgemm_hash_unsorted, spgemm_hybrid};
use spgemm_sparse::{CscMatrix, SpGemmWorkspace};
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn operand() -> CscMatrix<f64> {
    workloads::friendster_like(12)
}

fn arenas(n: usize) -> Vec<SpGemmWorkspace<f64>> {
    (0..n).map(|_| SpGemmWorkspace::new()).collect()
}

/// Stage partials for the merge sweep: a 4-way SUMMA-stage split of A².
fn stage_partials(a: &CscMatrix<f64>) -> Vec<CscMatrix<f64>> {
    (0..4)
        .map(|s| {
            let r = block_range(a.ncols(), 4, s);
            let (left, right) = (col_block(a, r.clone()), row_block(a, r));
            spgemm_hash_unsorted::<PlusTimesF64>(&left, &right, &mut [])
                .unwrap()
                .0
        })
        .collect()
}

fn bench_thread_sweep(c: &mut Criterion) {
    let a = operand();
    let parts = stage_partials(&a);
    let mut group = c.benchmark_group("fig12_threads");
    group.sample_size(10);
    for nthreads in THREADS {
        group.bench_with_input(BenchmarkId::new("hash", nthreads), &nthreads, |b, &n| {
            let mut ws = arenas(n);
            b.iter(|| spgemm_hash_unsorted::<PlusTimesF64>(&a, &a, &mut ws).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("hybrid", nthreads), &nthreads, |b, &n| {
            let mut ws = arenas(n);
            b.iter(|| spgemm_hybrid::<PlusTimesF64>(&a, &a, &mut ws).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("merge-hash", nthreads), &nthreads, |b, &n| {
            let mut ws = arenas(n);
            b.iter(|| merge_hash_unsorted::<PlusTimesF64>(&parts, &mut ws).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_thread_sweep);

/// Direct timed sweep: median-of-3 wall-clock per thread count, speedup
/// vs 1 thread, CSV artifact.
fn speedup_csv() {
    let a = operand();
    let parts = stage_partials(&a);
    let mut csv = String::from("kernel,threads,secs,speedup\n");
    println!(
        "\nmeasured speedup vs 1 thread (available parallelism: {}):",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let time = |f: &mut dyn FnMut()| {
        let mut samples = [0.0f64; 3];
        for s in &mut samples {
            let t0 = Instant::now();
            f();
            *s = t0.elapsed().as_secs_f64();
        }
        samples.sort_by(f64::total_cmp);
        samples[1]
    };
    type Runner<'a> = (&'static str, Box<dyn FnMut(usize) + 'a>);
    let mut runners: Vec<Runner> = vec![
        (
            "hash",
            Box::new(|n| {
                spgemm_hash_unsorted::<PlusTimesF64>(&a, &a, &mut arenas(n)).unwrap();
            }),
        ),
        (
            "hybrid",
            Box::new(|n| {
                spgemm_hybrid::<PlusTimesF64>(&a, &a, &mut arenas(n)).unwrap();
            }),
        ),
        (
            "merge-hash",
            Box::new(|n| {
                merge_hash_unsorted::<PlusTimesF64>(&parts, &mut arenas(n)).unwrap();
            }),
        ),
    ];
    for (name, run) in &mut runners {
        let mut base = 0.0f64;
        for nthreads in THREADS {
            let secs = time(&mut || run(nthreads));
            if nthreads == 1 {
                base = secs;
            }
            let speedup = base / secs.max(1e-12);
            println!("  {name:<12} t={nthreads}: {:>9.2} ms  {speedup:.2}x", secs * 1e3);
            csv.push_str(&format!("{name},{nthreads},{secs:.6e},{speedup:.4}\n"));
        }
    }
    write_csv("fig12_threads.csv", &csv);
}

fn main() {
    let a = operand();
    println!(
        "Fig. 12 companion: thread scaling of local kernels, Friendster-like \
         n={} nnz={}\n",
        a.nrows(),
        a.nnz()
    );
    benches();
    speedup_csv();
}
