//! Fig. 15: head-to-head against the previous SUMMA3D [13].
//!
//! Paper setup: squaring Eukarya with 4 layers, no batching, on 16 and 256
//! nodes; the previous implementation is CombBLAS SUMMA3D with the
//! heap/hybrid sorted kernels. Finding: computation > 8× faster with the
//! new unsorted-hash kernels; communication slightly faster too. (And the
//! previous code *fails outright* when memory runs out — reproduced here
//! by the `InputsExceedMemory`/no-batching path.)
//!
//! Both kernel generations run through the same distributed pipeline; the
//! computation gap also shows up in *real* (wall-clock) local kernel time,
//! measured below alongside the modeled numbers.

use spgemm_bench::{measure_f64, workloads, write_csv};
use spgemm_core::{BackendKind, KernelStrategy, LocalKernels, RunConfig};
use spgemm_simgrid::{KernelCounters, StepReport};
use spgemm_sparse::semiring::PlusTimesF64;
use std::time::Instant;

fn main() {
    let a = workloads::eukarya_like();
    println!(
        "Fig. 15: BatchedSUMMA3D (new kernels) vs previous SUMMA3D [13], \
         Eukarya-like n={} nnz={}, l=4, b=1\n",
        a.nrows(),
        a.nnz()
    );
    let mut report = StepReport::new();
    let mut csv = String::from("p,kernels,backend,comp_s,comm_s,total_s,load_imbalance\n");
    for p in [16usize, 256] {
        let mut rows = Vec::new();
        for kernels in [KernelStrategy::Previous, KernelStrategy::New] {
            let mut cfg = RunConfig::new(p, 4);
            cfg.kernels = kernels;
            cfg.forced_batches = Some(1);
            let out = measure_f64(&cfg, &a, &a);
            report.push_with_counters(
                format!("p={p} {}", kernels.name()),
                out.max,
                KernelCounters {
                    allocs: out.kernel_stats.allocs,
                    peak_scratch_bytes: out.kernel_stats.peak_scratch_bytes,
                    memcpy_bytes: out.kernel_stats.memcpy_bytes,
                    load_imbalance: out.load_balance.imbalance(),
                },
            );
            csv.push_str(&format!(
                "{p},{},simgrid,{:.6e},{:.6e},{:.6e},\n",
                kernels.name(),
                out.max.comp_total(),
                out.max.comm_total(),
                out.max.total()
            ));
            rows.push(out.max);
        }
        println!(
            "p={p}: computation {:.1}x faster with new kernels (paper: >8x), \
             communication {:.2}x",
            rows[0].comp_total() / rows[1].comp_total(),
            rows[0].comm_total() / rows[1].comm_total().max(1e-12)
        );
    }
    // Native-backend rows: the same pipeline with genuinely multithreaded
    // kernels; compute seconds below are measured wall-clock, and the
    // Imbal column reports the per-thread max/mean work ratio of the
    // flop-balanced column ranges.
    let native_threads = 4usize;
    for kernels in [KernelStrategy::Previous, KernelStrategy::New] {
        let mut cfg = RunConfig::new(16, 4);
        cfg.kernels = kernels;
        cfg.forced_batches = Some(1);
        cfg.backend = BackendKind::Native { threads: native_threads };
        let out = measure_f64(&cfg, &a, &a);
        report.push_with_counters(
            format!("p=16 {} native t={native_threads}", kernels.name()),
            out.max,
            KernelCounters {
                allocs: out.kernel_stats.allocs,
                peak_scratch_bytes: out.kernel_stats.peak_scratch_bytes,
                memcpy_bytes: out.kernel_stats.memcpy_bytes,
                load_imbalance: out.load_balance.imbalance(),
            },
        );
        csv.push_str(&format!(
            "16,{},native,{:.6e},{:.6e},{:.6e},{:.4}\n",
            kernels.name(),
            out.max.comp_total(),
            out.max.comm_total(),
            out.max.total(),
            out.load_balance.imbalance()
        ));
    }
    println!("\n{}", report.to_table());

    // Real wall-clock cross-check on one process's worth of local work:
    // multiply + merge with each kernel generation (the paper's >8x comes
    // mostly from the merges — cf. Table VII).
    println!("real single-process kernel wall-clock (A² + 4-way stage merge):");
    let stages: Vec<_> = (0..4)
        .map(|s| {
            use spgemm_sparse::ops::{block_range, col_block, row_block};
            let r = block_range(a.ncols(), 4, s);
            let (left, right) = (col_block(&a, r.clone()), row_block(&a, r));
            (left, right)
        })
        .collect();
    let mut timings = Vec::new();
    for kernels in [KernelStrategy::Previous, KernelStrategy::New] {
        let mut engine = LocalKernels::new(kernels);
        let t0 = Instant::now();
        let partials: Vec<_> = stages
            .iter()
            .map(|(l, r)| engine.local_multiply::<PlusTimesF64>(l, r).unwrap().0)
            .collect();
        let multiply = t0.elapsed();
        let t0 = Instant::now();
        let (_merged, _) = engine.merge_layer::<PlusTimesF64>(&partials).unwrap();
        let merge = t0.elapsed();
        println!(
            "  {:<28} multiply {multiply:>10.2?}  merge {merge:>10.2?}  total {:>10.2?}",
            kernels.name(),
            multiply + merge
        );
        timings.push((multiply + merge).as_secs_f64());
    }
    println!(
        "  real local-computation speedup: {:.2}x (paper: >8x vs CombBLAS SUMMA3D)",
        timings[0] / timings[1]
    );
    write_csv("fig15_vs_summa3d.csv", &csv);
}
