//! Table VII: previous vs new local computation kernels, real wall-clock.
//!
//! Paper setup: multiplying Isolates-small on 65,536 cores, comparing the
//! previous generation (hybrid sorted SpGEMM [25], heap merging [13]) with
//! this paper's unsorted-hash SpGEMM and hash merging, at l ∈ {1, 4, 16}.
//! Findings: Local-Multiply up to ~30% faster (more with more layers);
//! Merge-Layer and Merge-Fiber an order of magnitude faster.
//!
//! This harness reconstructs one process's local work serially — layer
//! slices of the inner dimension, per-stage partials, per-layer pieces —
//! and measures *real* time for both kernel generations (no cost model).

use spgemm_bench::{workloads, write_csv};
use spgemm_core::{KernelStrategy, LocalKernels};
use spgemm_sparse::ops::{block_range, col_block, row_block};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::CscMatrix;
use std::time::Instant;

struct Times {
    local_multiply: f64,
    merge_layer: f64,
    merge_fiber: f64,
}

/// One process's worth of layered work: inner dimension cut into `l`
/// slices; each slice's multiply cut into `stages` stage-partials.
fn run_generation(a: &CscMatrix<f64>, l: usize, stages: usize, strat: KernelStrategy) -> Times {
    let n = a.ncols();
    let mut kernels = LocalKernels::new(strat);
    let mut lm = 0.0;
    let mut merge_layer = 0.0;
    let mut layer_pieces: Vec<CscMatrix<f64>> = Vec::with_capacity(l);
    for k in 0..l {
        let slice = block_range(n, l, k);
        // Stage partials within this layer.
        let mut partials = Vec::with_capacity(stages);
        for s in 0..stages {
            let inner = block_range(slice.len(), stages, s);
            let abs = slice.start + inner.start..slice.start + inner.end;
            let a_piece = col_block(a, abs.clone());
            let b_piece = row_block(a, abs);
            let t = Instant::now();
            let (c, _) = kernels
                .local_multiply::<PlusTimesF64>(&a_piece, &b_piece)
                .expect("local multiply");
            lm += t.elapsed().as_secs_f64();
            partials.push(c);
        }
        let t = Instant::now();
        let (merged, _) = kernels
            .merge_layer::<PlusTimesF64>(&partials)
            .expect("merge layer");
        merge_layer += t.elapsed().as_secs_f64();
        layer_pieces.push(merged);
    }
    let t = Instant::now();
    let (_final, _) = kernels
        .merge_fiber::<PlusTimesF64>(&layer_pieces)
        .expect("merge fiber");
    let merge_fiber = t.elapsed().as_secs_f64();
    Times {
        local_multiply: lm,
        merge_layer,
        merge_fiber,
    }
}

fn main() {
    let a = workloads::isolates_like(12, 110);
    println!(
        "Table VII: real local-kernel time, Isolates-like n={} nnz={}, 4 SUMMA stages\n",
        a.nrows(),
        a.nnz()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "layers", "LM-prev(ms)", "LM-new(ms)", "ratio", "ML-prev(ms)", "ML-new(ms)", "ratio",
        "MF-prev(ms)", "MF-new(ms)", "ratio"
    );
    let mut csv = String::from(
        "layers,lm_prev_s,lm_new_s,merge_layer_prev_s,merge_layer_new_s,merge_fiber_prev_s,merge_fiber_new_s\n",
    );
    for l in [1usize, 4, 16] {
        let prev = run_generation(&a, l, 4, KernelStrategy::Previous);
        let new = run_generation(&a, l, 4, KernelStrategy::New);
        println!(
            "{l:>6} {:>12.2} {:>12.2} {:>8.2} {:>12.2} {:>12.2} {:>8.2} {:>12.2} {:>12.2} {:>8.2}",
            prev.local_multiply * 1e3,
            new.local_multiply * 1e3,
            prev.local_multiply / new.local_multiply,
            prev.merge_layer * 1e3,
            new.merge_layer * 1e3,
            prev.merge_layer / new.merge_layer,
            prev.merge_fiber * 1e3,
            new.merge_fiber * 1e3,
            prev.merge_fiber / new.merge_fiber,
        );
        csv.push_str(&format!(
            "{l},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e}\n",
            prev.local_multiply,
            new.local_multiply,
            prev.merge_layer,
            new.merge_layer,
            prev.merge_fiber,
            new.merge_fiber
        ));
    }
    println!(
        "\nExpected shape (paper Table VII): merges an order of magnitude faster with \
         unsorted-hash; Local-Multiply moderately faster, more so at higher l."
    );
    write_csv("table7_local_kernels.csv", &csv);
}
