//! Fig. 3: end-to-end HipMCL iterations with BatchedSUMMA3D, 1 layer vs
//! 16 layers.
//!
//! Paper setup: first 10 Markov-clustering iterations of Isolates-small on
//! 65,536 cores; early iterations need multiple batches; the 16-layer
//! setting needs *more* batches yet wins ≈ 2× on most expensive iterations
//! and 1.88× overall — and without batching the workload is simply
//! infeasible. Here: an Isolates-like protein network on 64 simulated
//! ranks with a per-rank budget sized so early iterations batch.

use spgemm_apps::mcl::{markov_cluster, MclParams};
use spgemm_bench::{workloads, write_csv};
use spgemm_core::MemoryBudget;

fn main() {
    let adj = workloads::isolates_like(12, 24);
    let p = 64;
    println!(
        "Fig. 3: HipMCL on Isolates-like protein network (n={}, nnz={}), p={p}\n",
        adj.nrows(),
        adj.nnz()
    );
    let mut csv = String::from("layers,iter,batches,spgemm_s,chaos\n");
    let (mut totals, mut first_batches) = (Vec::new(), Vec::new());
    for layers in [1usize, 16] {
        let mut params = MclParams::new(p, layers);
        params.select = 24;
        params.max_iters = 10;
        params.chaos_threshold = 1e-4;
        params.budget = MemoryBudget::new(adj.nrows() * params.select * 24 * 10);
        let result = markov_cluster(&adj, &params).expect("clustering failed");
        println!("--- {layers} layer(s) ---");
        println!("{:>4} {:>8} {:>14} {:>10}", "iter", "batches", "SpGEMM(s)", "chaos");
        let mut total = 0.0;
        for (i, it) in result.per_iter.iter().enumerate() {
            println!(
                "{:>4} {:>8} {:>14.5} {:>10.4}",
                i + 1,
                it.nbatches,
                it.breakdown.total(),
                it.chaos
            );
            csv.push_str(&format!(
                "{layers},{},{},{:.6e},{:.4}\n",
                i + 1,
                it.nbatches,
                it.breakdown.total(),
                it.chaos
            ));
            total += it.breakdown.total();
        }
        println!("total SpGEMM time: {total:.5}s\n");
        totals.push(total);
        first_batches.push(result.per_iter[0].nbatches);
    }
    println!(
        "16-layer vs 1-layer overall speedup: {:.2}x (paper: 1.88x)",
        totals[0] / totals[1]
    );
    write_csv("fig3_hipmcl.csv", &csv);
    // The paper's shape: 16 layers win overall while needing at least as
    // many batches in the first (most expensive) iteration.
    assert!(totals[1] < totals[0], "16 layers must win overall: {totals:?}");
    assert!(
        first_batches[1] >= first_batches[0],
        "16 layers must need at least as many batches in iteration 1: {first_batches:?}"
    );
}
