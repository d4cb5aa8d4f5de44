//! Hypergraph coarsening via heavy-connectivity matching — the Zoltan use
//! case from the paper's introduction: count shared hyperedges between all
//! vertex pairs (`A·Aᵀ`) **in batches**, reduce each batch to matching
//! candidates, discard it, and coarsen.
//!
//! Run with `cargo run --release --example hypergraph_matching`.

use spgemm_apps::coarsen::{heavy_connectivity_matching, CoarsenConfig};
use spgemm_core::MemoryBudget;
use spgemm_sparse::{CscMatrix, Triples};

/// A synthetic VLSI-ish hypergraph: `npairs` pairs of near-duplicate
/// vertices (each pair shares a private bundle of nets) plus long nets
/// connecting many vertices weakly.
fn build_hypergraph(npairs: usize, nets_per_pair: usize, long_nets: usize) -> CscMatrix<u64> {
    let nv = npairs * 2;
    let ne = npairs * nets_per_pair + long_nets;
    let mut t = Triples::new(nv, ne);
    let mut e = 0u32;
    for p in 0..npairs {
        for _ in 0..nets_per_pair {
            t.push((2 * p) as u32, e, 1);
            t.push((2 * p + 1) as u32, e, 1);
            e += 1;
        }
    }
    for k in 0..long_nets {
        // A long net touches every `stride`-th vertex; strides vary per
        // net so no vertex pair co-occurs on many long nets (their
        // connectivity stays far below a twin pair's private bundle).
        let stride = 7 + (k * 5) % 13;
        let mut v = k % nv;
        loop {
            t.push(v as u32, e, 1);
            v += stride;
            if v >= nv {
                break;
            }
        }
        e += 1;
    }
    t.to_csc()
}

fn main() {
    let npairs = 200;
    let inc = build_hypergraph(npairs, 5, 40);
    println!(
        "hypergraph: {} vertices, {} hyperedges, {} pins",
        inc.nrows(),
        inc.ncols(),
        inc.nnz()
    );

    // Tight memory: the shared-hyperedge matrix must be formed in batches.
    let mut cfg = CoarsenConfig::new(3, 16, 4);
    cfg.run.budget = MemoryBudget::new(inc.nnz() * 24 * 12);
    let m = heavy_connectivity_matching(&inc, &cfg).expect("matching failed");
    println!(
        "matched {} pairs in {} batch(es); SpGEMM modeled time {:.5}s ({:.0}% comm)",
        m.pairs,
        m.nbatches,
        m.breakdown.total(),
        100.0 * m.breakdown.comm_total() / m.breakdown.total()
    );
    let twins = (0..npairs)
        .filter(|&p| m.mate[2 * p] == Some((2 * p + 1) as u32))
        .count();
    println!("{twins}/{npairs} planted near-duplicate pairs matched together (expected: all)");
    assert_eq!(twins, npairs);
    println!(
        "coarsening would shrink the hypergraph to {} vertices",
        inc.nrows() - m.pairs
    );
}
