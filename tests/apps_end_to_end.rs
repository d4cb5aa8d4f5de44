//! End-to-end application tests over the distributed SpGEMM stack.

use spgemm_apps::coarsen::{heavy_connectivity_matching, CoarsenConfig};
use spgemm_apps::components::{num_clusters, same_partition};
use spgemm_apps::jaccard::{jaccard_similarities, JaccardConfig};
use spgemm_apps::mcl::{markov_cluster, MclParams};
use spgemm_apps::overlap::{find_overlaps, OverlapConfig};
use spgemm_apps::triangles::{count_triangles, count_triangles_serial, TriangleConfig};
use spgemm_core::{CoreError, KernelStrategy, MemoryBudget};
use spgemm_sparse::gen::{clustered_similarity, kmer_matrix, rmat};
use spgemm_sparse::semiring::PlusTimesU64;

#[test]
fn mcl_recovers_clusters_under_memory_pressure_and_both_kernels() {
    let (nclusters, size) = (5usize, 10usize);
    let adj = clustered_similarity(nclusters, size, 6, 1, 101);
    let expected: Vec<usize> = (0..nclusters * size).map(|v| v / size).collect();
    for kernels in [KernelStrategy::New, KernelStrategy::Previous] {
        let mut params = MclParams::new(4, 4);
        params.kernels = kernels;
        params.select = 12;
        params.budget = MemoryBudget::new(adj.nrows() * params.select * 24 * 8);
        let result = markov_cluster(&adj, &params).unwrap();
        assert!(
            same_partition(&result.labels, &expected),
            "kernels={}: got {} clusters",
            kernels.name(),
            num_clusters(&result.labels)
        );
    }
}

#[test]
fn mcl_batched_and_unbatched_agree() {
    let adj = clustered_similarity(4, 10, 6, 1, 102);
    let unbatched = markov_cluster(&adj, &MclParams::new(4, 1)).unwrap();
    let mut tight = MclParams::new(4, 1);
    tight.select = 12;
    tight.budget = MemoryBudget::new(adj.nrows() * tight.select * 24 * 8);
    let batched = markov_cluster(&adj, &tight).unwrap();
    assert!(batched.per_iter[0].nbatches >= 1);
    assert!(same_partition(&unbatched.labels, &batched.labels));
}

#[test]
fn triangles_across_grids_match_brute_force() {
    let adj = rmat::<PlusTimesU64>(6, 6, None, true, 103).map(|_| 1u64);
    let expected = count_triangles_serial(&adj);
    assert!(expected > 0);
    for (p, l) in [(1usize, 1usize), (4, 4), (9, 1), (16, 16)] {
        let (count, _) = count_triangles(&adj, &TriangleConfig::new(p, l)).unwrap();
        assert_eq!(count, expected, "p={p} l={l}");
    }
}

#[test]
fn overlap_detection_with_batching() {
    let m = kmer_matrix(60, 500, 3, 104);
    let reference = {
        let (pairs, _) = find_overlaps(&m, &OverlapConfig::new(2, 1, 1)).unwrap();
        pairs
    };
    assert!(!reference.is_empty());
    let mut cfg = OverlapConfig::new(2, 16, 4);
    cfg.run.forced_batches = Some(4);
    let (pairs, breakdown) = find_overlaps(&m, &cfg).unwrap();
    assert_eq!(pairs, reference);
    assert!(breakdown.total() > 0.0);
}

#[test]
fn jaccard_values_bounded_and_symmetric() {
    let m = kmer_matrix(40, 300, 3, 105);
    let j = jaccard_similarities(&m, &JaccardConfig::new(0.0, 4, 4)).unwrap();
    assert!(j.nnz() > 0);
    for (_, _, v) in j.iter() {
        assert!(v > 0.0 && v <= 1.0, "similarity {v} out of range");
    }
    let jt = spgemm_sparse::ops::transpose(&j);
    assert!(j.approx_eq(&jt, 1e-12));
}

#[test]
fn mcl_iteration_stats_are_coherent() {
    let adj = clustered_similarity(3, 10, 5, 1, 106);
    let result = markov_cluster(&adj, &MclParams::new(4, 1)).unwrap();
    assert_eq!(result.per_iter.len(), result.iterations);
    // Chaos at the final iteration is below threshold (or max_iters hit).
    let last = result.per_iter.last().unwrap();
    assert!(last.chaos < 1e-3 || result.iterations == 30);
    // Every iteration did some modeled work.
    for it in &result.per_iter {
        assert!(it.breakdown.total() > 0.0);
        assert!(it.nnz > 0);
    }
}

/// Grids `Grid3D::new` cannot build: `l ∤ p` / non-square layers, no
/// processes, no layers.
const DEGENERATE_GRIDS: [(usize, usize, &str); 3] =
    [(6, 4, "(p=6, l=4)"), (0, 1, "p=0"), (4, 0, "(p=4, l=0)")];

#[test]
fn mcl_on_a_degenerate_grid_is_a_config_error_naming_the_pair() {
    let adj = clustered_similarity(3, 8, 5, 1, 107);
    for (p, l, named) in DEGENERATE_GRIDS {
        for session in [true, false] {
            let mut params = MclParams::new(p, l);
            params.session = session;
            match markov_cluster(&adj, &params) {
                Err(CoreError::Config(msg)) => assert!(msg.contains(named), "{msg}"),
                other => panic!("p={p} l={l} session={session}: {:?}", other.map(|r| r.iterations)),
            }
        }
    }
}

#[test]
fn coarsening_on_a_degenerate_grid_is_a_config_error_naming_the_pair() {
    let incidence = kmer_matrix(20, 60, 3, 108);
    for (p, l, named) in DEGENERATE_GRIDS {
        match heavy_connectivity_matching(&incidence, &CoarsenConfig::new(2, p, l)) {
            Err(CoreError::Config(msg)) => assert!(msg.contains(named), "{msg}"),
            other => panic!("p={p} l={l}: {:?}", other.map(|m| m.pairs)),
        }
    }
}
