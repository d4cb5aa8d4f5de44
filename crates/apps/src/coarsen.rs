//! Heavy-connectivity matching for multilevel hypergraph coarsening.
//!
//! The paper's introduction names this as a canonical batched-`A·Aᵀ`
//! consumer: before coarsening, a multilevel partitioner (Zoltan \[18\])
//! counts shared hyperedges between all vertex pairs (`A·Aᵀ` on the
//! vertex × hyperedge incidence matrix) and runs a matching on the counts
//! — and "due to memory limitations and the higher density of the product,
//! this SpGEMM is done in batches". Exactly that is implemented here:
//! every batch of `W = A·Aᵀ` is reduced *inside the batched multiply* to
//! one candidate (best partner per vertex column) and discarded; only the
//! tiny candidate lists survive, never the full product.

use spgemm_core::{run_batched, BOperand, CoreError, RunConfig};
use spgemm_simgrid::{Step, StepBreakdown};
use spgemm_sparse::ops::transpose;
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::CscMatrix;
use std::sync::Arc;

/// Configuration for heavy-connectivity matching.
#[derive(Debug, Clone, Copy)]
pub struct CoarsenConfig {
    /// Minimum shared hyperedges for a pair to be matchable.
    pub min_shared: u64,
    /// The distributed-run configuration. Its budget drives how many
    /// batches the product needs; `discard_output` is always on — the
    /// product is reduced batch by batch and never kept.
    pub run: RunConfig,
}

impl CoarsenConfig {
    /// Defaults on a `p`-rank, `l`-layer grid.
    pub fn new(min_shared: u64, p: usize, layers: usize) -> Self {
        CoarsenConfig {
            min_shared,
            run: RunConfig::new(p, layers),
        }
    }
}

/// The matching produced for one coarsening level.
#[derive(Debug, Clone)]
pub struct Matching {
    /// `mate[v]` is the vertex matched with `v`, if any.
    pub mate: Vec<Option<u32>>,
    /// Number of matched pairs.
    pub pairs: usize,
    /// Number of batches the product was formed in.
    pub nbatches: usize,
    /// Critical-path step breakdown of the SpGEMM.
    pub breakdown: StepBreakdown,
}

/// One candidate edge `(u, v, shared_count)`.
type Candidate = (u32, u32, u64);

/// Compute a heavy-connectivity matching of the vertices of a
/// vertex × hyperedge incidence matrix.
pub fn heavy_connectivity_matching(
    incidence: &CscMatrix<u64>,
    cfg: &CoarsenConfig,
) -> Result<Matching, CoreError> {
    let nv = incidence.nrows();
    let pattern = incidence.map(|_| 1u64);
    let at = BOperand::Global(Arc::new(transpose(&pattern)));
    let run = RunConfig {
        discard_output: true,
        ..cfg.run
    };

    let (out, gathered) = run_batched::<PlusTimesU64, Vec<Candidate>, _>(
        &run,
        &Arc::new(pattern),
        &at,
        |candidates, _rank, _grid, out| {
            // Reduce the batch to local per-column best candidates and
            // discard the piece — the full W never materializes.
            let piece = &out.piece;
            for j in 0..piece.local.ncols() {
                let v = piece.global_cols[j];
                let (rows, vals) = piece.local.col(j);
                let mut best: Option<Candidate> = None;
                for (&r, &w) in rows.iter().zip(vals.iter()) {
                    let u = r + piece.row_offset as u32;
                    if u != v && w >= cfg.min_shared && best.is_none_or(|(_, _, bw)| w > bw) {
                        best = Some((u.min(v), u.max(v), w));
                    }
                }
                candidates.extend(best);
            }
            None // discard the batch
        },
        |candidates, rank, grid| rank.gather_to_root(&grid.world, 0, candidates, 0, Step::Other),
    )?;
    let mut all_candidates: Vec<Candidate> = gathered
        .into_iter()
        .next()
        .flatten()
        .expect("root gathers candidates")
        .into_iter()
        .flatten()
        .collect();

    // Greedy matching, heaviest connectivity first (ties by vertex id for
    // determinism).
    all_candidates.sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
    let mut mate: Vec<Option<u32>> = vec![None; nv];
    let mut pairs = 0;
    for (u, v, _) in all_candidates {
        let (u, v) = (u as usize, v as usize);
        if mate[u].is_none() && mate[v].is_none() {
            mate[u] = Some(v as u32);
            mate[v] = Some(u as u32);
            pairs += 1;
        }
    }
    Ok(Matching {
        mate,
        pairs,
        nbatches: out.nbatches,
        breakdown: out.max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::Triples;

    /// Incidence with planted twins: vertices 2i and 2i+1 share a private
    /// clique of hyperedges; cross-pair sharing is much weaker.
    fn twin_hypergraph(npairs: usize, edges_per_pair: usize, noise: usize) -> CscMatrix<u64> {
        let nv = npairs * 2;
        let ne = npairs * edges_per_pair + noise;
        let mut t = Triples::new(nv, ne);
        let mut e = 0u32;
        for p in 0..npairs {
            for _ in 0..edges_per_pair {
                t.push((2 * p) as u32, e, 1);
                t.push((2 * p + 1) as u32, e, 1);
                e += 1;
            }
        }
        // Noise hyperedges spanning adjacent pairs (weaker connectivity).
        for k in 0..noise {
            let v = (k * 2 + 1) % nv;
            t.push(v as u32, e, 1);
            t.push(((v + 1) % nv) as u32, e, 1);
            e += 1;
        }
        t.to_csc()
    }

    #[test]
    fn matches_planted_twins() {
        let inc = twin_hypergraph(10, 6, 5);
        let m = heavy_connectivity_matching(&inc, &CoarsenConfig::new(2, 4, 1)).unwrap();
        assert_eq!(m.pairs, 10, "all twin pairs should match");
        for p in 0..10u32 {
            assert_eq!(m.mate[(2 * p) as usize], Some(2 * p + 1));
            assert_eq!(m.mate[(2 * p + 1) as usize], Some(2 * p));
        }
    }

    #[test]
    fn distributed_configs_agree() {
        let inc = twin_hypergraph(8, 5, 4);
        let base = heavy_connectivity_matching(&inc, &CoarsenConfig::new(2, 1, 1)).unwrap();
        for (p, l) in [(4usize, 4usize), (16, 4)] {
            let other = heavy_connectivity_matching(&inc, &CoarsenConfig::new(2, p, l)).unwrap();
            assert_eq!(other.mate, base.mate, "p={p} l={l}");
        }
    }

    #[test]
    fn memory_pressure_forces_batched_matching() {
        let inc = twin_hypergraph(16, 6, 8);
        // Probe to size a budget that admits the inputs but only a third
        // of the unmerged intermediate, forcing b ≈ 3.
        let p = 4;
        let probe = heavy_connectivity_matching(&inc, &CoarsenConfig::new(2, p, 1)).unwrap();
        assert_eq!(probe.pairs, 16);
        let mut cfg = CoarsenConfig::new(2, p, 1);
        // Size the budget from the real symbolic quantities: inputs fit,
        // but only a third of the per-process unmerged intermediate does.
        let at = transpose(&inc.map(|_| 1u64));
        let probe_cfg = spgemm_core::RunConfig::new(p, 1);
        let probe_out =
            spgemm_core::run_spgemm::<PlusTimesU64>(&probe_cfg, &inc.map(|_| 1u64), &at).unwrap();
        let sym = probe_out.symbolic.unwrap();
        let per_proc =
            24 * (sym.max_nnz_a + sym.max_nnz_b) as usize + 24 * sym.max_unmerged_nnz as usize / 3;
        cfg.run.budget = spgemm_core::MemoryBudget::new(per_proc * p);
        let m = heavy_connectivity_matching(&inc, &cfg).unwrap();
        assert!(m.nbatches > 1, "tight budget should force batching (b={})", m.nbatches);
        assert_eq!(m.pairs, 16, "batched matching must still pair every twin");
    }

    #[test]
    fn threshold_prevents_weak_matches() {
        // Only the noise edges connect across pairs (weight 1); with
        // min_shared = 2 nothing weaker than a twin pair can match.
        let inc = twin_hypergraph(6, 3, 12);
        let m = heavy_connectivity_matching(&inc, &CoarsenConfig::new(3, 4, 1)).unwrap();
        assert_eq!(m.pairs, 6);
    }
}
