//! BELLA/PASTIS-style candidate overlap detection via `A·Aᵀ`.
//!
//! The paper's bioinformatics use case (Secs. I, V-G): `A` is a
//! reads × k-mers incidence matrix; `(A·Aᵀ)(i, j)` counts k-mers shared by
//! reads `i` and `j`, so above-threshold off-diagonal entries are the
//! candidate pairs handed to an aligner. Because the subsequent alignment
//! consumes the product in column batches, this is exactly the
//! memory-constrained pattern BatchedSUMMA3D serves: the full `A·Aᵀ` never
//! needs to exist at once.

use spgemm_core::{run_spgemm_aat, CoreError, RunConfig};
use spgemm_simgrid::StepBreakdown;
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::CscMatrix;

/// Configuration for overlap detection.
#[derive(Debug, Clone, Copy)]
pub struct OverlapConfig {
    /// Minimum shared k-mers for a pair to become a candidate.
    pub min_shared: u64,
    /// The distributed-run configuration.
    pub run: RunConfig,
}

impl OverlapConfig {
    /// Detect with a shared-k-mer threshold of `min_shared` on a
    /// `p`-rank, `l`-layer grid.
    pub fn new(min_shared: u64, p: usize, layers: usize) -> Self {
        OverlapConfig {
            min_shared,
            run: RunConfig::new(p, layers),
        }
    }
}

/// A candidate read pair (`i < j`) sharing `shared` k-mers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OverlapPair {
    /// Smaller read id.
    pub i: u32,
    /// Larger read id.
    pub j: u32,
    /// Number of shared k-mers.
    pub shared: u64,
}

/// Find candidate overlaps among the reads of a reads × k-mers matrix.
/// Returns pairs sorted by `(i, j)` plus the SpGEMM step breakdown.
pub fn find_overlaps(
    kmer_matrix: &CscMatrix<u64>,
    cfg: &OverlapConfig,
) -> Result<(Vec<OverlapPair>, StepBreakdown), CoreError> {
    // A·Aᵀ with the transpose formed *on the grid*, never globally.
    let pattern = kmer_matrix.map(|_| 1u64);
    let out = run_spgemm_aat::<PlusTimesU64>(&cfg.run, &pattern)?;
    let s = out.c.expect("overlap detection keeps the product");
    let mut pairs = Vec::new();
    for (r, c, shared) in s.iter() {
        let (i, j) = (r.min(c as u32), r.max(c as u32));
        if i < j && shared >= cfg.min_shared {
            pairs.push(OverlapPair { i, j, shared });
        }
    }
    // A·Aᵀ is symmetric: each pair appears twice; keep one.
    pairs.sort_unstable();
    pairs.dedup();
    Ok((pairs, out.max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::kmer_matrix;
    use spgemm_sparse::Triples;

    /// Brute-force shared-k-mer counting: the oracle of the distributed run.
    fn find_overlaps_serial(kmer_matrix: &CscMatrix<u64>, min_shared: u64) -> Vec<OverlapPair> {
        let nreads = kmer_matrix.nrows();
        let mut counts = std::collections::HashMap::<(u32, u32), u64>::new();
        for k in 0..kmer_matrix.ncols() {
            let (reads, _) = kmer_matrix.col(k);
            for (xi, &a) in reads.iter().enumerate() {
                for &b in &reads[xi + 1..] {
                    let key = (a.min(b), a.max(b));
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut pairs: Vec<OverlapPair> = counts
            .into_iter()
            .filter(|&((i, j), shared)| i != j && shared >= min_shared && (j as usize) < nreads)
            .map(|((i, j), shared)| OverlapPair { i, j, shared })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn two_reads_sharing_kmers() {
        // Reads 0 and 1 share k-mers 0 and 1; read 2 is isolated.
        let mut t = Triples::new(3, 3);
        t.push(0, 0, 1);
        t.push(1, 0, 1);
        t.push(0, 1, 1);
        t.push(1, 1, 1);
        t.push(2, 2, 1);
        let m = t.to_csc();
        let (pairs, _) = find_overlaps(&m, &OverlapConfig::new(2, 4, 1)).unwrap();
        assert_eq!(pairs, vec![OverlapPair { i: 0, j: 1, shared: 2 }]);
    }

    #[test]
    fn threshold_filters_weak_pairs() {
        let mut t = Triples::new(2, 1);
        t.push(0, 0, 1);
        t.push(1, 0, 1);
        let m = t.to_csc();
        let (pairs, _) = find_overlaps(&m, &OverlapConfig::new(2, 4, 1)).unwrap();
        assert!(pairs.is_empty(), "one shared k-mer is below threshold 2");
    }

    #[test]
    fn matches_brute_force_on_generated_matrix() {
        let m = kmer_matrix(40, 300, 3, 73);
        let expected = find_overlaps_serial(&m, 2);
        assert!(!expected.is_empty(), "generator should plant overlaps");
        for (p, l) in [(4, 1), (16, 4)] {
            let (pairs, _) = find_overlaps(&m, &OverlapConfig::new(2, p, l)).unwrap();
            assert_eq!(pairs, expected, "p={p} l={l}");
        }
    }

    #[test]
    fn overlaps_connect_consecutive_reads() {
        // The generator anchors k-mers on consecutive reads, so candidates
        // must be near-diagonal.
        let m = kmer_matrix(50, 400, 2, 74);
        let (pairs, _) = find_overlaps(&m, &OverlapConfig::new(1, 4, 1)).unwrap();
        assert!(!pairs.is_empty());
        for p in &pairs {
            let gap = (p.j - p.i).min(50 - (p.j - p.i));
            assert!(gap <= 1, "pair {p:?} spans a gap of {gap}");
        }
    }
}
