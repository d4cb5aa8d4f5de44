//! Deterministic synthetic matrix generators.
//!
//! These stand in for the paper's test matrices (Table V), which are either
//! proprietary (Metaclust, IMG isolate genomes) or far beyond a single
//! node's memory. Each generator controls the structural parameters that
//! drive the paper's observed effects: nonzeros per row/column, degree
//! skew, compression factor under squaring, and the
//! `nnz(C) ≫ nnz(A)+nnz(B)` blow-up that forces batching.
//!
//! | Paper matrix | Generator | Rationale |
//! |---|---|---|
//! | Friendster (social) | [`rmat`] | power-law degrees, heavy squaring blow-up |
//! | Eukarya / Isolates / Metaclust50 (protein similarity) | [`clustered_similarity`] | block-community structure, high flops & cf, symmetric |
//! | Rice-kmers / Metaclust20m (reads × k-mers) | [`kmer_matrix`] | rectangular, ~2 nnz per column, `A·Aᵀ` workload |
//! | generic / calibration | [`er_random`] | uniform baseline |

use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::triples::Triples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values that generators can synthesize.
pub trait RandValue: Copy {
    /// A "generic nonzero" drawn from `rng`.
    fn rand_value(rng: &mut StdRng) -> Self;
}

impl RandValue for f64 {
    fn rand_value(rng: &mut StdRng) -> f64 {
        // (0, 1]: never generates an explicit zero.
        1.0 - rng.gen::<f64>().min(0.999_999)
    }
}

impl RandValue for u64 {
    fn rand_value(rng: &mut StdRng) -> u64 {
        rng.gen_range(1..=8)
    }
}

impl RandValue for i64 {
    fn rand_value(rng: &mut StdRng) -> i64 {
        rng.gen_range(1..=8)
    }
}

impl RandValue for bool {
    fn rand_value(_rng: &mut StdRng) -> bool {
        true
    }
}

/// Sample `k` distinct values from `0..n` (k ≤ n) via partial Fisher–Yates
/// on a temporary index map kept sparse with a small hash map.
fn sample_distinct(rng: &mut StdRng, n: usize, k: usize, out: &mut Vec<u32>) {
    out.clear();
    if k >= n {
        out.extend(0..n as u32);
        return;
    }
    // Floyd's algorithm: O(k) expected.
    let mut chosen = std::collections::HashSet::with_capacity(k * 2);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&(t as u32)) { j as u32 } else { t as u32 };
        chosen.insert(pick);
        out.push(pick);
    }
}

/// Erdős–Rényi-style matrix: each column gets `nnz_per_col` distinct rows
/// uniformly at random. Deterministic in `seed`.
pub fn er_random<S: Semiring>(nrows: usize, ncols: usize, nnz_per_col: usize, seed: u64) -> CscMatrix<S::T>
where
    S::T: RandValue,
{
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE5D0_5E3A_11C0_FFEE);
    let mut t = Triples::with_capacity(nrows, ncols, ncols * nnz_per_col);
    let mut rows = Vec::with_capacity(nnz_per_col);
    for j in 0..ncols {
        sample_distinct(&mut rng, nrows, nnz_per_col, &mut rows);
        for &r in &rows {
            t.push(r, j as u32, S::T::rand_value(&mut rng));
        }
    }
    t.to_csc()
}

/// R-MAT (Graph500-style) power-law square matrix of order `2^scale` with
/// approximately `edge_factor · 2^scale` distinct nonzeros. Quadrant
/// probabilities `(a, b, c)` (d = 1−a−b−c) default to the Graph500 values
/// when `None`. Optionally symmetrized (social-network-like).
///
/// Duplicates are combined structurally (value regenerated), matching how a
/// graph adjacency matrix is formed from an edge list.
pub fn rmat<S: Semiring>(
    scale: u32,
    edge_factor: usize,
    probs: Option<(f64, f64, f64)>,
    symmetric: bool,
    seed: u64,
) -> CscMatrix<S::T>
where
    S::T: RandValue,
{
    let (a, b, c) = probs.unwrap_or((0.57, 0.19, 0.19));
    assert!(a + b + c < 1.0 + 1e-12, "quadrant probabilities must sum below 1");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut coords: Vec<(u32, u32)> = Vec::with_capacity(m * if symmetric { 2 } else { 1 });
    for _ in 0..m {
        let (mut r, mut cidx) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            let p: f64 = rng.gen();
            if p < a {
                // top-left
            } else if p < a + b {
                cidx += half; // top-right
            } else if p < a + b + c {
                r += half; // bottom-left
            } else {
                r += half;
                cidx += half; // bottom-right
            }
            half >>= 1;
        }
        coords.push((r as u32, cidx as u32));
        if symmetric {
            coords.push((cidx as u32, r as u32));
        }
    }
    coords.sort_unstable();
    coords.dedup();
    let mut t = Triples::with_capacity(n, n, coords.len());
    for (r, cidx) in coords {
        t.push(r, cidx, S::T::rand_value(&mut rng));
    }
    t.to_csc()
}

/// Protein-similarity-like matrix: `nclusters` communities of
/// `cluster_size` vertices, dense-ish inside a community
/// (`intra_per_col` links), sparse between (`inter_per_col` links),
/// symmetric, with unit diagonal. Squaring such a matrix has a large
/// compression factor and output blow-up — the regime that forces the
/// paper's batching (HipMCL workloads).
pub fn clustered_similarity(
    nclusters: usize,
    cluster_size: usize,
    intra_per_col: usize,
    inter_per_col: usize,
    seed: u64,
) -> CscMatrix<f64> {
    let n = nclusters * cluster_size;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5_51F1_ED00_0001);
    let mut coords: Vec<(u32, u32)> = Vec::new();
    let mut rows = Vec::new();
    for j in 0..n {
        let cluster = j / cluster_size;
        let base = cluster * cluster_size;
        sample_distinct(&mut rng, cluster_size, intra_per_col.min(cluster_size), &mut rows);
        for &r in &rows {
            let gr = (base + r as usize) as u32;
            if gr as usize != j {
                coords.push((gr, j as u32));
                coords.push((j as u32, gr));
            }
        }
        for _ in 0..inter_per_col {
            let r = rng.gen_range(0..n) as u32;
            if r as usize != j {
                coords.push((r, j as u32));
                coords.push((j as u32, r));
            }
        }
        coords.push((j as u32, j as u32));
    }
    coords.sort_unstable();
    coords.dedup();
    let mut t = Triples::with_capacity(n, n, coords.len());
    for (r, c) in coords {
        let v = if r == c { 1.0 } else { 0.1 + 0.9 * rng.gen::<f64>() };
        t.push(r, c, v);
    }
    t.to_csc()
}

/// Reads × k-mers incidence matrix (BELLA / PASTIS-style). Column `k` lists
/// the reads containing k-mer `k`; the paper's Rice-kmers matrix has ~2
/// nonzeros per column. `A·Aᵀ` counts shared k-mers between read pairs.
///
/// To make overlap detection testable, reads are arranged along a genome
/// line: consecutive reads share k-mers (each k-mer is placed in a small
/// window of `reads_per_kmer` consecutive reads).
pub fn kmer_matrix(nreads: usize, nkmers: usize, reads_per_kmer: usize, seed: u64) -> CscMatrix<u64> {
    assert!(nreads > 0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBE11_A000_0000_0001);
    let mut t = Triples::with_capacity(nreads, nkmers, nkmers * reads_per_kmer);
    for k in 0..nkmers {
        // Window anchored at a genome position; consecutive reads overlap.
        let anchor = rng.gen_range(0..nreads);
        let span = reads_per_kmer.min(nreads);
        for d in 0..span {
            let r = (anchor + d) % nreads;
            t.push(r as u32, k as u32, 1);
        }
    }
    t.to_csc_dedup::<crate::semiring::PlusTimesU64>()
        .map(|_| 1u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};

    #[test]
    fn er_is_deterministic() {
        let a = er_random::<PlusTimesF64>(50, 50, 5, 7);
        let b = er_random::<PlusTimesF64>(50, 50, 5, 7);
        assert_eq!(a, b);
        let c = er_random::<PlusTimesF64>(50, 50, 5, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn er_has_exact_column_degrees() {
        let m = er_random::<PlusTimesF64>(40, 30, 6, 3);
        for j in 0..30 {
            assert_eq!(m.col_nnz(j), 6);
        }
        assert!(m.is_sorted());
    }

    #[test]
    fn er_clamps_degree_to_nrows() {
        let m = er_random::<PlusTimesF64>(4, 3, 10, 3);
        for j in 0..3 {
            assert_eq!(m.col_nnz(j), 4);
        }
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let a = rmat::<PlusTimesF64>(8, 8, None, false, 1);
        assert_eq!(a.nrows(), 256);
        assert_eq!(a.ncols(), 256);
        assert!(a.nnz() > 0 && a.nnz() <= 256 * 8);
        let b = rmat::<PlusTimesF64>(8, 8, None, false, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn rmat_is_skewed() {
        let a = rmat::<PlusTimesF64>(10, 16, None, false, 2);
        let degs: Vec<usize> = (0..a.ncols()).map(|j| a.col_nnz(j)).collect();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > 4.0 * mean,
            "R-MAT should be skewed: max {max} vs mean {mean}"
        );
    }

    #[test]
    fn rmat_symmetric_option() {
        let a = rmat::<PlusTimesU64>(7, 6, None, true, 3).map(|_| 1u64);
        let at = crate::ops::transpose(&a);
        assert!(a.eq_modulo_order(&at));
    }

    #[test]
    fn clustered_is_symmetric_with_diagonal() {
        let m = clustered_similarity(4, 25, 8, 1, 5);
        assert_eq!(m.nrows(), 100);
        let pattern = m.map(|_| 1u64);
        let pt = crate::ops::transpose(&pattern);
        assert!(pattern.eq_modulo_order(&pt), "pattern must be symmetric");
        for j in 0..100 {
            let (rows, _) = m.col(j);
            assert!(rows.contains(&(j as u32)), "diagonal present at {j}");
        }
    }

    #[test]
    fn clustered_blowup_under_squaring() {
        // nnz(A²) must exceed nnz(A): the batching regime.
        let m = clustered_similarity(4, 30, 10, 1, 6);
        let (nnz_c, stats) = crate::spgemm::symbolic_nnz(&m, &m).unwrap();
        assert!(nnz_c as usize > m.nnz());
        assert!(stats.flops > nnz_c); // compression factor > 1
    }

    #[test]
    fn kmer_matrix_column_degrees() {
        let m = kmer_matrix(100, 400, 2, 9);
        assert_eq!(m.nrows(), 100);
        assert_eq!(m.ncols(), 400);
        for j in 0..m.ncols() {
            assert!(m.col_nnz(j) <= 2 && m.col_nnz(j) >= 1);
        }
    }

    #[test]
    fn kmer_overlaps_are_consecutive() {
        let m = kmer_matrix(50, 300, 3, 10);
        for j in 0..m.ncols() {
            let (rows, _) = m.col(j);
            if rows.len() >= 2 {
                // All reads of a k-mer lie within a window of size 3 (mod wrap).
                let maxr = *rows.iter().max().unwrap() as i64;
                let minr = *rows.iter().min().unwrap() as i64;
                let direct = maxr - minr;
                let wrapped = 50 - direct;
                assert!(direct <= 2 || wrapped <= 2, "col {j}: {rows:?}");
            }
        }
    }
}
