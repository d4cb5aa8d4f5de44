//! Scaled-down analogues of the paper's Table V test matrices.
//!
//! Every constructor is deterministic (fixed seed) so bench output is
//! reproducible run to run. The `scale` parameter grows the instance for
//! strong-scaling sweeps without changing its character.
//!
//! | Paper matrix | Constructor | Character preserved |
//! |---|---|---|
//! | Friendster | [`friendster_like`] | power-law social graph, `nnz(A²) ≫ nnz(A)` |
//! | Isolates / Isolates-small | [`isolates_like`] | dense protein communities, huge flops & cf |
//! | Metaclust50 | [`metaclust_like`] | like Isolates but sparser ⇒ comm-bound sooner (Fig. 9) |
//! | Eukarya | [`eukarya_like`] | small protein net: batching rarely needed (Fig. 14) |
//! | Rice-kmers | [`ricekmers_like`] | reads × k-mers, ~2 nnz/col, `A·Aᵀ`, b = 1 (Fig. 11) |
//! | Metaclust20m | [`metaclust20m_like`] | reads × k-mers with heavier columns ⇒ batching (Fig. 10) |

use spgemm_sparse::gen::{clustered_similarity, kmer_matrix, rmat};
use spgemm_sparse::ops::{permute_symmetric, random_permutation};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::CscMatrix;

/// Randomly permute a square matrix (CombBLAS/HipMCL ingestion practice):
/// keeps cluster structure from aligning with process-grid blocks, which
/// would concentrate whole SUMMA stages on single process rows.
fn scrambled(m: &CscMatrix<f64>, seed: u64) -> CscMatrix<f64> {
    let perm = random_permutation(m.nrows(), seed);
    permute_symmetric(m, &perm)
}

/// Friendster-like: symmetric R-MAT, power-law degrees.
pub fn friendster_like(scale: u32) -> CscMatrix<f64> {
    scrambled(&rmat::<PlusTimesF64>(scale, 12, None, true, 0xF41E_0001), 0xF41E)
}

/// Isolates-like: dense protein-similarity communities (high compression
/// factor under squaring; the flop-heavy regime).
pub fn isolates_like(nclusters: usize, cluster_size: usize) -> CscMatrix<f64> {
    scrambled(
        &clustered_similarity(nclusters, cluster_size, 14, 2, 0x150_1A7E5),
        0x150,
    )
}

/// Metaclust-like: protein communities but sparser than Isolates, so
/// communication dominates earlier (the Fig. 9 efficiency-drop driver).
pub fn metaclust_like(nclusters: usize, cluster_size: usize) -> CscMatrix<f64> {
    scrambled(
        &clustered_similarity(nclusters, cluster_size, 5, 1, 0x3E7A_C125),
        0x3E7A,
    )
}

/// Eukarya-like: the small protein network of Figs. 14–15.
pub fn eukarya_like() -> CscMatrix<f64> {
    scrambled(&clustered_similarity(6, 150, 10, 1, 0xE0CA_51A1), 0xE0CA)
}

/// Densest protein communities: very high compression factor, so local
/// computation carries a realistic share of the runtime. Used where the
/// paper's figure hinges on compute-vs-communication balance
/// (hyperthreading, KNL-vs-Haswell).
pub fn dense_protein_like() -> CscMatrix<f64> {
    scrambled(&clustered_similarity(8, 300, 40, 1, 0xDE5E_0001), 0xDE5E)
}

/// Shuffle the read (row) order of a reads × k-mers matrix: genome-order
/// reads make `A·Aᵀ` a diagonal band that concentrates on the grid's
/// diagonal blocks; ingestion pipelines see reads in arbitrary order.
fn shuffled_reads(m: &CscMatrix<u64>, seed: u64) -> CscMatrix<f64> {
    use spgemm_sparse::ops::permute_rows;
    let perm = random_permutation(m.nrows(), seed);
    permute_rows(m, &perm).map(|v| v as f64)
}

/// Rice-kmers-like: reads × k-mers with ~2 nonzeros per column; its
/// `A·Aᵀ` satisfies `nnz(A·Aᵀ) ≈ nnz(A)` so `b = 1` (Fig. 11).
pub fn ricekmers_like(nreads: usize) -> CscMatrix<f64> {
    shuffled_reads(&kmer_matrix(nreads, nreads * 12, 2, 0x51CE_0001), 0x51CE)
}

/// Metaclust20m-like: reads × k-mers with heavier columns plus *repeat*
/// k-mers that connect distant reads (metagenomes are full of repeats),
/// whose `A·Aᵀ` blows up enough to need batching (Fig. 10).
pub fn metaclust20m_like(nreads: usize) -> CscMatrix<f64> {
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::ops::col_concat;
    use spgemm_sparse::semiring::PlusTimesU64;
    let windows = kmer_matrix(nreads, nreads * 6, 6, 0x20A1_0001);
    // Repeat k-mers: each occurs in 6 reads scattered across the dataset.
    let repeats = er_random::<PlusTimesU64>(nreads, nreads * 4, 6, 0x20A1_0002).map(|_| 1u64);
    shuffled_reads(&col_concat(&[windows, repeats]).expect("concat"), 0x20A1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::spgemm::symbolic_nnz;

    #[test]
    fn friendster_blows_up_under_squaring() {
        let a = friendster_like(9);
        let (nnz_c, _) = symbolic_nnz(&a, &a).unwrap();
        assert!(nnz_c as usize > 3 * a.nnz(), "{nnz_c} vs {}", a.nnz());
    }

    #[test]
    fn isolates_has_high_compression_factor() {
        let a = isolates_like(6, 30);
        let (nnz_c, stats) = symbolic_nnz(&a, &a).unwrap();
        let cf = stats.flops as f64 / nnz_c as f64;
        assert!(cf > 2.0, "cf = {cf}");
    }

    #[test]
    fn metaclust_sparser_than_isolates() {
        let iso = isolates_like(6, 30);
        let met = metaclust_like(6, 30);
        assert!(met.nnz() < iso.nnz());
    }

    #[test]
    fn ricekmers_aat_stays_thin() {
        let a = ricekmers_like(300);
        let at = spgemm_sparse::ops::transpose(&a);
        let (nnz_c, _) = symbolic_nnz(&a, &at).unwrap();
        // nnz(A·Aᵀ) ≈ nnz(A): no batching needed, as in Table V.
        assert!((nnz_c as usize) < 3 * a.nnz());
    }

    #[test]
    fn metaclust20m_aat_blows_up() {
        let a = metaclust20m_like(200);
        let at = spgemm_sparse::ops::transpose(&a);
        let (nnz_c, _) = symbolic_nnz(&a, &at).unwrap();
        assert!(
            nnz_c as usize > 3 * a.nnz() / 2,
            "nnz(C) = {nnz_c} vs nnz(A) = {}",
            a.nnz()
        );
    }
}
