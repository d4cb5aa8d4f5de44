//! Sampled symbolic probe: cheap structure-only estimates of `flops`,
//! `nnz(C)` and the per-column product profile.
//!
//! The planner does not run a Symbolic3D per candidate grid — that is a
//! whole distributed structure pass, on every rank thread, with the
//! communication pattern of an unbatched SUMMA sweep. Instead it runs
//! serial `LocalSymbolic` ([`symbolic_col_counts_fresh`]) once, on a
//! deterministic seeded sample of `B`'s columns, and scales the per-column
//! results up. Column-wise sampling is unbiased for the totals (`flops`,
//! `nnz(C)` are sums of independent per-column quantities) and preserves
//! exactly the per-column profile `(fⱼ, dⱼ, nnz(B(:,j)))` the
//! occupancy-based predictor needs.
//!
//! What a probe costs, on the benchmark's matrices (best of 7, one thread
//! of a 2-core box): the default sample takes 1.7 ms on the 848-row
//! protein-similarity matrix (51 ms while `LocalSymbolic` inserted every
//! flop into a table; its dense columns are now counted by bitset union),
//! 1.7 ms on the scale-11 social graph and 4–6 ms on the 8 000 × 80 000
//! k-mer matrix (`A·Aᵀ`). [`ProbeConfig::exact`] takes 5.7, 6.8 and
//! 15–23 ms.

use crate::{CoreError, Result};
use spgemm_sparse::ops::extract_cols;
use spgemm_sparse::spgemm::symbolic_col_counts_fresh;
use spgemm_sparse::CscMatrix;

/// How the probe samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeConfig {
    /// Fraction of `B`'s columns to probe (clamped to `(0, 1]`).
    pub sample_fraction: f64,
    /// Never sample fewer columns than this (unless `B` has fewer).
    pub min_cols: usize,
    /// Never sample more columns than this (caps probe cost on huge `B`).
    pub max_cols: usize,
    /// Seed of the deterministic column sampler.
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            sample_fraction: 0.25,
            min_cols: 64,
            max_cols: 4096,
            seed: 0x05EE_DCA7,
        }
    }
}

impl ProbeConfig {
    /// Exact probe: every column, no sampling error (`scale = 1`).
    pub fn exact() -> Self {
        ProbeConfig {
            sample_fraction: 1.0,
            max_cols: usize::MAX,
            ..ProbeConfig::default()
        }
    }
}

/// What the probe learned, per sampled column and in (scaled) total.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeEstimate {
    /// `nrows(A)` — with [`ProbeEstimate::nrows_b`] (= `ncols(A)`) and
    /// [`ProbeEstimate::total_cols`] (= `ncols(B)`) this pins all four
    /// operand dimensions, so the [`super::sketch::sketch`] of the probe
    /// distinguishes shape, not just sparsity.
    pub nrows_a: usize,
    /// `nrows(B)` = `ncols(A)` — the inner dimension.
    pub nrows_b: usize,
    /// `ncols(B)` — the batching upper bound.
    pub total_cols: usize,
    /// Global column ids probed, ascending.
    pub cols: Vec<usize>,
    /// `total_cols / cols.len()`: multiply sampled sums by this.
    pub scale: f64,
    /// Global `nnz(A)` / `nnz(B)` (exact, not sampled).
    pub nnz_a: u64,
    /// Global `nnz(B)`.
    pub nnz_b: u64,
    /// Estimated total multiplication count (scaled).
    pub flops: u64,
    /// Estimated `nnz(C)` (scaled).
    pub nnz_c: u64,
    /// Per sampled column: flops `fⱼ = Σ_{i∈B(:,j)} nnz(A(:,i))`.
    pub col_flops: Vec<u64>,
    /// Per sampled column: distinct output rows `dⱼ = nnz(C(:,j))`.
    pub col_nnz: Vec<u64>,
    /// Per sampled column: `nnz(B(:,j))` (the kernel's stream count).
    pub col_bnnz: Vec<u64>,
    /// Modeled work units the probe itself spent (for speedup reporting
    /// against a full symbolic pass).
    pub work_units: f64,
}

impl ProbeEstimate {
    /// Was every column probed (estimates are exact)?
    pub(crate) fn is_exact(&self) -> bool {
        self.cols.len() == self.total_cols
    }
}

/// xorshift64* — deterministic, dependency-free sampling stream.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Floyd's algorithm: `k` distinct values from `0..n`, seeded, sorted.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    debug_assert!(k <= n);
    // splitmix64 scramble: adjacent seeds diverge, and the xorshift state
    // never starts at 0.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    if state == 0 {
        state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = (xorshift(&mut state) % (j as u64 + 1)) as usize;
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut cols: Vec<usize> = chosen.into_iter().collect();
    cols.sort_unstable();
    cols
}

/// Run the sampled symbolic probe on global operands.
///
/// Structure-only and value-type-agnostic: `A` and `B` may hold different
/// scalar types, exactly like [`symbolic_col_counts_fresh`].
pub fn probe<T: Copy + Send + Sync, U: Copy + Sync>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    cfg: &ProbeConfig,
) -> Result<ProbeEstimate> {
    if a.ncols() != b.nrows() {
        return Err(CoreError::Config(format!(
            "probe: inner dimensions differ: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    let n = b.ncols();
    if n == 0 {
        return Ok(ProbeEstimate {
            nrows_a: a.nrows(),
            nrows_b: b.nrows(),
            total_cols: 0,
            cols: Vec::new(),
            scale: 1.0,
            nnz_a: a.nnz() as u64,
            nnz_b: 0,
            flops: 0,
            nnz_c: 0,
            col_flops: Vec::new(),
            col_nnz: Vec::new(),
            col_bnnz: Vec::new(),
            work_units: 0.0,
        });
    }
    let frac = cfg.sample_fraction.clamp(f64::MIN_POSITIVE, 1.0);
    let target = ((n as f64 * frac).ceil() as usize)
        .max(cfg.min_cols)
        .min(cfg.max_cols)
        .clamp(1, n);
    let cols = if target == n {
        (0..n).collect()
    } else {
        sample_indices(n, target, cfg.seed)
    };
    let b_sample = extract_cols(b, &cols);
    let (counts, stats) = symbolic_col_counts_fresh(a, &b_sample).map_err(CoreError::Sparse)?;

    let mut col_flops = Vec::with_capacity(cols.len());
    let mut col_bnnz = Vec::with_capacity(cols.len());
    for (local_j, &j) in cols.iter().enumerate() {
        let (b_rows, _) = b_sample.col(local_j);
        let f: u64 = b_rows.iter().map(|&i| a.col_nnz(i as usize) as u64).sum();
        col_flops.push(f);
        col_bnnz.push(b.col_nnz(j) as u64);
    }
    let scale = n as f64 / cols.len() as f64;
    let sum_f: u64 = col_flops.iter().sum();
    let sum_d: u64 = counts.iter().sum();
    Ok(ProbeEstimate {
        nrows_a: a.nrows(),
        nrows_b: b.nrows(),
        total_cols: n,
        cols,
        scale,
        nnz_a: a.nnz() as u64,
        nnz_b: b.nnz() as u64,
        flops: (sum_f as f64 * scale).round() as u64,
        nnz_c: (sum_d as f64 * scale).round() as u64,
        col_flops,
        col_nnz: counts,
        col_bnnz,
        work_units: stats.work_units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;
    use spgemm_sparse::spgemm::symbolic_nnz;

    #[test]
    fn exact_probe_matches_serial_symbolic() {
        let a = er_random::<PlusTimesF64>(80, 80, 6, 11);
        let b = er_random::<PlusTimesF64>(80, 80, 6, 12);
        let est = probe(&a, &b, &ProbeConfig::exact()).unwrap();
        let (nnz_c, stats) = symbolic_nnz(&a, &b).unwrap();
        assert!(est.is_exact());
        assert_eq!(est.flops, stats.flops);
        assert_eq!(est.nnz_c, nnz_c);
        assert_eq!(est.nnz_a, a.nnz() as u64);
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let cols = sample_indices(1000, 100, 42);
        assert_eq!(cols, sample_indices(1000, 100, 42));
        assert_ne!(cols, sample_indices(1000, 100, 43));
        assert_eq!(cols.len(), 100);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert!(cols.iter().all(|&c| c < 1000));
    }

    #[test]
    fn sampled_probe_estimates_within_tolerance() {
        let a = er_random::<PlusTimesF64>(400, 400, 8, 21);
        let b = er_random::<PlusTimesF64>(400, 400, 8, 22);
        let cfg = ProbeConfig {
            sample_fraction: 0.25,
            min_cols: 64,
            max_cols: 4096,
            seed: 7,
        };
        let est = probe(&a, &b, &cfg).unwrap();
        let (nnz_c, stats) = symbolic_nnz(&a, &b).unwrap();
        assert!(est.cols.len() < 400);
        let fl = est.flops as f64 / stats.flops as f64;
        let nc = est.nnz_c as f64 / nnz_c as f64;
        assert!((0.7..1.3).contains(&fl), "flops estimate off: {fl}");
        assert!((0.7..1.3).contains(&nc), "nnz(C) estimate off: {nc}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = er_random::<PlusTimesF64>(10, 12, 2, 1);
        let b = er_random::<PlusTimesF64>(10, 10, 2, 2);
        assert!(matches!(probe(&a, &b, &ProbeConfig::default()), Err(CoreError::Config(_))));
    }
}
