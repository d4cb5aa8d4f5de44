//! Structural sketches: a stable 64-bit fingerprint of an operand pair's
//! *sparsity structure*, derived from the planner's sampled probe.
//!
//! The probe ([`mod@super::probe`]) is deliberately structure-only: it never
//! reads a single stored value, so two operand pairs with the same
//! dimensions and the same nonzero pattern probe identically no matter
//! what numbers they hold. [`sketch`] canonically hashes that probe —
//! dimensions, exact input nonzero counts, the sampled column ids, and the
//! per-column occupancy profile `(fⱼ, dⱼ, nnz(B(:,j)))` — into one `u64`.
//!
//! Equality of sketches is the plan cache's notion of "same shape": the
//! serve subsystem keys cached planner decisions on it, so a repeat job
//! whose operands sketch equal to an earlier pair skips probe + predict
//! entirely. Callers can use it the same way for any memoization keyed on
//! problem structure (the probe's seed and sampling bounds are part of the
//! hash, so sketches taken under different [`super::ProbeConfig`]s never
//! collide by construction).
//!
//! Stability contract: the hash is a deterministic FNV-1a over a canonical
//! little-endian byte stream — no `RandomState`, no pointer identity — so
//! it is reproducible across runs and processes. It is *not* promised
//! stable across versions of the probe itself: a change to the sampling
//! scheme legitimately changes what "structure" was observed.

use super::probe::{ProbeConfig, ProbeEstimate};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// Incremental FNV-1a over little-endian words (dependency-free, stable).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// The structural fingerprint of a probe taken under `cfg`.
///
/// The sampling parameters are hashed alongside the observations: probes
/// of the same operands under different seeds or fractions see different
/// column subsets and must not alias in a cache.
pub(crate) fn sketch(est: &ProbeEstimate, cfg: &ProbeConfig) -> u64 {
    let mut h = Fnv::new();
    // Sampling scheme.
    h.write_u64(cfg.seed);
    h.write_u64(cfg.sample_fraction.to_bits());
    h.write_usize(cfg.min_cols);
    h.write_usize(cfg.max_cols);
    // Dimensions and exact input sizes.
    h.write_usize(est.nrows_a);
    h.write_usize(est.nrows_b);
    h.write_usize(est.total_cols);
    h.write_u64(est.nnz_a);
    h.write_u64(est.nnz_b);
    // Which columns were observed, and their occupancy profile. This is
    // the per-block structural signature: flops, distinct output rows and
    // B-column weight per sampled column.
    h.write_usize(est.cols.len());
    for &c in &est.cols {
        h.write_usize(c);
    }
    for (&f, (&d, &k)) in est
        .col_flops
        .iter()
        .zip(est.col_nnz.iter().zip(est.col_bnnz.iter()))
    {
        h.write_u64(f);
        h.write_u64(d);
        h.write_u64(k);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::probe::probe;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;
    use spgemm_sparse::CscMatrix;

    fn sketch_of(a: &CscMatrix<f64>, b: &CscMatrix<f64>, cfg: &ProbeConfig) -> u64 {
        sketch(&probe(a, b, cfg).unwrap(), cfg)
    }

    #[test]
    fn equal_structures_sketch_equal_and_deterministically() {
        let a = er_random::<PlusTimesF64>(120, 120, 6, 41);
        let b = er_random::<PlusTimesF64>(120, 120, 6, 42);
        let cfg = ProbeConfig::default();
        let s1 = sketch_of(&a, &b, &cfg);
        let s2 = sketch_of(&a, &b, &cfg);
        assert_eq!(s1, s2);
        // A deep-copied pair (new allocations, same structure) sketches
        // identically: the hash covers content, never identity.
        #[allow(clippy::redundant_clone)]
        let (a2, b2) = (a.clone(), b.clone());
        assert_eq!(sketch_of(&a2, &b2, &cfg), s1);
    }

    #[test]
    fn value_changes_do_not_perturb_the_sketch() {
        let a = er_random::<PlusTimesF64>(100, 100, 5, 43);
        let b = er_random::<PlusTimesF64>(100, 100, 5, 44);
        let cfg = ProbeConfig::default();
        let s = sketch_of(&a, &b, &cfg);
        // Same pattern, completely different values.
        let a_scaled = a.map(|v| v * -1234.5 + 1.0);
        let b_scaled = b.map(|v| v.mul_add(0.0, 99.0));
        assert_eq!(sketch_of(&a_scaled, &b_scaled, &cfg), s);
    }

    #[test]
    fn structure_changes_change_the_hash() {
        let a = er_random::<PlusTimesF64>(100, 100, 5, 45);
        let b = er_random::<PlusTimesF64>(100, 100, 5, 46);
        let cfg = ProbeConfig::default();
        let s = sketch_of(&a, &b, &cfg);
        // Different sparsity pattern (new seed).
        let b_other = er_random::<PlusTimesF64>(100, 100, 5, 47);
        assert_ne!(sketch_of(&a, &b_other, &cfg), s);
        // Same nnz-per-column knobs, different dimensions.
        let a_wide = er_random::<PlusTimesF64>(100, 200, 5, 45);
        let b_tall = er_random::<PlusTimesF64>(200, 100, 5, 46);
        assert_ne!(sketch_of(&a_wide, &b_tall, &cfg), s);
        // Swapping the operand roles is a different problem.
        assert_ne!(sketch_of(&b, &a, &cfg), s);
    }

    #[test]
    fn probe_config_is_part_of_the_key() {
        let a = er_random::<PlusTimesF64>(600, 600, 4, 48);
        let b = er_random::<PlusTimesF64>(600, 600, 4, 49);
        let cfg = ProbeConfig::default();
        let other_seed = ProbeConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        assert_ne!(sketch_of(&a, &b, &cfg), sketch_of(&a, &b, &other_seed));
        // The exact probe sees every column: a different *kind* of key.
        assert_ne!(
            sketch_of(&a, &b, &cfg),
            sketch_of(&a, &b, &ProbeConfig::exact())
        );
    }
}
