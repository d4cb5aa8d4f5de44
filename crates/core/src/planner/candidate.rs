//! Candidate enumeration: the planner's search space.
//!
//! A candidate fixes everything the user would otherwise hand-pick —
//! algorithm family, layer count `l`, kernel generation, and overlap
//! mode. The batch count `b` is *not* part of the candidate: it is
//! derived per candidate from the memory budget (Alg. 3 / Eq. 2 applied
//! to the probe's estimates), mirroring how a real run derives it from
//! Symbolic3D.
//!
//! The family axis is block-structured: the SUMMA families cross with
//! every layer/kernel/overlap/exchange knob, while the 1.5D families
//! (`ColA15` / `InnerAbc15`) have none of those degrees of freedom —
//! their operands are stationary and their only free parameter is the
//! replication factor `c`, which is part of the family value itself.

use crate::exchange::ExchangeMode;
use crate::family15::AlgorithmFamily;
use crate::harness::validate_grid;
use crate::kernels::KernelStrategy;
use crate::summa2d::OverlapMode;
use crate::Result;
use spgemm_simgrid::grid::valid_layer_counts;

/// One point of the planner's search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Algorithm family (SUMMA variants or a 1.5D member with its `c`).
    pub family: AlgorithmFamily,
    /// Grid layer count `l` (`l | p`, `p/l` a perfect square). Always 1
    /// for `Summa2d` and the 1.5D families.
    pub layers: usize,
    /// Local kernel generation (pinned to `New` for 1.5D: the dense-
    /// accumulator SpMM kernel has no generation knob).
    pub kernels: KernelStrategy,
    /// Blocking or pipelined broadcasts (1.5D shifts are blocking).
    pub overlap: OverlapMode,
    /// How the A operand moves: dense broadcast or sparsity-aware fetch
    /// (1.5D moves A by ring shifts; pinned to `DenseBcast`).
    pub exchange: ExchangeMode,
}

impl Candidate {
    /// Short human-readable label for reports.
    pub fn label(&self) -> String {
        match self.family {
            // Historical label format, kept stable for the batched-3D
            // default family.
            AlgorithmFamily::Summa3dBatched => format!(
                "l={} {} {} {}",
                self.layers,
                match self.kernels {
                    KernelStrategy::New => "new",
                    KernelStrategy::Previous => "prev",
                },
                match self.overlap {
                    OverlapMode::Blocking => "blocking",
                    OverlapMode::Overlapped => "overlapped",
                },
                self.exchange.name(),
            ),
            AlgorithmFamily::Summa2d => format!(
                "summa2d {} {} {}",
                match self.kernels {
                    KernelStrategy::New => "new",
                    KernelStrategy::Previous => "prev",
                },
                match self.overlap {
                    OverlapMode::Blocking => "blocking",
                    OverlapMode::Overlapped => "overlapped",
                },
                self.exchange.name(),
            ),
            f => f.label(),
        }
    }
}

/// Enumerate the family-structured search space.
///
/// For `Summa3dBatched`: `layers × kernels × overlaps × exchanges`. With
/// `layers = None` every feasible layer count of `p` is tried (all `l`
/// with `l | p` and `p/l` a perfect square — never empty, since `l = p`
/// always qualifies); explicitly requested layer counts are validated and
/// rejected with an error naming the offending `(p, l)`. For `Summa2d`:
/// the same kernel/overlap/exchange cross at pinned `l = 1`. For the 1.5D
/// families: one candidate each (everything but `c` is pinned), validated
/// against `p` with an error naming the offending `(p, c)`.
pub(crate) fn enumerate_candidates(
    p: usize,
    layers: Option<&[usize]>,
    kernels: &[KernelStrategy],
    overlaps: &[OverlapMode],
    exchanges: &[ExchangeMode],
    families: &[AlgorithmFamily],
) -> Result<Vec<Candidate>> {
    let mut out = Vec::new();
    let push = |c: Candidate, out: &mut Vec<Candidate>| {
        if !out.contains(&c) {
            out.push(c);
        }
    };
    for &fam in families {
        match fam {
            AlgorithmFamily::Summa3dBatched => {
                let ls: Vec<usize> = match layers {
                    Some(requested) => {
                        let mut ls = Vec::new();
                        for &l in requested {
                            validate_grid(p, l)?;
                            if !ls.contains(&l) {
                                ls.push(l);
                            }
                        }
                        ls
                    }
                    None => valid_layer_counts(p),
                };
                for &l in &ls {
                    for &k in kernels {
                        for &o in overlaps {
                            for &x in exchanges {
                                push(
                                    Candidate {
                                        family: fam,
                                        layers: l,
                                        kernels: k,
                                        overlap: o,
                                        exchange: x,
                                    },
                                    &mut out,
                                );
                            }
                        }
                    }
                }
            }
            AlgorithmFamily::Summa2d => {
                fam.validate(p)?;
                for &k in kernels {
                    for &o in overlaps {
                        for &x in exchanges {
                            push(
                                Candidate {
                                    family: fam,
                                    layers: 1,
                                    kernels: k,
                                    overlap: o,
                                    exchange: x,
                                },
                                &mut out,
                            );
                        }
                    }
                }
            }
            AlgorithmFamily::ColA15 { .. } | AlgorithmFamily::InnerAbc15 { .. } => {
                fam.validate(p)?;
                push(
                    Candidate {
                        family: fam,
                        layers: 1,
                        kernels: KernelStrategy::New,
                        overlap: OverlapMode::Blocking,
                        exchange: ExchangeMode::DenseBcast,
                    },
                    &mut out,
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMA3D: &[AlgorithmFamily] = &[AlgorithmFamily::Summa3dBatched];

    #[test]
    fn enumerates_all_valid_layer_counts() {
        let cs = enumerate_candidates(
            64,
            None,
            &[KernelStrategy::New],
            &[OverlapMode::Blocking],
            &[ExchangeMode::DenseBcast],
            SUMMA3D,
        )
        .unwrap();
        let ls: Vec<usize> = cs.iter().map(|c| c.layers).collect();
        assert_eq!(ls, vec![1, 4, 16, 64]);
    }

    #[test]
    fn cross_product_over_kernels_overlap_and_exchange() {
        let cs = enumerate_candidates(
            16,
            Some(&[1, 4]),
            &[KernelStrategy::New, KernelStrategy::Previous],
            &[OverlapMode::Blocking, OverlapMode::Overlapped],
            &[ExchangeMode::DenseBcast, ExchangeMode::SparseFetch],
            SUMMA3D,
        )
        .unwrap();
        assert_eq!(cs.len(), 2 * 2 * 2 * 2);
    }

    #[test]
    fn bad_explicit_layer_count_names_pair() {
        let err = enumerate_candidates(
            16,
            Some(&[2]),
            &[KernelStrategy::New],
            &[OverlapMode::Blocking],
            &[ExchangeMode::DenseBcast],
            SUMMA3D,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("p=16") && msg.contains("l=2"), "{msg}");
    }

    #[test]
    fn duplicates_are_dropped() {
        let cs = enumerate_candidates(
            16,
            Some(&[4, 4]),
            &[KernelStrategy::New, KernelStrategy::New],
            &[OverlapMode::Blocking],
            &[ExchangeMode::DenseBcast],
            SUMMA3D,
        )
        .unwrap();
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn label_names_the_exchange_mode() {
        let c = Candidate {
            family: AlgorithmFamily::Summa3dBatched,
            layers: 4,
            kernels: KernelStrategy::New,
            overlap: OverlapMode::Overlapped,
            exchange: ExchangeMode::SparseFetch,
        };
        assert_eq!(c.label(), "l=4 new overlapped sparse");
        let c15 = Candidate {
            family: AlgorithmFamily::InnerAbc15 { c: 4 },
            ..c
        };
        assert_eq!(c15.label(), "innerabc(c=4)");
    }

    #[test]
    fn family_sweep_pins_the_15d_knobs() {
        let fams = AlgorithmFamily::sweep(16);
        let cs = enumerate_candidates(
            16,
            None,
            &[KernelStrategy::New, KernelStrategy::Previous],
            &[OverlapMode::Blocking, OverlapMode::Overlapped],
            &[ExchangeMode::DenseBcast],
            &fams,
        )
        .unwrap();
        // Every valid family appears; each 1.5D member exactly once.
        for fam in &fams {
            let n = cs.iter().filter(|c| c.family == *fam).count();
            if fam.is_15d() {
                assert_eq!(n, 1, "{}", fam.label());
            } else {
                assert!(n > 1, "{}", fam.label());
            }
        }
        for c in cs.iter().filter(|c| c.family.is_15d()) {
            assert_eq!(c.layers, 1);
            assert_eq!(c.kernels, KernelStrategy::New);
            assert_eq!(c.overlap, OverlapMode::Blocking);
        }
    }

    #[test]
    fn bad_explicit_repl_factor_names_pair() {
        let err = enumerate_candidates(
            6,
            None,
            &[KernelStrategy::New],
            &[OverlapMode::Blocking],
            &[ExchangeMode::DenseBcast],
            &[AlgorithmFamily::ColA15 { c: 4 }],
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("p=6") && msg.contains("c=4"), "{msg}");
    }
}
