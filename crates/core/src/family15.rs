//! Algorithm-family seam and the 1.5D communication-avoiding drivers.
//!
//! The pipeline grew up around one algorithm — batched 3D SUMMA — but the
//! paper's method is one point in a family of communication-avoiding
//! algorithms. [`AlgorithmFamily`] names the members this repo implements
//! and is threaded through `RunConfig`/planner/CLI exactly as
//! `ExchangeMode` is:
//!
//! * [`AlgorithmFamily::Summa2d`] — 3D SUMMA pinned to one layer (plain
//!   2D sparse SUMMA); the conformance baseline for the new families.
//! * [`AlgorithmFamily::Summa3dBatched`] — the paper's Alg. 4 pipeline.
//! * [`AlgorithmFamily::ColA15`] — 1.5D **ColA** sparse-dense SpMM with
//!   replication factor `c`: dense `B` and `C` are column-striped across
//!   all `p` ranks and stationary; sparse `A` is cut into `t = p/c`
//!   inner-dimension blocks and **rotated** around `c` independent rings
//!   of length `t` (`cola_ring`). Each rank performs `t` local
//!   SpMM-accumulates; replication buys *latency* (`p/c − 1` shift rounds
//!   instead of `p − 1`) while the per-rank `A` bandwidth stays ≈
//!   `nnz(A)·(1 − c/p)`. No dense element ever moves — in the model, and
//!   on the host either: every rank borrows the global `B` and reads its
//!   stripe in place ([`spmm_15d`]).
//! * [`AlgorithmFamily::InnerAbc15`] — 1.5D **InnerABC**: `B`/`C` are
//!   column-striped across `t = p/c` stripes and *replicated* on `c`
//!   layers; layer `ℓ` owns the `A` blocks `{k : k ≡ ℓ (mod c)}`, so each
//!   rank shifts over only `t/c = p/c²` blocks (`iabc_subring`) —
//!   replication buys *bandwidth* (≈ `nnz(A)/c²` shifted per rank) at the
//!   price of a partial-`C` reduction across each stripe's replication
//!   team (`iabc_team`). Requires `c² | p`; `c = 1` degenerates to ColA.
//!
//! The ring/team membership functions are **pure** (no `Rank`), shared
//! verbatim by the drivers here and the schedule auditor's symbolic
//! replay — the same seam `Grid3D::for_rank_id` provides for SUMMA.
//!
//! Shift rounds are point-to-point ([`Rank::send`]/[`Rank::recv`], which
//! do not advance the modeled clock). The `A` block travels as a coded
//! block, sized by [`crate::schedule::payload_bytes`] like a fetch reply,
//! and each round is charged under [`Step::AShift`] as one fetch-style
//! message: the sender's encode, the receiver's decode and `α + β·bytes`.
//! The InnerABC reduction is a team
//! reduce-scatter, as Alg. 2's AllToAll-Fiber + Merge-Fiber: team member
//! `k` keeps rows `block_range(m, c, k)` of its stripe, receives only those
//! rows from the other `c − 1` members through one alltoallv charged under
//! [`Step::CReduce`], and folds them in member-index order (charged as merge
//! compute through the [`BackendKind`]). The gather then assembles `C` from
//! the kept row slices.

use crate::backend::BackendKind;
use crate::exchange::{block_leg, charge, charge_codec};
use crate::harness::validate_grid;
use crate::memory::R_BYTES_PER_NNZ;
use crate::schedule::{self, Op};
use crate::{CoreError, Result};
use spgemm_simgrid::{Comm, Rank, Step};
use spgemm_sparse::ops::{block_range, col_block};
use spgemm_sparse::spgemm::C_SPMM_FLOP;
use spgemm_sparse::{CscMatrix, DenseBlock, Semiring, TiledStripe, WorkStats};
use std::sync::Arc;
use std::time::Instant;

/// Communicator color of the 1.5D shift rings (disjoint from the grid's
/// row/col/fiber/layer colors 1–4 and world 0).
pub(crate) const COLOR_RING15: u64 = 5;
/// Communicator color of the InnerABC partial-`C` reduction teams.
pub(crate) const COLOR_TEAM15: u64 = 6;
/// Tag namespace of the shift rounds (disjoint from the fetch exchange's
/// `0xFE << 48` and the transpose's `0x7A_0001`).
pub(crate) const SHIFT_TAG_BASE: u64 = 0x5D << 48;

/// Tag of shift round `round`.
pub(crate) fn shift_tag(round: usize) -> u64 {
    SHIFT_TAG_BASE + round as u64
}

/// Validate that replication factor `c` forms a 1.5D layout over `p`
/// processes; returns the ring length `t = p/c` on success.
///
/// Mirrors `validate_grid`: the 1.5D ring math truncates silently when
/// `c ∤ p` and degenerates when `c > p` or `c = 0`, so every entry point
/// that accepts `(p, c)` funnels through this check and reports the
/// offending pair.
fn validate_repl(p: usize, c: usize) -> Result<usize> {
    if p == 0 {
        return Err(CoreError::Config("process count p=0 is not a grid".into()));
    }
    if c == 0 {
        return Err(CoreError::Config(format!(
            "invalid 1.5D replication (p={p}, c=0): the replication factor must be at least 1"
        )));
    }
    if c > p {
        return Err(CoreError::Config(format!(
            "invalid 1.5D replication (p={p}, c={c}): the replication factor cannot exceed the \
             process count"
        )));
    }
    if !p.is_multiple_of(c) {
        return Err(CoreError::Config(format!(
            "invalid 1.5D replication (p={p}, c={c}): the replication factor must divide the \
             process count"
        )));
    }
    Ok(p / c)
}

/// Which communication-avoiding algorithm runs the multiply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum AlgorithmFamily {
    /// 2D sparse SUMMA: the 3D pipeline pinned to `l = 1`.
    Summa2d,
    /// The paper's batched 3D SUMMA (Alg. 4) — the default.
    #[default]
    Summa3dBatched,
    /// 1.5D ColA sparse-dense SpMM with replication factor `c`.
    ColA15 {
        /// Replication factor (`c | p`).
        c: usize,
    },
    /// 1.5D InnerABC sparse-dense SpMM with replication factor `c`.
    InnerAbc15 {
        /// Replication factor (`c² | p`).
        c: usize,
    },
}

impl AlgorithmFamily {
    /// CLI name of the family (without the replication factor).
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmFamily::Summa2d => "summa2d",
            AlgorithmFamily::Summa3dBatched => "summa3d",
            AlgorithmFamily::ColA15 { .. } => "cola",
            AlgorithmFamily::InnerAbc15 { .. } => "innerabc",
        }
    }

    /// Report label, e.g. `cola(c=2)`.
    pub fn label(self) -> String {
        match self {
            AlgorithmFamily::Summa2d => "summa2d".into(),
            AlgorithmFamily::Summa3dBatched => "summa3d".into(),
            AlgorithmFamily::ColA15 { c } => format!("cola(c={c})"),
            AlgorithmFamily::InnerAbc15 { c } => format!("innerabc(c={c})"),
        }
    }

    /// Replication factor (`1` for the SUMMA families).
    pub fn repl_factor(self) -> usize {
        match self {
            AlgorithmFamily::ColA15 { c } | AlgorithmFamily::InnerAbc15 { c } => c,
            _ => 1,
        }
    }

    /// Whether this is a 1.5D family (sparse-dense SpMM drivers).
    pub fn is_15d(self) -> bool {
        matches!(
            self,
            AlgorithmFamily::ColA15 { .. } | AlgorithmFamily::InnerAbc15 { .. }
        )
    }

    /// Parse a CLI `--algorithm` name plus `--repl-factor` into a family.
    /// `auto` is handled by the caller (it is a planner mode, not a
    /// family) and rejected here.
    pub fn parse(name: &str, c: usize) -> Result<AlgorithmFamily> {
        match name.to_ascii_lowercase().as_str() {
            "summa2d" => Ok(AlgorithmFamily::Summa2d),
            "summa3d" | "summa3dbatched" => Ok(AlgorithmFamily::Summa3dBatched),
            "cola" => Ok(AlgorithmFamily::ColA15 { c }),
            "innerabc" => Ok(AlgorithmFamily::InnerAbc15 { c }),
            other => Err(CoreError::Config(format!(
                "unknown algorithm family '{other}' \
                 (expected summa2d, summa3d, cola, or innerabc)"
            ))),
        }
    }

    /// Validate the family against a process count, mirroring
    /// `validate_grid`'s role for `(p, l)`: the 1.5D families funnel
    /// through `validate_repl` and InnerABC additionally requires its
    /// sub-ring length `t/c = p/c²` to be whole.
    pub fn validate(self, p: usize) -> Result<()> {
        match self {
            AlgorithmFamily::Summa2d => validate_grid(p, 1).map(|_| ()),
            AlgorithmFamily::Summa3dBatched => Ok(()),
            AlgorithmFamily::ColA15 { c } => validate_repl(p, c).map(|_| ()),
            AlgorithmFamily::InnerAbc15 { c } => {
                let t = validate_repl(p, c)?;
                if !t.is_multiple_of(c) {
                    return Err(CoreError::Config(format!(
                        "invalid 1.5D replication (p={p}, c={c}): InnerABC needs c² | p \
                         (sub-ring length p/c² = {p}/{} is not whole)",
                        c * c
                    )));
                }
                Ok(())
            }
        }
    }

    /// Shift rounds of one 1.5D SpMM on `p` ranks — the ring length, `p/c`
    /// for ColA and `p/c²` for InnerABC — and whether a team reduction
    /// follows them (InnerABC with `c > 1`): the arguments of
    /// [`crate::schedule::family15`].
    pub(crate) fn rounds_and_team(self, p: usize) -> (usize, bool) {
        match self {
            AlgorithmFamily::InnerAbc15 { c } => (p / (c * c), c > 1),
            other => (p / other.repl_factor(), false),
        }
    }

    /// The families the planner's `auto` mode sweeps at process count
    /// `p`: both SUMMA variants (2D only when `p` is square) plus every
    /// valid replication factor `c ≥ 2` of each 1.5D family, capped at
    /// `c ≤ 8` (beyond that the replicated-input memory dominates any
    /// modeled saving at the scales this repo simulates).
    pub fn sweep(p: usize) -> Vec<AlgorithmFamily> {
        let mut out = vec![AlgorithmFamily::Summa3dBatched];
        if validate_grid(p, 1).is_ok() {
            out.push(AlgorithmFamily::Summa2d);
        }
        out.push(AlgorithmFamily::ColA15 { c: 1 });
        for c in 2..=8usize.min(p) {
            let cola = AlgorithmFamily::ColA15 { c };
            if cola.validate(p).is_ok() {
                out.push(cola);
            }
            let iabc = AlgorithmFamily::InnerAbc15 { c };
            if iabc.validate(p).is_ok() {
                out.push(iabc);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Pure 1.5D layout seams (shared by the drivers and the schedule auditor).
// ---------------------------------------------------------------------------

/// ColA ring of `rank` on `p` ranks with replication `c`: the `t = p/c`
/// ranks `{ℓ, ℓ+c, ℓ+2c, …}` where `ℓ = rank mod c`. Every ring holds all
/// `t` blocks of `A` (one per member), so `A` is stored `c`× overall.
pub(crate) fn cola_ring(p: usize, c: usize, rank: usize) -> Vec<usize> {
    let l = rank % c;
    (0..p / c).map(|q| l + q * c).collect()
}

/// Position of `rank` within its ColA ring (also its starting block).
pub(crate) fn cola_ring_pos(c: usize, rank: usize) -> usize {
    rank / c
}

/// The global `A` block a ColA rank holds at shift `round` (blocks rotate
/// toward the ring successor, so position `q` sees `q, q−1, q−2, …`).
pub fn cola_block_at(p: usize, c: usize, rank: usize, round: usize) -> usize {
    let t = p / c;
    let q = cola_ring_pos(c, rank);
    (q + t - round % t) % t
}

/// InnerABC stripe index of `rank` (`t = p/c` stripes of `B`/`C`).
pub(crate) fn iabc_stripe(t: usize, rank: usize) -> usize {
    rank % t
}

/// InnerABC layer index of `rank` (`c` layers; layer `ℓ` owns the `A`
/// blocks `{k : k ≡ ℓ (mod c)}`).
pub(crate) fn iabc_layer(t: usize, rank: usize) -> usize {
    rank / t
}

/// InnerABC shift sub-ring of `rank`: the contiguous group of `t/c` ranks
/// within its layer whose stripe indices share `i − (i mod t/c)` — their
/// starting blocks enumerate the layer's whole block set, so `t/c − 1`
/// rotations visit every block the layer owns.
pub(crate) fn iabc_subring(p: usize, c: usize, rank: usize) -> Vec<usize> {
    let t = p / c;
    let m = t / c;
    let l = iabc_layer(t, rank);
    let i = iabc_stripe(t, rank);
    let base = i - i % m;
    (0..m).map(|q| l * t + base + q).collect()
}

/// Position of `rank` within its InnerABC sub-ring.
pub(crate) fn iabc_subring_pos(p: usize, c: usize, rank: usize) -> usize {
    let t = p / c;
    iabc_stripe(t, rank) % (t / c)
}

/// The global `A` block an InnerABC rank holds at shift `round`: always
/// one of its layer's blocks `ℓ + c·slot`, with `slot` rotating exactly
/// like the ColA position.
pub(crate) fn iabc_block_at(p: usize, c: usize, rank: usize, round: usize) -> usize {
    let t = p / c;
    let m = t / c;
    let l = iabc_layer(t, rank);
    let q = iabc_subring_pos(p, c, rank);
    let slot = (q + m - round % m) % m;
    l + c * slot
}

/// InnerABC replication team of `rank`: the `c` ranks (one per layer)
/// sharing its stripe, which reduce their partial `C` stripes.
pub(crate) fn iabc_team(p: usize, c: usize, rank: usize) -> Vec<usize> {
    let t = p / c;
    let i = iabc_stripe(t, rank);
    (0..c).map(|l| l * t + i).collect()
}

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

/// One rank's result of a 1.5D SpMM run.
#[derive(Debug)]
pub struct Spmm15PerRank<T: Copy> {
    /// The assembled `m × d` product on the simulated root; `None`
    /// elsewhere (and everywhere when `discard` was requested).
    pub gathered: Option<DenseBlock<T>>,
    /// Kernel counters accumulated over all local SpMM rounds and folds.
    pub kernel_stats: WorkStats,
    /// Peak modeled bytes resident on this rank (replicated `A` block +
    /// in-flight shift buffer + dense stripes) — what the Eq. 2-style
    /// replication-memory accounting in the planner predicts.
    pub peak_bytes: usize,
}

/// Run one rank of the 1.5D SpMM `C = A·B` (`family` must be a 1.5D
/// member). Every rank borrows the same global `a` and `b` — rank threads
/// are scoped, and on the host "stationary" means *not copied*: a rank reads
/// its `B` stripe in place, as a column range of the column-major block.
/// The scatter from the root that a real run would start with is modeled
/// only: two zero-byte world broadcasts (one per operand) charged to
/// [`Step::Other`] like `dist::scatter`. The product is gathered back to
/// the root unless `discard` is set.
pub fn spmm_15d<S: Semiring>(
    rank: &mut Rank,
    family: AlgorithmFamily,
    a: &CscMatrix<S::T>,
    b: &DenseBlock<S::T>,
    backend: BackendKind,
    discard: bool,
) -> Result<Spmm15PerRank<S::T>> {
    let p = rank.world_size();
    family.validate(p)?;
    let c = family.repl_factor();
    let world = rank.world_comm();

    // The modeled scatter: one zero-byte broadcast per operand.
    for _operand in 0..2 {
        let token = (rank.rank() == 0).then(|| Arc::new(()));
        rank.bcast(&world, 0, token, 0, Step::Other);
    }
    if a.ncols() != b.nrows() {
        return Err(CoreError::Config(format!(
            "inner dimensions differ: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    let (m, n_inner, d) = (a.nrows(), a.ncols(), b.ncols());
    let me = rank.rank();
    let t = p / c;

    // Stationary layout: this rank's column stripe of B and C, the ring
    // it rotates A blocks around, its starting block, and (InnerABC) the
    // reduction team.
    let (stripe, ring_members, pos0, block0) = match family {
        AlgorithmFamily::ColA15 { .. } => (
            block_range(d, p, me),
            cola_ring(p, c, me),
            cola_ring_pos(c, me),
            cola_block_at(p, c, me, 0),
        ),
        AlgorithmFamily::InnerAbc15 { .. } => (
            block_range(d, t, iabc_stripe(t, me)),
            iabc_subring(p, c, me),
            iabc_subring_pos(p, c, me),
            iabc_block_at(p, c, me, 0),
        ),
        other => {
            return Err(CoreError::Config(format!(
                "spmm_15d runs the 1.5D families, not {}",
                other.label()
            )))
        }
    };
    let mut c_stripe = TiledStripe::new_fill(m, stripe.len(), S::zero());
    // The rows of the stripe this rank keeps: all of them, until an
    // InnerABC reduction leaves it one team member's slice.
    let mut rows = 0..m;
    let ring = Comm::for_rank(ring_members, COLOR_RING15, me);
    let ring_len = ring.size();

    let mut cur_block = block0;
    let mut cur = col_block(a, block_range(n_inner, t, cur_block));
    let b_stripe_bytes = n_inner * stripe.len() * std::mem::size_of::<S::T>();
    let dense_bytes = b_stripe_bytes + c_stripe.modeled_bytes();
    let mut peak_bytes = cur.modeled_bytes(R_BYTES_PER_NNZ) + dense_bytes;
    let mut kernel_stats = WorkStats::default();

    let (rounds, has_team) = family.rounds_and_team(p);
    let mut gathered = None;
    for op in schedule::family15(rounds, has_team) {
        match op {
            Op::Multiply => {
                let t0 = Instant::now();
                let inner = block_range(n_inner, t, cur_block);
                let stats = c_stripe
                    .accumulate::<S>(&cur, b, stripe.clone(), inner.start)
                    .map_err(CoreError::Sparse)?;
                backend.charge(
                    rank,
                    Step::LocalMultiply,
                    &stats,
                    t0.elapsed().as_secs_f64(),
                );
                kernel_stats.merge(stats);
            }
            // A-Shift: rotate the block to the ring successor as a coded
            // block. `send`/`recv` are free on the modeled clock, so the
            // sender charges its encode and the receiver one fetch-style
            // leg: the decode plus α + β·bytes, sized by the sender.
            Op::Shift { round } => {
                let [to, from] = schedule::ring_shift(ring_len, pos0, round);
                let sent = block_leg(op, &cur);
                charge_codec(rank, Step::AShift, sent.1);
                rank.send(&ring, to.peer, to.tag, (cur_block as u64, cur, sent));
                let (idx, mat, received) =
                    rank.recv::<(u64, CscMatrix<S::T>, (usize, usize))>(&ring, from.peer, from.tag);
                charge(rank, Step::AShift, received);
                cur = mat;
                cur_block = idx as usize;
                debug_assert_eq!(
                    cur_block,
                    match family {
                        AlgorithmFamily::ColA15 { .. } => cola_block_at(p, c, me, round + 1),
                        _ => iabc_block_at(p, c, me, round + 1),
                    },
                    "shift rotation disagrees with the pure layout seam"
                );
                // Both the resident and the in-flight block count while the
                // shift is un-acknowledged.
                peak_bytes = peak_bytes.max(2 * cur.modeled_bytes(R_BYTES_PER_NNZ) + dense_bytes);
            }
            // C-Reduce: a reduce-scatter over row slices of the stripe.
            // Team member `k` keeps rows `block_range(m, c, k)` and receives
            // only those rows from its peers: each alltoallv part is the
            // whole partial stripe behind an `Arc` (nothing is copied on the
            // host), modeled at the size of the slice it stands for. The
            // member folds its rows in member-index order, so every `C(i, j)`
            // is summed in the same `⊕` order on whichever member keeps it.
            Op::TeamReduce => {
                let team = Comm::for_rank(iabc_team(p, c, me), COLOR_TEAM15, me);
                let elem_bytes = stripe.len() * std::mem::size_of::<S::T>();
                let bytes: Vec<usize> =
                    (0..c).map(|k| block_range(m, c, k).len() * elem_bytes).collect();
                rows = block_range(m, c, team.my_index());
                peak_bytes = peak_bytes.max(dense_bytes + c * rows.len() * elem_bytes);
                let whole = Arc::new(c_stripe);
                let parts = rank.alltoallv(&team, vec![whole; c], &bytes, Step::CReduce);
                let t0 = Instant::now();
                c_stripe = TiledStripe::fold::<S>(&parts, rows.clone());
                let flops = (parts.len() - 1) as u64 * stripe.len() as u64 * rows.len() as u64;
                let fold_stats = WorkStats {
                    flops,
                    work_units: flops as f64 * C_SPMM_FLOP,
                    ..WorkStats::default()
                };
                backend.charge(
                    rank,
                    Step::MergeFiber,
                    &fold_stats,
                    t0.elapsed().as_secs_f64(),
                );
                kernel_stats.merge(fold_stats);
            }
            // Gather the kept rows of every stationary stripe to the root
            // (harness overhead, Step::Other, like `gather_pieces`). After
            // an InnerABC reduction each team member holds a different row
            // slice of its stripe, so the root writes each block into its
            // own rows only.
            Op::Gather => {
                let payload = if discard {
                    Vec::new()
                } else {
                    vec![(stripe.start, rows.start, c_stripe.to_block())]
                };
                let all = rank.gather_to_root(&world, 0, payload, 0, Step::Other);
                gathered = all.filter(|_| !discard).map(|all| {
                    let mut out = DenseBlock::new_fill(m, d, S::zero());
                    for (col0, row0, block) in all.into_iter().flatten() {
                        for jj in 0..block.ncols() {
                            out.col_mut(col0 + jj)[row0..row0 + block.nrows()]
                                .copy_from_slice(block.col(jj));
                        }
                    }
                    out
                });
            }
            other => unreachable!("{other:?} is not a 1.5D op"),
        }
    }

    Ok(Spmm15PerRank {
        gathered,
        kernel_stats,
        peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_labels() {
        assert_eq!(
            AlgorithmFamily::parse("summa3d", 1).unwrap(),
            AlgorithmFamily::Summa3dBatched
        );
        assert_eq!(
            AlgorithmFamily::parse("cola", 4).unwrap(),
            AlgorithmFamily::ColA15 { c: 4 }
        );
        assert_eq!(
            AlgorithmFamily::parse("InnerABC", 2).unwrap(),
            AlgorithmFamily::InnerAbc15 { c: 2 }
        );
        assert!(AlgorithmFamily::parse("auto", 1).is_err());
        assert_eq!(AlgorithmFamily::ColA15 { c: 2 }.label(), "cola(c=2)");
        assert_eq!(AlgorithmFamily::InnerAbc15 { c: 4 }.repl_factor(), 4);
        assert_eq!(AlgorithmFamily::default(), AlgorithmFamily::Summa3dBatched);
    }

    #[test]
    fn validate_names_the_pair() {
        // The (p, c) mirror of the degenerate-grid (p, l) errors.
        let err = AlgorithmFamily::ColA15 { c: 3 }.validate(16).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("p=16") && msg.contains("c=3"), "{msg}");
        let err = AlgorithmFamily::ColA15 { c: 32 }.validate(16).unwrap_err();
        assert!(err.to_string().contains("cannot exceed"), "{err}");
        let err = AlgorithmFamily::ColA15 { c: 0 }.validate(16).unwrap_err();
        assert!(err.to_string().contains("c=0"), "{err}");
        // InnerABC additionally needs c² | p (8 % 4 = 0 but 16 ∤ 8).
        let err = AlgorithmFamily::InnerAbc15 { c: 4 }.validate(8).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("p=8") && msg.contains("c=4") && msg.contains("c²"), "{msg}");
        assert!(AlgorithmFamily::InnerAbc15 { c: 4 }.validate(16).is_ok());
        assert!(AlgorithmFamily::ColA15 { c: 4 }.validate(16).is_ok());
    }

    #[test]
    fn cola_rings_partition_and_rotate() {
        let (p, c) = (12, 3);
        let t = p / c;
        // Rings partition the ranks; each rank sits at its stated position.
        let mut seen = vec![false; p];
        for r in 0..p {
            let ring = cola_ring(p, c, r);
            assert_eq!(ring.len(), t);
            assert_eq!(ring[cola_ring_pos(c, r)], r);
            for &g in &ring {
                assert_eq!(g % c, r % c);
            }
            seen[r] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        // Across a full rotation, every rank sees every block exactly once,
        // and at each round a ring's members hold distinct blocks.
        for r in 0..p {
            let mut blocks: Vec<usize> = (0..t).map(|s| cola_block_at(p, c, r, s)).collect();
            blocks.sort_unstable();
            assert_eq!(blocks, (0..t).collect::<Vec<_>>());
        }
        for round in 0..t {
            let ring = cola_ring(p, c, 0);
            let mut held: Vec<usize> =
                ring.iter().map(|&g| cola_block_at(p, c, g, round)).collect();
            held.sort_unstable();
            assert_eq!(held, (0..t).collect::<Vec<_>>());
        }
    }

    #[test]
    fn iabc_layout_covers_all_blocks_once() {
        let (p, c) = (16, 2);
        let t = p / c; // 8 stripes
        let m = t / c; // 4-rank sub-rings
        for r in 0..p {
            let sub = iabc_subring(p, c, r);
            assert_eq!(sub.len(), m);
            assert_eq!(sub[iabc_subring_pos(p, c, r)], r);
            // All sub-ring members are in the same layer.
            for &g in &sub {
                assert_eq!(iabc_layer(t, g), iabc_layer(t, r));
            }
            // Over a full rotation this rank sees exactly its layer's
            // block set {k : k ≡ ℓ (mod c)}.
            let l = iabc_layer(t, r);
            let mut blocks: Vec<usize> = (0..m).map(|s| iabc_block_at(p, c, r, s)).collect();
            blocks.sort_unstable();
            let expect: Vec<usize> = (0..t).filter(|k| k % c == l).collect();
            assert_eq!(blocks, expect, "rank {r}");
            // The team has one member per layer, all sharing the stripe.
            let team = iabc_team(p, c, r);
            assert_eq!(team.len(), c);
            for (l2, &g) in team.iter().enumerate() {
                assert_eq!(iabc_layer(t, g), l2);
                assert_eq!(iabc_stripe(t, g), iabc_stripe(t, r));
            }
        }
        // Union over one team's layers = all blocks (the reduction's
        // correctness condition).
        let mut all: Vec<usize> = (0..c)
            .flat_map(|l| (0..t).filter(move |k| k % c == l))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..t).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_respects_divisibility() {
        let fams = AlgorithmFamily::sweep(16);
        assert!(fams.contains(&AlgorithmFamily::Summa3dBatched));
        assert!(fams.contains(&AlgorithmFamily::Summa2d));
        assert!(fams.contains(&AlgorithmFamily::ColA15 { c: 2 }));
        assert!(fams.contains(&AlgorithmFamily::ColA15 { c: 8 }));
        assert!(fams.contains(&AlgorithmFamily::InnerAbc15 { c: 2 }));
        assert!(fams.contains(&AlgorithmFamily::InnerAbc15 { c: 4 }));
        assert!(!fams.contains(&AlgorithmFamily::InnerAbc15 { c: 8 })); // 64 ∤ 16
        assert!(!fams.contains(&AlgorithmFamily::ColA15 { c: 3 })); // 3 ∤ 16
        // Non-square p: no Summa2d, but 1.5D works.
        let fams = AlgorithmFamily::sweep(12);
        assert!(!fams.contains(&AlgorithmFamily::Summa2d));
        assert!(fams.contains(&AlgorithmFamily::ColA15 { c: 6 }));
        assert!(fams.contains(&AlgorithmFamily::InnerAbc15 { c: 2 })); // c²=4 | 12
        assert!(!fams.contains(&AlgorithmFamily::InnerAbc15 { c: 6 })); // 36 ∤ 12
    }
}
