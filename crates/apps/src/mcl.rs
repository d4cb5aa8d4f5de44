//! HipMCL-style Markov clustering on batched distributed SpGEMM.
//!
//! Markov clustering (MCL) iterates two operations on a column-stochastic
//! matrix: **expansion** (matrix squaring — the SpGEMM) and **inflation**
//! (elementwise power + column re-normalization), pruning small entries to
//! keep the matrix sparse. HipMCL \[19\] is its distributed incarnation;
//! the paper plugs BatchedSUMMA3D into it (Sec. V-C, Fig. 3) because the
//! expanded matrix `A²` does not fit in memory: each batch of columns is
//! **inflated, normalized and pruned inside the batched multiply**, before
//! the next batch is formed.
//!
//! Pruning is column-global (top-`select` entries of a column), and a
//! column of the product is split across the process column `P(:,j,k)`, so
//! the per-batch callback performs the same column-wise reductions HipMCL
//! performs: an allgather of per-column contributions along the process
//! column, charged to `Step::Other` (application time, not SpGEMM time —
//! matching how Fig. 3 reports only the SpGEMM steps).
//!
//! Two drivers share that callback:
//!
//! * The **session driver** (default, [`MclParams::session`]) keeps the
//!   iterate resident in an [`IterSession`] for the whole run — one
//!   simulated world, no per-iteration gather-to-root/re-scatter round
//!   trip, the symbolic sweep skipped when the budget is unlimited, and
//!   (under [`ExchangeMode::SparseFetch`] with [`MclParams::cache`]) fetch
//!   state memoized across iterations. Chaos is computed *distributed*,
//!   bit-identically to the serial metric, from the same per-column value
//!   allgather the pruning already performs.
//! * The **legacy driver** re-distributes every iteration (the shape the
//!   paper's Fig. 3 harness used). It is kept as the reference the session
//!   must match bit-for-bit, and for A/B measurement of what residency
//!   saves.
//!
//! Both produce identical clusterings: the session's in-place assembly and
//! fiber refresh reproduce the legacy gather + re-scatter exactly (see
//! `iter_session.rs` property tests). Neither spawns ranks, scatters or
//! gathers itself: the legacy driver is [`run_batched`] with the pruning
//! callback, the session driver enters through [`run_on_grid`], and both
//! run under the one [`RunConfig`] that `MclParams` maps to.

use crate::components::components_from_pattern;
use spgemm_core::dist::CPiece;
use spgemm_core::{
    run_batched, run_on_grid, BOperand, BackendKind, CoreError, ExchangeMode, IterSession,
    KernelStrategy, MemoryBudget, OverlapMode, RunConfig, SessionIterStats,
};
use spgemm_simgrid::{max_breakdown, Grid3D, Machine, Rank, Step, StepBreakdown};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::{CscMatrix, Triples};
use std::sync::Arc;

/// Markov clustering parameters.
#[derive(Debug, Clone, Copy)]
pub struct MclParams {
    /// Inflation exponent (classic MCL uses 2.0).
    pub inflation: f64,
    /// Absolute pruning threshold applied after normalization.
    pub prune_threshold: f64,
    /// Keep at most this many entries per column (HipMCL's "select").
    pub select: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Stop when the chaos metric drops below this.
    pub chaos_threshold: f64,
    /// Simulated processes.
    pub p: usize,
    /// 3D grid layers.
    pub layers: usize,
    /// Machine cost model.
    pub machine: Machine,
    /// Local kernel generation.
    pub kernels: KernelStrategy,
    /// Memory budget (drives per-iteration batch counts).
    pub budget: MemoryBudget,
    /// Blocking or overlapped (pipelined) communication.
    pub overlap: OverlapMode,
    /// How stage operands move (dense broadcast vs sparsity-aware fetch).
    pub exchange: ExchangeMode,
    /// Modeled-clock or real-multithreaded local kernels.
    pub backend: BackendKind,
    /// Keep the iterate resident across iterations (the default). `false`
    /// selects the legacy gather/re-scatter driver.
    pub session: bool,
    /// Memoize SparseFetch state across session iterations (no effect on
    /// the legacy driver or under `DenseBcast`).
    pub cache: bool,
    /// Schedule-perturbation seed: `Some(seed)` injects deterministic
    /// wakeup-order jitter at every communication point (results must be
    /// bit-identical under any seed); `None` follows the
    /// `SPGEMM_PERTURB_SEED` environment variable.
    pub perturb: Option<u64>,
}

impl MclParams {
    /// Reasonable defaults on a `p`-rank, `l`-layer grid.
    pub fn new(p: usize, layers: usize) -> Self {
        MclParams {
            inflation: 2.0,
            prune_threshold: 1e-4,
            select: 64,
            max_iters: 30,
            chaos_threshold: 1e-3,
            p,
            layers,
            machine: Machine::knl(),
            kernels: KernelStrategy::New,
            budget: MemoryBudget::unlimited(),
            overlap: OverlapMode::default(),
            exchange: ExchangeMode::default(),
            backend: BackendKind::default(),
            session: true,
            cache: true,
            perturb: None,
        }
    }

    /// The run policy both drivers execute under: every policy field of
    /// `MclParams` lands in the [`RunConfig`] the harness and the batched
    /// pipeline read, so `--overlap`, `--exchange`, `--backend` and the
    /// perturbation seed reach MCL exactly as they reach plain SpGEMM.
    fn run_config(&self) -> RunConfig {
        RunConfig {
            machine: self.machine,
            kernels: self.kernels,
            budget: self.budget,
            overlap: self.overlap,
            exchange: self.exchange,
            backend: self.backend,
            perturb: self.perturb,
            ..RunConfig::new(self.p, self.layers)
        }
    }
}

/// Per-iteration measurements.
#[derive(Debug, Clone, Copy)]
pub struct IterStats {
    /// Critical-path step breakdown of the iteration's SpGEMM.
    pub breakdown: StepBreakdown,
    /// Batches the symbolic step chose this iteration (cross-rank
    /// agreement is verified, not assumed).
    pub nbatches: usize,
    /// Chaos after the iteration (0 = fully converged).
    pub chaos: f64,
    /// Nonzeros in the pruned iterate.
    pub nnz: usize,
    /// Modeled communication bytes of the iteration, summed over ranks.
    pub modeled_bytes: u64,
    /// Operand-cache fetch rounds answered from cache, summed over ranks
    /// (session driver with `SparseFetch` + cache only).
    pub fetch_hits: u64,
    /// Operand-cache fetch rounds that shipped a fresh tile, summed.
    pub fetch_misses: u64,
    /// Iterate columns invalidated by this iteration's pruning, summed.
    pub invalidated_cols: u64,
}

/// Clustering result.
#[derive(Debug, Clone)]
pub struct MclResult {
    /// Cluster label per node.
    pub labels: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Per-iteration stats (Fig. 3's bars).
    pub per_iter: Vec<IterStats>,
}

/// Add self-loops and column-normalize (the canonical MCL preprocessing).
pub fn mcl_init(adj: &CscMatrix<f64>) -> CscMatrix<f64> {
    let n = adj.nrows();
    assert_eq!(n, adj.ncols(), "MCL needs a square adjacency matrix");
    let mut t = Triples::with_capacity(n, n, adj.nnz() + n);
    let mut has_diag = vec![false; n];
    for (r, c, v) in adj.iter() {
        if r as usize == c {
            has_diag[c] = true;
        }
        t.push(r, c as u32, v.abs());
    }
    for (j, &h) in has_diag.iter().enumerate() {
        if !h {
            t.push(j as u32, j as u32, 1.0);
        }
    }
    let mut m = t.to_csc_dedup::<PlusTimesF64>();
    normalize_columns(&mut m);
    m
}

fn normalize_columns(m: &mut CscMatrix<f64>) {
    let sums = spgemm_sparse::ops::col_sums::<PlusTimesF64>(m);
    let factors: Vec<f64> = sums
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    spgemm_sparse::ops::scale_cols(m, &factors);
}

/// MCL chaos metric: `max_j (max_i M_ij − Σ_i M_ij²)` over normalized
/// columns; 0 when every column is a single unit entry (fully converged).
pub(crate) fn chaos(m: &CscMatrix<f64>) -> f64 {
    let mut worst: f64 = 0.0;
    for j in 0..m.ncols() {
        let (_, vals) = m.col(j);
        if vals.is_empty() {
            continue;
        }
        let mx = vals.iter().copied().fold(0.0, f64::max);
        let sumsq: f64 = vals.iter().map(|v| v * v).sum();
        worst = worst.max(mx - sumsq);
    }
    worst
}

/// The per-batch HipMCL pruning: inflate, normalize, select top-k,
/// threshold, re-normalize. Column-global quantities are reduced along the
/// process column communicator.
///
/// Also returns the batch's contribution to the chaos metric, computed
/// from the per-column value allgather the top-k selection already paid
/// for. The reconstruction is **bit-identical** to running [`chaos`] on
/// the assembled global iterate: the column communicator's members are
/// ordered by process row, each member's values sit in ascending local row
/// order, so the filtered, re-scaled concatenation walks a column's kept
/// values in exactly the global storage order the serial metric folds
/// over.
fn prune_batch_piece(
    rank: &mut Rank,
    grid: &Grid3D,
    mut piece: CPiece<f64>,
    params: &MclParams,
) -> (CPiece<f64>, f64) {
    let ncols = piece.local.ncols();
    // Inflation (elementwise power) is local.
    let inflated = piece.local.map(|v| v.abs().powf(params.inflation));

    // Column sums across the process column.
    let my_sums = spgemm_sparse::ops::col_sums::<PlusTimesF64>(&inflated);
    let all_sums = rank.allgather(&grid.col, my_sums, ncols * 8, Step::Other);
    let mut sums = vec![0.0f64; ncols];
    for contrib in &all_sums {
        for (s, &c) in sums.iter_mut().zip(contrib.iter()) {
            *s += c;
        }
    }

    // Normalize locally with the global sums.
    let mut normalized = inflated;
    let factors: Vec<f64> = sums
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    spgemm_sparse::ops::scale_cols(&mut normalized, &factors);

    // Column-global top-`select` thresholds: gather every rank's values per
    // column, find the k-th largest.
    let my_vals: Vec<Vec<f64>> = (0..ncols).map(|j| normalized.col(j).1.to_vec()).collect();
    let bytes: usize = normalized.nnz() * 8;
    let all_vals = rank.allgather(&grid.col, my_vals, bytes, Step::Other);
    let mut kth = vec![0.0f64; ncols];
    let mut scratch: Vec<f64> = Vec::new();
    for (j, kth_j) in kth.iter_mut().enumerate() {
        scratch.clear();
        for contrib in &all_vals {
            scratch.extend_from_slice(&contrib[j]);
        }
        if scratch.len() > params.select {
            let (_, kth_largest, _) =
                scratch.select_nth_unstable_by(params.select - 1, |a, b| b.partial_cmp(a).unwrap());
            *kth_j = *kth_largest;
        }
    }

    // Prune: keep entries that are both above the column's top-k cut and
    // above the absolute threshold... then re-normalize the survivors.
    normalized.retain(|_, j, v| v >= kth[j] && v >= params.prune_threshold);
    let my_sums2 = spgemm_sparse::ops::col_sums::<PlusTimesF64>(&normalized);
    let all_sums2 = rank.allgather(&grid.col, my_sums2, ncols * 8, Step::Other);
    let mut sums2 = vec![0.0f64; ncols];
    for contrib in &all_sums2 {
        for (s, &c) in sums2.iter_mut().zip(contrib.iter()) {
            *s += c;
        }
    }
    let factors2: Vec<f64> = sums2
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    spgemm_sparse::ops::scale_cols(&mut normalized, &factors2);

    // Chaos of this batch's columns, from the already-gathered values:
    // replay the prune predicate and the survivor re-scaling on the
    // member-ordered concatenation (= global storage order; see above).
    let mut batch_chaos: f64 = 0.0;
    for j in 0..ncols {
        let mut mx: f64 = 0.0;
        let mut sumsq: f64 = 0.0;
        let mut any = false;
        for contrib in &all_vals {
            for &v in &contrib[j] {
                if v >= kth[j] && v >= params.prune_threshold {
                    let w = v * factors2[j];
                    mx = mx.max(w);
                    sumsq += w * w;
                    any = true;
                }
            }
        }
        if any {
            batch_chaos = batch_chaos.max(mx - sumsq);
        }
    }

    piece.local = normalized;
    (piece, batch_chaos)
}

/// Run Markov clustering on `adj` (symmetric similarity matrix) with the
/// driver [`MclParams::session`] selects. Both drivers produce identical
/// clusterings and per-iteration chaos values.
pub fn markov_cluster(adj: &CscMatrix<f64>, params: &MclParams) -> Result<MclResult, CoreError> {
    if params.session {
        markov_cluster_session(adj, params)
    } else {
        markov_cluster_legacy(adj, params)
    }
}

fn markov_cluster_legacy(
    adj: &CscMatrix<f64>,
    params: &MclParams,
) -> Result<MclResult, CoreError> {
    let cfg = params.run_config();
    // An `Arc` so the simulation threads share one copy of the iterate
    // instead of deep-cloning the whole matrix every iteration.
    let mut m = Arc::new(mcl_init(adj));
    let mut per_iter = Vec::new();
    for _ in 0..params.max_iters {
        // One expansion+inflation+pruning iteration on a fresh virtual
        // cluster: scatter the iterate, multiply-and-prune, gather it back.
        let (out, _) = run_batched::<PlusTimesF64, (), ()>(
            &cfg,
            &m,
            &BOperand::Global(Arc::clone(&m)),
            |(), rank, grid, out| Some(prune_batch_piece(rank, grid, out.piece, params).0),
            |(), _, _| (),
        )?;
        m = Arc::new(out.c.expect("root must gather the iterate"));
        let ch = chaos(&m);
        per_iter.push(IterStats {
            breakdown: out.max,
            nbatches: out.nbatches,
            chaos: ch,
            nnz: m.nnz(),
            modeled_bytes: out.per_rank.iter().map(StepBreakdown::bytes_total).sum(),
            fetch_hits: 0,
            fetch_misses: 0,
            invalidated_cols: 0,
        });
        if ch < params.chaos_threshold {
            break;
        }
    }
    let labels = components_from_pattern(&m, params.prune_threshold);
    Ok(MclResult {
        labels,
        iterations: per_iter.len(),
        per_iter,
    })
}

/// The resident-iterate driver: one simulated world hosts the whole MCL
/// loop inside an [`IterSession`]. Convergence is decided on every rank
/// from the distributed chaos (one world all-reduce per iteration), so all
/// ranks break in lock-step; the iterate is gathered to root exactly once,
/// at the end, for component labeling.
fn markov_cluster_session(
    adj: &CscMatrix<f64>,
    params: &MclParams,
) -> Result<MclResult, CoreError> {
    let m_arc = Arc::new(mcl_init(adj));
    let cfg = params.run_config();
    type RankIters = Vec<(SessionIterStats, f64, u64)>;
    let world = run_on_grid(&cfg, |rank, grid| {
        let global = (rank.rank() == 0).then(|| Arc::clone(&m_arc));
        let mut sess = IterSession::<PlusTimesF64>::new(rank, grid, global, &cfg, params.cache)?;
        let mut iters: RankIters = Vec::new();
        for _ in 0..params.max_iters {
            let mut iter_chaos: f64 = 0.0;
            let stats = sess.step(rank, grid, |rank, out| {
                let (piece, bc) = prune_batch_piece(rank, grid, out.piece, params);
                iter_chaos = iter_chaos.max(bc);
                Some(piece)
            })?;
            // Every process column computed its own columns' chaos; the
            // global metric (f64 max is exact) decides convergence on all
            // ranks simultaneously.
            let ch = rank.allreduce(&grid.world, iter_chaos, f64::max, 8, Step::Other);
            let nnz = rank.allreduce(&grid.world, stats.local_nnz, |a, b| a + b, 8, Step::Other);
            iters.push((stats, ch, nnz));
            if ch < params.chaos_threshold {
                break;
            }
        }
        Ok((sess.gather(rank, grid), iters))
    })?;

    let (gathered, per_rank): (Vec<_>, Vec<RankIters>) = world.ranks.into_iter().unzip();
    let iterations = per_rank[0].len();
    let mut per_iter = Vec::with_capacity(iterations);
    for t in 0..iterations {
        let mut bds = Vec::with_capacity(params.p);
        let (mut hits, mut misses, mut inval, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        let (first, ch, nnz) = per_rank[0][t];
        for (ri, rank_iters) in per_rank.iter().enumerate() {
            debug_assert_eq!(rank_iters.len(), iterations, "SPMD break divergence");
            let (s, _, _) = &rank_iters[t];
            bds.push(s.breakdown);
            hits += s.cache.hits;
            misses += s.cache.misses;
            inval += s.cache.invalidated_cols;
            bytes += s.breakdown.bytes_total();
            // The symbolic batch count must be an SPMD-agreed value; taking
            // any one rank's answer would silently mask a divergence.
            if s.nbatches != first.nbatches {
                return Err(CoreError::Config(format!(
                    "ranks disagree on the batch count: rank 0 chose {}, rank {ri} chose {}",
                    first.nbatches, s.nbatches
                )));
            }
        }
        per_iter.push(IterStats {
            breakdown: max_breakdown(&bds),
            nbatches: first.nbatches,
            chaos: ch,
            nnz: nnz as usize,
            modeled_bytes: bytes,
            fetch_hits: hits,
            fetch_misses: misses,
            invalidated_cols: inval,
        });
    }
    let m = gathered.into_iter().next().flatten().expect("root gathers the final iterate");
    let labels = components_from_pattern(&m, params.prune_threshold);
    Ok(MclResult {
        labels,
        iterations,
        per_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{num_clusters, same_partition};
    use spgemm_sparse::gen::clustered_similarity;

    #[test]
    fn init_is_column_stochastic_with_diagonal() {
        let adj = clustered_similarity(3, 10, 5, 1, 91);
        let m = mcl_init(&adj);
        for j in 0..m.ncols() {
            let (rows, vals) = m.col(j);
            assert!(rows.contains(&(j as u32)), "self loop at {j}");
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "column {j} sums to {s}");
        }
    }

    #[test]
    fn chaos_zero_on_converged_matrix() {
        let m = CscMatrix::identity(5);
        assert_eq!(chaos(&m), 0.0);
        let spread = mcl_init(&clustered_similarity(2, 8, 4, 1, 92));
        assert!(chaos(&spread) > 0.01);
    }

    #[test]
    fn recovers_planted_clusters() {
        // 4 dense communities, weak inter-links: MCL must cut them apart.
        let nclusters = 4;
        let size = 8;
        let adj = clustered_similarity(nclusters, size, 7, 1, 93);
        let params = MclParams::new(4, 1);
        let result = markov_cluster(&adj, &params).unwrap();
        let expected: Vec<usize> = (0..nclusters * size).map(|v| v / size).collect();
        assert!(
            same_partition(&result.labels, &expected),
            "labels {:?} (k = {}) should match the planted partition",
            result.labels,
            num_clusters(&result.labels)
        );
        assert!(result.iterations >= 2);
    }

    #[test]
    fn distributed_configs_agree() {
        let adj = clustered_similarity(3, 8, 5, 1, 94);
        let base = markov_cluster(&adj, &MclParams::new(1, 1)).unwrap();
        for (p, l) in [(4usize, 1usize), (4, 4), (16, 4)] {
            let other = markov_cluster(&adj, &MclParams::new(p, l)).unwrap();
            assert!(
                same_partition(&base.labels, &other.labels),
                "p={p} l={l} changed the clustering"
            );
        }
    }

    #[test]
    fn session_and_legacy_drivers_match_bit_for_bit() {
        let adj = clustered_similarity(3, 8, 5, 1, 96);
        for (p, l) in [(4usize, 1usize), (16, 4)] {
            for exchange in [ExchangeMode::DenseBcast, ExchangeMode::SparseFetch] {
                let mut sp = MclParams::new(p, l);
                sp.exchange = exchange;
                let mut lp = sp;
                lp.session = false;
                let sess = markov_cluster(&adj, &sp).unwrap();
                let legacy = markov_cluster(&adj, &lp).unwrap();
                assert_eq!(sess.labels, legacy.labels, "p={p} l={l} {exchange:?}");
                assert_eq!(sess.iterations, legacy.iterations);
                for (a, b) in sess.per_iter.iter().zip(&legacy.per_iter) {
                    // Distributed chaos must be *bit*-identical to the
                    // serial metric on the gathered iterate.
                    assert_eq!(a.chaos.to_bits(), b.chaos.to_bits());
                    assert_eq!(a.nnz, b.nnz);
                    assert_eq!(a.nbatches, b.nbatches);
                }
            }
        }
    }

    /// The Fig. 3 shape under its budget on 16 layers: Symbolic3D picks
    /// batch counts with `b·l` not dividing the 144 local columns, and the
    /// resident session must still match the legacy driver bit for bit.
    #[test]
    fn budgeted_sixteen_layer_session_matches_legacy() {
        let adj = clustered_similarity(12, 24, 14, 2, 0x150_1A7E5);
        let mut sp = MclParams::new(64, 16);
        sp.select = 24;
        sp.max_iters = 10;
        sp.chaos_threshold = 1e-4;
        sp.budget = MemoryBudget::new(adj.nrows() * sp.select * 24 * 10);
        let mut lp = sp;
        lp.session = false;
        let sess = markov_cluster(&adj, &sp).unwrap();
        let legacy = markov_cluster(&adj, &lp).unwrap();
        let batches: Vec<usize> = sess.per_iter.iter().map(|it| it.nbatches).collect();
        // b = 2 leaves a remainder of 16 of the 144 local columns.
        assert_eq!(batches[..3], [3, 2, 2], "{batches:?}");
        assert_eq!(sess.labels, legacy.labels);
        assert_eq!(sess.iterations, legacy.iterations);
        for (a, b) in sess.per_iter.iter().zip(&legacy.per_iter) {
            assert_eq!(a.chaos.to_bits(), b.chaos.to_bits());
            assert_eq!(a.nnz, b.nnz);
            assert_eq!(a.nbatches, b.nbatches);
        }
    }

    #[test]
    fn session_cache_warms_on_stable_iterate() {
        // A star graph collapses in a few iterations to the idempotent
        // projection "every column ↦ e_0", after which the iterate stops
        // changing: late iterations must answer every non-empty fetch
        // round from the cross-iteration cache and ship fewer bytes.
        let n = 16;
        let mut t = Triples::with_capacity(n, n, n - 1);
        for j in 1..n as u32 {
            t.push(0, j, 1.0);
        }
        let adj = t.to_csc_dedup::<PlusTimesF64>();
        let mut params = MclParams::new(4, 1);
        params.exchange = ExchangeMode::SparseFetch;
        params.chaos_threshold = 0.0; // chaos hits exactly 0; keep going
        params.max_iters = 8;
        let result = markov_cluster(&adj, &params).unwrap();
        assert_eq!(result.iterations, 8);
        let it = &result.per_iter;
        assert!(it[0].fetch_misses > 0, "cold iteration must miss");
        assert_eq!(it[0].fetch_hits, 0);
        let last = it.last().unwrap();
        assert_eq!(last.fetch_misses, 0, "converged iteration must not re-fetch");
        assert!(last.fetch_hits > 0, "converged iteration must hit");
        assert_eq!(last.invalidated_cols, 0, "iterate is a fixed point");
        assert!(
            last.modeled_bytes < it[0].modeled_bytes,
            "warm {} !< cold {}",
            last.modeled_bytes,
            it[0].modeled_bytes
        );
        // Every node joins the hub's single cluster.
        assert_eq!(num_clusters(&result.labels), 1);
    }

    #[test]
    fn tight_budget_forces_batching_but_same_answer() {
        let adj = clustered_similarity(3, 8, 5, 1, 95);
        let loose = markov_cluster(&adj, &MclParams::new(4, 1)).unwrap();
        let mut params = MclParams::new(4, 1);
        // Budget sized to inputs plus a sliver: forces b > 1 in early iters.
        let inputs = mcl_init(&adj).nnz() * 24 * 2;
        params.budget = MemoryBudget::new(inputs * 3);
        let tight = markov_cluster(&adj, &params).unwrap();
        assert!(
            tight.per_iter[0].nbatches > 1,
            "expected batching, got b = {}",
            tight.per_iter[0].nbatches
        );
        assert!(same_partition(&loose.labels, &tight.labels));
    }
}
