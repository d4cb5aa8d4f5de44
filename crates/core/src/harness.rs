//! One-call drivers: spawn a virtual cluster, scatter, multiply, gather.
//!
//! Tests, examples and the bench harnesses all need the same choreography:
//! distribute two global matrices per Fig. 1, run BatchedSUMMA3D, collect
//! per-rank step breakdowns and (optionally) the assembled product. This
//! module packages that as [`run_spgemm`].

use crate::backend::BackendKind;
use crate::batched::{batched_summa3d, BatchConfig, BatchingStrategy};
use crate::exchange::ExchangeMode;
use crate::family15::{spmm_15d, AlgorithmFamily};
use crate::summa2d::OverlapMode;
use crate::dist::{gather_pieces, scatter, transpose_to_bstyle, DistKind, DistMatrix};
use crate::kernels::KernelStrategy;
use crate::memory::MemoryBudget;
use crate::model::validate_grid;
use crate::planner::{self, PlanReport, PlannerConfig};
use crate::symbolic::SymbolicOutcome;
use crate::{CoreError, Result};
use spgemm_simgrid::{
    max_breakdown, run_ranks_checked, run_ranks_seeded, CheckMode, Grid3D, Machine, Rank,
    StepBreakdown,
};
use spgemm_sparse::par::RangeBalance;
use spgemm_sparse::{CscMatrix, DenseBlock, Semiring, WorkStats};
use std::sync::Arc;

/// How the grid layer count `l` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerChoice {
    /// Use exactly this layer count (validated: `l | p`, `p/l` square).
    Fixed(usize),
    /// Let the planner pick: probe the operands, predict every valid `l`
    /// under the run's machine/budget/kernels/overlap, run the winner.
    /// The ranked [`PlanReport`] is recorded in [`RunOutput::plan`].
    Auto,
}

/// Full configuration of a simulated distributed SpGEMM run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of simulated processes.
    pub p: usize,
    /// Grid layer choice (`Fixed(1)` = plain 2D SUMMA behaviour).
    pub layers: LayerChoice,
    /// Machine cost model.
    pub machine: Machine,
    /// Local kernel generation.
    pub kernels: KernelStrategy,
    /// Batch partitioning scheme.
    pub batching: BatchingStrategy,
    /// Aggregate memory budget (drives the symbolic batch count).
    pub budget: MemoryBudget,
    /// Force a batch count, skipping the symbolic step (Fig. 4 sweeps).
    pub forced_batches: Option<usize>,
    /// Discard each batch after formation instead of gathering the full
    /// product (the memory-constrained application pattern). The returned
    /// `c` is `None`.
    pub discard_output: bool,
    /// Record per-rank step timelines for Chrome-trace export
    /// (`RunOutput::traces`).
    pub trace: bool,
    /// Blocking (paper-faithful) or overlapped (pipelined nonblocking
    /// broadcasts) communication.
    pub overlap: OverlapMode,
    /// How stage operands move: dense broadcasts (paper-faithful) or
    /// sparsity-aware point-to-point fetch ([`crate::exchange`]).
    pub exchange: ExchangeMode,
    /// Collective-protocol verification ("MPI lint"). Defaults to
    /// [`CheckMode::default_mode`]: on in debug builds and whenever
    /// `SPGEMM_CHECK` enables it, off in release runs.
    pub check: CheckMode,
    /// Kernel execution backend: modeled clock (`Simgrid`) or real
    /// multithreaded kernels with measured times (`Native`). Defaults to
    /// [`BackendKind::default_kind`]: `Simgrid` unless `SPGEMM_BACKEND`
    /// selects otherwise.
    pub backend: BackendKind,
    /// Schedule-perturbation seed: when set, every rank injects
    /// deterministic seed-derived scheduler jitter at communication
    /// points, permuting thread wakeup order at rendezvous. Results must
    /// be bit-identical under any seed. Defaults to the
    /// `SPGEMM_PERTURB_SEED` environment variable (none if unset).
    pub perturb: Option<u64>,
    /// Which algorithm family runs the multiply. The SUMMA families use
    /// the batched 3D pipeline (`Summa2d` pins `l = 1`); the 1.5D
    /// families ([`AlgorithmFamily::ColA15`] /
    /// [`AlgorithmFamily::InnerAbc15`]) run the sparse-dense SpMM drivers
    /// of [`crate::family15`] (a sparse `B` is densified first).
    pub algorithm: AlgorithmFamily,
    /// Job id label for multi-tenant packing ([`crate::serve`]): when set,
    /// the simulated rank threads are named `job-J-rank-I` and failure
    /// reports lead with the job id, so concurrent worlds in one server
    /// process stay tellable apart. `None` for standalone runs.
    pub job: Option<u64>,
}

impl RunConfig {
    /// Defaults: KNL cost model, new kernels, block-cyclic batching,
    /// unlimited memory, symbolic batch count, keep output.
    pub fn new(p: usize, layers: usize) -> Self {
        RunConfig {
            p,
            layers: LayerChoice::Fixed(layers),
            machine: Machine::knl(),
            kernels: KernelStrategy::New,
            batching: BatchingStrategy::BlockCyclic,
            budget: MemoryBudget::unlimited(),
            forced_batches: None,
            discard_output: false,
            trace: false,
            overlap: OverlapMode::Blocking,
            exchange: ExchangeMode::DenseBcast,
            check: CheckMode::default_mode(),
            backend: BackendKind::default_kind(),
            algorithm: AlgorithmFamily::Summa3dBatched,
            perturb: None,
            job: None,
        }
    }

    /// Defaults with planner-chosen layers ([`LayerChoice::Auto`]).
    pub fn auto(p: usize) -> Self {
        let mut cfg = RunConfig::new(p, 1);
        cfg.layers = LayerChoice::Auto;
        cfg
    }
}

/// Resolve [`RunConfig::layers`] to a concrete, validated layer count.
///
/// `Fixed(l)` is validated against `p` (rejecting the degenerate grids
/// `Grid3D::new` would otherwise panic on); `Auto` runs the planner on
/// the operands and returns the winner plus the full ranked report.
fn resolve_layers<T: Copy + Send + Sync, U: Copy + Sync>(
    cfg: &RunConfig,
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
) -> Result<(usize, Option<PlanReport>)> {
    if cfg.algorithm == AlgorithmFamily::Summa2d {
        // 2D SUMMA is the 3D pipeline pinned to one layer.
        if let LayerChoice::Fixed(l) = cfg.layers {
            if l != 1 {
                return Err(CoreError::Config(format!(
                    "algorithm summa2d pins l=1 but l={l} was fixed"
                )));
            }
        }
        validate_grid(cfg.p, 1)?;
        return Ok((1, None));
    }
    match cfg.layers {
        LayerChoice::Fixed(l) => {
            validate_grid(cfg.p, l)?;
            Ok((l, None))
        }
        LayerChoice::Auto => {
            let pcfg = PlannerConfig::for_run(cfg);
            let report = planner::plan(cfg.p, a, b, &pcfg)?;
            let layers = report
                .winner()
                .map(|w| w.candidate.layers)
                .ok_or_else(|| {
                    CoreError::Config(format!(
                        "auto layer choice: no feasible configuration for p={} under the \
                         memory budget",
                        cfg.p
                    ))
                })?;
            Ok((layers, Some(report)))
        }
    }
}

/// Everything a simulated run reports.
#[derive(Debug)]
pub struct RunOutput<T: Copy> {
    /// The assembled product on the (simulated) root, unless
    /// `discard_output` was set.
    pub c: Option<CscMatrix<T>>,
    /// Per-rank modeled step breakdowns, rank order.
    pub per_rank: Vec<StepBreakdown>,
    /// Critical-path (max over ranks) breakdown — what the paper plots.
    pub max: StepBreakdown,
    /// Number of batches executed.
    pub nbatches: usize,
    /// The layer count actually used (resolved from [`LayerChoice`]).
    pub layers: usize,
    /// The planner's ranked report when layers were chosen automatically
    /// ([`LayerChoice::Auto`]); `None` for fixed layer counts.
    pub plan: Option<PlanReport>,
    /// Symbolic outcome (absent when the batch count was forced).
    pub symbolic: Option<SymbolicOutcome>,
    /// Per-rank peak modeled bytes.
    pub peak_bytes: Vec<usize>,
    /// Per-rank step timelines when `RunConfig::trace` was set; render
    /// with [`spgemm_simgrid::chrome_trace_json`].
    pub traces: Option<Vec<Vec<spgemm_simgrid::TraceEvent>>>,
    /// Kernel-side counters aggregated over all ranks: flops/nnz/allocs/
    /// memcpy bytes are summed, peak scratch bytes is the max over ranks
    /// (each rank owns one workspace).
    pub kernel_stats: WorkStats,
    /// Per-thread load-balance record aggregated over all ranks; only
    /// populated by the Native backend (serial/Simgrid runs leave it at
    /// the zero default, whose `imbalance()` reports 0.0).
    pub load_balance: RangeBalance,
}

/// Spawn the simulated cluster honouring [`RunConfig::perturb`]: an
/// explicit seed wins; `None` falls back to [`run_ranks_checked`], whose
/// default is the `SPGEMM_PERTURB_SEED` environment variable.
fn run_cluster<R, F>(cfg: &RunConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut spgemm_simgrid::Rank) -> R + Send + Sync,
{
    match (cfg.job, cfg.perturb) {
        (Some(job), seed) => {
            spgemm_simgrid::run_ranks_for_job(cfg.p, cfg.machine, cfg.check, seed, job, f)
        }
        (None, Some(seed)) => run_ranks_seeded(cfg.p, cfg.machine, cfg.check, Some(seed), f),
        (None, None) => run_ranks_checked(cfg.p, cfg.machine, cfg.check, f),
    }
}

struct PerRank<T: Copy> {
    breakdown: StepBreakdown,
    peak: usize,
    nbatches: usize,
    symbolic: Option<SymbolicOutcome>,
    c: Option<CscMatrix<T>>,
    events: Option<Vec<spgemm_simgrid::TraceEvent>>,
    kernel_stats: WorkStats,
    load_balance: RangeBalance,
}

/// Multiply `a · b` on a simulated `p`-rank cluster per `cfg`.
///
/// The global inputs live on the simulated root and are distributed per
/// the paper's Fig. 1 (A-style / B-style). Returns the gathered product
/// and the modeled per-step timing that the bench harnesses report.
pub fn run_spgemm<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<RunOutput<S::T>> {
    if a.ncols() != b.nrows() {
        return Err(CoreError::Config(format!(
            "inner dimensions differ: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    if cfg.algorithm.is_15d() {
        // The 1.5D families are sparse-dense algorithms: an honestly
        // densified B (zero-filled, `d = ncols(B)` stripes) runs through
        // the SpMM drivers and the product is re-sparsified. This is the
        // right call exactly when B is dense-ish — the planner's family
        // dimension prices the densification in.
        let bd = DenseBlock::from_csc::<S>(b);
        let out = run_spmm::<S>(cfg, a, &bd)?;
        return Ok(RunOutput {
            c: if cfg.discard_output {
                None
            } else {
                out.c.as_ref().map(|d| d.to_csc::<S>())
            },
            per_rank: out.per_rank,
            max: out.max,
            nbatches: 1,
            layers: 1,
            plan: out.plan,
            symbolic: None,
            peak_bytes: out.peak_bytes,
            traces: out.traces,
            kernel_stats: out.kernel_stats,
            load_balance: RangeBalance::default(),
        });
    }
    let (layers, plan) = resolve_layers(cfg, a, b)?;
    let b_arc = Arc::new(b.clone());
    run_batched::<S>(cfg, layers, plan, a, b.ncols(), move |rank, grid, _da| {
        scatter(
            rank,
            grid,
            DistKind::BStyle,
            (rank.rank() == 0).then(|| Arc::clone(&b_arc)),
        )
    })
}

/// The per-rank choreography [`run_spgemm`] and [`run_spgemm_aat`] share:
/// scatter `a` from the simulated root per Fig. 1, obtain the rank's `B̃`
/// through `b_tilde` (scattered from a global `B`, or transposed on the
/// grid from `Ã`), run BatchedSUMMA3D, gather the `m × n` product.
fn run_batched<S: Semiring>(
    cfg: &RunConfig,
    layers: usize,
    plan: Option<PlanReport>,
    a: &CscMatrix<S::T>,
    n: usize,
    b_tilde: impl Fn(&mut Rank, &Grid3D, &DistMatrix<S::T>) -> DistMatrix<S::T> + Send + Sync,
) -> Result<RunOutput<S::T>> {
    let a_arc = Arc::new(a.clone());
    let m = a.nrows();
    let cfg_copy = *cfg;

    let results: Vec<Result<PerRank<S::T>>> = run_cluster(cfg, move |rank| {
        if cfg_copy.trace {
            rank.clock_mut().enable_tracing();
        }
        let grid = Grid3D::new(rank, layers);
        let da = scatter(
            rank,
            &grid,
            DistKind::AStyle,
            (rank.rank() == 0).then(|| Arc::clone(&a_arc)),
        );
        let db = b_tilde(rank, &grid, &da);
        let bcfg = BatchConfig {
            kernels: cfg_copy.kernels,
            batching: cfg_copy.batching,
            budget: cfg_copy.budget,
            forced_batches: cfg_copy.forced_batches,
            overlap: cfg_copy.overlap,
            exchange: cfg_copy.exchange,
            backend: cfg_copy.backend,
            algorithm: cfg_copy.algorithm,
        };
        let discard = cfg_copy.discard_output;
        let result = batched_summa3d::<S>(rank, &grid, &da, &db, &bcfg, |_rank, out| {
            if discard {
                None
            } else {
                Some(out.piece)
            }
        })?;
        let c = if discard {
            None
        } else {
            gather_pieces(rank, &grid.world, result.pieces, m, n)
        };
        Ok(PerRank {
            breakdown: *rank.clock().breakdown(),
            peak: result.peak_bytes,
            nbatches: result.nbatches,
            symbolic: result.symbolic,
            c,
            events: rank.clock().events().map(|e| e.to_vec()),
            kernel_stats: result.kernel_stats,
            load_balance: result.load_balance,
        })
    });

    collect_outputs(cfg, layers, plan, results)
}

/// Everything a simulated sparse-dense (SpMM) run reports.
#[derive(Debug)]
pub struct SpmmOutput<T: Copy> {
    /// The assembled dense `m × d` product on the simulated root, unless
    /// `discard_output` was set.
    pub c: Option<DenseBlock<T>>,
    /// Per-rank modeled step breakdowns, rank order.
    pub per_rank: Vec<StepBreakdown>,
    /// Critical-path (max over ranks) breakdown.
    pub max: StepBreakdown,
    /// The family that ran.
    pub algorithm: AlgorithmFamily,
    /// Per-rank peak modeled bytes (includes the replicated `A` blocks).
    pub peak_bytes: Vec<usize>,
    /// Kernel counters aggregated over all ranks.
    pub kernel_stats: WorkStats,
    /// The planner's ranked report when one was consulted; `None` for
    /// directly pinned families.
    pub plan: Option<PlanReport>,
    /// Per-rank step timelines when `RunConfig::trace` was set.
    pub traces: Option<Vec<Vec<spgemm_simgrid::TraceEvent>>>,
}

/// Multiply sparse `a` by **dense** `b` on a simulated `p`-rank cluster.
///
/// The 1.5D families run their native SpMM drivers
/// ([`crate::family15::spmm_15d`]); the SUMMA families sparsify `b`
/// (dropping semiring zeros), run the standard pipeline, and densify the
/// product — so every family answers the same question and the outputs
/// are comparable bit-for-bit under exact semirings.
///
/// The 1.5D path needs no batching: `C` is born column-striped across
/// ranks and stationary, which is the memory-minimal layout the batched
/// pipeline works to approximate. The memory budget is still enforced —
/// a rank whose resident set (replicated `A` block, in-flight shift
/// buffer, dense stripes, reduction buffers) exceeds the per-process
/// budget fails admission with [`CoreError::InputsExceedMemory`].
pub fn run_spmm<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
    b: &DenseBlock<S::T>,
) -> Result<SpmmOutput<S::T>> {
    if a.ncols() != b.nrows() {
        return Err(CoreError::Config(format!(
            "inner dimensions differ: A is {}x{}, dense B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    if !cfg.algorithm.is_15d() {
        // SUMMA families: sparsify B, run the standard pipeline, densify C.
        let bs = b.to_csc::<S>();
        let out = run_spgemm::<S>(cfg, a, &bs)?;
        return Ok(SpmmOutput {
            c: out.c.as_ref().map(|c| {
                let mut d = DenseBlock::new_fill(a.nrows(), b.ncols(), S::zero());
                for (i, j, v) in c.iter() {
                    d.set(i as usize, j, v);
                }
                d
            }),
            per_rank: out.per_rank,
            max: out.max,
            algorithm: cfg.algorithm,
            peak_bytes: out.peak_bytes,
            kernel_stats: out.kernel_stats,
            plan: out.plan,
            traces: out.traces,
        });
    }
    cfg.algorithm.validate(cfg.p)?;
    let a_arc = Arc::new(a.clone());
    let b_arc = Arc::new(b.clone());
    let cfg_copy = *cfg;

    struct SpmmPerRank<T: Copy> {
        breakdown: StepBreakdown,
        peak: usize,
        c: Option<DenseBlock<T>>,
        kernel_stats: WorkStats,
        events: Option<Vec<spgemm_simgrid::TraceEvent>>,
    }

    let results: Vec<Result<SpmmPerRank<S::T>>> = run_cluster(cfg, move |rank| {
        if cfg_copy.trace {
            rank.clock_mut().enable_tracing();
        }
        let out = spmm_15d::<S>(
            rank,
            cfg_copy.algorithm,
            (rank.rank() == 0).then(|| Arc::clone(&a_arc)),
            (rank.rank() == 0).then(|| Arc::clone(&b_arc)),
            cfg_copy.backend,
            cfg_copy.discard_output,
        )?;
        Ok(SpmmPerRank {
            breakdown: *rank.clock().breakdown(),
            peak: out.peak_bytes,
            c: out.gathered,
            kernel_stats: out.kernel_stats,
            events: rank.clock().events().map(|e| e.to_vec()),
        })
    });

    let mut per_rank = Vec::with_capacity(cfg.p);
    let mut peaks = Vec::with_capacity(cfg.p);
    let mut c = None;
    let mut kernel_stats = WorkStats::default();
    let mut traces = cfg.trace.then(Vec::new);
    for (i, r) in results.into_iter().enumerate() {
        let r = r?;
        per_rank.push(r.breakdown);
        peaks.push(r.peak);
        kernel_stats.merge(r.kernel_stats);
        if i == 0 {
            c = r.c;
        }
        if let (Some(ts), Some(ev)) = (traces.as_mut(), r.events) {
            ts.push(ev);
        }
    }
    if !cfg.budget.is_unlimited() {
        let per_proc = cfg.budget.per_process(cfg.p);
        if let Some(&peak) = peaks.iter().max().filter(|&&peak| peak > per_proc) {
            return Err(CoreError::InputsExceedMemory {
                needed_bytes: peak,
                budget_bytes: per_proc,
            });
        }
    }
    let max = max_breakdown(&per_rank);
    Ok(SpmmOutput {
        c,
        per_rank,
        max,
        algorithm: cfg.algorithm,
        peak_bytes: peaks,
        kernel_stats,
        plan: None,
        traces,
    })
}

/// Compute `A·Aᵀ` on the simulated cluster: `A` is scattered once and
/// transposed **in place on the grid** ([`transpose_to_bstyle`]) — the
/// global transpose never exists, matching how `A·Aᵀ` pipelines (BELLA,
/// Jaccard, hypergraph coarsening) run at scale.
pub fn run_spgemm_aat<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
) -> Result<RunOutput<S::T>> {
    // Auto layers need the global Bᵀ structure for planning; a fixed
    // layer count never materializes the transpose.
    let (layers, plan) = match cfg.layers {
        LayerChoice::Fixed(_) => resolve_layers(cfg, a, a)?,
        LayerChoice::Auto => {
            let at = spgemm_sparse::ops::transpose(a);
            resolve_layers(cfg, a, &at)?
        }
    };
    run_batched::<S>(cfg, layers, plan, a, a.nrows(), transpose_to_bstyle)
}

/// Multiply with **row-wise batching**: batches select rows of `C` (and
/// of `A`) instead of columns. The paper (Sec. IV-B) notes column-wise
/// batching is expensive when `nnz(A) ≫ nnz(B)` — `A` is rebroadcast per
/// batch — "however, if inputs are square matrices, we can easily use
/// row-by-row batching on B using the same algorithm". Implemented via
/// the transpose identity `C = (Bᵀ·Aᵀ)ᵀ`: the heavy operand moves to the
/// B slot, whose bandwidth cost is batch-count-independent (Table II).
pub fn run_spgemm_row_batched<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<RunOutput<S::T>> {
    let at = spgemm_sparse::ops::transpose(a);
    let bt = spgemm_sparse::ops::transpose(b);
    let mut out = run_spgemm::<S>(cfg, &bt, &at)?;
    out.c = out.c.map(|ct| spgemm_sparse::ops::transpose(&ct));
    Ok(out)
}

fn collect_outputs<T: Copy>(
    cfg: &RunConfig,
    layers: usize,
    plan: Option<PlanReport>,
    results: Vec<Result<PerRank<T>>>,
) -> Result<RunOutput<T>> {
    let mut per_rank = Vec::with_capacity(cfg.p);
    let mut peaks = Vec::with_capacity(cfg.p);
    let mut c = None;
    let mut nbatches = 0;
    let mut symbolic = None;
    let mut traces = cfg.trace.then(Vec::new);
    let mut kernel_stats = WorkStats::default();
    let mut load_balance = RangeBalance::default();
    for (i, r) in results.into_iter().enumerate() {
        let r = r?;
        per_rank.push(r.breakdown);
        peaks.push(r.peak);
        nbatches = r.nbatches;
        kernel_stats.merge(r.kernel_stats);
        load_balance.merge(r.load_balance);
        if i == 0 {
            symbolic = r.symbolic;
            c = r.c;
        }
        if let (Some(ts), Some(ev)) = (traces.as_mut(), r.events) {
            ts.push(ev);
        }
    }
    let max = max_breakdown(&per_rank);
    Ok(RunOutput {
        c,
        per_rank,
        max,
        nbatches,
        layers,
        plan,
        symbolic,
        peak_bytes: peaks,
        traces,
        kernel_stats,
        load_balance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_simgrid::Step;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    #[test]
    fn tracing_produces_per_rank_timelines() {
        let a = er_random::<PlusTimesF64>(32, 32, 4, 99);
        let mut cfg = RunConfig::new(4, 1);
        cfg.trace = true;
        cfg.forced_batches = Some(2);
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).unwrap();
        let traces = out.traces.expect("traces requested");
        assert_eq!(traces.len(), 4);
        for (rank, t) in traces.iter().enumerate() {
            assert!(!t.is_empty(), "rank {rank} has no events");
            // Events are chronological and non-overlapping per rank.
            for w in t.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-12);
            }
        }
        let json = spgemm_simgrid::chrome_trace_json(&traces);
        assert!(json.contains("A-Bcast"));
        // Untraced runs return None.
        let cfg2 = RunConfig::new(4, 1);
        assert!(run_spgemm::<PlusTimesF64>(&cfg2, &a, &a).unwrap().traces.is_none());
    }

    #[test]
    fn row_batching_equals_column_batching() {
        // The Sec. IV-B identity: row batches of C via (Bᵀ·Aᵀ)ᵀ.
        let a = er_random::<PlusTimesU64>(40, 40, 8, 151).map(|_| 1u64); // heavy A
        let b = er_random::<PlusTimesU64>(40, 40, 2, 152).map(|_| 1u64); // light B
        let mut cfg = RunConfig::new(16, 4);
        cfg.forced_batches = Some(4);
        let col = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
        let row = run_spgemm_row_batched::<PlusTimesU64>(&cfg, &a, &b).unwrap();
        assert!(row.c.unwrap().eq_modulo_order(&col.c.unwrap()));
        // The point of row batching: the heavy operand (A) sits in the
        // B slot, so its total broadcast volume is b-independent, while
        // column batching rebroadcasts it every batch.
        let rebroadcast_col = col.max.secs_of(Step::ABcast);
        let rebroadcast_row = row.max.secs_of(Step::ABcast);
        assert!(
            rebroadcast_row < rebroadcast_col,
            "row batching should stop rebroadcasting the heavy operand:              {rebroadcast_row} vs {rebroadcast_col}"
        );
    }

    #[test]
    fn batched_equals_serial_across_configs() {
        let a = er_random::<PlusTimesU64>(60, 60, 5, 51).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(60, 60, 5, 52).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        for (p, l) in [(4usize, 1usize), (8, 2), (16, 4)] {
            for nb in [1usize, 2, 5] {
                for batching in [BatchingStrategy::BlockCyclic, BatchingStrategy::Block] {
                    let mut cfg = RunConfig::new(p, l);
                    cfg.forced_batches = Some(nb);
                    cfg.batching = batching;
                    let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
                    assert_eq!(out.nbatches, nb);
                    assert!(
                        out.c.as_ref().unwrap().eq_modulo_order(&reference),
                        "p={p} l={l} b={nb} {batching:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbolic_driven_batching_stays_within_budget() {
        let a = er_random::<PlusTimesF64>(64, 64, 8, 53);
        let b = er_random::<PlusTimesF64>(64, 64, 8, 54);
        let p = 4;
        // Budget: inputs + a fraction of the intermediate size.
        let inputs_bytes = (a.nnz() + b.nnz()) * 24;
        let mut cfg = RunConfig::new(p, 1);
        cfg.budget = MemoryBudget::new(inputs_bytes * 4);
        cfg.discard_output = true;
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
        assert!(out.nbatches > 1, "tight budget must force batching");
        let per_proc = cfg.budget.per_process(p);
        for (rank, &peak) in out.peak_bytes.iter().enumerate() {
            assert!(
                peak <= per_proc,
                "rank {rank} peaked at {peak} bytes over per-process budget {per_proc} \
                 (b = {})",
                out.nbatches
            );
        }
    }

    #[test]
    fn discard_output_returns_no_c() {
        let a = er_random::<PlusTimesF64>(32, 32, 3, 55);
        let b = er_random::<PlusTimesF64>(32, 32, 3, 56);
        let mut cfg = RunConfig::new(4, 1);
        cfg.discard_output = true;
        cfg.forced_batches = Some(2);
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
        assert!(out.c.is_none());
    }

    #[test]
    fn dimension_mismatch_is_config_error() {
        let a = er_random::<PlusTimesF64>(10, 12, 2, 57);
        let b = er_random::<PlusTimesF64>(10, 10, 2, 58);
        let cfg = RunConfig::new(4, 1);
        assert!(matches!(
            run_spgemm::<PlusTimesF64>(&cfg, &a, &b),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn fixed_degenerate_grid_is_config_error_naming_pair() {
        let a = er_random::<PlusTimesF64>(16, 16, 2, 77);
        for l in [3usize, 2] {
            let cfg = RunConfig::new(16, l); // 3 ∤ 16; 16/2 = 8 not square
            let err = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("p=16") && msg.contains(&format!("l={l}")), "{msg}");
        }
    }

    #[test]
    fn auto_layers_runs_winner_and_records_plan() {
        let a = er_random::<PlusTimesF64>(48, 48, 4, 78);
        let b = er_random::<PlusTimesF64>(48, 48, 4, 79);
        let cfg = RunConfig::auto(16);
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
        let plan = out.plan.as_ref().expect("auto records the plan");
        let winner = plan.winner().expect("unlimited budget is feasible");
        assert_eq!(out.layers, winner.candidate.layers);
        assert!([1usize, 4, 16].contains(&out.layers));
        // Result matches a fixed-layer run.
        let fixed = run_spgemm::<PlusTimesF64>(&RunConfig::new(16, out.layers), &a, &b).unwrap();
        assert!(out.c.unwrap().eq_modulo_order(&fixed.c.unwrap()));
        assert!(fixed.plan.is_none());
        // A·Aᵀ auto planning works too (plans on the on-the-fly transpose).
        let aat = run_spgemm_aat::<PlusTimesF64>(&RunConfig::auto(16), &a).unwrap();
        assert!(aat.plan.is_some());
    }

    #[test]
    fn forced_zero_batches_rejected() {
        let a = er_random::<PlusTimesF64>(16, 16, 2, 59);
        let mut cfg = RunConfig::new(4, 1);
        cfg.forced_batches = Some(0);
        assert!(matches!(
            run_spgemm::<PlusTimesF64>(&cfg, &a, &a),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn more_batches_increase_abcast_not_bbcast() {
        // The Fig. 4 signature: A-Bcast grows ~linearly with b; B-Bcast's
        // bandwidth term is b-independent. The claim concerns the
        // bandwidth-dominated regime of the paper's machines, so use a
        // machine with negligible latency (toy-scale payloads would
        // otherwise be latency-bound and both broadcasts would scale with
        // b's round count).
        let a = er_random::<PlusTimesF64>(96, 96, 8, 60);
        let b = er_random::<PlusTimesF64>(96, 96, 8, 61);
        let run = |nb: usize| {
            let mut cfg = RunConfig::new(16, 4);
            cfg.machine.alpha = 1e-12;
            cfg.forced_batches = Some(nb);
            run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap().max
        };
        let b1 = run(1);
        let b8 = run(8);
        assert!(
            b8.secs_of(Step::ABcast) > 4.0 * b1.secs_of(Step::ABcast),
            "A-Bcast should grow ~8x: {} -> {}",
            b1.secs_of(Step::ABcast),
            b8.secs_of(Step::ABcast)
        );
        let bb_ratio = b8.secs_of(Step::BBcast) / b1.secs_of(Step::BBcast);
        assert!(
            bb_ratio < 3.0,
            "B-Bcast should grow only via latency, got ratio {bb_ratio}"
        );
    }
}
