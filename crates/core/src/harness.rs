//! One-call drivers: spawn a virtual cluster, scatter, multiply, gather.
//!
//! Tests, examples, the applications and the bench harnesses all need the
//! same choreography: distribute two global matrices per Fig. 1, run
//! BatchedSUMMA3D, collect per-rank step breakdowns and (optionally) the
//! assembled product. It is written once, as nested seams: `run_world`
//! (the only caller of a simgrid launcher), [`run_on_grid`] (a validated
//! `Grid3D` per rank) and [`run_batched`] (scatter `Ã`, obtain `B̃`,
//! multiply with a per-batch callback, gather); [`run_spgemm`] and
//! [`run_spgemm_aat`] are `run_batched` with the keep-or-discard callback.

use crate::backend::BackendKind;
use crate::batched::{multiply, BatchOutput, RankState};
use crate::dist::{gather_pieces, CPiece};
use crate::exchange::ExchangeMode;
use crate::family15::{spmm_15d, AlgorithmFamily};
use crate::kernels::KernelStrategy;
use crate::memory::MemoryBudget;
use crate::planner::{self, Candidate, PlanReport, PlannerConfig};
use crate::summa2d::OverlapMode;
use crate::symbolic::SymbolicOutcome;
use crate::{CoreError, Result};
use spgemm_simgrid::grid::layer_side;
use spgemm_simgrid::{
    max_breakdown, run_ranks_seeded, CheckMode, Grid3D, Machine, Rank, StepBreakdown, TraceEvent,
};
use spgemm_sparse::par::RangeBalance;
use spgemm_sparse::{CscMatrix, DenseBlock, Semiring, WorkStats};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

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

/// **The run policy**: the one value that says how a multiplication
/// executes, from a CLI flag down to the rank threads. Every layer reads
/// this struct instead of keeping a copy of some of its fields:
///
/// | reader | fields |
/// |---|---|
/// | `run_world` (the launcher) | `p`, `machine`, `check`, `perturb`, `job`, `trace` |
/// | [`run_on_grid`] | `layers` (must be `Fixed` by then) |
/// | [`run_batched`] | `layers` (`Auto` is planned here), `discard_output` |
/// | the SUMMA driver, for [`run_batched`] and [`crate::IterSession`] alike | `kernels`, `budget`, `forced_batches` (through `schedule::fixed_batches`), `overlap`, `exchange`, `backend`, `algorithm` (SUMMA members only) |
/// | [`run_spmm`] (1.5D) | `algorithm`, `backend`, `budget`, `discard_output` |
/// | [`PlannerConfig::for_run`] | `machine`, `budget`, `kernels`, `overlap`, `exchange`, `algorithm`, `forced_batches` |
///
/// The planner's output travels back through [`RunConfig::with_candidate`].
/// Applications embed a `RunConfig` (`BfsConfig::run`, `CoarsenConfig::run`,
/// …) or, for `MclParams`, build one; serve builds one per admitted job.
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
    /// `BackendKind::default_kind`: `Simgrid` unless `SPGEMM_BACKEND`
    /// selects otherwise.
    pub backend: BackendKind,
    /// Schedule-perturbation seed: when set, every rank injects
    /// deterministic seed-derived scheduler jitter at communication
    /// points, permuting thread wakeup order at rendezvous. Results must
    /// be bit-identical under any seed. `None` follows the
    /// `SPGEMM_PERTURB_SEED` environment variable (unperturbed if unset).
    pub perturb: Option<u64>,
    /// Which algorithm family runs the multiply. The SUMMA families use
    /// the batched 3D pipeline (`Summa2d` pins `l = 1`); the 1.5D
    /// families ([`AlgorithmFamily::ColA15`] /
    /// [`AlgorithmFamily::InnerAbc15`]) run the sparse-dense SpMM drivers
    /// of [`crate::family15`] (a sparse `B` is densified first) and are
    /// rejected by the batched pipeline itself.
    pub algorithm: AlgorithmFamily,
    /// Job id label for multi-tenant packing ([`crate::serve`]): when set,
    /// the simulated rank threads are named `job-J-rank-I` and failure
    /// reports lead with the job id, so concurrent worlds in one server
    /// process stay tellable apart. `None` for standalone runs.
    pub job: Option<u64>,
}

impl RunConfig {
    /// Defaults: KNL cost model, new kernels, unlimited memory, symbolic
    /// batch count, keep output.
    pub fn new(p: usize, layers: usize) -> Self {
        RunConfig {
            p,
            layers: LayerChoice::Fixed(layers),
            machine: Machine::knl(),
            kernels: KernelStrategy::New,
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

    /// This policy running a planner winner: the five fields a
    /// [`Candidate`] decides are taken from it, everything else is kept.
    #[must_use]
    pub fn with_candidate(mut self, c: &Candidate) -> Self {
        self.algorithm = c.family;
        self.layers = LayerChoice::Fixed(c.layers);
        self.kernels = c.kernels;
        self.overlap = c.overlap;
        self.exchange = c.exchange;
        self
    }
}

/// Resolve [`RunConfig::layers`] to a concrete `Fixed` count: `Fixed(l)`
/// is kept (validated when the grid is built), `Auto` runs the planner on
/// the operands and returns the policy running its winner plus the full
/// ranked report.
fn resolve_layers<T: Copy + Send + Sync, U: Copy + Sync>(
    cfg: &RunConfig,
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
) -> Result<(RunConfig, Option<PlanReport>)> {
    let mut run = *cfg;
    if cfg.algorithm == AlgorithmFamily::Summa2d {
        // 2D SUMMA is the 3D pipeline pinned to one layer.
        if let LayerChoice::Fixed(l) = cfg.layers {
            if l != 1 {
                return Err(CoreError::Config(format!(
                    "algorithm summa2d pins l=1 but l={l} was fixed"
                )));
            }
        }
        run.layers = LayerChoice::Fixed(1);
        return Ok((run, None));
    }
    match cfg.layers {
        LayerChoice::Fixed(_) => Ok((run, None)),
        LayerChoice::Auto => {
            let report = planner::plan(cfg.p, a, b, &PlannerConfig::for_run(cfg))?;
            let winner = report.winner().ok_or_else(|| {
                CoreError::Config(format!(
                    "auto layer choice: no feasible configuration for p={} under the \
                     memory budget",
                    cfg.p
                ))
            })?;
            Ok((run.with_candidate(&winner.candidate), Some(report)))
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
    /// Number of batches executed (verified equal on every rank).
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
    pub traces: Option<Vec<Vec<TraceEvent>>>,
    /// Kernel-side counters aggregated over all ranks: flops/nnz/allocs/
    /// memcpy bytes are summed, peak scratch bytes is the max over ranks
    /// (each rank owns one workspace).
    pub kernel_stats: WorkStats,
    /// Per-thread load-balance record aggregated over all ranks; only
    /// populated by the Native backend (serial/Simgrid runs leave it at
    /// the zero default, whose `imbalance()` reports 0.0).
    pub load_balance: RangeBalance,
}

/// What one simulated world reports: every rank's body value plus the
/// clock state the harness snapshots when the body returns.
#[derive(Debug)]
pub struct WorldRun<R> {
    /// Each rank's body value, rank order.
    pub ranks: Vec<R>,
    /// Each rank's modeled step breakdown, rank order.
    pub per_rank: Vec<StepBreakdown>,
    /// Per-rank step timelines when [`RunConfig::trace`] was set.
    pub traces: Option<Vec<Vec<TraceEvent>>>,
}

/// Run `body` on every rank of a `cfg.p`-rank simulated cluster — the one
/// place a [`RunConfig`] meets a simgrid launcher (whose seed rule applies:
/// explicit [`RunConfig::perturb`], else `SPGEMM_PERTURB_SEED`). Callers
/// validate `p` first. Tracing is enabled before `body` runs, the breakdown
/// is snapshotted after it returns; the first rank error fails the run.
///
/// A rank whose body fails exits, and peers still waiting for it at a
/// collective then panic (the launcher raises their report once every rank
/// has joined). The lowest failing rank's error is kept outside the world,
/// so that such a run returns it as [`CoreError::Rank`], with the peers'
/// report as context, instead of a panic that has lost the cause.
fn run_world<R: Send>(
    cfg: &RunConfig,
    body: impl Fn(&mut Rank) -> Result<R> + Send + Sync,
) -> Result<WorldRun<R>> {
    let failed: Mutex<Option<(usize, CoreError)>> = Mutex::new(None);
    let on_rank = |rank: &mut Rank| {
        if cfg.trace {
            rank.clock_mut().enable_tracing();
        }
        let value = body(rank).inspect_err(|e| {
            let mut first = failed.lock().unwrap_or_else(PoisonError::into_inner);
            if first.as_ref().is_none_or(|&(r, _)| rank.rank() < r) {
                *first = Some((rank.rank(), e.clone()));
            }
        })?;
        let events = rank.clock().events().map(<[TraceEvent]>::to_vec);
        Ok((value, *rank.clock().breakdown(), events))
    };
    let launched = panic::catch_unwind(AssertUnwindSafe(|| {
        run_ranks_seeded(
            cfg.p,
            cfg.machine,
            cfg.check,
            cfg.perturb,
            cfg.job,
            on_rank,
        )
    }));
    let results: Vec<Result<_>> = match launched {
        Ok(results) => results,
        Err(report) => {
            let first = failed.lock().unwrap_or_else(PoisonError::into_inner).take();
            let Some((rank, error)) = first else {
                panic::resume_unwind(report);
            };
            let peers = report
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| report.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            return Err(CoreError::Rank {
                rank,
                error: Box::new(error),
                peers: peers.to_string(),
            });
        }
    };
    let mut world = WorldRun {
        ranks: Vec::with_capacity(cfg.p),
        per_rank: Vec::with_capacity(cfg.p),
        traces: cfg.trace.then(Vec::new),
    };
    for r in results {
        let (value, breakdown, events) = r?;
        world.ranks.push(value);
        world.per_rank.push(breakdown);
        if let (Some(ts), Some(ev)) = (world.traces.as_mut(), events) {
            ts.push(ev);
        }
    }
    Ok(world)
}

/// Validate that `(p, l)` forms a 3D grid with square layers; returns the
/// layer side `√(p/l)` on success.
///
/// The grid math silently truncates otherwise — `√(p/l)` is irrational when
/// `p/l` is not a perfect square, and `p/l` itself rounds down when `l ∤ p`
/// — so every entry point that accepts `(p, l)` funnels through this check
/// and reports the offending pair instead.
pub(crate) fn validate_grid(p: usize, l: usize) -> Result<usize> {
    if p == 0 {
        return Err(CoreError::Config("process count p=0 is not a grid".into()));
    }
    if l == 0 {
        return Err(CoreError::Config(format!(
            "invalid 3D grid (p={p}, l=0): the layer count must be at least 1"
        )));
    }
    if !p.is_multiple_of(l) {
        return Err(CoreError::Config(format!(
            "invalid 3D grid (p={p}, l={l}): the layer count must divide the process count"
        )));
    }
    layer_side(p, l).ok_or_else(|| {
        CoreError::Config(format!(
            "invalid 3D grid (p={p}, l={l}): p/l = {} is not a perfect square",
            p / l
        ))
    })
}

/// Run `body` on every rank of a validated 3D grid: `cfg.layers` must be
/// [`LayerChoice::Fixed`] (planning `Auto` needs the operands —
/// [`run_batched`] does it) and `(p, l)` must form a grid, so a degenerate
/// pair is a [`CoreError::Config`] naming it rather than a panic in every
/// rank thread. Iterative applications that keep their own resident state
/// ([`crate::IterSession`]) enter here.
pub fn run_on_grid<R: Send>(
    cfg: &RunConfig,
    body: impl Fn(&mut Rank, &Grid3D) -> Result<R> + Send + Sync,
) -> Result<WorldRun<R>> {
    let LayerChoice::Fixed(layers) = cfg.layers else {
        return Err(CoreError::Config(
            "LayerChoice::Auto is planned from the operands: enter through run_spgemm or \
             run_batched"
                .into(),
        ));
    };
    validate_grid(cfg.p, layers)?;
    run_world(cfg, |rank| {
        let grid = Grid3D::new(rank, layers);
        body(rank, &grid)
    })
}

/// Where a batched run's B-style operand comes from.
#[derive(Debug)]
pub enum BOperand<T: Copy> {
    /// A global matrix on the simulated root, scattered B-style.
    Global(Arc<CscMatrix<T>>),
    /// `Aᵀ`, formed **in place on the grid** from the scattered `Ã`
    /// ([`crate::transpose_to_bstyle`]) — the global transpose never exists.
    TransposeOfA,
}

/// The choreography every batched driver shares, per rank: scatter `a`
/// from the simulated root per Fig. 1, obtain `B̃` from `b`, run
/// BatchedSUMMA3D under `cfg` handing each batch's piece to `on_batch`
/// (return it — possibly transformed — to keep it, `None` to drop it),
/// gather the kept pieces into the `m × n` product unless
/// [`RunConfig::discard_output`], then let `finish` do the application's
/// own closing communication. `St` is per-rank application state threaded
/// through `on_batch` into `finish`; the second return value holds every
/// rank's `finish` result. [`LayerChoice::Auto`] is planned here.
pub fn run_batched<S: Semiring, St: Default, R: Send>(
    cfg: &RunConfig,
    a: &Arc<CscMatrix<S::T>>,
    b: &BOperand<S::T>,
    on_batch: impl Fn(&mut St, &mut Rank, &Grid3D, BatchOutput<S::T>) -> Option<CPiece<S::T>>
        + Send
        + Sync,
    finish: impl Fn(St, &mut Rank, &Grid3D) -> R + Send + Sync,
) -> Result<(RunOutput<S::T>, Vec<R>)> {
    // The structure `Auto` layers are planned on, and the product's width.
    let planned_t;
    let (b_global, n): (&CscMatrix<S::T>, usize) = match b {
        BOperand::Global(b) if a.ncols() != b.nrows() => {
            return Err(CoreError::Config(format!(
                "inner dimensions differ: A is {}x{}, B is {}x{}",
                a.nrows(),
                a.ncols(),
                b.nrows(),
                b.ncols()
            )))
        }
        BOperand::Global(b) => (b, b.ncols()),
        // Planning is the only time the global transpose is materialized;
        // a fixed layer count never reads the operands.
        BOperand::TransposeOfA if cfg.layers == LayerChoice::Auto => {
            planned_t = spgemm_sparse::ops::transpose(a);
            (&planned_t, a.nrows())
        }
        BOperand::TransposeOfA => (a, a.nrows()),
    };
    let (cfg, plan) = resolve_layers(cfg, a, b_global)?;
    let LayerChoice::Fixed(layers) = cfg.layers else {
        unreachable!("resolve_layers fixes the layer count")
    };
    let m = a.nrows();

    let world = run_on_grid(&cfg, |rank, grid| {
        let global = (rank.rank() == 0).then(|| Arc::clone(a));
        let mut run = RankState::<S>::new(rank, grid, global, Some(b), &cfg, false)?;
        let mut state = St::default();
        let mut result = multiply(&mut run, rank, grid, false, |rank, out| {
            on_batch(&mut state, rank, grid, out)
        })?;
        let c = if cfg.discard_output {
            None
        } else {
            gather_pieces(rank, &grid.world, std::mem::take(&mut result.pieces), m, n)
        };
        Ok((result, c, finish(state, rank, grid)))
    })?;

    let mut out = RunOutput {
        c: None,
        max: max_breakdown(&world.per_rank),
        per_rank: world.per_rank,
        nbatches: 0,
        layers,
        plan,
        symbolic: None,
        peak_bytes: Vec::with_capacity(cfg.p),
        traces: world.traces,
        kernel_stats: WorkStats::default(),
        load_balance: RangeBalance::default(),
    };
    let mut finished = Vec::with_capacity(cfg.p);
    for (i, (result, c, extra)) in world.ranks.into_iter().enumerate() {
        if i == 0 {
            out.nbatches = result.nbatches;
            out.symbolic = result.symbolic;
            out.c = c;
        } else if result.nbatches != out.nbatches {
            // The batch count must be an SPMD-agreed value; taking any one
            // rank's answer would silently mask a divergence.
            return Err(CoreError::Config(format!(
                "ranks disagree on the batch count: rank 0 chose {}, rank {i} chose {}",
                out.nbatches, result.nbatches
            )));
        }
        out.peak_bytes.push(result.peak_bytes);
        out.kernel_stats.merge(result.kernel_stats);
        out.load_balance.merge(result.load_balance);
        finished.push(extra);
    }
    Ok((out, finished))
}

/// A plain multiply: [`run_batched`] keeping every piece, or dropping
/// every piece when the output is discarded.
fn run_plain<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
    b: &BOperand<S::T>,
) -> Result<RunOutput<S::T>> {
    let keep = |(): &mut (), _: &mut Rank, _: &Grid3D, out: BatchOutput<S::T>| {
        (!cfg.discard_output).then_some(out.piece)
    };
    Ok(run_batched::<S, (), ()>(cfg, &Arc::new(a.clone()), b, keep, |(), _, _| ())?.0)
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
    run_plain::<S>(cfg, a, &BOperand::Global(Arc::new(b.clone())))
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
    pub traces: Option<Vec<Vec<TraceEvent>>>,
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
    let world = run_world(cfg, |rank| {
        spmm_15d::<S>(rank, cfg.algorithm, a, b, cfg.backend, cfg.discard_output)
    })?;

    let mut peaks = Vec::with_capacity(cfg.p);
    let mut c = None;
    let mut kernel_stats = WorkStats::default();
    for (i, r) in world.ranks.into_iter().enumerate() {
        peaks.push(r.peak_bytes);
        kernel_stats.merge(r.kernel_stats);
        if i == 0 {
            c = r.gathered;
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
    Ok(SpmmOutput {
        c,
        max: max_breakdown(&world.per_rank),
        per_rank: world.per_rank,
        algorithm: cfg.algorithm,
        peak_bytes: peaks,
        kernel_stats,
        plan: None,
        traces: world.traces,
    })
}

/// Compute `A·Aᵀ` on the simulated cluster: `A` is scattered once and
/// transposed **in place on the grid** ([`BOperand::TransposeOfA`]) — the
/// global transpose never exists (unless [`LayerChoice::Auto`] has to plan
/// on it), matching how `A·Aᵀ` pipelines (BELLA, Jaccard, hypergraph
/// coarsening) run at scale.
pub fn run_spgemm_aat<S: Semiring>(
    cfg: &RunConfig,
    a: &CscMatrix<S::T>,
) -> Result<RunOutput<S::T>> {
    run_plain::<S>(cfg, a, &BOperand::TransposeOfA)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_simgrid::Step;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::spgemm_spa;

    fn config_msg(err: CoreError) -> String {
        match err {
            CoreError::Config(msg) => msg,
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_layers_rejected_naming_pair() {
        let msg = config_msg(validate_grid(16, 0).unwrap_err());
        assert!(msg.contains("p=16") && msg.contains("l=0"), "{msg}");
    }

    #[test]
    fn non_dividing_layers_rejected_naming_pair() {
        // l = 3 does not divide p = 16; p/l would truncate to 5.
        let msg = config_msg(validate_grid(16, 3).unwrap_err());
        assert!(msg.contains("p=16") && msg.contains("l=3"), "{msg}");
        assert!(msg.contains("divide"), "{msg}");
    }

    #[test]
    fn non_square_layers_rejected_naming_pair() {
        // l = 2 divides p = 16 but 16/2 = 8 is not a perfect square; the
        // layer side would silently truncate to 2.828... downstream.
        let msg = config_msg(validate_grid(16, 2).unwrap_err());
        assert!(msg.contains("p=16") && msg.contains("l=2"), "{msg}");
        assert!(msg.contains("perfect square"), "{msg}");
    }

    #[test]
    fn valid_grids_accepted_with_side() {
        assert_eq!(validate_grid(16, 1).unwrap(), 4);
        assert_eq!(validate_grid(16, 4).unwrap(), 2);
        assert_eq!(validate_grid(16, 16).unwrap(), 1);
        assert_eq!(validate_grid(12, 3).unwrap(), 2);
    }

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
    fn batched_equals_serial_across_configs() {
        let a = er_random::<PlusTimesU64>(60, 60, 5, 51).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(60, 60, 5, 52).map(|_| 1u64);
        let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        // At (16, 4) each rank holds 30 local columns: b = 2 and b = 5 cut
        // them into 8 and 20 blocks, neither dividing 30.
        for (p, l) in [(4usize, 1usize), (8, 2), (16, 4)] {
            for nb in [1usize, 2, 5] {
                let mut cfg = RunConfig::new(p, l);
                cfg.forced_batches = Some(nb);
                let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
                assert_eq!(out.nbatches, nb);
                assert!(
                    out.c.as_ref().unwrap().eq_modulo_order(&reference),
                    "p={p} l={l} b={nb}"
                );
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
        let res = run_spgemm::<PlusTimesF64>(&cfg, &a, &a);
        assert!(
            matches!(&res, Err(CoreError::Config(msg)) if msg.contains("≥ 1")),
            "{:?}",
            res.map(|out| out.nbatches)
        );
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
