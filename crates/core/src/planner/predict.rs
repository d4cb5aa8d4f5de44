//! Overlap-aware makespan prediction for one candidate configuration.
//!
//! The predictor deliberately mirrors the *simulator's* accounting, not the
//! paper's closed-form Table II upper bounds: it calls the same
//! [`Machine`] α–β formulas the collectives charge and the same kernel
//! work-unit constants the local kernels report, so a predicted makespan is
//! directly comparable to `RunOutput::max.total()` and the planner's regret
//! against an exhaustive sweep stays small.
//!
//! One deliberate exception: a fetch reply, a fetch request, both legs of
//! the symbolic sweep, the AllToAll-Fiber pieces and the 1.5D A-shift
//! blocks are priced here at `r` bytes per nonzero (4 per requested
//! column), while the run charges [`crate::schedule::payload_bytes`] — for
//! a pattern operand `2w·nnz`, and for everything coded what its wire
//! format encodes: `(r − 2w)·nnz` plus the varint-coded counts and row gaps
//! of a reply (the varints alone in the sweep), and before them the
//! gap-coded nonempty column ids of a fiber piece or shifted block; the
//! gap-coded varint list of a request — plus the codec's CPU (`C_CODEC` per
//! coded integer per side). The planner prices from a sketch and cannot
//! know those varint lengths, which depend on the gaps between the rows it
//! never sees. It therefore *over*-predicts those steps, the safe direction
//! for admission: `planner.residual_frac` on `kmer-aat-membound` read 0.037
//! before the sweep moved patterns, ≈0.29 after, ≈0.65 once the fetch legs
//! were encoded and ≈0.93 since the fiber pieces are (`social-sq-comm`:
//! 0.008 → 0.372). Feeding it the
//! cheaper sizes was tried and not kept: on `serve-mixed` (tiny budgeted
//! jobs, seed 20210517) the plan choices flip to candidates whose
//! *simulated* run is worse — every leg updated: `modeled_msgs` 69 → 82,
//! `modeled_s` +8.7 %; the symbolic legs only: 69 → 77, +9.7 % — regret the
//! byte accounting should not import. Closing the gap belongs with the
//! batch-count estimate it interacts with (ROADMAP item 8).
//!
//! Three models compose:
//!
//! * **Placement** — exact per-process input nonzero counts under the
//!   Fig. 1 distribution for each candidate `l` ([`GridShape`]), computed
//!   by bucketing every nonzero through per-dimension block tables (the
//!   `block_range` split, inverted once per row and column).
//! * **Compression** — a balls-into-bins occupancy estimate
//!   `occ(balls, bins) = bins·(1 − e^(−balls/bins))` turns each probed
//!   column's flop count `fⱼ` and distinct-row count `dⱼ` into expected
//!   unmerged / layer-merged intermediate sizes at any `(√(p/l), l)` split.
//! * **Overlap** — under [`OverlapMode::Overlapped`], every stage's
//!   broadcast except the first hides under the previous stage's multiply;
//!   the hideable time `（b·√(p/l) − 1)·min(c_stage, m_stage)` is
//!   subtracted from the blocking makespan, mirroring the simulator's
//!   pipelined double-buffering.

use super::candidate::Candidate;
use super::probe::ProbeEstimate;
use crate::exchange::ExchangeMode;
use crate::family15::AlgorithmFamily;
use crate::kernels::KernelStrategy;
use crate::memory::{Footprint, MemoryBudget, R_BYTES_PER_NNZ};
use crate::summa2d::OverlapMode;
use spgemm_simgrid::Machine;
use spgemm_sparse::ops::block_range;
use spgemm_sparse::spgemm::{
    C_DRAIN, C_HASH_FLOP, C_HEAP_FLOP, C_MERGE_HASH, C_MERGE_HEAP, C_SORT, C_SPMM_FLOP,
};
use spgemm_sparse::CscMatrix;

/// Streams-per-column threshold of the hybrid kernel's heap path (kept in
/// sync with `spgemm-sparse`'s `HEAP_STREAMS_MAX`).
const HEAP_STREAMS_MAX: f64 = 4.0;

fn lg(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Index of the `block_range(n, parts, ·)` block containing `x` — the
/// inverse of `spgemm_sparse::ops::block_range`.
pub(crate) fn block_index(n: usize, parts: usize, x: usize) -> usize {
    debug_assert!(x < n);
    let base = n / parts;
    let rem = n % parts;
    if base == 0 {
        return x; // n < parts: element x lives in block x.
    }
    let fat = rem * (base + 1);
    if x < fat {
        x / (base + 1)
    } else {
        rem + (x - fat) / base
    }
}

/// Expected occupancy of `bins` bins after throwing `balls` balls:
/// `bins·(1 − e^(−balls/bins))`. Estimates how many *distinct* output rows
/// a set of products compresses to when a column's `dⱼ` candidate rows are
/// split across grid cells.
pub(crate) fn occ(balls: f64, bins: f64) -> f64 {
    if balls <= 0.0 || bins <= 0.0 {
        return 0.0;
    }
    bins * (1.0 - (-balls / bins).exp())
}

/// Exact per-process placement statistics of the inputs for one `(p, l)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GridShape {
    /// Layer count.
    pub l: usize,
    /// Layer side `√(p/l)`.
    pub pr: usize,
    /// Inner dimension (`ncols(A)` = `nrows(B)`) — the fetch model's bin
    /// count when estimating how many A columns a receiver's needed set
    /// covers.
    pub inner: usize,
    /// Max over processes of local `nnz(A)` (A-style placement).
    pub max_nnz_a_proc: u64,
    /// Max over processes of local `nnz(B)` (B-style placement).
    pub max_nnz_b_proc: u64,
    /// Critical-path nonzeros of one full A-Broadcast sweep, max over
    /// layers: `max_k Σ_s max_i nnz(A_{i,s,k})`. The SUMMA stages are
    /// bulk-synchronous (the column broadcasts re-sync every row each
    /// stage), so the sweep's bandwidth time is the *sum of per-stage
    /// maxima* — on skewed inputs this exceeds any single rank's own
    /// receive volume, and the surplus is what the simulator books as
    /// `Wait`.
    pub sweep_nnz_a: u64,
    /// Critical-path nonzeros of a full B-Broadcast sweep, max over
    /// layers: `max_k Σ_s max_j nnz(B_{s,j,k})`.
    pub sweep_nnz_b: u64,
}

/// `x → (block, sub-block)` of `0..n` cut into `pr` blocks, each cut into
/// `l` sub-blocks — [`block_index`] twice, for every `x` at once: the
/// ranges are walked, so the divisions are per block, not per element.
fn two_level_blocks(n: usize, pr: usize, l: usize) -> Vec<(u32, u32)> {
    let mut of = vec![(0, 0); n];
    for jb in 0..pr {
        let outer = block_range(n, pr, jb);
        for k in 0..l {
            let inner = block_range(outer.len(), l, k);
            of[outer.start + inner.start..outer.start + inner.end].fill((jb as u32, k as u32));
        }
    }
    of
}

/// Bucket every nonzero of `a` (A-style) and `b` (B-style) onto the
/// `(√(p/l))² × l` grid and take the maxima the predictor needs.
pub(crate) fn grid_shape<T: Copy, U: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    pr: usize,
    l: usize,
) -> GridShape {
    let mut a_proc = vec![0u64; pr * pr * l];
    let mut b_proc = vec![0u64; pr * pr * l];
    let cell = |i: usize, j: usize, k: usize| (k * pr + i) * pr + j;

    // A-style: rows blocked by i over pr; columns sliced by (j, k).
    let (am, an) = (a.nrows(), a.ncols());
    let row_block = two_level_blocks(am, pr, 1);
    for (j, &(jb, k)) in two_level_blocks(an, pr, l).iter().enumerate() {
        for &r in a.col(j).0 {
            a_proc[cell(row_block[r as usize].0 as usize, jb as usize, k as usize)] += 1;
        }
    }
    // B-style: rows sliced by (i, k) over pr·l; columns blocked by j.
    let (bm, bn) = (b.nrows(), b.ncols());
    let row_cell: Vec<usize> = two_level_blocks(bm, pr, l)
        .iter()
        .map(|&(ib, k)| cell(ib as usize, 0, k as usize))
        .collect();
    for (j, &(jb, _)) in two_level_blocks(bn, pr, 1).iter().enumerate() {
        for &r in b.col(j).0 {
            b_proc[row_cell[r as usize] + jb as usize] += 1;
        }
    }

    shape_of_cells(&a_proc, &b_proc, pr, l, an)
}

/// The maxima [`grid_shape`] reports, from per-process nonzero counts
/// indexed `(k·pr + i)·pr + j`.
fn shape_of_cells(a_proc: &[u64], b_proc: &[u64], pr: usize, l: usize, inner: usize) -> GridShape {
    let cell = |i: usize, j: usize, k: usize| (k * pr + i) * pr + j;
    let mut sweep_a = 0u64;
    let mut sweep_b = 0u64;
    for k in 0..l {
        // Stage s roots: A at column s of each row; B at row s of each
        // column. Each stage costs the max over its concurrent roots.
        let mut a_sum = 0u64;
        let mut b_sum = 0u64;
        for s in 0..pr {
            a_sum += (0..pr).map(|i| a_proc[cell(i, s, k)]).max().unwrap_or(0);
            b_sum += (0..pr).map(|j| b_proc[cell(s, j, k)]).max().unwrap_or(0);
        }
        sweep_a = sweep_a.max(a_sum);
        sweep_b = sweep_b.max(b_sum);
    }
    GridShape {
        l,
        pr,
        inner,
        max_nnz_a_proc: a_proc.iter().copied().max().unwrap_or(0),
        max_nnz_b_proc: b_proc.iter().copied().max().unwrap_or(0),
        sweep_nnz_a: sweep_a,
        sweep_nnz_b: sweep_b,
    }
}

/// What limited (or sank) a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingConstraint {
    /// Memory is ample: one batch suffices; time alone ranks the candidate.
    SingleBatch,
    /// The memory budget set the batch count (Alg. 3 / Eq. 2 binding).
    MemoryBudget,
    /// The batch count clamped at one column per batch — the finest
    /// column-wise batching allows.
    ColumnGranularity,
    /// Infeasible: the inputs alone exceed the per-process budget.
    InputsTooLarge,
    /// Infeasible: a single output column's intermediate exceeds the
    /// memory left after the inputs.
    ColumnTooLarge,
}

impl BindingConstraint {
    /// Short label for report tables.
    pub(crate) fn label(self) -> &'static str {
        match self {
            BindingConstraint::SingleBatch => "single-batch",
            BindingConstraint::MemoryBudget => "memory-budget",
            BindingConstraint::ColumnGranularity => "column-granularity",
            BindingConstraint::InputsTooLarge => "inputs-too-large",
            BindingConstraint::ColumnTooLarge => "column-too-large",
        }
    }
}

/// Predicted per-step seconds (critical-path estimate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictedSteps {
    /// Symbolic3D communication (zero when the batch count is forced).
    pub symbolic_comm: f64,
    /// Symbolic3D computation.
    pub symbolic_comp: f64,
    /// A-Broadcast (rebroadcast every batch; zero under `SparseFetch`).
    pub abcast: f64,
    /// Sparse A fetch — request round plus owner-serialised replies
    /// (zero under `DenseBcast`).
    pub fetch: f64,
    /// B-Broadcast (bandwidth batch-count-independent).
    pub bbcast: f64,
    /// Local multiply.
    pub multiply: f64,
    /// Merge-Layer.
    pub merge_layer: f64,
    /// AllToAll-Fiber.
    pub alltoall_fiber: f64,
    /// Merge-Fiber.
    pub merge_fiber: f64,
    /// 1.5D A-block ring shifts (zero for the SUMMA families).
    pub ashift: f64,
    /// 1.5D InnerABC partial-`C` reduce-scatter (zero elsewhere).
    pub creduce: f64,
}

impl PredictedSteps {
    /// Blocking-mode sum of every step.
    pub(crate) fn sum(&self) -> f64 {
        self.symbolic_comm
            + self.symbolic_comp
            + self.abcast
            + self.fetch
            + self.bbcast
            + self.multiply
            + self.merge_layer
            + self.alltoall_fiber
            + self.merge_fiber
            + self.ashift
            + self.creduce
    }
}

/// Everything the planner predicts about one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePrediction {
    /// The configuration evaluated.
    pub candidate: Candidate,
    /// Derived batch count (0 when infeasible).
    pub batches: usize,
    /// Eq. 2 analytic lower bound on `b` from the probe's estimates.
    pub eq2_bound: usize,
    /// What bound the batch count / sank the candidate.
    pub constraint: BindingConstraint,
    /// Per-step predicted seconds.
    pub steps: PredictedSteps,
    /// α-term seconds across all communication.
    pub latency_s: f64,
    /// β-term seconds across all communication.
    pub bandwidth_s: f64,
    /// Local computation seconds.
    pub compute_s: f64,
    /// Broadcast seconds hidden under multiply (overlapped mode only).
    pub hidden_s: f64,
    /// One-time costs an iterative session amortizes over its run:
    /// the symbolic sweep (when a single batch lets the session skip
    /// re-running it) plus the SparseFetch request-index bytes (memoized
    /// `needed_rows` make warm-iteration requests ~free). Zero for
    /// single-shot plans.
    pub one_time_s: f64,
    /// Predicted **per-iteration** makespan: warm-iteration time plus
    /// `one_time_s / iterations`. With `iterations = 1` this is exactly
    /// the single-shot `steps.sum() − hidden_s` (`∞` when infeasible).
    pub total_s: f64,
    /// Predicted per-process peak bytes (inputs + one batch's unmerged
    /// intermediate).
    pub peak_bytes_per_proc: usize,
    /// The irreducible part of the peak: per-process input bytes under
    /// this candidate's placement. Batching cannot shrink this term.
    pub input_bytes_per_proc: usize,
    /// The batch-divisible part of the peak: the heaviest process's
    /// *unmerged* intermediate at `b = 1`. The peak at any batch count is
    /// `input_bytes_per_proc + ceil(unmerged_bytes_per_proc / b)` — the
    /// arithmetic an admission controller replays when it shrinks a job
    /// to fit a partially-consumed budget.
    pub unmerged_bytes_per_proc: usize,
    /// Why the candidate is infeasible (empty when feasible).
    pub note: String,
}

impl CandidatePrediction {
    /// Can this configuration run under the budget at all?
    pub fn feasible(&self) -> bool {
        !matches!(
            self.constraint,
            BindingConstraint::InputsTooLarge | BindingConstraint::ColumnTooLarge
        )
    }
}

fn infeasible(
    candidate: Candidate,
    constraint: BindingConstraint,
    eq2_bound: usize,
    note: String,
) -> CandidatePrediction {
    CandidatePrediction {
        candidate,
        batches: 0,
        eq2_bound,
        constraint,
        steps: PredictedSteps::default(),
        latency_s: 0.0,
        bandwidth_s: 0.0,
        compute_s: 0.0,
        hidden_s: 0.0,
        one_time_s: 0.0,
        total_s: f64::INFINITY,
        peak_bytes_per_proc: usize::MAX,
        input_bytes_per_proc: usize::MAX,
        unmerged_bytes_per_proc: usize::MAX,
        note,
    }
}

/// Evaluate one candidate against the machine and budget.
///
/// `include_symbolic` charges the Symbolic3D pass a real run would
/// perform; sweeps that force the batch count set it to `false`.
///
/// `iterations` is the number of times the application will repeat the
/// multiplication over resident operands (an `IterSession`-style run);
/// one-time setup costs — the symbolic sweep when a single batch lets the
/// session skip re-running it, and the SparseFetch request-index bytes
/// that memoized `needed_rows` sets make ~free on warm iterations — are
/// divided by it, so the ranking answers "which configuration is fastest
/// *per iteration* over the whole run". `iterations = 1` reproduces the
/// single-shot prediction exactly.
#[allow(clippy::too_many_arguments)] // SPMD-style bundle of model inputs
pub(crate) fn predict_candidate(
    p: usize,
    shape: &GridShape,
    est: &ProbeEstimate,
    machine: &Machine,
    budget: &MemoryBudget,
    include_symbolic: bool,
    iterations: usize,
    candidate: Candidate,
) -> CandidatePrediction {
    debug_assert_eq!(shape.l, candidate.layers);
    let (pr, l) = (shape.pr, candidate.layers);
    let r = R_BYTES_PER_NNZ;
    let scale = est.scale;
    let n = est.total_cols;

    // ---- Memory model (Alg. 3 on probe estimates) --------------------
    let per_proc = budget.per_process(p);
    let input_bytes = r * (shape.max_nnz_a_proc + shape.max_nnz_b_proc) as usize;
    if per_proc <= input_bytes {
        return infeasible(
            candidate,
            BindingConstraint::InputsTooLarge,
            0,
            format!(
                "inputs need {input_bytes} bytes/process but the budget allows {per_proc}"
            ),
        );
    }
    let denom = per_proc - input_bytes;

    // ---- Occupancy sums over the probed columns ----------------------
    let cells_mult = (pr * pr * l) as f64; // (i, k, stage) cells per column
    let mut unmerged_total = 0.0; // Σ over cells of stage-level distinct
    let mut max_col_rank = 0.0f64; // one column's unmerged nnz on one rank
    let mut per_colblock_unmerged = vec![0.0f64; pr]; // per owning rank (i,·,k)
    let mut mult_work = 0.0;
    let mut merge_layer_work = 0.0;
    let mut merge_fiber_work = 0.0;
    let mut sym_work = 0.0;
    let mut max_send_layer_merged = vec![0.0f64; pr];

    for (idx, &gj) in est.cols.iter().enumerate() {
        let f = est.col_flops[idx] as f64;
        let d = est.col_nnz[idx] as f64;
        let k_streams = est.col_bnnz[idx] as f64;
        if f <= 0.0 {
            continue;
        }
        let bins = (d / pr as f64).max(1.0);
        let fpc = f / cells_mult; // flops per (i, k, stage) cell
        let u_cell = occ(fpc, bins); // distinct per stage cell
        let om = occ(f / (pr * l) as f64, bins); // after Merge-Layer, per (i, k)
        let of = occ(f / pr as f64, bins); // after Merge-Fiber, per i
        let col_rank_unmerged = pr as f64 * u_cell; // per (i, k) rank over a sweep
        let jb = block_index(n.max(1), pr, gj);

        unmerged_total += (pr * l) as f64 * col_rank_unmerged;
        max_col_rank = max_col_rank.max(col_rank_unmerged);
        per_colblock_unmerged[jb] += col_rank_unmerged;
        max_send_layer_merged[jb] += om; // per (i, k) rank of block jb

        // Local multiply work (per cell, mirroring the kernels' formulas).
        let w_cell = match candidate.kernels {
            KernelStrategy::New => fpc * C_HASH_FLOP + u_cell * C_DRAIN,
            KernelStrategy::Previous => {
                let kc = (k_streams / (pr * l) as f64).max(1.0);
                if kc <= HEAP_STREAMS_MAX {
                    fpc * lg(kc) * C_HEAP_FLOP
                } else {
                    fpc * C_HASH_FLOP + u_cell * lg(u_cell) * C_SORT
                }
            }
        };
        mult_work += cells_mult * w_cell;

        if pr > 1 {
            let merge_in = pr as f64 * u_cell;
            let w_ml = match candidate.kernels {
                KernelStrategy::New => merge_in * C_MERGE_HASH + om * C_DRAIN,
                KernelStrategy::Previous => merge_in * lg(pr as f64) * C_MERGE_HEAP,
            };
            merge_layer_work += (pr * l) as f64 * w_ml;
        }
        if l > 1 {
            let fiber_in = l as f64 * om;
            let w_mf = match candidate.kernels {
                KernelStrategy::New => {
                    fiber_in * C_MERGE_HASH + of * C_DRAIN + of * lg(of) * C_SORT
                }
                KernelStrategy::Previous => fiber_in * lg(l as f64) * C_MERGE_HEAP,
            };
            merge_fiber_work += pr as f64 * w_mf;
        }
        sym_work += f * (C_HASH_FLOP * 0.5) + cells_mult * u_cell * (C_DRAIN * 0.25);
    }

    // Load imbalance across process columns (ratio of the heaviest
    // column-block to the mean), from the probe's per-block sums.
    let block_sum: f64 = per_colblock_unmerged.iter().sum();
    let gamma = if block_sum > 0.0 {
        (per_colblock_unmerged.iter().copied().fold(0.0, f64::max) * pr as f64 / block_sum)
            .clamp(1.0, 3.0)
    } else {
        1.0
    };

    let max_unmerged_proc = scale
        * per_colblock_unmerged
            .iter()
            .copied()
            .fold(0.0, f64::max);
    let total_unmerged = scale * unmerged_total;
    let mem_c_bytes = (r as f64 * total_unmerged).ceil() as usize;
    let eq2 = budget.eq2_lower_bound(mem_c_bytes, est.nnz_a as usize, est.nnz_b as usize);

    // Single-column feasibility (the paper's upper bound on b).
    let max_col_bytes = (r as f64 * max_col_rank).ceil() as usize;
    if max_col_bytes > denom {
        return infeasible(
            candidate,
            BindingConstraint::ColumnTooLarge,
            eq2.unwrap_or(0),
            format!(
                "one output column needs ~{max_col_bytes} intermediate bytes but only \
                 {denom} remain after the inputs"
            ),
        );
    }

    let Some(eq2_bound) = eq2 else {
        return infeasible(
            candidate,
            BindingConstraint::InputsTooLarge,
            0,
            "global inputs alone exhaust the aggregate budget".into(),
        );
    };
    let footprint = Footprint {
        inputs: input_bytes,
        unmerged: (r as f64 * max_unmerged_proc).ceil() as usize,
    };
    let b_alg3 = footprint
        .fewest_batches(per_proc)
        .expect("the inputs fit the per-process budget");
    let b_raw = b_alg3.max(eq2_bound);
    let batches = b_raw.clamp(1, n.max(1));
    let constraint = if batches == 1 {
        BindingConstraint::SingleBatch
    } else if b_raw > n {
        BindingConstraint::ColumnGranularity
    } else {
        BindingConstraint::MemoryBudget
    };
    let peak_bytes_per_proc = footprint.at(batches);

    // ---- Time model (same Machine formulas the simulator charges) ----
    let b = batches as f64;
    let lg_pr = if pr > 1 { (pr as f64).log2().ceil() } else { 0.0 };
    let lg_p = if p > 1 { (p as f64).log2().ceil() } else { 0.0 };

    // Sparsity-aware fetch cost of one full A sweep. The critical path is
    // the stage owner, which serves its pr−1 row peers serially: one
    // request round (priced at 4-byte row indices; the run codes them as
    // varints, see the module docs) plus replies carrying only the
    // needed A columns. `b_piece` is the expected nnz of the B block a
    // receiver derives its needed set from; the occupancy of the stage's
    // inner-dimension slice gives the expected fraction of A columns
    // actually shipped.
    // Returns (latency, request-index bytes time, reply bytes time); the
    // request term is separated because an iterative session's memoized
    // `needed_rows` sets turn warm-iteration requests into α-only rounds.
    let fetch_sweep = |b_piece: f64| -> (f64, f64, f64) {
        if pr <= 1 {
            return (0.0, 0.0, 0.0); // A is already local to the row.
        }
        let bins = (shape.inner as f64 / (pr * l) as f64).max(1.0);
        let needed = occ(b_piece, bins);
        let frac = (needed / bins).min(1.0);
        let lat = pr as f64 * 2.0 * (pr - 1) as f64 * machine.alpha;
        let req_bw = (pr - 1) as f64 * machine.beta * pr as f64 * 4.0 * needed;
        let rep_bw =
            (pr - 1) as f64 * machine.beta * frac * (r as u64 * shape.sweep_nnz_a) as f64;
        (lat, req_bw, rep_bw)
    };

    let (ab_lat, ab_bw, fetch_lat, fetch_req_bw, fetch_rep_bw) = match candidate.exchange {
        ExchangeMode::DenseBcast => (
            b * pr as f64 * machine.alpha * lg_pr,
            b * machine.beta * (r as u64 * shape.sweep_nnz_a) as f64,
            0.0,
            0.0,
            0.0,
        ),
        ExchangeMode::SparseFetch => {
            // A batch sees 1/b of B's columns, so the per-stage B piece —
            // and with it the needed set — shrinks as b grows.
            let (lat, req, rep) = fetch_sweep(shape.sweep_nnz_b as f64 / (pr as f64 * b));
            (0.0, 0.0, b * lat, b * req, b * rep)
        }
    };
    let fetch_bw = fetch_req_bw + fetch_rep_bw;
    let bb_lat = b * pr as f64 * machine.alpha * lg_pr;
    let bb_bw = machine.beta * (r as u64 * shape.sweep_nnz_b) as f64;
    let (a2a_lat, a2a_bw) = if l > 1 {
        // The collective charges the heaviest sender's full payload: a
        // rank ships all but 1/l of its layer-merged block along the
        // fiber, and column batches partition that total across batches.
        let send_max = scale * max_send_layer_merged.iter().copied().fold(0.0, f64::max);
        (
            b * (l - 1) as f64 * machine.alpha,
            machine.beta * r as f64 * send_max * (1.0 - 1.0 / l as f64),
        )
    } else {
        (0.0, 0.0)
    };

    let t_mult = machine.compute_secs(mult_work * scale * gamma / p as f64);
    let t_ml = machine.compute_secs(merge_layer_work * scale * gamma / p as f64);
    let t_mf = machine.compute_secs(merge_fiber_work * scale * gamma / p as f64);

    let (sym_comm, sym_comp) = if include_symbolic {
        // The symbolic sweep moves operands through the same exchange plan
        // as the numeric phase: under SparseFetch its A leg is fetched too
        // (single batch, so the needed set comes from the full B piece).
        let b_leg = pr as f64 * machine.alpha * lg_pr
            + machine.beta * (r as u64 * shape.sweep_nnz_b) as f64;
        let a_leg = match candidate.exchange {
            ExchangeMode::DenseBcast => {
                pr as f64 * machine.alpha * lg_pr
                    + machine.beta * (r as u64 * shape.sweep_nnz_a) as f64
            }
            ExchangeMode::SparseFetch => {
                let (lat, req, rep) = fetch_sweep(shape.sweep_nnz_b as f64 / pr as f64);
                lat + req + rep
            }
        };
        let reduce = 8.0 * (machine.alpha * lg_p + machine.beta * 8.0);
        (
            a_leg + b_leg + reduce,
            machine.compute_secs(sym_work * scale * gamma / p as f64),
        )
    } else {
        (0.0, 0.0)
    };

    let steps = PredictedSteps {
        symbolic_comm: sym_comm,
        symbolic_comp: sym_comp,
        abcast: ab_lat + ab_bw,
        fetch: fetch_lat + fetch_bw,
        bbcast: bb_lat + bb_bw,
        multiply: t_mult,
        merge_layer: t_ml,
        alltoall_fiber: a2a_lat + a2a_bw,
        merge_fiber: t_mf,
        ashift: 0.0,
        creduce: 0.0,
    };

    // Overlapped mode: every stage's broadcast after the first hides under
    // the previous stage's multiply.
    let stages = (b * pr as f64).max(1.0);
    let hidden = match candidate.overlap {
        OverlapMode::Blocking => 0.0,
        OverlapMode::Overlapped => {
            // SparseFetch posts only the B broadcast ahead of the stage;
            // the A fetch needs the received B's structure and runs at
            // wait time, so it is never hidden.
            let hideable = match candidate.exchange {
                ExchangeMode::DenseBcast => steps.abcast + steps.bbcast,
                ExchangeMode::SparseFetch => steps.bbcast,
            };
            let c_stage = hideable / stages;
            let m_stage = steps.multiply / stages;
            (stages - 1.0) * c_stage.min(m_stage)
        }
    };

    // ---- Iteration amortization (session model) ----------------------
    // Two costs are one-time for a resident-operand iterative run:
    //  * the symbolic sweep, when it concludes b = 1 — the session skips
    //    re-running it (re-batching decisions can't change);
    //  * SparseFetch request-index bytes — warm iterations send a tiny
    //    "unchanged" token instead of the full `needed_rows` set (the α
    //    round and the replies stay per-iteration).
    // Reported total_s is the per-iteration average, so one number still
    // ranks candidates and iterations = 1 degenerates to the single shot.
    let mut one_time = 0.0;
    if batches == 1 {
        one_time += sym_comm + sym_comp;
    }
    if candidate.exchange == ExchangeMode::SparseFetch {
        one_time += fetch_req_bw;
    }
    let n_iter = iterations.max(1) as f64;
    let single_shot = steps.sum() - hidden;

    CandidatePrediction {
        candidate,
        batches,
        eq2_bound,
        constraint,
        steps,
        latency_s: ab_lat + fetch_lat + bb_lat + a2a_lat,
        bandwidth_s: ab_bw + fetch_bw + bb_bw + a2a_bw,
        compute_s: t_mult + t_ml + t_mf + sym_comp,
        hidden_s: hidden,
        one_time_s: one_time,
        total_s: (single_shot - one_time) + one_time / n_iter,
        peak_bytes_per_proc,
        input_bytes_per_proc: footprint.inputs,
        unmerged_bytes_per_proc: footprint.unmerged,
        note: String::new(),
    }
}

/// Per-inner-block nonzero profile of `A` for a 1.5D family with `t`
/// column blocks over the inner dimension — the exact placement scan
/// [`predict_family15`] charges shift traffic from (the 1.5D analogue of
/// [`grid_shape`]).
pub(crate) fn family15_block_nnz<T: Copy>(a: &CscMatrix<T>, t: usize) -> Vec<u64> {
    let mut nnz = vec![0u64; t.max(1)];
    for j in 0..a.ncols() {
        nnz[block_index(a.ncols(), t.max(1), j)] += a.col(j).0.len() as u64;
    }
    nnz
}

/// Evaluate one 1.5D candidate (`ColA15` / `InnerAbc15`) against the
/// machine and budget — the family-layer counterpart of
/// [`predict_candidate`].
///
/// The model follows the `family15::spmm_15d` driver's schedule move for
/// move. `B` is dense (or densified) at 8 bytes per entry; `A` blocks are
/// priced on the ring at [`R_BYTES_PER_NNZ`] bytes per nonzero, one
/// `α + β·bytes` message per shift round — an over-prediction, since the
/// driver ships them coded (the module docs' deliberate exception);
/// InnerABC's partial-`C` reduction is a reduce-scatter over the
/// `c`-member team — one alltoallv of `⌈m/c⌉`-row stripe slices, then a
/// member-order fold of the kept slice at [`C_SPMM_FLOP`] work units per
/// add. There is no
/// batching: the replicated stationary operands either fit the
/// per-process budget or the candidate is infeasible outright — the
/// Eq. 2-style replication-memory penalty that lets batched SUMMA win
/// back memory-constrained sparse-sparse workloads.
///
/// `block_nnz` is [`family15_block_nnz`] at this family's `t = p/c`.
pub(crate) fn predict_family15(
    p: usize,
    block_nnz: &[u64],
    est: &ProbeEstimate,
    machine: &Machine,
    budget: &MemoryBudget,
    candidate: Candidate,
) -> CandidatePrediction {
    let fam = candidate.family;
    let c = fam.repl_factor();
    let t = p / c;
    debug_assert!(fam.is_15d());
    debug_assert_eq!(block_nnz.len(), t.max(1));
    let (m, n_inner, d) = (est.nrows_a, est.nrows_b, est.total_cols);
    const ELEM: usize = 8; // modeled dense element size (f64-class scalar)

    // ---- Stationary layout (widest stripe ~ ceil over the fat blocks) --
    let stripe_parts = match fam {
        AlgorithmFamily::ColA15 { .. } => p,
        _ => t,
    };
    let w = if d == 0 { 0 } else { d.div_ceil(stripe_parts) };
    let b_stripe_bytes = ELEM * n_inner * w;
    let c_stripe_bytes = ELEM * m * w;
    let dense_bytes = b_stripe_bytes + c_stripe_bytes;
    // The row slice of a `C` stripe one InnerABC team member keeps.
    let slice_rows = m.div_ceil(c);
    let c_slice_bytes = ELEM * slice_rows * w;

    // ---- Replication memory (driver's peak_bytes, exactly) ------------
    let max_block = block_nnz.iter().copied().max().unwrap_or(0) as usize;
    let rounds = match fam {
        AlgorithmFamily::ColA15 { .. } => t,
        _ => t / c,
    };
    let a_resident = if rounds > 1 { 2 } else { 1 } * R_BYTES_PER_NNZ * max_block;
    let mut peak = a_resident + dense_bytes;
    if matches!(fam, AlgorithmFamily::InnerAbc15 { .. }) && c > 1 {
        peak = peak.max(dense_bytes + c * c_slice_bytes);
    }
    let per_proc = budget.per_process(p);
    if per_proc <= peak {
        return infeasible(
            candidate,
            BindingConstraint::InputsTooLarge,
            0,
            format!(
                "stationary 1.5D operands (c={c}, dense stripes + replicated A blocks) need \
                 {peak} bytes/process but the budget allows {per_proc}; the family cannot batch"
            ),
        );
    }

    // ---- A-Shift: each rank forwards every ring block but its last ----
    // The critical rank's bytes are its ring's total minus the lightest
    // block (the one a rank can end holding without ever sending it).
    let (shift_rounds, shift_nnz): (usize, u64) = match fam {
        AlgorithmFamily::ColA15 { .. } if t > 1 => {
            let total: u64 = block_nnz.iter().sum();
            (t - 1, total - block_nnz.iter().copied().min().unwrap_or(0))
        }
        AlgorithmFamily::InnerAbc15 { .. } if t / c > 1 => {
            // Layer ℓ's sub-rings rotate the blocks {k : k ≡ ℓ (mod c)};
            // the heaviest layer is the critical path.
            let worst = (0..c)
                .map(|layer| {
                    let ring: Vec<u64> = (layer..t).step_by(c).map(|k| block_nnz[k]).collect();
                    ring.iter().sum::<u64>() - ring.iter().copied().min().unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            (t / c - 1, worst)
        }
        _ => (0, 0),
    };
    let ashift_lat = shift_rounds as f64 * machine.alpha;
    let ashift_bw = machine.beta * (shift_nnz as usize * R_BYTES_PER_NNZ) as f64;

    // ---- C-Reduce (InnerABC, c > 1): reduce-scatter + member-order fold
    // of the kept slice ----
    let (creduce_lat, creduce_bw, fold_work) =
        if matches!(fam, AlgorithmFamily::InnerAbc15 { .. }) && c > 1 {
            (
                machine.alpha * (c - 1) as f64,
                machine.beta * (c_slice_bytes * (c - 1)) as f64,
                ((c - 1) * slice_rows * w) as f64 * C_SPMM_FLOP,
            )
        } else {
            (0.0, 0.0, 0.0)
        };

    // ---- Compute: the SpMM does exactly the sparse flops (zero entries
    // of the densified B are skipped), at the dense-accumulator rate. ----
    // Stripe imbalance from the probe's per-column flops.
    let mut per_stripe = vec![0.0f64; stripe_parts.max(1)];
    for (idx, &gj) in est.cols.iter().enumerate() {
        if d > 0 {
            per_stripe[block_index(d, stripe_parts.max(1), gj)] += est.col_flops[idx] as f64;
        }
    }
    let stripe_sum: f64 = per_stripe.iter().sum();
    let gamma = if stripe_sum > 0.0 {
        (per_stripe.iter().copied().fold(0.0, f64::max) * stripe_parts as f64 / stripe_sum)
            .clamp(1.0, 3.0)
    } else {
        1.0
    };
    let t_mult = machine.compute_secs(est.flops as f64 * C_SPMM_FLOP * gamma / p as f64);
    let t_fold = machine.compute_secs(fold_work);

    let steps = PredictedSteps {
        multiply: t_mult,
        merge_fiber: t_fold, // the fold is charged to Merge-Fiber, like the driver
        ashift: ashift_lat + ashift_bw,
        creduce: creduce_lat + creduce_bw,
        ..PredictedSteps::default()
    };

    CandidatePrediction {
        candidate,
        batches: 1,
        eq2_bound: 1,
        constraint: BindingConstraint::SingleBatch,
        steps,
        latency_s: ashift_lat + creduce_lat,
        bandwidth_s: ashift_bw + creduce_bw,
        compute_s: t_mult + t_fold,
        hidden_s: 0.0,
        one_time_s: 0.0,
        total_s: steps.sum(),
        peak_bytes_per_proc: peak,
        input_bytes_per_proc: peak,
        unmerged_bytes_per_proc: 0,
        note: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_index_inverts_block_range() {
        for n in [1usize, 5, 7, 16, 100, 101] {
            for parts in [1usize, 2, 3, 7, 16] {
                for k in 0..parts {
                    for x in block_range(n, parts, k) {
                        assert_eq!(
                            block_index(n, parts, x),
                            k,
                            "n={n} parts={parts} x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn occupancy_limits() {
        // Few balls: nearly no collisions -> occ ~ balls.
        assert!((occ(3.0, 1e9) - 3.0).abs() < 1e-6);
        // Many balls: all bins hit -> occ -> bins.
        assert!((occ(1e9, 50.0) - 50.0).abs() < 1e-6);
        // Monotone in balls.
        assert!(occ(10.0, 20.0) < occ(20.0, 20.0));
        assert_eq!(occ(0.0, 10.0), 0.0);
    }

    /// [`grid_shape`]'s tables place every nonzero where [`block_index`],
    /// asked per nonzero, places it — also when a dimension is smaller than
    /// or not divisible by `pr` or `pr·l`.
    #[test]
    fn grid_shape_tables_equal_per_nonzero_placement() {
        use spgemm_sparse::gen::{er_random, rmat};
        use spgemm_sparse::semiring::PlusTimesF64;
        let per_nonzero = |a: &CscMatrix<f64>, b: &CscMatrix<f64>, pr: usize, l: usize| {
            let cell = |i: usize, j: usize, k: usize| (k * pr + i) * pr + j;
            let two_level = |n: usize, x: usize| {
                let jb = block_index(n, pr, x);
                let outer = block_range(n, pr, jb);
                (jb, block_index(outer.len(), l, x - outer.start))
            };
            let mut a_proc = vec![0u64; pr * pr * l];
            let mut b_proc = vec![0u64; pr * pr * l];
            for (r, j, _) in a.iter() {
                let (jb, k) = two_level(a.ncols(), j);
                a_proc[cell(block_index(a.nrows(), pr, r as usize), jb, k)] += 1;
            }
            for (r, j, _) in b.iter() {
                let (ib, k) = two_level(b.nrows(), r as usize);
                b_proc[cell(ib, block_index(b.ncols(), pr, j), k)] += 1;
            }
            shape_of_cells(&a_proc, &b_proc, pr, l, a.ncols())
        };
        let inputs = [
            (
                er_random::<PlusTimesF64>(50, 37, 5, 3),
                er_random::<PlusTimesF64>(37, 61, 4, 4),
            ),
            (
                er_random::<PlusTimesF64>(5, 7, 2, 5),
                er_random::<PlusTimesF64>(7, 3, 2, 6),
            ),
            (
                rmat::<PlusTimesF64>(7, 6, None, false, 7),
                rmat::<PlusTimesF64>(7, 5, None, true, 8),
            ),
        ];
        for (a, b) in &inputs {
            for (pr, l) in [(2usize, 1usize), (2, 4), (4, 1), (4, 4), (3, 2)] {
                let dims = (a.nrows(), a.ncols(), b.ncols());
                assert_eq!(
                    grid_shape(a, b, pr, l),
                    per_nonzero(a, b, pr, l),
                    "{dims:?} pr={pr} l={l}"
                );
            }
        }
    }

    /// A candidate that one output column sinks reports Eq. 2 over the
    /// unmerged intermediate the occupancy model predicts, as a feasible
    /// candidate does, not over the merged `C`.
    #[test]
    fn column_too_large_reports_eq2_over_the_unmerged_total() {
        use crate::planner::probe::{probe, ProbeConfig};
        use spgemm_sparse::gen::clustered_similarity;
        let m = clustered_similarity(4, 24, 6, 1, 2021);
        let est = probe(&m, &m, &ProbeConfig::exact()).unwrap();
        let (p, pr, l) = (16, 2, 4);
        let shape = grid_shape(&m, &m, pr, l);
        // One byte per process beyond the inputs: no column fits.
        let inputs = R_BYTES_PER_NNZ * (shape.max_nnz_a_proc + shape.max_nnz_b_proc) as usize;
        let budget = MemoryBudget::new(p * (inputs + 1));
        let candidate = Candidate {
            family: AlgorithmFamily::Summa3dBatched,
            layers: l,
            kernels: KernelStrategy::New,
            overlap: OverlapMode::Blocking,
            exchange: ExchangeMode::DenseBcast,
        };
        let machine = Machine::knl();
        let got = predict_candidate(p, &shape, &est, &machine, &budget, true, 1, candidate);
        assert_eq!(got.constraint, BindingConstraint::ColumnTooLarge);

        // The unmerged total: every (i, k) rank's stage partials of every
        // column, `pr` stages of `occ(f/(pr²·l), d/pr)` distinct rows each.
        let cells = (pr * pr * l) as f64;
        let mut unmerged = 0.0;
        for (&f, &d) in est.col_flops.iter().zip(&est.col_nnz) {
            if f > 0 {
                let bins = (d as f64 / pr as f64).max(1.0);
                unmerged += (pr * l) as f64 * (pr as f64 * occ(f as f64 / cells, bins));
            }
        }
        let mem_c = (R_BYTES_PER_NNZ as f64 * (est.scale * unmerged)).ceil() as usize;
        let (nnz_a, nnz_b) = (est.nnz_a as usize, est.nnz_b as usize);
        let eq2 = budget.eq2_lower_bound(mem_c, nnz_a, nnz_b).unwrap();
        assert_eq!(got.eq2_bound, eq2);
        // The merged `C` would bound b elsewhere.
        let merged = budget.eq2_lower_bound(R_BYTES_PER_NNZ * est.nnz_c as usize, nnz_a, nnz_b);
        assert_ne!(merged, Some(eq2));
    }

    #[test]
    fn grid_shape_conserves_nnz() {
        use spgemm_sparse::gen::er_random;
        use spgemm_sparse::semiring::PlusTimesF64;
        let a = er_random::<PlusTimesF64>(50, 50, 5, 3);
        let b = er_random::<PlusTimesF64>(50, 50, 5, 4);
        for (pr, l) in [(2usize, 1usize), (2, 4), (4, 1)] {
            let s = grid_shape(&a, &b, pr, l);
            let p = (pr * pr * l) as u64;
            // Maxima bound the means.
            assert!(s.max_nnz_a_proc >= a.nnz() as u64 / p);
            assert!(s.max_nnz_b_proc >= b.nnz() as u64 / p);
            // Each of a layer's pr broadcast stages costs at least one
            // process's block, so the stage-max sweep bounds both the
            // per-process max and the layer's mean volume.
            assert!(s.sweep_nnz_a >= s.max_nnz_a_proc);
            assert!(s.sweep_nnz_a >= a.nnz() as u64 / (pr as u64 * l as u64));
            assert!(s.sweep_nnz_b >= s.max_nnz_b_proc);
        }
    }
}
