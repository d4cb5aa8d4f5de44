//! Every call the benchmark makes into the repository's crates.
//!
//! The rest of the benchmark sees the system under test only through this
//! file, so the list of public items a refactor must keep (until a paired
//! benchmark issue migrates them) is exactly the `use` lines below; the
//! README repeats it. Only `pub` items of the four library crates are
//! used, and nothing from `spgemm_bench::workloads` (its seeds are fixed).

use spgemm_apps::mcl::{markov_cluster, MclParams};
use spgemm_core::audit;
use spgemm_core::dist::sub_block;
use spgemm_core::planner::{plan, plan_with_probe, probe, PlannerConfig, ProbeConfig};
use spgemm_core::serve::{
    AdmitKind, JobOutcome, JobReport, JobServer, JobSpec, Priority, ServerConfig,
};
use spgemm_core::{
    run_spgemm, run_spgemm_aat, run_spmm, AlgorithmFamily, BackendKind, ExchangeMode,
    KernelStrategy, LayerChoice, LocalKernels, MemoryBudget, OverlapMode, RunConfig, RunOutput,
    R_BYTES_PER_NNZ,
};
use spgemm_simgrid::clock::ALL_STEPS;
use spgemm_simgrid::{
    max_breakdown, run_ranks_checked, CheckMode, Grid3D, Machine, Step, StepBreakdown, TraceEvent,
};
use spgemm_sparse::gen::{clustered_similarity, er_random, kmer_matrix, rmat};
use spgemm_sparse::io::{read_matrix_market, write_matrix_market};
use spgemm_sparse::ops::{
    block_range, col_block, col_concat, permute_rows, permute_symmetric, random_permutation,
    row_block, transpose,
};
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::{spmm_acc, PlusTimesF64, PlusTimesU64, WorkStats};
use std::sync::mpsc::Sender;
use std::sync::Arc;

pub use spgemm_core::serve::OperandId;
pub use spgemm_sparse::{CscMatrix, DenseBlock};

/// The semiring every workload multiplies under.
type S = PlusTimesF64;

/// The machine every run is simulated on, written out so that a later
/// edit to a `Machine::*` preset cannot move the baseline. These are the
/// `knl_mini` values at the commit that defined the benchmark.
pub const MACHINE: Machine = Machine {
    name: "bench-pinned",
    alpha: 2.0e-9,
    beta: 5.0e-10,
    secs_per_work_unit: 6.5e-9,
    threads_per_proc: 16,
    thread_efficiency: 0.85,
};

/// Environment variables that change the crates' defaults; the benchmark
/// removes them so only the configuration written here applies.
pub const PINNED_ENV: [&str; 4] = [
    "SPGEMM_CHECK",
    "SPGEMM_BACKEND",
    "SPGEMM_THREADS",
    "SPGEMM_PERTURB_SEED",
];

/// Bytes the memory model charges per stored nonzero.
pub const R_BYTES: usize = R_BYTES_PER_NNZ;

// ---------------------------------------------------------------------
// sparse: generators, permutations, serial references
// ---------------------------------------------------------------------

/// R-MAT graph with quadrant probabilities `(a, b, c)`, vertices randomly
/// relabelled. `symmetric` gives an undirected (social-network) adjacency.
pub fn gen_graph(
    scale: u32,
    edge_factor: usize,
    probs: (f64, f64, f64),
    symmetric: bool,
    seed: u64,
) -> CscMatrix<f64> {
    let m = rmat::<S>(scale, edge_factor, Some(probs), symmetric, seed);
    permute_symmetric(&m, &random_permutation(m.nrows(), seed ^ 0x50C1))
}

/// Clustered protein-similarity matrix, symmetrically permuted.
pub fn gen_protein(
    nclusters: usize,
    cluster_size: usize,
    intra: usize,
    inter: usize,
    seed: u64,
) -> CscMatrix<f64> {
    let m = clustered_similarity(nclusters, cluster_size, intra, inter, seed);
    permute_symmetric(&m, &random_permutation(m.nrows(), seed ^ 0x9207))
}

/// Reads × k-mers incidence matrix: genome-window k-mers (6 reads each)
/// plus repeat k-mers that connect distant reads, read order shuffled.
pub fn gen_kmer(nreads: usize, seed: u64) -> CscMatrix<f64> {
    let windows = kmer_matrix(nreads, nreads * 6, 6, seed);
    let repeats = er_random::<PlusTimesU64>(nreads, nreads * 4, 6, seed ^ 0x4E9E).map(|_| 1u64);
    let both = col_concat(&[windows, repeats]).expect("same row count");
    permute_rows(&both, &random_permutation(nreads, seed ^ 0x5EAD)).map(|v| v as f64)
}

/// Uniform random sparse matrix with `per_col` nonzeros in every column.
pub fn gen_uniform(n: usize, per_col: usize, seed: u64) -> CscMatrix<f64> {
    er_random::<S>(n, n, per_col, seed)
}

/// Dense block with seed-derived entries in `[0.5, 1.5)`.
pub fn gen_dense(nrows: usize, ncols: usize, seed: u64) -> DenseBlock<f64> {
    let mut state = seed;
    DenseBlock::from_fn(nrows, ncols, |_, _| {
        0.5 + (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64
    })
}

/// splitmix64, the benchmark's own stream for seeds and spec picks.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn transposed(m: &CscMatrix<f64>) -> CscMatrix<f64> {
    transpose(m)
}

/// Plain single-threaded reference product and its flop count.
pub fn serial_product(a: &CscMatrix<f64>, b: &CscMatrix<f64>) -> (CscMatrix<f64>, u64) {
    let (c, stats) = spgemm_spa::<S>(a, b).expect("conformant operands");
    (c, stats.flops)
}

/// Plain single-threaded sparse × dense reference and its flop count.
pub fn serial_spmm(a: &CscMatrix<f64>, b: &DenseBlock<f64>) -> (DenseBlock<f64>, u64) {
    let mut c = DenseBlock::new_fill(a.nrows(), b.ncols(), 0.0);
    let stats = spmm_acc::<S>(a, b, 0, &mut c).expect("conformant operands");
    (c, stats.flops)
}

/// The tolerance of `spgemm multiply --verify`.
pub fn same_product(c: &CscMatrix<f64>, reference: &CscMatrix<f64>) -> bool {
    c.approx_eq(reference, 1e-9)
}

pub fn same_dense(c: &DenseBlock<f64>, reference: &DenseBlock<f64>) -> bool {
    c.nrows() == reference.nrows()
        && c.ncols() == reference.ncols()
        && c.data()
            .iter()
            .zip(reference.data())
            .all(|(x, y)| (x - y).abs() <= 1e-9 * y.abs().max(1.0))
}

/// `m` as Matrix Market text, in memory.
pub fn mtx_write(m: &CscMatrix<f64>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_matrix_market(m, &mut buf).expect("in-memory write");
    buf
}

/// Parse Matrix Market text produced by [`mtx_write`].
pub fn mtx_read(text: &[u8]) -> CscMatrix<f64> {
    read_matrix_market(text).expect("text written by mtx_write")
}

// ---------------------------------------------------------------------
// core: the one-call multiply drivers
// ---------------------------------------------------------------------

/// How one multiply workload configures the driver.
#[derive(Debug, Clone, Copy)]
pub struct MultiplyCfg {
    pub p: usize,
    pub layers: usize,
    /// `None` lets Symbolic3D (Alg. 3) derive the batch count.
    pub forced_batches: Option<usize>,
    /// Aggregate budget in bytes; `None` is unlimited.
    pub budget_bytes: Option<usize>,
    pub sparse_fetch: bool,
    pub overlapped: bool,
}

impl MultiplyCfg {
    fn run_config(&self, keep_output: bool, trace: bool) -> RunConfig {
        RunConfig {
            p: self.p,
            layers: LayerChoice::Fixed(self.layers),
            machine: MACHINE,
            kernels: KernelStrategy::New,
            budget: budget(self.budget_bytes),
            forced_batches: self.forced_batches,
            discard_output: !keep_output,
            trace,
            overlap: overlap(self.overlapped),
            exchange: exchange(self.sparse_fetch),
            check: CheckMode::Off,
            backend: BackendKind::Simgrid,
            perturb: None,
            ..RunConfig::new(self.p, self.layers)
        }
    }
}

fn budget(bytes: Option<usize>) -> MemoryBudget {
    bytes.map_or_else(MemoryBudget::unlimited, MemoryBudget::new)
}

fn overlap(overlapped: bool) -> OverlapMode {
    if overlapped {
        OverlapMode::Overlapped
    } else {
        OverlapMode::Blocking
    }
}

fn exchange(sparse_fetch: bool) -> ExchangeMode {
    if sparse_fetch {
        ExchangeMode::SparseFetch
    } else {
        ExchangeMode::DenseBcast
    }
}

/// Number of simulated steps.
pub const N_STEPS: usize = 14;

/// Metric-name slug of every step, in the crates' display order.
pub fn step_slugs() -> Vec<(String, bool)> {
    ALL_STEPS
        .iter()
        .map(|s| {
            (
                s.label().to_lowercase().replace('-', "_"),
                s.is_communication(),
            )
        })
        .collect()
}

/// Simulated numbers of one op, reduced from the per-rank breakdowns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Simulated {
    /// Critical path: max over ranks of `StepBreakdown::total()`.
    pub modeled_s: f64,
    /// Σ over ranks of `bytes_total()`.
    pub modeled_bytes: u64,
    /// Max over ranks of the tracked peak.
    pub peak_bytes: u64,
    pub nbatches: u64,
    /// Mean over ranks of the tracked peak (for the imbalance ratio).
    pub mean_peak_bytes: f64,
    /// Σ over ranks of message rounds.
    pub msgs: u64,
    /// Critical-path seconds per step (elementwise max over ranks), in
    /// [`step_slugs`] order, then Σ-over-ranks bytes per step.
    pub step_s: Vec<f64>,
    pub step_bytes: Vec<u64>,
    /// Communication seconds of the critical-path rank (the one whose
    /// total is `modeled_s`).
    pub comm_s: f64,
    pub overlap_hidden_s: f64,
    /// Kernel counters summed over ranks (peak scratch is a max).
    pub flops: u64,
    pub allocs: u64,
    pub memcpy_bytes: u64,
    pub peak_scratch_bytes: u64,
}

impl Simulated {
    fn from_ranks(per_rank: &[StepBreakdown], peaks: &[usize], nbatches: usize) -> Simulated {
        let max = max_breakdown(per_rank);
        let critical = per_rank
            .iter()
            .max_by(|x, y| x.total().total_cmp(&y.total()))
            .copied()
            .unwrap_or_default();
        Simulated {
            modeled_s: critical.total(),
            modeled_bytes: per_rank.iter().map(StepBreakdown::bytes_total).sum(),
            peak_bytes: peaks.iter().copied().max().unwrap_or(0) as u64,
            nbatches: nbatches as u64,
            mean_peak_bytes: peaks.iter().sum::<usize>() as f64 / peaks.len().max(1) as f64,
            msgs: per_rank.iter().map(|b| b.msgs.iter().sum::<u64>()).sum(),
            step_s: ALL_STEPS.iter().map(|&s| max.secs_of(s)).collect(),
            step_bytes: ALL_STEPS
                .iter()
                .map(|&s| per_rank.iter().map(|b| b.bytes_of(s)).sum())
                .collect(),
            comm_s: critical.comm_total(),
            overlap_hidden_s: ALL_STEPS.iter().map(|&s| max.overlap_of(s)).sum(),
            ..Simulated::default()
        }
    }

    fn with_kernels(mut self, k: WorkStats) -> Simulated {
        self.flops = k.flops;
        self.allocs = k.allocs;
        self.memcpy_bytes = k.memcpy_bytes;
        self.peak_scratch_bytes = k.peak_scratch_bytes;
        self
    }

    /// Fold a second run into this one (the two halves of `spmm-15d`, the
    /// plans of `control-plane`): times and bytes add, peaks take the max.
    pub fn absorb(&mut self, other: &Simulated) {
        self.modeled_s += other.modeled_s;
        self.modeled_bytes += other.modeled_bytes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.mean_peak_bytes = self.mean_peak_bytes.max(other.mean_peak_bytes);
        self.nbatches = self.nbatches.max(other.nbatches);
        self.msgs += other.msgs;
        if self.step_s.is_empty() {
            self.step_s = vec![0.0; N_STEPS];
            self.step_bytes = vec![0; N_STEPS];
        }
        for (i, (s, b)) in other.step_s.iter().zip(&other.step_bytes).enumerate() {
            self.step_s[i] += s;
            self.step_bytes[i] += b;
        }
        self.comm_s += other.comm_s;
        self.overlap_hidden_s += other.overlap_hidden_s;
        self.flops += other.flops;
        self.allocs += other.allocs;
        self.memcpy_bytes += other.memcpy_bytes;
        self.peak_scratch_bytes = self.peak_scratch_bytes.max(other.peak_scratch_bytes);
    }
}

/// One span of simulated time on one rank's timeline.
#[derive(Debug, Clone, Copy)]
pub struct SimSpan {
    pub label: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// Per-rank simulated timelines of a traced run.
pub type Timeline = Vec<Vec<SimSpan>>;

fn timeline(traces: Option<Vec<Vec<TraceEvent>>>) -> Option<Timeline> {
    traces.map(|ranks| {
        ranks
            .iter()
            .map(|events| {
                events
                    .iter()
                    .map(|e| SimSpan {
                        label: e.step.label(),
                        start_s: e.start,
                        end_s: e.end,
                    })
                    .collect()
            })
            .collect()
    })
}

/// One multiply: the simulated numbers, the product when kept, and the
/// simulated per-rank timeline when traced.
#[derive(Debug)]
pub struct MultiplyOut {
    pub sim: Simulated,
    pub c: Option<CscMatrix<f64>>,
    pub timeline: Option<Timeline>,
}

/// `A·B` through `run_spgemm`.
pub fn multiply(
    cfg: &MultiplyCfg,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    keep_output: bool,
    trace: bool,
) -> Result<MultiplyOut, String> {
    run_spgemm::<S>(&cfg.run_config(keep_output, trace), a, b)
        .map(multiply_out)
        .map_err(|e| e.to_string())
}

fn multiply_out(out: RunOutput<f64>) -> MultiplyOut {
    MultiplyOut {
        sim: Simulated::from_ranks(&out.per_rank, &out.peak_bytes, out.nbatches)
            .with_kernels(out.kernel_stats),
        c: out.c,
        timeline: timeline(out.traces),
    }
}

/// `A·Aᵀ` through `run_spgemm_aat` (the transpose is formed on the grid).
pub fn multiply_aat(
    cfg: &MultiplyCfg,
    a: &CscMatrix<f64>,
    keep_output: bool,
    trace: bool,
) -> Result<MultiplyOut, String> {
    run_spgemm_aat::<S>(&cfg.run_config(keep_output, trace), a)
        .map(multiply_out)
        .map_err(|e| e.to_string())
}

/// Which 1.5D family runs a sparse × dense multiply.
#[derive(Debug, Clone, Copy)]
pub enum Family15 {
    ColA { c: usize },
    InnerAbc { c: usize },
}

#[derive(Debug)]
pub struct SpmmOut {
    pub sim: Simulated,
    pub c: Option<DenseBlock<f64>>,
    pub timeline: Option<Timeline>,
}

/// Sparse `A` times dense `B` through `run_spmm` on a 1.5D family.
pub fn spmm(
    p: usize,
    family: Family15,
    a: &CscMatrix<f64>,
    b: &DenseBlock<f64>,
    keep_output: bool,
    trace: bool,
) -> Result<SpmmOut, String> {
    let cfg = RunConfig {
        machine: MACHINE,
        discard_output: !keep_output,
        trace,
        check: CheckMode::Off,
        backend: BackendKind::Simgrid,
        perturb: None,
        algorithm: match family {
            Family15::ColA { c } => AlgorithmFamily::ColA15 { c },
            Family15::InnerAbc { c } => AlgorithmFamily::InnerAbc15 { c },
        },
        ..RunConfig::new(p, 1)
    };
    let out = run_spmm::<S>(&cfg, a, b).map_err(|e| e.to_string())?;
    Ok(SpmmOut {
        sim: Simulated::from_ranks(&out.per_rank, &out.peak_bytes, 1)
            .with_kernels(out.kernel_stats),
        c: out.c,
        timeline: timeline(out.traces),
    })
}

// ---------------------------------------------------------------------
// core: kernel replay (outside the rank threads, on one thread)
// ---------------------------------------------------------------------

/// Host seconds and counts of replaying every rank's local kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelReplay {
    pub multiply_s: f64,
    pub multiply_flops: u64,
    pub merge_s: f64,
    pub merge_nnz_in: u64,
}

/// Replay Local-Multiply and Merge-Layer of every `(rank, stage)` pair of
/// a `p`-rank, `l`-layer grid at one batch, serially on the calling
/// thread. The blocks are cut with the drivers' own `block_range` /
/// `sub_block`, so each call sees exactly the operands a rank sees; the
/// slicing itself is not timed. `on_rank` is told when a rank's kernels
/// start and end so the caller can record spans.
pub fn replay_kernels(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    p: usize,
    l: usize,
    mut on_rank: impl FnMut(usize, std::time::Instant, std::time::Instant),
) -> KernelReplay {
    let grid0 = Grid3D::for_rank_id(0, p, l);
    let pr = grid0.pr;
    let mut out = KernelReplay::default();
    let mut kernels = LocalKernels::<f64>::new(KernelStrategy::New);
    for k in 0..l {
        // A's column slice (s, k) and B's row slice (s, k) meet at stage s.
        let a_cols: Vec<CscMatrix<f64>> = (0..pr)
            .map(|s| col_block(a, sub_block(a.ncols(), pr, s, l, k)))
            .collect();
        let b_rows: Vec<CscMatrix<f64>> = (0..pr)
            .map(|s| row_block(b, sub_block(b.nrows(), pr, s, l, k)))
            .collect();
        for i in 0..pr {
            let a_blocks: Vec<CscMatrix<f64>> = a_cols
                .iter()
                .map(|m| row_block(m, block_range(a.nrows(), pr, i)))
                .collect();
            for j in 0..pr {
                let b_blocks: Vec<CscMatrix<f64>> = b_rows
                    .iter()
                    .map(|m| col_block(m, block_range(b.ncols(), pr, j)))
                    .collect();
                let rank_start = std::time::Instant::now();
                let mut parts = Vec::with_capacity(pr);
                for s in 0..pr {
                    let t0 = std::time::Instant::now();
                    let (c, stats) = kernels
                        .local_multiply::<S>(&a_blocks[s], &b_blocks[s])
                        .expect("conformant blocks");
                    out.multiply_s += t0.elapsed().as_secs_f64();
                    out.multiply_flops += stats.flops;
                    parts.push(c);
                }
                out.merge_nnz_in += parts.iter().map(|c| c.nnz() as u64).sum::<u64>();
                let t0 = std::time::Instant::now();
                let merged = kernels.merge_layer::<S>(&parts).expect("same-shape parts");
                out.merge_s += t0.elapsed().as_secs_f64();
                std::hint::black_box(merged);
                on_rank(
                    grid0.rank_of(i, j, k),
                    rank_start,
                    std::time::Instant::now(),
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// simgrid: micro-runs of the rendezvous primitives
// ---------------------------------------------------------------------

/// Which primitive a micro-run repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Spawn and join the rank threads, nothing else.
    SpawnJoin,
    /// Broadcast along the grid's process rows, rotating the root.
    Bcast,
    /// All-to-all along the grid's fibers.
    Alltoallv,
    /// A ring of point-to-point sends along the process rows.
    P2p,
}

/// Run `rounds` of `op` on a `p`-rank, `l`-layer world with a shared
/// payload modeled at `bytes`; `checked` turns the protocol checker on.
pub fn micro_run(p: usize, l: usize, op: MicroOp, rounds: usize, bytes: usize, checked: bool) {
    let mode = if checked {
        CheckMode::Check
    } else {
        CheckMode::Off
    };
    let payload = Arc::new(vec![0u8; bytes]);
    run_ranks_checked(p, MACHINE, mode, move |rank| {
        let grid = Grid3D::new(rank, l);
        match op {
            MicroOp::SpawnJoin => {}
            MicroOp::Bcast => {
                for r in 0..rounds {
                    let root = r % grid.row.size();
                    let mine = (grid.row.my_index() == root).then(|| Arc::clone(&payload));
                    std::hint::black_box(rank.bcast(&grid.row, root, mine, bytes, Step::ABcast));
                }
            }
            MicroOp::Alltoallv => {
                let q = grid.fiber.size();
                for _ in 0..rounds {
                    let parts: Vec<Arc<Vec<u8>>> = (0..q).map(|_| Arc::clone(&payload)).collect();
                    let sizes = vec![bytes / q.max(1); q];
                    std::hint::black_box(rank.alltoallv(
                        &grid.fiber,
                        parts,
                        &sizes,
                        Step::AllToAllFiber,
                    ));
                }
            }
            MicroOp::P2p => {
                let q = grid.row.size();
                let me = grid.row.my_index();
                for r in 0..rounds {
                    let tag = 0xBE7C_0000 + r as u64;
                    rank.send(&grid.row, (me + 1) % q, tag, Arc::clone(&payload));
                    let got: Arc<Vec<u8>> = rank.recv(&grid.row, (me + q - 1) % q, tag);
                    std::hint::black_box(got);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// core: planner and auditor (payload-free control plane)
// ---------------------------------------------------------------------

/// What the planner predicted for its winning candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSummary {
    pub candidates: usize,
    pub predicted_s: f64,
    pub predicted_batches: usize,
    pub predicted_peak_bytes: usize,
    /// β-term seconds of the winner divided by β: predicted bytes on the
    /// critical path.
    pub predicted_bytes: f64,
    /// α-term seconds of the winner divided by α: predicted message
    /// rounds on the critical path.
    pub predicted_msgs: f64,
}

fn planner_config(budget_bytes: Option<usize>) -> PlannerConfig {
    PlannerConfig::new(MACHINE, budget(budget_bytes))
}

fn summarize(report: &spgemm_core::PlanReport) -> Result<PlanSummary, String> {
    let w = report
        .winner()
        .ok_or("planner found no feasible candidate")?;
    Ok(PlanSummary {
        candidates: report.ranked.len(),
        predicted_s: w.total_s,
        predicted_batches: w.batches,
        predicted_peak_bytes: w.peak_bytes_per_proc,
        predicted_bytes: w.bandwidth_s / MACHINE.beta,
        predicted_msgs: w.latency_s / MACHINE.alpha,
    })
}

/// `planner::plan` over the full default search space.
pub fn plan_full(
    p: usize,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    budget_bytes: Option<usize>,
) -> Result<PlanSummary, String> {
    let report = plan(p, a, b, &planner_config(budget_bytes)).map_err(|e| e.to_string())?;
    summarize(&report)
}

/// Host seconds of the probe alone and of predict-and-rank alone
/// (`plan_with_probe` on that probe), and the resulting plan.
pub fn plan_split(
    p: usize,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    budget_bytes: Option<usize>,
) -> Result<(f64, f64, PlanSummary), String> {
    let cfg = planner_config(budget_bytes);
    let t0 = std::time::Instant::now();
    let est = probe(a, b, &ProbeConfig::default()).map_err(|e| e.to_string())?;
    let probe_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let report = plan_with_probe(p, a, b, &cfg, &est).map_err(|e| e.to_string())?;
    Ok((probe_s, t1.elapsed().as_secs_f64(), summarize(&report)?))
}

/// The planner's prediction for exactly the configuration `cfg` runs
/// (one candidate; the batch count is the planner's own).
pub fn plan_for(
    cfg: &MultiplyCfg,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
) -> Result<PlanSummary, String> {
    let pcfg = PlannerConfig {
        layers: Some(vec![cfg.layers]),
        kernels: vec![KernelStrategy::New],
        overlaps: vec![overlap(cfg.overlapped)],
        exchanges: vec![exchange(cfg.sparse_fetch)],
        ..planner_config(cfg.budget_bytes)
    };
    let report = plan(cfg.p, a, b, &pcfg).map_err(|e| e.to_string())?;
    summarize(&report)
}

/// Counts of one exhaustive schedule audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    pub configs: usize,
    pub events: usize,
    pub violations: usize,
}

/// `audit::sweep` over the world sizes `ps`, no fault injected.
pub fn audit_sweep(ps: &[usize]) -> AuditSummary {
    let report = audit::sweep(ps, None);
    AuditSummary {
        configs: report.results.len(),
        events: report.total_events(),
        violations: report.violations().len(),
    }
}

// ---------------------------------------------------------------------
// apps: Markov clustering on a resident session
// ---------------------------------------------------------------------

/// What one clustering run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MclOut {
    pub labels: Vec<usize>,
    pub iterations: usize,
    /// Simulated numbers summed over the iterations; `peak_bytes` is the
    /// largest resident iterate at `R_BYTES` per nonzero, since
    /// `MclResult` does not surface the tracked per-rank peaks.
    pub sim: Simulated,
    /// Per iteration: Σ-over-ranks modeled bytes and critical-path seconds.
    pub iter_bytes: Vec<u64>,
    pub iter_modeled_s: Vec<f64>,
    pub fetch_hits: u64,
    pub fetch_misses: u64,
}

/// `markov_cluster` for a fixed number of iterations on the session
/// driver with SparseFetch; `cache` toggles the cross-iteration fetch
/// cache.
pub fn mcl(
    adj: &CscMatrix<f64>,
    p: usize,
    layers: usize,
    select: usize,
    iters: usize,
    cache: bool,
) -> Result<MclOut, String> {
    let params = MclParams {
        select,
        max_iters: iters,
        chaos_threshold: 0.0,
        machine: MACHINE,
        kernels: KernelStrategy::New,
        budget: MemoryBudget::unlimited(),
        overlap: OverlapMode::Blocking,
        exchange: ExchangeMode::SparseFetch,
        backend: BackendKind::Simgrid,
        session: true,
        cache,
        perturb: None,
        ..MclParams::new(p, layers)
    };
    let r = markov_cluster(adj, &params).map_err(|e| e.to_string())?;
    let mut sim = Simulated::default();
    for it in &r.per_iter {
        let one = Simulated {
            modeled_s: it.breakdown.total(),
            modeled_bytes: it.modeled_bytes,
            peak_bytes: (it.nnz * R_BYTES) as u64,
            mean_peak_bytes: (it.nnz * R_BYTES) as f64,
            nbatches: it.nbatches as u64,
            msgs: it.breakdown.msgs.iter().sum(),
            step_s: ALL_STEPS.iter().map(|&s| it.breakdown.secs_of(s)).collect(),
            step_bytes: ALL_STEPS
                .iter()
                .map(|&s| it.breakdown.bytes_of(s))
                .collect(),
            comm_s: it.breakdown.comm_total(),
            overlap_hidden_s: ALL_STEPS.iter().map(|&s| it.breakdown.overlap_of(s)).sum(),
            ..Simulated::default()
        };
        sim.absorb(&one);
    }
    Ok(MclOut {
        labels: r.labels,
        iterations: r.iterations,
        sim,
        iter_bytes: r.per_iter.iter().map(|it| it.modeled_bytes).collect(),
        iter_modeled_s: r.per_iter.iter().map(|it| it.breakdown.total()).collect(),
        fetch_hits: r.per_iter.iter().map(|it| it.fetch_hits).sum(),
        fetch_misses: r.per_iter.iter().map(|it| it.fetch_misses).sum(),
    })
}

// ---------------------------------------------------------------------
// core::serve: the resident job server
// ---------------------------------------------------------------------

/// A running `JobServer` on the pinned machine.
pub struct Server(JobServer);

/// One job the benchmark submits.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub a: OperandId,
    pub b: OperandId,
    pub p: usize,
    pub budget_bytes: Option<usize>,
    pub high_priority: bool,
    pub keep_output: bool,
}

/// What the server reported for one job.
#[derive(Debug)]
pub struct ServeDone {
    pub id: u64,
    pub completed: bool,
    pub shrunk: bool,
    pub queue_s: f64,
    pub run_s: f64,
    pub total_s: f64,
    pub modeled_s: f64,
    pub modeled_bytes: u64,
    pub peak_bytes: u64,
    pub nbatches: u64,
    pub msgs: u64,
    pub c: Option<CscMatrix<f64>>,
}

/// Final counters of a server.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    pub plan_hit_rate: f64,
    pub probe_hit_rate: f64,
    pub shrunk_frac: f64,
    pub peak_queue_depth: usize,
    pub peak_reserved_frac: f64,
}

impl Server {
    pub fn start(budget_bytes: usize, max_concurrency: usize, cache_capacity: usize) -> Server {
        Server(JobServer::start(ServerConfig {
            max_concurrency,
            cache_capacity,
            machine: MACHINE,
            backend: BackendKind::Simgrid,
            check: CheckMode::Off,
            ..ServerConfig::new(budget_bytes)
        }))
    }

    pub fn register(&self, m: CscMatrix<f64>) -> OperandId {
        self.0.register(m)
    }

    /// `JobServer::submit_with`: the report goes to `reply`.
    pub fn submit(&self, spec: &ServeSpec, reply: Sender<JobReport>) -> u64 {
        let job = JobSpec {
            priority: if spec.high_priority {
                Priority::High
            } else {
                Priority::Normal
            },
            keep_output: spec.keep_output,
            ..JobSpec::new(spec.a, spec.b, spec.p, budget(spec.budget_bytes))
        };
        self.0.submit_with(job, reply)
    }

    pub fn stats(&self) -> ServeStats {
        let s = self.0.stats();
        let probes = s.cache.probe_hits + s.cache.probe_misses;
        ServeStats {
            plan_hit_rate: s.cache.plan_hit_rate(),
            probe_hit_rate: s.cache.probe_hits as f64 / probes.max(1) as f64,
            shrunk_frac: s.shrunk_admissions as f64 / s.completed.max(1) as f64,
            peak_queue_depth: s.peak_queue_depth,
            peak_reserved_frac: s.peak_reserved_bytes as f64 / s.budget_bytes.max(1) as f64,
        }
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// The wire type of the reply channel (opaque to the rest of the benchmark).
pub type ServeReply = JobReport;

pub fn serve_done(report: JobReport) -> ServeDone {
    let (id, queue_s, run_s, total_s) = (
        report.id,
        report.queue_secs,
        report.run_secs,
        report.total_secs,
    );
    match report.outcome {
        JobOutcome::Completed(job) => ServeDone {
            id,
            completed: true,
            shrunk: matches!(job.admit, AdmitKind::Shrunk { .. }),
            queue_s,
            run_s,
            total_s,
            modeled_s: job.breakdown.total(),
            modeled_bytes: job.breakdown.bytes_total(),
            peak_bytes: job.peak_bytes_per_proc as u64,
            nbatches: job.nbatches as u64,
            msgs: job.breakdown.msgs.iter().sum(),
            c: job.c,
        },
        JobOutcome::Rejected(_) => ServeDone {
            id,
            completed: false,
            shrunk: false,
            queue_s,
            run_s,
            total_s,
            modeled_s: 0.0,
            modeled_bytes: 0,
            peak_bytes: 0,
            nbatches: 0,
            msgs: 0,
            c: None,
        },
    }
}
