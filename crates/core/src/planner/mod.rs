//! Cost-model-driven autotuner: pick layers, batches, overlap, and
//! kernels before the run.
//!
//! The paper answers "given `p` processes and memory budget `M`, how many
//! layers `l` and batches `b`?" only by exhaustive sweeps (Figs. 4–5).
//! This module answers it analytically, in four moves:
//!
//! 1. **Enumerate** (`candidate`) every feasible grid — all `l` with
//!    `l | p` and `p/l` a perfect square — crossed with kernel generation
//!    and overlap mode.
//! 2. **Probe** ([`probe()`]) the operands once with a cheap sampled
//!    structure-only symbolic pass (no full Symbolic3D): per-column flop
//!    and output-row counts, scaled estimates of `flops` and `nnz(C)`.
//! 3. **Predict** (`predict`) each candidate's makespan with the same
//!    α–β and work-unit formulas the simulator charges, deriving the
//!    Alg. 3 / Eq. 2 batch count from the budget and subtracting the
//!    broadcast time hideable under multiply in overlapped mode.
//! 4. **Report** (`report`) the ranked candidates: the argmin, each
//!    candidate's latency/bandwidth/compute split, the constraint that
//!    bound it, and why losers lost.
//!
//! [`calibrate()`] closes the predict → measure → refit loop: it fits
//! effective α/β/flop-rate constants from one measured run's step
//! breakdowns and persists them as a machine-profile JSON later plans
//! can load.

pub(crate) mod calibrate;
pub(crate) mod candidate;
pub(crate) mod predict;
pub(crate) mod probe;
pub(crate) mod report;
pub(crate) mod sketch;

pub use calibrate::{calibrate, CalibrationInput, MachineProfile};
pub use candidate::Candidate;
pub use predict::BindingConstraint;
pub use probe::{probe, ProbeConfig};
pub use report::PlanReport;

use candidate::enumerate_candidates;
use predict::{family15_block_nnz, grid_shape, CandidatePrediction, GridShape};
use probe::ProbeEstimate;

use crate::exchange::ExchangeMode;
use crate::family15::AlgorithmFamily;
use crate::harness::{validate_grid, RunConfig};
use crate::kernels::KernelStrategy;
use crate::memory::MemoryBudget;
use crate::summa2d::OverlapMode;
use crate::{CoreError, Result};
use spgemm_simgrid::Machine;
use spgemm_sparse::CscMatrix;

/// Everything the planner needs besides the operands.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Machine cost model predictions are made against.
    pub machine: Machine,
    /// Aggregate memory budget (drives the batch count per candidate).
    pub budget: MemoryBudget,
    /// Probe sampling parameters.
    pub probe: ProbeConfig,
    /// Restrict the layer search (`None` = every valid `l` for `p`).
    pub layers: Option<Vec<usize>>,
    /// Kernel generations to consider.
    pub kernels: Vec<KernelStrategy>,
    /// Overlap modes to consider.
    pub overlaps: Vec<OverlapMode>,
    /// Exchange modes to consider for the A operand.
    pub exchanges: Vec<ExchangeMode>,
    /// Algorithm families to consider. Defaults to `Summa3dBatched` only
    /// (the historical search space); `AlgorithmFamily::sweep(p)` opens
    /// the full cross-family comparison including the 1.5D members.
    pub families: Vec<AlgorithmFamily>,
    /// Charge the Symbolic3D pass a real run would perform (disable when
    /// comparing against sweeps that force the batch count).
    pub include_symbolic: bool,
    /// Number of times the application repeats the multiplication over
    /// resident operands (an iterative `IterSession` run). One-time costs
    /// — the skippable symbolic sweep and SparseFetch request-index setup
    /// — are amortized over this count, so 1 iteration and 20 can pick
    /// different winners. Default 1 (single-shot).
    pub iterations: usize,
}

impl PlannerConfig {
    /// Full search space over kernels and overlap modes.
    pub fn new(machine: Machine, budget: MemoryBudget) -> Self {
        PlannerConfig {
            machine,
            budget,
            probe: ProbeConfig::default(),
            layers: None,
            kernels: vec![KernelStrategy::New, KernelStrategy::Previous],
            overlaps: vec![OverlapMode::Blocking, OverlapMode::Overlapped],
            exchanges: vec![ExchangeMode::DenseBcast, ExchangeMode::SparseFetch],
            families: vec![AlgorithmFamily::Summa3dBatched],
            include_symbolic: true,
            iterations: 1,
        }
    }

    /// Plan *for a run configuration*: the kernel and overlap choices are
    /// taken from `cfg` (only the grid is searched), so `Auto` layer
    /// resolution never second-guesses explicit user choices.
    pub fn for_run(cfg: &RunConfig) -> Self {
        PlannerConfig {
            machine: cfg.machine,
            budget: cfg.budget,
            probe: ProbeConfig::default(),
            layers: None,
            kernels: vec![cfg.kernels],
            overlaps: vec![cfg.overlap],
            exchanges: vec![cfg.exchange],
            families: vec![cfg.algorithm],
            include_symbolic: cfg.forced_batches.is_none(),
            iterations: 1,
        }
    }
}

/// Plan `A · B` on `p` processes: probe once, predict every candidate,
/// rank them.
///
/// Structure-only and value-type-agnostic (like the probe): `A` and `B`
/// may hold different scalar types.
pub fn plan<T: Copy + Send + Sync, U: Copy + Sync>(
    p: usize,
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    cfg: &PlannerConfig,
) -> Result<PlanReport> {
    if a.ncols() != b.nrows() {
        return Err(CoreError::Config(format!(
            "plan: inner dimensions differ: A is {}x{}, B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    let est = probe(a, b, &cfg.probe)?;
    plan_with_probe(p, a, b, cfg, &est)
}

/// [`plan`] with the probe already taken: predict and rank every candidate
/// against `est` instead of re-probing the operands.
///
/// This is the entry point for callers that memoize probes — the serve
/// subsystem's operand store probes each registered pair once and replans
/// repeat jobs from the cached `ProbeEstimate`. The operands are still
/// required for the exact per-layer placement scan (`grid_shape`), which
/// depends on `p` and the candidate layer counts, not just structure
/// statistics.
pub fn plan_with_probe<T: Copy, U: Copy>(
    p: usize,
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    cfg: &PlannerConfig,
    est: &ProbeEstimate,
) -> Result<PlanReport> {
    let candidates = enumerate_candidates(
        p,
        cfg.layers.as_deref(),
        &cfg.kernels,
        &cfg.overlaps,
        &cfg.exchanges,
        &cfg.families,
    )?;

    // One exact placement scan per distinct layer count (SUMMA families;
    // 1.5D candidates have no square grid and take the block profile
    // below instead).
    let mut shapes: Vec<(usize, GridShape)> = Vec::new();
    for c in &candidates {
        if !c.family.is_15d() && !shapes.iter().any(|(l, _)| *l == c.layers) {
            let side = validate_grid(p, c.layers)?;
            shapes.push((c.layers, grid_shape(a, b, side, c.layers)));
        }
    }
    // One per-inner-block A profile per distinct 1.5D block count t = p/c.
    let mut profiles: Vec<(usize, Vec<u64>)> = Vec::new();
    for c in &candidates {
        if c.family.is_15d() {
            let t = p / c.family.repl_factor();
            if !profiles.iter().any(|(pt, _)| *pt == t) {
                profiles.push((t, family15_block_nnz(a, t)));
            }
        }
    }
    let mut ranked: Vec<CandidatePrediction> = candidates
        .iter()
        .map(|&c| {
            if c.family.is_15d() {
                let t = p / c.family.repl_factor();
                let blocks = &profiles.iter().find(|(pt, _)| *pt == t).unwrap().1;
                predict::predict_family15(p, blocks, est, &cfg.machine, &cfg.budget, c)
            } else {
                let shape = &shapes.iter().find(|(l, _)| *l == c.layers).unwrap().1;
                predict::predict_candidate(
                    p,
                    shape,
                    est,
                    &cfg.machine,
                    &cfg.budget,
                    cfg.include_symbolic,
                    cfg.iterations,
                    c,
                )
            }
        })
        .collect();
    // Feasible first, ascending predicted makespan; infeasible last.
    ranked.sort_by(|x, y| {
        y.feasible()
            .cmp(&x.feasible())
            .then(x.total_s.partial_cmp(&y.total_s).unwrap_or(std::cmp::Ordering::Equal))
    });
    Ok(PlanReport {
        p,
        machine_name: cfg.machine.name.to_string(),
        iterations: cfg.iterations,
        probe_sampled: !est.is_exact(),
        probe_cols: est.cols.len(),
        probe_total_cols: est.total_cols,
        probe_flops: est.flops,
        probe_nnz_c: est.nnz_c,
        ranked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;

    fn operands() -> (CscMatrix<f64>, CscMatrix<f64>) {
        (
            er_random::<PlusTimesF64>(128, 128, 8, 31),
            er_random::<PlusTimesF64>(128, 128, 8, 32),
        )
    }

    #[test]
    fn plan_ranks_all_candidates_and_picks_a_winner() {
        let (a, b) = operands();
        let cfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::unlimited());
        let rep = plan(16, &a, &b, &cfg).unwrap();
        // layers {1, 4, 16} × 2 kernels × 2 overlaps × 2 exchanges
        assert_eq!(rep.ranked.len(), 24);
        let w = rep.winner().expect("unlimited budget must be feasible");
        assert!(w.total_s.is_finite() && w.total_s > 0.0);
        assert!(w.batches >= 1);
        // Ranked ascending among feasible candidates.
        for pair in rep.ranked.windows(2) {
            if pair[0].feasible() && pair[1].feasible() {
                assert!(pair[0].total_s <= pair[1].total_s);
            }
        }
        assert!(rep.to_table().contains("winner:"));
    }

    #[test]
    fn tight_budget_forces_batches_or_infeasibility() {
        let (a, b) = operands();
        let inputs = (a.nnz() + b.nnz()) * 24;
        let mut cfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::new(inputs * 3));
        cfg.probe = ProbeConfig::exact();
        let rep = plan(16, &a, &b, &cfg).unwrap();
        let w = rep.winner().expect("3x-inputs budget should be plannable");
        assert!(
            w.batches > 1,
            "tight budget should force batching, got b={}",
            w.batches
        );
        assert!(w.peak_bytes_per_proc <= cfg.budget.per_process(16));
    }

    #[test]
    fn impossible_budget_yields_no_winner() {
        let (a, b) = operands();
        let cfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::new(1024));
        let rep = plan(16, &a, &b, &cfg).unwrap();
        assert!(rep.winner().is_none());
        assert!(rep.ranked.iter().all(|c| !c.feasible()));
    }

    #[test]
    fn for_run_restricts_kernels_and_overlap() {
        let mut rc = RunConfig::new(16, 1);
        rc.kernels = KernelStrategy::Previous;
        rc.overlap = OverlapMode::Overlapped;
        let cfg = PlannerConfig::for_run(&rc);
        assert_eq!(cfg.kernels, vec![KernelStrategy::Previous]);
        assert_eq!(cfg.overlaps, vec![OverlapMode::Overlapped]);
        assert_eq!(cfg.exchanges, vec![ExchangeMode::DenseBcast]);
        let (a, b) = operands();
        let rep = plan(16, &a, &b, &cfg).unwrap();
        assert_eq!(rep.ranked.len(), 3); // layers {1, 4, 16} only
    }

    #[test]
    fn sparse_fetch_candidates_swap_abcast_for_fetch() {
        let (a, b) = operands();
        let cfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::unlimited());
        let rep = plan(16, &a, &b, &cfg).unwrap();
        for c in &rep.ranked {
            let pr_gt_1 = 16 / c.candidate.layers > 1;
            match c.candidate.exchange {
                ExchangeMode::DenseBcast => {
                    assert_eq!(c.steps.fetch, 0.0, "{}", c.candidate.label());
                    assert!(c.steps.abcast > 0.0, "{}", c.candidate.label());
                }
                ExchangeMode::SparseFetch => {
                    assert_eq!(c.steps.abcast, 0.0, "{}", c.candidate.label());
                    assert_eq!(c.steps.fetch > 0.0, pr_gt_1, "{}", c.candidate.label());
                }
            }
        }
    }

    #[test]
    fn planner_picks_exchange_mode_per_workload() {
        // Pure-bandwidth machine so the comparison isolates moved bytes.
        let mut machine = Machine::knl_mini();
        machine.alpha = 0.0;
        let mut cfg = PlannerConfig::new(machine, MemoryBudget::unlimited());
        cfg.kernels = vec![KernelStrategy::New];
        cfg.overlaps = vec![OverlapMode::Blocking];

        let matched = |rep: &PlanReport, x: ExchangeMode| -> CandidatePrediction {
            rep.ranked
                .iter()
                .find(|c| c.candidate.exchange == x)
                .unwrap()
                .clone()
        };

        // Hypersparse operands at l=4 (pr=2): tiny needed sets and a
        // single requester per stage, so fetch ships far less than a
        // broadcast of the full A block.
        cfg.layers = Some(vec![4]);
        let a = er_random::<PlusTimesF64>(4096, 4096, 1, 7);
        let b = er_random::<PlusTimesF64>(4096, 4096, 1, 8);
        let rep = plan(16, &a, &b, &cfg).unwrap();
        let (dense, sparse) = (
            matched(&rep, ExchangeMode::DenseBcast),
            matched(&rep, ExchangeMode::SparseFetch),
        );
        assert!(
            sparse.steps.fetch < dense.steps.abcast,
            "hypersparse: fetch {} !< abcast {}",
            sparse.steps.fetch,
            dense.steps.abcast
        );

        // Denser operands at l=1 (pr=4): near-full needed sets and three
        // serial requesters per stage, so the owner-serialised replies
        // cost more than one broadcast.
        cfg.layers = Some(vec![1]);
        let (a, b) = operands();
        let rep = plan(16, &a, &b, &cfg).unwrap();
        let (dense, sparse) = (
            matched(&rep, ExchangeMode::DenseBcast),
            matched(&rep, ExchangeMode::SparseFetch),
        );
        assert!(
            dense.steps.abcast < sparse.steps.fetch,
            "dense-ish: abcast {} !< fetch {}",
            dense.steps.abcast,
            sparse.steps.fetch
        );
    }

    #[test]
    fn iteration_amortization_is_exact_and_monotone() {
        let (a, b) = operands();
        let base = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::unlimited());
        let rep1 = plan(16, &a, &b, &base).unwrap();
        let mut cfg20 = base;
        cfg20.iterations = 20;
        let rep20 = plan(16, &a, &b, &cfg20).unwrap();
        for c1 in rep1.ranked.iter().filter(|c| c.feasible()) {
            let c20 = rep20
                .ranked
                .iter()
                .find(|c| c.candidate == c1.candidate)
                .unwrap();
            // Per-iteration identity: warm + one_time/N.
            let expect = (c1.total_s - c1.one_time_s) + c1.one_time_s / 20.0;
            assert!(
                (c20.total_s - expect).abs() <= 1e-12 * c1.total_s,
                "{}: got {} want {}",
                c1.candidate.label(),
                c20.total_s,
                expect
            );
            // More iterations never make a candidate look slower.
            assert!(c20.total_s <= c1.total_s + 1e-15);
            // Unlimited budget ⇒ b = 1 ⇒ the symbolic sweep is one-time.
            assert!(c1.one_time_s > 0.0, "{}", c1.candidate.label());
        }
        assert!(rep20.to_table().contains("per-iteration averages"));
    }

    #[test]
    fn iteration_count_flips_the_exchange_winner() {
        // Workload tuned so SparseFetch's one-time request-index setup
        // sinks it on a single shot, while its smaller warm-iteration
        // replies win once that setup is amortized: hypersparse-ish A
        // (small replies) against a denser B (large needed sets, so large
        // request indices). Pure-bandwidth machine isolates moved bytes;
        // everything but the exchange mode is pinned, so the flip can only
        // come from amortization.
        let mut machine = Machine::knl_mini();
        machine.alpha = 0.0;
        let mut cfg = PlannerConfig::new(machine, MemoryBudget::unlimited());
        cfg.kernels = vec![KernelStrategy::New];
        cfg.overlaps = vec![OverlapMode::Blocking];
        cfg.layers = Some(vec![4]);
        cfg.probe = ProbeConfig::exact();
        let a = er_random::<PlusTimesF64>(4096, 4096, 4, 91);
        let b = er_random::<PlusTimesF64>(4096, 4096, 8, 92);

        let winner_at = |iters: usize| -> ExchangeMode {
            let mut c = cfg.clone();
            c.iterations = iters;
            plan(16, &a, &b, &c).unwrap().winner().unwrap().candidate.exchange
        };
        assert_eq!(winner_at(1), ExchangeMode::DenseBcast);
        assert_eq!(winner_at(20), ExchangeMode::SparseFetch);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = er_random::<PlusTimesF64>(10, 12, 2, 1);
        let b = er_random::<PlusTimesF64>(10, 10, 2, 2);
        let cfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::unlimited());
        assert!(plan(4, &a, &b, &cfg).is_err());
    }
}
