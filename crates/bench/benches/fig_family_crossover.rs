//! Family crossover: where 1.5D ColA/InnerABC beat batched SUMMA on
//! sparse-dense SpMM, and where they lose.
//!
//! Sweeps tall-sparse-A × dense-B workloads that vary the knobs the
//! cross-family planner weighs — B width, A weight (shift cost), B
//! storage density, and the memory budget — and for every workload:
//!
//! 1. plans with the full family sweep (`AlgorithmFamily::sweep(p)`),
//! 2. **runs** every feasible per-family best candidate through
//!    `run_spmm`, recording the modeled critical path and communicated
//!    bytes,
//! 3. asserts the planner's pick matches the measured winner — 0% regret
//!    (the pick's measured critical path equals the measured minimum).
//!
//! The four workloads are chosen so each family wins exactly where its
//! mechanism says it should:
//!
//! * `dense-wide`  — fully dense B, unlimited memory: ColA's shift-only
//!   schedule moves nothing but A and wins.
//! * `heavy-a-narrow` — heavy A, narrow B: InnerABC at `c² = p` needs
//!   **zero** shift rounds (each rank starts on its only block) and pays
//!   just a small team reduce-scatter of row slices; shifting heavy A
//!   sinks ColA.
//! * `budget-bound` — wide but 95%-zero B under a tight budget: the 1.5D
//!   stationary dense stripes (which store the zeros) blow the
//!   per-process budget, and batched SUMMA — which sparsifies B and can
//!   batch — is the only feasible family left standing.
//! * `budget-bound-2d` — the same workload with `Summa3dBatched` removed
//!   from the comparison set: Summa2d (the `l = 1` special case) beats
//!   the infeasible 1.5D members, pinning its win. (Against the full
//!   sweep it ties `summa3d l=1` bit-for-bit, so a strict win is only
//!   observable in the restricted set.)
//!
//! CSV: per (workload, family candidate) — predicted seconds, measured
//! comp/comm/total seconds, and measured communicated bytes.

use spgemm_bench::write_csv;
use spgemm_core::planner::{plan, Candidate, PlannerConfig};
use spgemm_core::{
    AlgorithmFamily, ExchangeMode, KernelStrategy, LayerChoice, MemoryBudget, OverlapMode,
    RunConfig,
};
use spgemm_core::harness::run_spmm;
use spgemm_simgrid::Machine;
use spgemm_sparse::gen::er_random;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::{CscMatrix, DenseBlock};

const P: usize = 16;

struct Workload {
    name: &'static str,
    a: CscMatrix<f64>,
    b: DenseBlock<f64>,
    budget: MemoryBudget,
    families: Vec<AlgorithmFamily>,
    /// The family mechanism expected to win (by `name()`).
    expect: &'static str,
}

/// Dense block where roughly `fill_pct`% of entries are nonzero
/// (deterministic pattern; the rest are exact semiring zeros).
fn dense_with_fill(nrows: usize, ncols: usize, fill_pct: usize, seed: usize) -> DenseBlock<f64> {
    DenseBlock::from_fn(nrows, ncols, |i, j| {
        let h = i.wrapping_mul(31).wrapping_add(j.wrapping_mul(17)).wrapping_add(seed);
        if h % 100 < fill_pct {
            ((h % 7) + 1) as f64
        } else {
            0.0
        }
    })
}

fn workloads() -> Vec<Workload> {
    let full = AlgorithmFamily::sweep(P);
    let no_summa3d: Vec<AlgorithmFamily> = full
        .iter()
        .copied()
        .filter(|f| *f != AlgorithmFamily::Summa3dBatched)
        .collect();
    // Tight budget sized so the 1.5D stationary dense stripes (~256 KB+
    // per process at d = 256) cannot fit, while batched SUMMA's
    // sparsified inputs (~30 KB per process) can.
    let tight = MemoryBudget::new(150 * 1024 * P);
    vec![
        Workload {
            name: "dense-wide",
            a: er_random::<PlusTimesF64>(2048, 2048, 4, 41),
            b: dense_with_fill(2048, 64, 100, 1),
            budget: MemoryBudget::unlimited(),
            families: full.clone(),
            expect: "cola",
        },
        Workload {
            name: "heavy-a-narrow",
            a: er_random::<PlusTimesF64>(1024, 1024, 32, 42),
            b: dense_with_fill(1024, 8, 100, 2),
            budget: MemoryBudget::unlimited(),
            families: full.clone(),
            expect: "innerabc",
        },
        Workload {
            name: "budget-bound",
            a: er_random::<PlusTimesF64>(1024, 1024, 6, 43),
            b: dense_with_fill(1024, 256, 5, 3),
            budget: tight,
            families: full,
            expect: "summa3d",
        },
        Workload {
            name: "budget-bound-2d",
            a: er_random::<PlusTimesF64>(1024, 1024, 6, 43),
            b: dense_with_fill(1024, 256, 5, 3),
            budget: tight,
            families: no_summa3d,
            expect: "summa2d",
        },
    ]
}

/// Build the `RunConfig` that realizes one planner candidate.
fn config_for(candidate: &Candidate, budget: MemoryBudget) -> RunConfig {
    let mut cfg = RunConfig::new(P, 1);
    cfg.machine = Machine::knl_mini();
    cfg.budget = budget;
    cfg.algorithm = candidate.family;
    if !candidate.family.is_15d() {
        cfg.layers = LayerChoice::Fixed(candidate.layers);
        cfg.kernels = candidate.kernels;
        cfg.overlap = candidate.overlap;
        cfg.exchange = candidate.exchange;
    }
    cfg
}

fn main() {
    println!(
        "Family crossover: 1.5D ColA/InnerABC vs batched SUMMA on sparse-dense \
         SpMM, p={P}, planner regret must be 0%\n"
    );
    let mut csv = String::from(
        "workload,family,label,pred_s,batches,comp_s,comm_s,total_s,comm_bytes,picked,winner\n",
    );
    let mut wins: Vec<(&'static str, String)> = Vec::new();

    for w in workloads() {
        let bs = w.b.to_csc::<PlusTimesF64>();
        let mut pcfg = PlannerConfig::new(Machine::knl_mini(), w.budget);
        pcfg.families = w.families.clone();
        pcfg.kernels = vec![KernelStrategy::New];
        pcfg.overlaps = vec![OverlapMode::Blocking];
        pcfg.exchanges = vec![ExchangeMode::DenseBcast];
        let rep = plan(P, &w.a, &bs, &pcfg).expect("plannable workload");
        let pick = rep.winner().expect("at least one feasible family").candidate;

        // Per family: the planner's best candidate of that family, run
        // for real. Infeasible families get a CSV row and no run.
        let mut measured: Vec<(Candidate, f64, f64, f64, u64, usize)> = Vec::new();
        let mut seen: Vec<AlgorithmFamily> = Vec::new();
        for cand in &rep.ranked {
            if seen.contains(&cand.candidate.family) {
                continue;
            }
            seen.push(cand.candidate.family);
            if !cand.feasible() {
                csv.push_str(&format!(
                    "{},{},{},inf,0,,,,,0,0\n",
                    w.name,
                    cand.candidate.family.name(),
                    cand.candidate.label().replace(',', ";"),
                ));
                continue;
            }
            let cfg = config_for(&cand.candidate, w.budget);
            let out = run_spmm::<PlusTimesF64>(&cfg, &w.a, &w.b)
                .unwrap_or_else(|e| panic!("{}: {} failed: {e}", w.name, cand.candidate.label()));
            measured.push((
                cand.candidate,
                out.max.comp_total(),
                out.max.comm_total(),
                out.max.total(),
                out.max.bytes_total(),
                cand.batches,
            ));
        }

        let best = measured
            .iter()
            .copied()
            .reduce(|x, y| if y.3 < x.3 { y } else { x })
            .expect("at least one measured family");
        let picked = measured
            .iter()
            .find(|m| m.0.family == pick.family)
            .expect("planner pick was measured");
        let regret = (picked.3 - best.3) / best.3.max(1e-30);

        for (cand, comp, comm, total, bytes, batches) in &measured {
            let pred = rep
                .ranked
                .iter()
                .find(|c| c.candidate == *cand)
                .map_or(f64::INFINITY, |c| c.total_s);
            csv.push_str(&format!(
                "{},{},{},{:.6e},{},{:.6e},{:.6e},{:.6e},{},{},{}\n",
                w.name,
                cand.family.name(),
                cand.label().replace(',', ";"),
                pred,
                batches,
                comp,
                comm,
                total,
                bytes,
                (cand.family == pick.family) as u8,
                (cand.family == best.0.family) as u8,
            ));
        }

        println!(
            "{:<16} pick {:<16} measured winner {:<16} regret {:.1}%",
            w.name,
            pick.family.label(),
            best.0.family.label(),
            regret * 100.0
        );
        // 0% regret: the planner's pick is measured-fastest (exact modeled
        // clock, so equality — not a tolerance band — is the bar).
        assert!(
            regret <= 1e-9,
            "{}: planner picked {} ({:.3e}s) but {} measured {:.3e}s",
            w.name,
            pick.family.label(),
            picked.3,
            best.0.family.label(),
            best.3
        );
        assert_eq!(
            best.0.family.name(),
            w.expect,
            "{}: expected a {} win, measured winner was {}",
            w.name,
            w.expect,
            best.0.family.label()
        );
        wins.push((w.name, best.0.family.label()));
    }

    // Every family mechanism won somewhere.
    for fam in ["summa2d", "summa3d", "cola", "innerabc"] {
        assert!(
            wins.iter().any(|(_, label)| label.starts_with(fam)),
            "family {fam} never won a workload: {wins:?}"
        );
    }
    println!("\nall four families pinned a win; planner regret 0% on every workload");
    write_csv("fig_family_crossover.csv", &csv);
}
