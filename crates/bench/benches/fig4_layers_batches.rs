//! Fig. 4 + Table VI: impact of the number of layers `l` and batches `b`
//! on every step of BatchedSUMMA3D.
//!
//! Paper setup: squaring Friendster on 16,384 and 65,536 cores and
//! Isolates-small on 65,536 cores, sweeping l ∈ {1,4,16}, b ∈ {1,…,64}.
//! Here: Friendster-like (R-MAT) and Isolates-like (clustered) matrices on
//! 64 and 256 simulated ranks with the same sweeps. Expected shapes
//! (Table VI): A-Bcast ↑ with b, ↓ with l; B-Bcast ↔ with b, ↓ with l;
//! Local-Multiply ↔ with b, ↓ with l; AllToAll-/Merge-Fiber ↔ with b,
//! ↑ with l.

use spgemm_bench::{measure_f64, workloads, write_csv};
use spgemm_core::planner::{self, PlannerConfig, ProbeConfig};
use spgemm_core::{KernelStrategy, MemoryBudget, OverlapMode, RunConfig};
use spgemm_simgrid::{Machine, Step, StepReport};
use spgemm_sparse::CscMatrix;
use std::time::Instant;

const LAYERS: [usize; 3] = [1, 4, 16];
const BATCHES: [usize; 4] = [1, 4, 16, 64];

fn sweep(label: &str, a: &CscMatrix<f64>, p: usize) -> StepReport {
    let mut report = StepReport::new();
    for &l in &LAYERS {
        for &b in &BATCHES {
            let mut cfg = RunConfig::new(p, l);
            cfg.machine = Machine::knl_mini();
            cfg.forced_batches = Some(b);
            let out = measure_f64(&cfg, a, a);
            report.push(format!("{label} p={p} l={l} b={b}"), out.max);
        }
    }
    report
}

fn trend(x: f64, y: f64) -> &'static str {
    if y > 1.3 * x {
        "up"
    } else if y < x / 1.3 {
        "down"
    } else {
        "flat"
    }
}

/// Table VI from the sweep: direction of each step as b grows (fixed l)
/// and as l grows (fixed b).
fn table6(report: &StepReport) {
    let steps = [
        Step::ABcast,
        Step::BBcast,
        Step::LocalMultiply,
        Step::MergeLayer,
        Step::MergeFiber,
        Step::AllToAllFiber,
    ];
    let find = |l: usize, b: usize| {
        report
            .rows()
            .iter()
            .find(|(lbl, _)| lbl.contains(&format!("l={l} b={b}")))
            .map(|(_, bd)| *bd)
            .expect("sweep row")
    };
    println!(
        "\nTable VI (measured trends; paper: A-Bcast up with b, broadcasts down with l, fiber steps up with l):"
    );
    println!("{:<22} {:>10} {:>10}", "step", "b:1->64", "l:1->16");
    for s in steps {
        let b_dir = trend(find(1, 1).secs_of(s), find(1, 64).secs_of(s));
        let l_dir = trend(find(1, 4).secs_of(s), find(16, 4).secs_of(s));
        println!("{:<22} {:>10} {:>10}", s.label(), b_dir, l_dir);
    }
}

/// Planner regret vs the exhaustive sweep: how much modeled makespan the
/// planner's `(l, b)` choice gives up against the sweep optimum, and how
/// much faster planning is than simulating the whole grid.
///
/// One CSV row per workload: `chosen` is the planner's pick over the same
/// `(l, b)` grid the sweep explored (blocking, new kernels, unlimited
/// budget — so the planner derives `b = 1`, which the sweep grid
/// contains); `regret` compares the *measured* sweep totals of the chosen
/// and best rows, i.e. the cost of the decision by the sweep's own metric.
fn planner_regret(
    label: &str,
    a: &CscMatrix<f64>,
    p: usize,
    sweep_report: &StepReport,
    sweep_secs: f64,
) -> String {
    let mut pcfg = PlannerConfig::new(Machine::knl_mini(), MemoryBudget::unlimited());
    pcfg.layers = Some(LAYERS.to_vec());
    pcfg.kernels = vec![KernelStrategy::New];
    pcfg.overlaps = vec![OverlapMode::Blocking];
    pcfg.include_symbolic = false; // the sweep forces b, skipping Symbolic3D

    let t0 = Instant::now();
    let report = planner::plan(p, a, a, &pcfg).expect("planner failed");
    let plan_secs = t0.elapsed().as_secs_f64();
    let winner = report.winner().expect("unlimited budget is feasible");
    let (chosen_l, chosen_b) = (winner.candidate.layers, winner.batches);

    let measured = |l: usize, b: usize| {
        sweep_report
            .rows()
            .iter()
            .find(|(lbl, _)| lbl.contains(&format!("l={l} b={b}")))
            .map(|(_, bd)| bd.total())
            .expect("sweep row")
    };
    let chosen_total = measured(chosen_l, chosen_b);
    let (mut best_l, mut best_b, mut best_total) = (LAYERS[0], BATCHES[0], f64::INFINITY);
    for &l in &LAYERS {
        for &b in &BATCHES {
            let t = measured(l, b);
            if t < best_total {
                (best_l, best_b, best_total) = (l, b, t);
            }
        }
    }
    let regret_pct = 100.0 * (chosen_total / best_total - 1.0);
    let speedup = sweep_secs / plan_secs.max(1e-12);

    // Probe cost vs a full (every-column) symbolic pass.
    let t0 = Instant::now();
    let _ = planner::probe(a, a, &ProbeConfig::default()).expect("probe failed");
    let probe_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let _ = planner::probe(a, a, &ProbeConfig::exact()).expect("probe failed");
    let full_secs = t0.elapsed().as_secs_f64();

    println!(
        "\n=== Planner regret: {label} p={p} ===\n\
         chosen (l={chosen_l}, b={chosen_b}) measured {chosen_total:.4e}s; \
         sweep best (l={best_l}, b={best_b}) {best_total:.4e}s; regret {regret_pct:.2}%\n\
         plan {:.1}ms vs sweep {:.1}ms: {speedup:.0}x faster; \
         sampled probe {:.2}ms vs full symbolic {:.2}ms ({:.1}x)",
        plan_secs * 1e3,
        sweep_secs * 1e3,
        probe_secs * 1e3,
        full_secs * 1e3,
        full_secs / probe_secs.max(1e-12),
    );
    format!(
        "{label},{p},{:.3},{:.3},{speedup:.1},{chosen_l},{chosen_b},{best_l},{best_b},\
         {chosen_total:.6e},{best_total:.6e},{regret_pct:.3},{:.3},{:.3}\n",
        plan_secs * 1e3,
        sweep_secs * 1e3,
        probe_secs * 1e3,
        full_secs * 1e3,
    )
}

fn main() {
    let friendster = workloads::friendster_like(12);
    let isolates = workloads::isolates_like(16, 400);
    println!(
        "Friendster-like: n={} nnz={}; Isolates-like: n={} nnz={}",
        friendster.nrows(),
        friendster.nnz(),
        isolates.nrows(),
        isolates.nnz()
    );

    let mut all = StepReport::new();
    let mut regret_csv = String::from(
        "workload,p,plan_ms,sweep_ms,speedup,chosen_l,chosen_b,sweep_best_l,sweep_best_b,\
         chosen_total_s,sweep_best_total_s,regret_pct,probe_ms,full_symbolic_ms\n",
    );
    for (label, a, p) in [
        ("friendster", &friendster, 64usize),
        ("friendster", &friendster, 256),
        ("isolates", &isolates, 256),
    ] {
        let t0 = Instant::now();
        let rep = sweep(label, a, p);
        let sweep_secs = t0.elapsed().as_secs_f64();
        println!("\n=== Fig. 4: squaring {label} on p={p} ===");
        println!("{}", rep.to_table());
        if label == "isolates" {
            table6(&rep);
        }
        regret_csv.push_str(&planner_regret(label, a, p, &rep, sweep_secs));
        for (lbl, bd) in rep.rows() {
            all.push(lbl.clone(), *bd);
        }
    }

    write_csv("fig4_layers_batches.csv", &all.to_csv());
    write_csv("fig4_planner_regret.csv", &regret_csv);
}
