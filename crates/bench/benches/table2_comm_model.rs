//! Table II: communication complexity of BatchedSUMMA3D — measured
//! against the paper's closed-form totals.
//!
//! Validation: the simulator counts actual bytes moved and collective
//! rounds per step; `table2` below evaluates Table II's formulas for the
//! same `(p, l, b)`. Bandwidth-term agreement is exact for A-Bcast/B-Bcast
//! on divisible grids; the AllToAll-Fiber formula is the paper's loose
//! `flops/p` bound, so measured ≤ model there (intra-layer compression, as
//! the paper notes, and the pieces travel coded). More layers leave less
//! to compress inside a layer and more of each product to cross the fiber,
//! so the fiber ratio does not fall as `l` grows.
//!
//! Shape asserted: A-Bcast and B-Bcast bytes equal the model exactly, every
//! step's round count equals the model's, and AllToAll-Fiber stays at or
//! under its bound with a ratio non-decreasing in `l`.

use spgemm_bench::{measure_f64, write_csv};
use spgemm_core::{RunConfig, R_BYTES_PER_NNZ};
use spgemm_simgrid::{stats::total_bytes, Step};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::symbolic_nnz;

fn main() {
    // Uniform ER matrix: the model's per-process averages are tight.
    let n = 1024;
    let a = er_random::<PlusTimesF64>(n, n, 8, 0x7AB1E2);
    let (_, stats) = symbolic_nnz(&a, &a).unwrap();
    println!(
        "Table II validation: ER n={n}, nnz={}, flops={}\n",
        a.nnz(),
        stats.flops
    );
    println!(
        "{:<14} {:>3} {:>3} {:>3} {:>14} {:>14} {:>7} {:>8} {:>8}",
        "step", "p", "l", "b", "measured(B)", "model(B)", "ratio", "rounds", "model"
    );
    let mut csv =
        String::from("step,p,l,b,measured_bytes,model_bytes,measured_rounds,model_rounds\n");
    let mut fiber_ratios = Vec::new();
    for (p, l, b) in [(16usize, 1usize, 1usize), (64, 4, 4), (256, 16, 8)] {
        let mut cfg = RunConfig::new(p, l);
        cfg.forced_batches = Some(b);
        let out = measure_f64(&cfg, &a, &a);
        let [(abcast_model, ra), (bbcast_model, rb), (fiber_model, rf)] =
            table2(a.nnz(), a.nnz(), stats.flops, p, l, b);
        for (step, model_bytes, rounds_model) in [
            (Step::ABcast, abcast_model, ra),
            (Step::BBcast, bbcast_model, rb),
            (Step::AllToAllFiber, fiber_model, rf),
        ] {
            let measured = total_bytes(&out.per_rank, step) as f64;
            let rounds = out.per_rank[0].msgs[step as usize];
            println!(
                "{:<14} {p:>3} {l:>3} {b:>3} {measured:>14.0} {model_bytes:>14.0} {:>7.2} {rounds:>8} {rounds_model:>8}",
                step.label(),
                measured / model_bytes
            );
            csv.push_str(&format!(
                "{},{p},{l},{b},{measured:.0},{model_bytes:.0},{rounds},{rounds_model}\n",
                step.label()
            ));
            let at = format!("{} at (p, l, b) = ({p}, {l}, {b})", step.label());
            assert_eq!(rounds, rounds_model, "{at}: rounds");
            if step == Step::AllToAllFiber {
                assert!(measured <= model_bytes, "{at}: {measured} B over its bound");
                fiber_ratios.push(measured / model_bytes);
            } else {
                assert_eq!(measured, model_bytes, "{at}: bytes");
            }
        }
    }
    write_csv("table2_comm_model.csv", &csv);
    assert!(
        fiber_ratios.windows(2).all(|w| w[0] <= w[1]),
        "AllToAll-Fiber ratio falls as l grows: {fiber_ratios:?}"
    );
    println!("\nShape holds: broadcasts and rounds match the model, fiber {fiber_ratios:.2?}");
}

/// Table II's totals at `(p, l, b)` with `r` bytes per nonzero, as
/// `(bytes over all processes, rounds per process)` for A-Bcast, B-Bcast
/// and AllToAll-Fiber. One A-Broadcast sends `r·nnz(A)/p` bytes to each
/// process and one B-Broadcast `r·nnz(B)/(b·p)`, each `b·√(p/l)` times;
/// the fiber exchange runs `b` rounds under the paper's loose `r·flops`
/// bound. Exact for divisible grids.
fn table2(nnz_a: usize, nnz_b: usize, flops: u64, p: usize, l: usize, b: usize) -> [(f64, u64); 3] {
    let r = R_BYTES_PER_NNZ as f64;
    let bcast_rounds = b as u64 * ((p / l) as f64).sqrt() as u64;
    let abcast_per_proc = r * nnz_a as f64 / p as f64;
    let bbcast_per_proc = r * nnz_b as f64 / (b * p) as f64;
    let total = |per_proc: f64| per_proc * bcast_rounds as f64 * p as f64;
    [
        (total(abcast_per_proc), bcast_rounds),
        (total(bbcast_per_proc), bcast_rounds),
        (r * flops as f64, b as u64),
    ]
}
