//! Table II: communication complexity of BatchedSUMMA3D — measured
//! against the paper's closed-form α–β totals, plus an extreme-scale
//! projection.
//!
//! Validation: the simulator counts actual bytes moved and collective
//! rounds per step; the analytic model (`spgemm_core::model`) evaluates
//! Table II's formulas for the same `(p, l, b)`. Bandwidth-term
//! agreement is exact for A-Bcast/B-Bcast on divisible grids; the
//! AllToAll-Fiber formula is the paper's loose `flops/p` bound, so
//! measured ≤ model there (intra-layer compression, as the paper notes,
//! and the pieces travel coded). More layers leave less to compress inside
//! a layer and more of each product to cross the fiber, so the fiber ratio
//! does not fall as `l` grows.
//!
//! Shape asserted: A-Bcast and B-Bcast bytes equal the model exactly, every
//! step's round count equals the model's, and AllToAll-Fiber stays at or
//! under its bound with a ratio non-decreasing in `l`.

use spgemm_bench::{measure_f64, write_csv};
use spgemm_core::model::ProblemModel;
use spgemm_core::RunConfig;
use spgemm_simgrid::{stats::total_bytes, Machine, Step};
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
        let pm = ProblemModel {
            nnz_a: a.nnz() as u64,
            nnz_b: a.nnz() as u64,
            flops: stats.flops,
            p,
            l,
            b,
            r: 24,
        };
        let (ra, rb, rf) = pm.rounds();
        // Model totals: bytes received per process × rounds × p.
        let abcast_model = pm.abcast_bytes_per_proc() * ra as f64 * p as f64;
        let bbcast_model = pm.bbcast_bytes_per_proc() * rb as f64 * p as f64;
        let fiber_model = 24.0 * stats.flops as f64; // β-term bound: r·flops total
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

    // Extreme-scale projection: the paper's regime, straight from the
    // closed forms (simulating 16K ranks is pointless when the formulas
    // are validated above).
    println!("\nExtreme-scale projection (Metaclust50-like: nnz=37e9, flops=92e12, r=24):");
    let machine = Machine::knl();
    for (p, l, b) in [(16384usize, 1usize, 32usize), (16384, 16, 64), (16384, 16, 8)] {
        let pm = ProblemModel {
            nnz_a: 37_000_000_000,
            nnz_b: 37_000_000_000,
            flops: 92_000_000_000_000,
            p,
            l,
            b,
            r: 24,
        };
        println!("\n(p={p}, l={l}, b={b}):");
        print!("{}", pm.table2_rows(&machine));
    }
}
