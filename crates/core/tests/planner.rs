//! Property and integration tests for the planner subsystem: probe
//! accuracy against exact symbolic accounting, Eq. 2 consistency of the
//! chosen batch count, budget compliance of the winner, and end-to-end
//! `LayerChoice::Auto` runs.

use proptest::prelude::*;
use spgemm_core::planner::{plan, BindingConstraint, PlannerConfig, ProbeConfig};
use spgemm_core::{AlgorithmFamily, BackendKind, MemoryBudget, RunConfig};
use spgemm_core::harness::run_spgemm;
use spgemm_simgrid::Machine;
use spgemm_sparse::gen::{er_random, rmat};
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::{CscMatrix, DenseBlock};

const P: usize = 16;

fn planner_cfg(budget: MemoryBudget) -> PlannerConfig {
    PlannerConfig::new(Machine::knl_mini(), budget)
}

/// The probe's `flops` estimate vs the exact distributed Symbolic3D
/// accounting a real run performs, on ER and R-MAT inputs: equality when
/// the probe sees every column, tolerance when it samples.
#[test]
fn probe_tracks_exact_symbolic3d_on_er_and_rmat() {
    let er_a = er_random::<PlusTimesF64>(256, 256, 6, 91);
    let er_b = er_random::<PlusTimesF64>(256, 256, 6, 92);
    let rm = rmat::<PlusTimesF64>(8, 6, None, false, 93); // 256², skewed
    for (name, a, b) in [
        ("er", &er_a, &er_b),
        ("rmat", &rm, &rm),
    ] {
        let mut cfg = RunConfig::new(P, 4);
        cfg.machine = Machine::knl_mini();
        cfg.discard_output = true;
        let out = run_spgemm::<PlusTimesF64>(&cfg, a, b).unwrap();
        let sym = out.symbolic.expect("unforced run performs Symbolic3D");

        let exact = spgemm_core::planner::probe(a, b, &ProbeConfig::exact()).unwrap();
        assert_eq!(exact.flops, sym.flops, "{name}: exact probe != Symbolic3D flops");

        let sampled_cfg = ProbeConfig {
            sample_fraction: 0.3,
            min_cols: 48,
            max_cols: 4096,
            seed: 11,
        };
        let sampled = spgemm_core::planner::probe(a, b, &sampled_cfg).unwrap();
        assert!(sampled.cols.len() < a.ncols(), "{name}: should subsample");
        let fl = sampled.flops as f64 / sym.flops as f64;
        assert!((0.5..2.0).contains(&fl), "{name}: sampled flops ratio {fl}");
        let nc = sampled.nnz_c as f64 / exact.nnz_c as f64;
        assert!((0.5..2.0).contains(&nc), "{name}: sampled nnz(C) ratio {nc}");
    }
}

/// The predictor's peak-memory estimate (which drives `maxnnzC` batching)
/// stays within a small factor of the measured per-rank peak.
#[test]
fn predicted_peak_tracks_measured_peak() {
    let a = er_random::<PlusTimesF64>(256, 256, 8, 94);
    let b = er_random::<PlusTimesF64>(256, 256, 8, 95);
    let mut pcfg = planner_cfg(MemoryBudget::unlimited());
    pcfg.probe = ProbeConfig::exact();
    pcfg.layers = Some(vec![4]);
    let rep = plan(P, &a, &b, &pcfg).unwrap();
    let pred = rep.winner().unwrap();
    assert_eq!(pred.batches, 1, "unlimited budget needs one batch");

    let mut cfg = RunConfig::new(P, 4);
    cfg.machine = Machine::knl_mini();
    cfg.kernels = pred.candidate.kernels;
    cfg.overlap = pred.candidate.overlap;
    cfg.discard_output = true;
    let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
    let measured = *out.peak_bytes.iter().max().unwrap();
    let ratio = pred.peak_bytes_per_proc as f64 / measured as f64;
    assert!(
        (0.25..4.0).contains(&ratio),
        "predicted peak {} vs measured {} (ratio {ratio})",
        pred.peak_bytes_per_proc,
        measured
    );
}

/// Every feasible candidate's chosen `b` is at least the Eq. 2 analytic
/// lower bound, and the winner's predicted peak respects the budget.
#[test]
fn chosen_batches_respect_eq2_and_budget() {
    let a = er_random::<PlusTimesF64>(192, 192, 10, 96);
    let b = er_random::<PlusTimesF64>(192, 192, 10, 97);
    let inputs = (a.nnz() + b.nnz()) * 24;
    for mult in [3usize, 6, 12] {
        let budget = MemoryBudget::new(inputs * mult);
        let mut pcfg = planner_cfg(budget);
        pcfg.probe = ProbeConfig::exact();
        let rep = plan(P, &a, &b, &pcfg).unwrap();
        for c in rep.ranked.iter().filter(|c| c.feasible()) {
            assert!(
                c.batches >= c.eq2_bound,
                "mult={mult} {}: b={} below Eq.2 bound {}",
                c.candidate.label(),
                c.batches,
                c.eq2_bound
            );
        }
        if let Some(w) = rep.winner() {
            assert!(
                w.peak_bytes_per_proc <= budget.per_process(P),
                "mult={mult}: winner peak {} over per-process budget {}",
                w.peak_bytes_per_proc,
                budget.per_process(P)
            );
        }
    }
}

/// Running the planner's choice end-to-end stays within the budget per
/// Symbolic3D's exact accounting, and the plan is recorded in the output.
#[test]
fn auto_plan_runs_within_budget_end_to_end() {
    let a = er_random::<PlusTimesF64>(192, 192, 8, 98);
    let b = er_random::<PlusTimesF64>(192, 192, 8, 99);
    let inputs = (a.nnz() + b.nnz()) * 24;
    let budget = MemoryBudget::new(inputs * 4);
    let mut cfg = RunConfig::auto(P);
    cfg.machine = Machine::knl_mini();
    cfg.budget = budget;
    cfg.discard_output = true;
    let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
    let plan_report = out.plan.as_ref().expect("auto records its plan");
    let winner = plan_report.winner().expect("feasible under 4x-inputs budget");
    assert_eq!(out.layers, winner.candidate.layers);
    let per_proc = budget.per_process(P);
    for (rank, &peak) in out.peak_bytes.iter().enumerate() {
        assert!(
            peak <= per_proc,
            "rank {rank} peaked at {peak} over {per_proc} (b={})",
            out.nbatches
        );
    }
}

/// An infeasible fixed grid is rejected with an error naming `(p, l)`
/// before any rank spawns.
#[test]
fn degenerate_fixed_grid_rejected() {
    let a = er_random::<PlusTimesF64>(32, 32, 3, 100);
    let cfg = RunConfig::new(P, 3);
    let err = run_spgemm::<PlusTimesF64>(&cfg, &a, &a).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("p=16") && msg.contains("l=3"), "{msg}");
}

/// Cross-family auto-planning, sparse-dense side: multiplying a sparse A
/// against a tall-thin dense B, the stationary 1.5D families beat batched
/// SUMMA (which must broadcast the heavy densified-B operand every stage
/// and run a symbolic pass the 1.5D schedule doesn't need).
#[test]
fn family_sweep_picks_15d_on_sparse_dense() {
    let a = er_random::<PlusTimesF64>(4096, 4096, 4, 201);
    let b = DenseBlock::from_fn(4096, 16, |i, j| ((i * 7 + j) % 5) as f64 + 1.0)
        .to_csc::<PlusTimesF64>();
    let mut pcfg = planner_cfg(MemoryBudget::unlimited());
    pcfg.families = AlgorithmFamily::sweep(P);
    let rep = plan(P, &a, &b, &pcfg).unwrap();
    let w = rep.winner().unwrap();
    assert!(
        w.candidate.family.is_15d(),
        "sparse-dense winner should be 1.5D, got {}\n{}",
        w.candidate.label(),
        rep.to_table()
    );
    // The report can say why SUMMA lost.
    assert!(rep.to_table().contains("winner:"));
}

/// Cross-family auto-planning, sparse-sparse side: on a Fig. 3-style
/// squared ER matrix under a real memory budget, the 1.5D families'
/// dense replicated stripes blow the per-process budget (they cannot
/// batch), so batched 3D SUMMA wins.
#[test]
fn family_sweep_picks_batched_summa_on_constrained_sparse_sparse() {
    let a = er_random::<PlusTimesF64>(512, 512, 8, 202);
    let b = er_random::<PlusTimesF64>(512, 512, 8, 203);
    let inputs = (a.nnz() + b.nnz()) * 24;
    let mut pcfg = planner_cfg(MemoryBudget::new(inputs * 6));
    pcfg.probe = ProbeConfig::exact();
    pcfg.families = AlgorithmFamily::sweep(P);
    let rep = plan(P, &a, &b, &pcfg).unwrap();
    let w = rep.winner().expect("6x-inputs budget should be plannable");
    assert_eq!(
        w.candidate.family,
        AlgorithmFamily::Summa3dBatched,
        "constrained sparse-sparse winner should be batched SUMMA\n{}",
        rep.to_table()
    );
    // Every 1.5D candidate is sunk by replication memory, and the report
    // names the budget in its note.
    for c in rep.ranked.iter().filter(|c| c.candidate.family.is_15d()) {
        assert!(!c.feasible(), "{} should be infeasible", c.candidate.label());
        assert!(c.note.contains("bytes/process"), "{}", c.note);
    }
}

/// An invalid replication factor requested explicitly fails the plan with
/// an error naming `(p, c)`, mirroring the degenerate-grid errors.
#[test]
fn bad_repl_factor_rejected_by_planner() {
    let a = er_random::<PlusTimesF64>(64, 64, 4, 204);
    let mut pcfg = planner_cfg(MemoryBudget::unlimited());
    pcfg.families = vec![AlgorithmFamily::ColA15 { c: 3 }];
    let err = plan(P, &a, &a, &pcfg).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("p=16") && msg.contains("c=3"), "{msg}");
}

fn small_er(n: usize, deg: usize, seed: u64) -> CscMatrix<f64> {
    er_random::<PlusTimesF64>(n, n, deg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary small operands and budgets, every feasible candidate
    /// satisfies `b ≥ Eq. 2` and `peak ≤ budget`, and a feasible winner's
    /// configuration actually runs within budget.
    #[test]
    fn planner_invariants_hold(
        n in 48usize..160,
        deg in 2usize..8,
        seed in 0u64..1000,
        mult in 2usize..16,
    ) {
        let a = small_er(n, deg, seed);
        let b = small_er(n, deg, seed.wrapping_add(7777));
        let inputs = (a.nnz() + b.nnz()) * 24;
        let budget = MemoryBudget::new(inputs * mult);
        let pcfg = planner_cfg(budget);
        let rep = plan(P, &a, &b, &pcfg).unwrap();
        let per_proc = budget.per_process(P);
        for c in rep.ranked.iter().filter(|c| c.feasible()) {
            prop_assert!(c.batches >= 1);
            prop_assert!(c.batches >= c.eq2_bound);
            prop_assert!(c.batches <= b.ncols());
            prop_assert!(c.peak_bytes_per_proc <= per_proc);
            prop_assert!(c.total_s.is_finite() && c.total_s >= 0.0);
            if c.batches == 1 {
                prop_assert_eq!(c.constraint, BindingConstraint::SingleBatch);
            }
        }
    }
}

/// FNV-1a over `u64` words: a dependency-free digest of a count vector.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// On a dense protein-similarity shape, whose stage blocks and whole
/// operand are dense enough for `LocalSymbolic` to count columns by bitset
/// union, a budgeted Symbolic3D and the planner's probes report exactly
/// what the per-flop hash count reported: the outcome, the modeled
/// symbolic seconds (the clock charges the hash count either way) and
/// every per-column count.
#[test]
fn dense_similarity_symbolic_and_probe_are_pinned() {
    use spgemm_simgrid::Step;
    use spgemm_sparse::gen::clustered_similarity;

    let m = clustered_similarity(4, 96, 48, 1, 2021);
    let mut cfg = RunConfig::new(P, 4);
    cfg.discard_output = true;
    cfg.budget = MemoryBudget::new(7 * 24 * m.nnz());
    let out = run_spgemm::<PlusTimesF64>(&cfg, &m, &m).unwrap();
    let sym = out.symbolic.expect("a budgeted run performs Symbolic3D");
    assert_eq!(
        format!("{sym:?}"),
        "SymbolicOutcome { batches: 3, max_unmerged_nnz: 13150, total_unmerged_nnz: 154861, \
         max_nnz_a: 3560, max_nnz_b: 3560, total_nnz_a: 28386, total_nnz_b: 28386, \
         flops: 2103472, eq2_lower_bound: Some(2), max_col_unmerged_nnz: 138, upper_bound: 384 }"
    );
    // The Native backend measures kernel time instead of modeling it.
    if cfg.backend == BackendKind::Simgrid {
        let symbolic_s = out.max.secs_of(Step::SymbolicComp);
        assert_eq!(symbolic_s.to_bits(), 0x3f10_c131_19e0_079f, "{symbolic_s}");
    }
    // (config, sampled columns, flops, nnz_c, digests of the per-column
    // counts and flops, work-unit bits)
    let pinned = [
        (
            ProbeConfig::default(),
            96,
            2_097_484,
            99_772,
            0x333b_98ed_cca7_d374,
            0x8538_40a3_5f1d_493f,
            0x4110_315d_8000_0000,
        ),
        (
            ProbeConfig::exact(),
            384,
            2_103_472,
            98_922,
            0x877d_48be_593a_e25f,
            0x22dd_f94a_b91c_401f,
            0x4130_3ca5_4000_0000,
        ),
    ];
    for (pcfg, cols, flops, nnz_c, col_nnz, col_flops, work_units) in pinned {
        let est = spgemm_core::planner::probe(&m, &m, &pcfg).unwrap();
        let got = (
            est.cols.len(),
            est.flops,
            est.nnz_c,
            fnv1a_words(est.col_nnz.iter().copied()),
            fnv1a_words(est.col_flops.iter().copied()),
            est.work_units.to_bits(),
        );
        assert_eq!(
            got,
            (cols, flops, nnz_c, col_nnz, col_flops, work_units),
            "{pcfg:?}"
        );
    }
}
