//! Native backend conformance: real threads, same bits.
//!
//! The backend contract is that switching `Simgrid` →
//! `Native { threads }` changes *execution* (kernels run multithreaded,
//! compute steps are charged measured wall-clock seconds) but never the
//! *result*: the gathered product is bit-identical (`==` on the CSC, not
//! just `eq_modulo_order`), communication is still modeled so the recorded
//! collective bytes/messages match exactly, and the exact-integer kernel
//! meters (flops, nnz produced) agree. The calibrator then fits a machine
//! profile from a Native run's measured breakdowns.

use spgemm_core::planner::{calibrate, CalibrationInput};
use spgemm_core::{
    run_spgemm, run_spgemm_aat, BackendKind, KernelStrategy, OverlapMode, RunConfig,
};
use spgemm_simgrid::{CheckMode, Step};
use spgemm_sparse::gen::{er_random, rmat};
use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64, Semiring};
use spgemm_sparse::CscMatrix;

fn run<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    p: usize,
    l: usize,
    backend: BackendKind,
    kernels: KernelStrategy,
) -> spgemm_core::RunOutput<S::T> {
    let mut cfg = RunConfig::new(p, l);
    cfg.backend = backend;
    cfg.kernels = kernels;
    cfg.forced_batches = Some(2);
    cfg.check = CheckMode::Check;
    run_spgemm::<S>(&cfg, a, b).unwrap()
}

/// Headline acceptance: Native at 8 threads is bit-identical to Simgrid
/// across grids, kernel generations, and semirings.
#[test]
fn native_eight_threads_bit_identical_to_simgrid() {
    let af = er_random::<PlusTimesF64>(64, 64, 5, 410);
    let bf = er_random::<PlusTimesF64>(64, 64, 5, 411);
    let au = er_random::<PlusTimesU64>(64, 64, 5, 412);
    let bu = er_random::<PlusTimesU64>(64, 64, 5, 413);
    for (p, l) in [(4usize, 1usize), (16, 4)] {
        for kernels in [KernelStrategy::New, KernelStrategy::Previous] {
            let native = BackendKind::Native { threads: 8 };
            let sim = run::<PlusTimesF64>(&af, &bf, p, l, BackendKind::Simgrid, kernels);
            let nat = run::<PlusTimesF64>(&af, &bf, p, l, native, kernels);
            assert_eq!(
                sim.c.as_ref().unwrap(),
                nat.c.as_ref().unwrap(),
                "f64 product differs: p={p} l={l} {kernels:?}"
            );
            let sim = run::<PlusTimesU64>(&au, &bu, p, l, BackendKind::Simgrid, kernels);
            let nat = run::<PlusTimesU64>(&au, &bu, p, l, native, kernels);
            assert_eq!(
                sim.c.as_ref().unwrap(),
                nat.c.as_ref().unwrap(),
                "u64 product differs: p={p} l={l} {kernels:?}"
            );
            // Exact-integer kernel meters agree; communication is modeled
            // identically in both backends.
            assert_eq!(sim.kernel_stats.flops, nat.kernel_stats.flops);
            assert_eq!(sim.kernel_stats.nnz_out, nat.kernel_stats.nnz_out);
            for step in [Step::ABcast, Step::BBcast, Step::AllToAllFiber] {
                assert_eq!(sim.max.bytes_of(step), nat.max.bytes_of(step));
            }
        }
    }
}

/// Every thread count (including 1 and more-threads-than-columns)
/// reproduces the Simgrid bits on A·Aᵀ.
#[test]
fn native_thread_sweep_matches() {
    let a = rmat::<PlusTimesF64>(6, 4, None, false, 414); // 64², skewed
    let mut cfg = RunConfig::new(16, 4);
    cfg.overlap = OverlapMode::Overlapped;
    cfg.check = CheckMode::Check;
    cfg.backend = BackendKind::Simgrid;
    let sim = run_spgemm_aat::<PlusTimesF64>(&cfg, &a).unwrap();
    for threads in [1usize, 2, 3, 8, 128] {
        cfg.backend = BackendKind::Native { threads };
        let nat = run_spgemm_aat::<PlusTimesF64>(&cfg, &a).unwrap();
        assert_eq!(
            sim.c.as_ref().unwrap(),
            nat.c.as_ref().unwrap(),
            "A·Aᵀ differs at {threads} threads"
        );
    }
}

/// One arena per rank — `Simgrid`, or `Native` at one thread — runs every
/// kernel as a single range: no balance is recorded, and the exact-integer
/// kernel meters agree between the two clocks.
#[test]
fn one_thread_backends_record_no_balance_and_equal_meters() {
    let a = er_random::<PlusTimesF64>(96, 96, 6, 417);
    let sim = run::<PlusTimesF64>(&a, &a, 16, 4, BackendKind::Simgrid, KernelStrategy::New);
    let one = BackendKind::Native { threads: 1 };
    let nat = run::<PlusTimesF64>(&a, &a, 16, 4, one, KernelStrategy::New);
    for out in [&sim, &nat] {
        assert_eq!(out.load_balance, Default::default());
    }
    assert_eq!(sim.kernel_stats.flops, nat.kernel_stats.flops);
    assert_eq!(sim.kernel_stats.nnz_out, nat.kernel_stats.nnz_out);
}

/// Multithreaded Native runs record per-thread load balance (imbalance
/// ≥ 1.0 once parallel ranges execute); Simgrid runs record nothing.
#[test]
fn native_records_load_balance() {
    let a = er_random::<PlusTimesF64>(96, 96, 6, 415);
    let sim = run::<PlusTimesF64>(&a, &a, 4, 1, BackendKind::Simgrid, KernelStrategy::New);
    assert_eq!(sim.load_balance.imbalance(), 0.0);
    assert_eq!(sim.load_balance.invocations, 0);
    let nat = run::<PlusTimesF64>(
        &a,
        &a,
        4,
        1,
        BackendKind::Native { threads: 4 },
        KernelStrategy::New,
    );
    assert!(nat.load_balance.invocations > 0, "no parallel invocations recorded");
    assert!(
        nat.load_balance.imbalance() >= 1.0,
        "imbalance {} below 1.0",
        nat.load_balance.imbalance()
    );
}

/// Native runs advance the clock by measured seconds: compute time is
/// positive and the breakdown feeds the calibrator, whose fitted profile
/// reproduces the measured compute time under the run's thread count.
#[test]
fn calibrator_fits_profile_from_native_run() {
    let a = er_random::<PlusTimesF64>(96, 96, 8, 416);
    let threads = 4usize;
    let out = run::<PlusTimesF64>(
        &a,
        &a,
        4,
        1,
        BackendKind::Native { threads },
        KernelStrategy::New,
    );
    let comp: f64 = out.per_rank.iter().map(|b| b.comp_total()).sum::<f64>();
    assert!(comp > 0.0, "measured compute seconds must be positive");
    let base = spgemm_simgrid::Machine::knl();
    let profile = calibrate(
        &base,
        &CalibrationInput {
            p: 4,
            layers: 1,
            per_rank: &out.per_rank,
            total_work_units: Some(out.kernel_stats.work_units),
            threads: Some(threads),
        },
    );
    assert_eq!(profile.threads_per_proc, threads);
    assert_eq!(profile.thread_efficiency, 1.0);
    assert!(profile.secs_per_work_unit > 0.0 && profile.secs_per_work_unit.is_finite());
    // The fitted machine predicts the mean measured compute time back.
    let m = profile.to_machine();
    let mean_comp = comp / 4.0;
    let per_proc_work = out.kernel_stats.work_units / 4.0;
    let predicted = m.compute_secs(per_proc_work);
    assert!(
        (predicted / mean_comp - 1.0).abs() < 1e-9,
        "round-trip mismatch: predicted {predicted}, measured {mean_comp}"
    );
}
