//! Overlapped (pipelined nonblocking) mode vs blocking mode.
//!
//! The overlapped pipeline must be a pure *scheduling* change: the product
//! is bit-identical to blocking mode (same merge order, same all-to-all
//! delivery order), only the modeled clocks differ — communication posted
//! a stage early hides behind Local-Multiply and the batch-boundary merge
//! phases, so the critical path shrinks while the hidden time shows up in
//! `StepBreakdown::overlap_total`.

use spgemm_core::{run_spgemm, BackendKind, OverlapMode, RunConfig};
use spgemm_simgrid::Machine;
use spgemm_sparse::gen::er_random;
use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64, Semiring};
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::CscMatrix;

fn run<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    p: usize,
    l: usize,
    nb: usize,
    overlap: OverlapMode,
) -> spgemm_core::RunOutput<S::T> {
    let mut cfg = RunConfig::new(p, l);
    cfg.forced_batches = Some(nb);
    cfg.overlap = overlap;
    run_spgemm::<S>(&cfg, a, b).unwrap()
}

/// The headline property: overlapped mode changes *when* communication is
/// charged, never *what* is computed. Bit-identical output (`==` on the
/// gathered CSC, not just `eq_modulo_order`) across semirings, grids and
/// batch counts.
#[test]
fn overlapped_output_is_bit_identical_to_blocking() {
    let af = er_random::<PlusTimesF64>(48, 48, 5, 210);
    let bf = er_random::<PlusTimesF64>(48, 48, 5, 211);
    let au = er_random::<PlusTimesU64>(48, 48, 5, 212).map(|_| 1u64);
    let bu = er_random::<PlusTimesU64>(48, 48, 5, 213).map(|_| 1u64);
    for (p, l) in [(4usize, 1usize), (8, 2), (16, 4)] {
        for nb in [1usize, 2, 4] {
            let blk = run::<PlusTimesF64>(&af, &bf, p, l, nb, OverlapMode::Blocking);
            let ovl = run::<PlusTimesF64>(&af, &bf, p, l, nb, OverlapMode::Overlapped);
            assert_eq!(
                blk.c.as_ref().unwrap(),
                ovl.c.as_ref().unwrap(),
                "f64 product differs: p={p} l={l} b={nb}"
            );
            let blk = run::<PlusTimesU64>(&au, &bu, p, l, nb, OverlapMode::Blocking);
            let ovl = run::<PlusTimesU64>(&au, &bu, p, l, nb, OverlapMode::Overlapped);
            assert_eq!(
                blk.c.as_ref().unwrap(),
                ovl.c.as_ref().unwrap(),
                "u64 product differs: p={p} l={l} b={nb}"
            );
        }
    }
}

/// Fig. 6-style strong-scaling point with pr > 1 so the per-stage
/// broadcasts exist: pipelining must strictly reduce the modeled
/// critical path and report the hidden communication it bought.
#[test]
fn overlap_reduces_modeled_total_on_fig6_workload() {
    let a = er_random::<PlusTimesF64>(96, 96, 8, 220);
    let b = er_random::<PlusTimesF64>(96, 96, 8, 221);
    let mut cfg = RunConfig::new(16, 4);
    cfg.machine = Machine::knl_mini();
    cfg.forced_batches = Some(4);
    // The claim is about the modeled clock; measured Native compute
    // seconds (the `SPGEMM_BACKEND=native` lane) would make it a race.
    cfg.backend = BackendKind::Simgrid;
    let blk = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
    cfg.overlap = OverlapMode::Overlapped;
    let ovl = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();

    assert_eq!(blk.c, ovl.c);
    assert!(
        ovl.max.overlap_total() > 0.0,
        "pipelined run should hide some communication"
    );
    assert!(
        ovl.max.total() < blk.max.total(),
        "overlap should shrink the critical path: {} vs {}",
        ovl.max.total(),
        blk.max.total()
    );
    // Blocking mode is the paper-faithful baseline: it must never report
    // hidden time.
    assert_eq!(blk.max.overlap_total(), 0.0);
}

/// Forcing more batches than any rank has local B columns leaves some
/// batches completely empty on some (or all) ranks. Both modes must
/// survive that — empty broadcasts, empty multiplies, empty all-to-alls —
/// and still assemble the correct product.
#[test]
fn forced_batches_beyond_local_column_count() {
    // p=16, l=4 ⇒ 2x2x4 grid; B-style local slabs get 16/8 = 2 columns
    // per (col, layer) slot. 12 batches ≫ 2 local columns.
    let a = er_random::<PlusTimesU64>(16, 16, 3, 230).map(|_| 1u64);
    let b = er_random::<PlusTimesU64>(16, 16, 3, 231).map(|_| 1u64);
    let (reference, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
    for overlap in [OverlapMode::Blocking, OverlapMode::Overlapped] {
        let out = run::<PlusTimesU64>(&a, &b, 16, 4, 12, overlap);
        assert_eq!(out.nbatches, 12);
        assert!(
            out.c.as_ref().unwrap().eq_modulo_order(&reference),
            "{overlap:?} with starved batches produced a wrong product"
        );
    }
}

/// The modeled clocks of an overlapped run are a pure function of the
/// inputs: repeated `run_ranks` executions (real threads, real channels)
/// must produce identical per-rank breakdowns, not just identical output.
///
/// This property is specific to the Simgrid backend (measured Native
/// clocks are wall-time and legitimately vary), so the backend is pinned
/// rather than inherited from `SPGEMM_BACKEND`.
#[test]
fn overlapped_clocks_are_deterministic_across_executions() {
    let a = er_random::<PlusTimesF64>(64, 64, 6, 240);
    let b = er_random::<PlusTimesF64>(64, 64, 6, 241);
    let run_pinned = || {
        let mut cfg = RunConfig::new(16, 4);
        cfg.forced_batches = Some(3);
        cfg.overlap = OverlapMode::Overlapped;
        cfg.backend = BackendKind::Simgrid;
        run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap()
    };
    let first = run_pinned();
    for attempt in 0..3 {
        let again = run_pinned();
        assert_eq!(first.c, again.c, "output drifted on attempt {attempt}");
        assert_eq!(
            first.per_rank, again.per_rank,
            "modeled clocks drifted on attempt {attempt}"
        );
    }
}
