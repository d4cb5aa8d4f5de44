//! Per-layer measurements taken from outside the program.
//!
//! Host time per layer cannot be read inside the rank threads: with 64
//! simulated ranks on 2 cores a kernel timed in place is charged the time
//! its thread spent descheduled (about 2× too much when this was tried).
//! So the kernels are replayed serially on the benchmark's own thread, the
//! rendezvous primitives are timed in micro-runs that do nothing else, and
//! the planner is split by calling its two halves separately.

use crate::host;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::surface::{self, CscMatrix, MicroOp, Simulated};
use std::time::Instant;

/// `core.*` and `simgrid.msgs`/`bytes_per_msg`: simulated, exact.
pub fn fill_core(out: &mut Values, sim: &Simulated) {
    for (i, (slug, comm)) in surface::step_slugs().iter().enumerate() {
        out.set(
            &format!("core.step.{slug}_s"),
            sim.step_s.get(i).copied().unwrap_or(0.0),
        );
        if *comm {
            let bytes = sim.step_bytes.get(i).copied().unwrap_or(0);
            out.set(&format!("core.step.{slug}_bytes"), bytes as f64);
        }
    }
    if sim.modeled_s > 0.0 {
        out.set("core.comm_frac", sim.comm_s / sim.modeled_s);
    }
    out.set("core.overlap_hidden_s", sim.overlap_hidden_s);
    out.set("core.nbatches", sim.nbatches as f64);
    if sim.mean_peak_bytes > 0.0 {
        out.set(
            "core.peak_imbalance",
            sim.peak_bytes as f64 / sim.mean_peak_bytes,
        );
    }
    out.set("simgrid.msgs", sim.msgs as f64);
    if sim.msgs > 0 {
        out.set(
            "simgrid.bytes_per_msg",
            sim.modeled_bytes as f64 / sim.msgs as f64,
        );
    }
    out.set("sparse.flops", sim.flops as f64);
    out.set("sparse.allocs", sim.allocs as f64);
    out.set("sparse.memcpy_bytes", sim.memcpy_bytes as f64);
    out.set("sparse.peak_scratch_bytes", sim.peak_scratch_bytes as f64);
}

/// `sparse.replay_cpu_s`, the two ns-per-unit kernel rates and
/// `core.host_overhead_s` (approximate: wall minus the replayed kernel
/// seconds spread over the cores the ranks can use).
pub fn kernel_replay(
    out: &mut Values,
    rec: &mut Recorder,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    p: usize,
    l: usize,
    wall_s: f64,
) {
    let replay = rec.span("sparse", "kernel replay (serial, b=1)", |rec| {
        surface::replay_kernels(a, b, p, l, |rank, start, end| {
            let name = format!("rank {rank}: local_multiply + merge_layer");
            rec.closed_span("sparse", &name, start, end, 0);
        })
    });
    let replay_s = replay.multiply_s + replay.merge_s;
    out.set("sparse.replay_cpu_s", replay_s);
    out.set(
        "sparse.multiply_ns_per_flop",
        replay.multiply_s * 1e9 / replay.multiply_flops.max(1) as f64,
    );
    out.set(
        "sparse.merge_ns_per_nnz",
        replay.merge_s * 1e9 / replay.merge_nnz_in.max(1) as f64,
    );
    out.set(
        "core.host_overhead_s",
        wall_s - replay_s / host::nproc().min(p) as f64,
    );
}

fn timed_micro(
    rec: &mut Recorder,
    p: usize,
    l: usize,
    op: MicroOp,
    rounds: usize,
    bytes: usize,
    checked: bool,
) -> f64 {
    let t0 = Instant::now();
    rec.span(
        "simgrid",
        &format!("micro-run {op:?} x{rounds} checked={checked}"),
        |_| {
            surface::micro_run(p, l, op, rounds, bytes, checked);
        },
    );
    t0.elapsed().as_secs_f64()
}

/// `simgrid.*` host times: micro-runs of `run_ranks_checked` at the
/// workload's `p` and communicator sizes with its mean payload. Each
/// primitive's cost is the micro-run's time minus a spawn-and-join-only
/// run, per round.
pub fn simgrid_micro(
    out: &mut Values,
    rec: &mut Recorder,
    p: usize,
    l: usize,
    sim: &Simulated,
    smoke: bool,
) {
    let rounds = if smoke { 20 } else { 200 };
    let bytes = (sim.modeled_bytes / sim.msgs.max(1)) as usize;
    let best_of = |rec: &mut Recorder, op, checked| {
        (0..3)
            .map(|_| timed_micro(rec, p, l, op, rounds, bytes, checked))
            .fold(f64::INFINITY, f64::min)
    };
    let spawn_s = best_of(rec, MicroOp::SpawnJoin, false);
    out.set("simgrid.spawn_join_ms", spawn_s * 1e3);
    let per_round_us = |total_s: f64| (total_s - spawn_s).max(0.0) * 1e6 / rounds as f64;
    let bcast_s = best_of(rec, MicroOp::Bcast, false);
    out.set("simgrid.bcast_us", per_round_us(bcast_s));
    out.set(
        "simgrid.alltoallv_us",
        per_round_us(best_of(rec, MicroOp::Alltoallv, false)),
    );
    out.set(
        "simgrid.p2p_us",
        per_round_us(best_of(rec, MicroOp::P2p, false)),
    );
    let checked_s = best_of(rec, MicroOp::Bcast, true);
    out.set("simgrid.check_overhead_frac", checked_s / bcast_s - 1.0);
}

/// `planner.probe_ms` / `predict_ms` / `candidates`: `probe` and
/// `plan_with_probe` timed separately.
pub fn planner_split(
    out: &mut Values,
    rec: &mut Recorder,
    p: usize,
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    budget_bytes: Option<usize>,
) {
    let split = rec.span("planner", "probe + plan_with_probe", |_| {
        surface::plan_split(p, a, b, budget_bytes)
    });
    if let Ok((probe_s, predict_s, plan)) = split {
        out.set("planner.probe_ms", probe_s * 1e3);
        out.set("planner.predict_ms", predict_s * 1e3);
        out.set("planner.candidates", plan.candidates as f64);
    }
}

/// `sparse.mtx_read_mnnz_per_s`: parse the matrix back from Matrix Market
/// text held in memory (no disk in the number).
pub fn mtx_read(out: &mut Values, rec: &mut Recorder, m: &CscMatrix<f64>) {
    let text = surface::mtx_write(m);
    let t0 = Instant::now();
    let back = rec.span("sparse", "sparse::io::read_matrix_market", |_| {
        surface::mtx_read(&text)
    });
    let secs = t0.elapsed().as_secs_f64();
    if back.nnz() == m.nnz() {
        out.set("sparse.mtx_read_mnnz_per_s", m.nnz() as f64 / 1e6 / secs);
    }
}
