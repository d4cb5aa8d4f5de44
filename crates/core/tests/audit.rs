//! Conformance of the schedule's two readers: the event stream
//! [`AuditConfig::extract`] lowers from the op programs must equal what the
//! drivers, walking the same programs, register with the protocol checker —
//! every collective, post, wait, send and receive, with communicator, root,
//! sequence number, peer and tag, rank for rank and in program order. Only
//! the auditor's byte annotations have no counterpart in the op log.
//!
//! The runs cross two iterations under `SparseFetch`, so they also hold the
//! extracted fetch tags to the real ones across the iteration boundary.

use spgemm_core::audit::{AuditConfig, AuditEvent, BatchSpec, WorkloadShape};
use spgemm_core::family15::spmm_15d;
use spgemm_core::schedule::fixed_batches;
use spgemm_core::{
    AlgorithmFamily, BackendKind, CoreError, ExchangeMode, IterSession, MemoryBudget, OverlapMode,
    RunConfig,
};
use spgemm_simgrid::{run_ranks_logged, Grid3D, LoggedAction, LoggedOp, Machine};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::DenseBlock;
use std::sync::Arc;

/// How a conformance row picks its batch count.
#[derive(Debug, Clone, Copy)]
enum Batching {
    /// Forced count: no symbolic sweep.
    Forced(usize),
    /// A session's default: unlimited budget, so `b = 1` without a sweep.
    Default,
    /// Aggregate budget in bytes: the sweep runs and picks `b` from the data.
    Budget(usize),
}

impl Batching {
    /// The row's `forced_batches` and `budget`.
    fn policy(self) -> (Option<usize>, MemoryBudget) {
        match self {
            Batching::Forced(n) => (Some(n), MemoryBudget::unlimited()),
            Batching::Default => (None, MemoryBudget::unlimited()),
            Batching::Budget(bytes) => (None, MemoryBudget::new(bytes)),
        }
    }
}

/// One extracted event as the action the op log records for it.
fn as_logged(e: &AuditEvent) -> (u64, LoggedAction) {
    match *e {
        AuditEvent::Collective {
            comm,
            op: kind,
            root,
            seq,
            ..
        } if !kind.is_post() => (comm, LoggedAction::Enter { kind, root, seq }),
        AuditEvent::Post {
            comm,
            op: kind,
            root,
            seq,
        } if kind.is_post() => (comm, LoggedAction::Enter { kind, root, seq }),
        AuditEvent::Wait { comm, seq } => (comm, LoggedAction::Wait { seq }),
        AuditEvent::Send { comm, to, tag } => (comm, LoggedAction::Send { to, tag }),
        AuditEvent::Recv { comm, from, tag } => (comm, LoggedAction::Recv { from, tag }),
        _ => panic!("{e} confuses a blocking collective with a post"),
    }
}

/// Run the real driver of `family` under the op log: `iters` steps of an
/// [`IterSession`], or `iters` calls of the 1.5D driver `run_spmm` runs on
/// every rank. Returns the batch count the run used and the log.
fn run_real(
    (p, l): (usize, usize),
    exchange: ExchangeMode,
    overlap: OverlapMode,
    batching: Batching,
    iters: usize,
    family: AlgorithmFamily,
) -> (usize, Vec<LoggedOp>) {
    let a = Arc::new(er_random::<PlusTimesF64>(48, 48, 4, 79));
    let b = Arc::new(DenseBlock::from_fn(48, 6, |i, j| ((i + 2 * j) % 5) as f64));
    let (results, log) = run_ranks_logged(p, Machine::knl_mini(), move |rank| {
        let root = rank.rank() == 0;
        if family.is_15d() {
            for _ in 0..iters {
                spmm_15d::<PlusTimesF64>(rank, family, &a, &b, BackendKind::Simgrid, false)?;
            }
            return Ok(vec![1; iters]);
        }
        let grid = Grid3D::new(rank, l);
        let (forced_batches, budget) = batching.policy();
        let cfg = RunConfig {
            exchange,
            overlap,
            forced_batches,
            budget,
            ..RunConfig::new(p, l)
        };
        let global = root.then(|| Arc::clone(&a));
        let mut sess = IterSession::<PlusTimesF64>::new(rank, &grid, global, &cfg, true)?;
        (0..iters)
            .map(|_| Ok(sess.step(rank, &grid, |_, out| Some(out.piece))?.nbatches))
            .collect::<Result<Vec<usize>, CoreError>>()
    });
    let per_rank: Vec<Vec<usize>> = results
        .into_iter()
        .map(|r| r.expect("the real run must succeed"))
        .collect();
    let nb = per_rank[0][0];
    for counts in &per_rank {
        assert!(
            counts.iter().all(|&b| b == nb),
            "batch counts differ: {per_rank:?}"
        );
    }
    (nb, log)
}

#[test]
fn extracted_schedule_matches_the_real_run() {
    use Batching::{Budget, Default, Forced};
    use ExchangeMode::{DenseBcast, SparseFetch};
    use OverlapMode::{Blocking, Overlapped};
    let summa = AlgorithmFamily::Summa3dBatched;
    let mut rows = Vec::new();
    for exchange in ExchangeMode::ALL {
        for overlap in [Blocking, Overlapped] {
            // Forced counts and a session's default on single- and
            // multi-layer grids over two iterations (on one layer no
            // RefreshB moves: B̃ is the assembled iterate); a budget tight
            // enough to force batching (inputs need ~2.7 KB per process
            // here) but feasible.
            for batching in [Forced(2), Default] {
                rows.push(((4, 1), exchange, overlap, batching, 2, summa));
                rows.push(((16, 4), exchange, overlap, batching, 2, summa));
            }
            rows.push(((4, 1), exchange, overlap, Budget(13_000), 1, summa));
        }
    }
    let spmm = |p, family| ((p, 1), DenseBcast, Blocking, Forced(1), 2, family);
    rows.push(spmm(12, AlgorithmFamily::ColA15 { c: 1 }));
    rows.push(spmm(12, AlgorithmFamily::ColA15 { c: 3 }));
    rows.push(spmm(16, AlgorithmFamily::InnerAbc15 { c: 2 }));
    assert!(rows.iter().any(|r| r.1 == SparseFetch && r.2 == Overlapped));

    for ((p, l), exchange, overlap, batching, iters, family) in rows {
        let label =
            format!("p={p} l={l} {exchange:?} {overlap:?} {batching:?} x{iters} {family:?}");
        let (nb, log) = run_real((p, l), exchange, overlap, batching, iters, family);
        // The real batch count is data-dependent under a budget: read it
        // back and size the modeled workload so Alg. 3 resolves to it —
        // `nb·1000` unmerged nonzeros per process against a leftover of
        // 1000, over columns enough that none is too heavy.
        let (forced, budget) = batching.policy();
        let batch = match fixed_batches(forced, true, budget.is_unlimited()) {
            Some(b) => BatchSpec::Forced(b),
            None => {
                assert!(nb > 1, "{label}: the budget must force batching");
                BatchSpec::Budget { target: nb }
            }
        };
        let shape = WorkloadShape {
            name: "conformance",
            n: (4 * p * nb) as u64,
            nnz_a: 0,
            nnz_b: 0,
            unmerged: (p * nb * 1000) as u64,
        };
        let cfg = AuditConfig {
            shape,
            p,
            l,
            batch,
            exchange,
            overlap,
            iterations: iters,
            family,
        };
        let sched = cfg.extract().expect("a configuration that ran is feasible");
        assert_eq!(sched.nbatches, nb, "{label}: resolved batch count");

        for (r, want) in sched.traces.iter().enumerate() {
            let want: Vec<_> = want.iter().map(as_logged).collect();
            let got: Vec<_> = log
                .iter()
                .filter(|o| o.rank == r)
                .map(|o| (o.comm, o.action))
                .collect();
            if want != got {
                let at = want.iter().zip(&got).position(|(a, b)| a != b);
                let at = at.unwrap_or(want.len().min(got.len()));
                panic!(
                    "{label}: rank {r} diverges at event {at}\n  extracted ({} events): {:?}\n  \
                     real      ({} events): {:?}",
                    want.len(),
                    want.get(at),
                    got.len(),
                    got.get(at),
                );
            }
        }
    }
}

/// The full sweep over small world sizes verifies clean in-process (the
/// CI lane runs the bigger release-mode sweep through the CLI).
#[test]
fn small_sweep_is_clean() {
    let report = spgemm_core::audit::sweep(&[4, 16], None);
    assert!(
        report.violations().is_empty(),
        "violations: {:?}",
        report.violations()
    );
    assert!(report.ok_count() > 0);
}

/// Acceptance: an injected schedule bug is caught and named — the report
/// carries the configuration label and the offending event.
#[test]
fn injected_bugs_are_caught_and_named() {
    use spgemm_core::audit::{AuditFault, ConfigOutcome};
    for fault in [AuditFault::SkipWait, AuditFault::WrongFetchTag] {
        let report = spgemm_core::audit::sweep(&[16], Some(fault));
        let violated = report.violations();
        assert!(
            !violated.is_empty(),
            "{fault:?} must be caught somewhere in the sweep"
        );
        for (label, vs) in &violated {
            assert!(!label.is_empty());
            assert!(!vs.is_empty());
        }
        // Configurations where the fault applies must never verify clean
        // AND carry the mutation (inject returning None marks them
        // infeasible instead) — i.e. every applicable config is caught.
        let silently_ok = report
            .results
            .iter()
            .filter(|r| matches!(r.outcome, ConfigOutcome::Ok { .. }))
            .count();
        assert_eq!(
            silently_ok, 0,
            "{fault:?}: {silently_ok} mutated configuration(s) verified clean"
        );
    }
}

/// The byte annotations describe what a run charges: on a `Budget` row the
/// symbolic sweep's stages move patterns — two of the three words a numeric
/// stage or the refresh of `B̃` moves per nonzero — and sizing a fetch reply
/// differently adds or retags no fetch leg.
#[test]
fn symbolic_stage_annotations_are_pattern_sized() {
    use spgemm_core::exchange::{fetch_rep_tag, fetch_req_tag};
    use spgemm_simgrid::OpKind;
    let shape = spgemm_core::audit::workload_shapes()[0];
    let (p, l, pr) = (16, 4, 2);
    let extract = |exchange| {
        let cfg = AuditConfig {
            shape,
            p,
            l,
            batch: BatchSpec::Budget { target: 4 },
            exchange,
            overlap: OverlapMode::Blocking,
            iterations: 1,
            family: AlgorithmFamily::Summa3dBatched,
        };
        cfg.extract().expect("feasible")
    };

    let dense = extract(ExchangeMode::DenseBcast);
    let nb = dense.nbatches;
    assert!(nb > 1);
    for trace in &dense.traces {
        let annotated = |want: OpKind| {
            let of_kind = move |e: &AuditEvent| match *e {
                AuditEvent::Collective { op, bytes, .. } if op == want => Some(bytes),
                _ => None,
            };
            trace.iter().filter_map(of_kind).collect::<Vec<u64>>()
        };
        // Scatter A, scatter B; the sweep's (Ã, B̃) per stage; each batch's.
        let bcasts = annotated(OpKind::Bcast);
        assert_eq!(bcasts.len(), 2 + 2 * pr * (1 + nb));
        let (sweep, numeric) = bcasts[2..].split_at(2 * pr);
        let (a_full, b_full) = (numeric[0], *annotated(OpKind::Alltoallv).last().unwrap());
        assert_eq!(a_full, 24 * shape.nnz_a.div_ceil(p as u64));
        assert_eq!(
            b_full,
            24 * shape.nnz_b.div_ceil(p as u64),
            "RefreshB moves all of B̃"
        );
        for stage in sweep.chunks(2) {
            assert_eq!([3 * stage[0], 3 * stage[1]], [2 * a_full, 2 * b_full]);
        }
        assert!(numeric.chunks(2).all(|stage| stage[0] == a_full));
    }

    // Every round — the sweep's pr, then each batch's — keeps its two legs
    // per peer, tagged with the round's sequence number.
    let sparse = extract(ExchangeMode::SparseFetch);
    assert_eq!(sparse.nbatches, nb);
    for trace in &sparse.traces {
        let tags: Vec<u64> = trace
            .iter()
            .filter_map(|e| match *e {
                AuditEvent::Send { tag, .. } | AuditEvent::Recv { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        let rounds = (pr * (1 + nb)) as u64;
        let want: Vec<u64> = (0..rounds)
            .flat_map(|seq| [fetch_req_tag(seq), fetch_rep_tag(seq)])
            .collect();
        assert_eq!(tags, want, "pr = 2: one peer, so one leg pair per round");
    }
}
