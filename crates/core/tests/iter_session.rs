//! Property tests for the cross-iteration operand cache: an
//! [`IterSession`] run with fetch caching enabled must produce
//! **bit-identical** iterates to the same session run with caching
//! disabled — for every semiring, grid shape, exchange mode, and
//! adversarial pruning pattern (prune nothing / prune everything /
//! alternate columns). The cache is a pure communication optimization;
//! any numeric difference, however small, is a bug.
//!
//! Run with `SPGEMM_CHECK=1` the same suite doubles as a collective
//! protocol check: cache hits replace fetch payloads but must keep the
//! send/recv pairing of every round intact.

use proptest::prelude::*;
use spgemm_core::{
    run_on_grid, CoreError, ExchangeMode, IterSession, RunConfig, SessionIterStats,
};
use spgemm_simgrid::{run_ranks, CheckMode, Grid3D, Machine};
use spgemm_sparse::gen::{clustered_similarity, er_random, RandValue};
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64, Semiring};
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::{CscMatrix, Triples};
use std::fmt::Debug;
use std::sync::Arc;

/// Valid `(p, l)` grids the suite sweeps.
const GRIDS: [(usize, usize); 4] = [(1, 1), (4, 1), (4, 4), (16, 4)];

/// Adversarial pruning patterns applied between iterations.
#[derive(Clone, Copy, Debug)]
enum Prune {
    /// Keep every entry — the iterate only ever grows denser.
    Nothing,
    /// Drop every entry — the iterate collapses to empty after step 1 and
    /// every later fetch round takes the zero-row path.
    Everything,
    /// Drop all entries in odd global columns — half the columns are
    /// invalidated every iteration, the other half can cache.
    OddCols,
}

const PRUNES: [Prune; 3] = [Prune::Nothing, Prune::Everything, Prune::OddCols];

fn apply_prune<T: Copy>(m: &mut CscMatrix<T>, global_cols: &[u32], prune: Prune) {
    match prune {
        Prune::Nothing => {}
        Prune::Everything => m.retain(|_, _, _| false),
        Prune::OddCols => {
            let cols = global_cols.to_vec();
            m.retain(|_, j, _| cols[j].is_multiple_of(2));
        }
    }
}

/// Run `iters` session steps, gathering the iterate to root after each.
/// Returns the per-iteration gathered iterates and per-rank stats.
fn run_session_iters<S: Semiring>(
    global: &CscMatrix<S::T>,
    p: usize,
    l: usize,
    exchange: ExchangeMode,
    cache: bool,
    iters: usize,
    prune: Prune,
) -> (Vec<CscMatrix<S::T>>, Vec<Vec<SessionIterStats>>) {
    let g = Arc::new(global.clone());
    let results = run_ranks(p, Machine::knl_mini(), move |rank| {
        let grid = Grid3D::new(rank, l);
        let cfg = RunConfig {
            exchange,
            ..RunConfig::new(p, l)
        };
        let mut sess = IterSession::<S>::new(
            rank,
            &grid,
            (rank.rank() == 0).then(|| Arc::clone(&g)),
            &cfg,
            cache,
        )?;
        let mut gathered = Vec::with_capacity(iters);
        let mut stats = Vec::with_capacity(iters);
        for _ in 0..iters {
            let st = sess.step(rank, &grid, |_, mut out| {
                apply_prune(&mut out.piece.local, &out.piece.global_cols, prune);
                Some(out.piece)
            })?;
            stats.push(st);
            gathered.push(sess.gather(rank, &grid));
        }
        Ok::<_, CoreError>((gathered, stats))
    });
    let mut root_gathers = None;
    let mut all_stats = Vec::with_capacity(p);
    for (i, r) in results.into_iter().enumerate() {
        let (g, st) = r.expect("session run must succeed");
        if i == 0 {
            root_gathers = Some(g);
        }
        all_stats.push(st);
    }
    let iterates: Vec<CscMatrix<S::T>> = root_gathers
        .expect("rank 0 ran")
        .into_iter()
        .map(|o| o.expect("root gathers the iterate"))
        .collect();
    (iterates, all_stats)
}

/// Structural + value-bit equality, column by column — no reordering
/// slack, no tolerance, and a zero's sign counts.
fn bit_identical<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>) -> bool {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return false;
    }
    (0..a.ncols()).all(|j| {
        let ((rows_a, vals_a), (rows_b, vals_b)) = (a.col(j), b.col(j));
        rows_a == rows_b && vals_a.iter().zip(vals_b).all(|(&x, &y)| S::identical(x, y))
    })
}

#[allow(clippy::too_many_arguments)]
fn check_semiring<S: Semiring>(
    n: usize,
    deg: usize,
    seed: u64,
    p: usize,
    l: usize,
    exchange: ExchangeMode,
    iters: usize,
    prune: Prune,
) where
    S::T: RandValue + PartialEq + Debug,
{
    let a = er_random::<S>(n, n, deg, seed);
    let (cached, _) = run_session_iters::<S>(&a, p, l, exchange, true, iters, prune);
    let (uncached, _) = run_session_iters::<S>(&a, p, l, exchange, false, iters, prune);
    assert_eq!(cached.len(), uncached.len());
    for (t, (c, u)) in cached.iter().zip(&uncached).enumerate() {
        assert!(
            bit_identical::<S>(c, u),
            "iteration {} diverged: p={} l={} {:?} {:?} n={} deg={} seed={}",
            t + 1,
            p,
            l,
            exchange,
            prune,
            n,
            deg,
            seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Iterations ≥ 2 of a cached session — the ones that can be answered
    /// from memoized fetch state — are bit-identical to an uncached run,
    /// across semirings, grids, exchange modes, and pruning patterns.
    #[test]
    fn cached_iterations_match_uncached_bit_for_bit(
        gi in 0usize..GRIDS.len(),
        n in 8usize..40,
        deg in 1usize..4,
        seed in 0u64..1_000,
        iters in 2usize..4,
        pi in 0usize..PRUNES.len(),
        ex in 0usize..2,
        sem in 0usize..3,
    ) {
        let (p, l) = GRIDS[gi];
        let exchange = if ex == 0 { ExchangeMode::DenseBcast } else { ExchangeMode::SparseFetch };
        let prune = PRUNES[pi];
        match sem {
            0 => check_semiring::<PlusTimesF64>(n, deg, seed, p, l, exchange, iters, prune),
            1 => check_semiring::<PlusTimesU64>(n, deg, seed, p, l, exchange, iters, prune),
            _ => check_semiring::<MinPlusF64>(n, deg, seed, p, l, exchange, iters, prune),
        }
    }
}

/// The bit-identity property must not be vacuous: on an idempotent
/// iterate (`M² = M` exactly — every column projects onto row 0) the
/// cached run has to *actually hit* from iteration 2 on, ship zero
/// re-fetches, and mark zero columns dirty, while still gathering the
/// fixed point bit-for-bit every iteration.
#[test]
fn cache_hits_on_idempotent_projection_without_changing_the_iterate() {
    let n = 16;
    let mut t = Triples::with_capacity(n, n, n);
    for j in 0..n as u32 {
        t.push(0, j, 1.0);
    }
    let m = t.to_csc();
    let (iterates, stats) =
        run_session_iters::<PlusTimesF64>(&m, 4, 1, ExchangeMode::SparseFetch, true, 3, Prune::Nothing);
    for (t, it) in iterates.iter().enumerate() {
        assert!(bit_identical::<PlusTimesF64>(it, &m), "iteration {} left the fixed point", t + 1);
    }
    let per_iter =
        |t: usize| stats.iter().map(|s| s[t].cache).fold((0u64, 0u64), |(h, mi), c| (h + c.hits, mi + c.misses));
    let (h0, m0) = per_iter(0);
    assert_eq!(h0, 0, "cold iteration cannot hit");
    assert!(m0 > 0, "cold iteration must fetch");
    for t in 1..3 {
        let (h, mi) = per_iter(t);
        assert!(h > 0, "warm iteration {} must hit the cache", t + 1);
        assert_eq!(mi, 0, "warm iteration {} must not re-fetch", t + 1);
        for s in &stats {
            assert_eq!(s[t].dirty_cols, 0, "fixed point marked columns dirty");
        }
    }
}

/// Every forced batch count squares the iterate in place: the split cuts
/// batches inside each layer's column sub-slice, so every kept piece lands
/// on its A-style owner whether or not `b·l` divides the local column
/// count. The 96-column iterate on a `2 × 2` layer grid gives each rank 48
/// local columns to split, cut into `l` sub-slices of `48 / l`; `b` runs
/// past the sub-slice width, so some batches carry empty pieces.
#[test]
fn every_forced_batch_count_squares_the_iterate() {
    let m = clustered_similarity(4, 24, 6, 1, 2021);
    assert_eq!((m.nrows(), m.ncols()), (96, 96));
    let (m2, _) = spgemm_spa::<PlusTimesF64>(&m, &m).unwrap();
    let g = Arc::new(m);
    for (p, l) in [(16usize, 4usize), (64, 16), (4, 1)] {
        for b in 1..=48usize {
            let cfg = RunConfig {
                forced_batches: Some(b),
                ..RunConfig::new(p, l)
            };
            let world = run_on_grid(&cfg, |rank, grid| {
                let root = (rank.rank() == 0).then(|| Arc::clone(&g));
                let mut sess = IterSession::<PlusTimesF64>::new(rank, grid, root, &cfg, false)?;
                let stats = sess.step(rank, grid, |_, out| Some(out.piece))?;
                assert_eq!(stats.nbatches, b);
                Ok(sess.gather(rank, grid))
            })
            .unwrap_or_else(|e| panic!("b={b} at p={p} l={l}: {e}"));
            let got = world.ranks.into_iter().next().flatten().expect("root gathers");
            assert!(got.approx_eq(&m2, 1e-12), "b={b} at p={p} l={l}: wrong square");
        }
    }
}

/// A rank-local error ends the run with a report naming that rank, under
/// both check modes, instead of stalling its peers: one rank's pruning
/// callback hands back a piece with a column outside its sub-slice, so
/// `assemble_pieces` errs on that rank alone and it leaves the run while
/// the others wait for it at the next collective. Without checking, a
/// waiter names the rank that exited before joining; with checking, the
/// stall report lists it among the missing members. Each run is watched
/// from another thread, so a hang fails the test instead of blocking it.
#[test]
fn a_rank_local_session_error_names_the_rank() {
    const BAD: usize = 5;
    let m = Arc::new(clustered_similarity(4, 24, 6, 1, 2021));
    for check in [CheckMode::Off, CheckMode::Check] {
        let (tx, rx) = std::sync::mpsc::channel();
        let m = Arc::clone(&m);
        std::thread::spawn(move || {
            let cfg = RunConfig {
                check,
                ..RunConfig::new(16, 4)
            };
            let run = std::panic::catch_unwind(|| {
                run_on_grid(&cfg, |rank, grid| {
                    let root = (rank.rank() == 0).then(|| Arc::clone(&m));
                    let mut sess = IterSession::<PlusTimesF64>::new(rank, grid, root, &cfg, false)?;
                    sess.step(rank, grid, |rank, mut out| {
                        if rank.rank() == BAD {
                            out.piece.global_cols[0] = u32::MAX;
                        }
                        Some(out.piece)
                    })?;
                    Ok(sess.gather(rank, grid))
                })
            });
            let msg = match run {
                Ok(Ok(_)) => "the run succeeded".to_string(),
                Ok(Err(e)) => e.to_string(),
                Err(p) => p
                    .downcast::<String>()
                    .map_or_else(|_| "<non-string panic>".to_string(), |s| *s),
            };
            let _ = tx.send(msg);
        });
        let msg = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{check:?}: the run did not end within 10 s"));
        match check {
            CheckMode::Off => {
                assert!(msg.contains(&format!("rank {BAD} exited before joining")), "{msg}");
            }
            CheckMode::Check => {
                assert!(msg.contains("protocol violation [Stall]"), "{msg}");
                let named = msg.split("missing members [").skip(1).any(|list| {
                    let list = list.split(']').next().unwrap_or("");
                    list.split(", ").any(|r| r == BAD.to_string())
                });
                assert!(named, "{check:?}: no missing-member list names rank {BAD}: {msg}");
            }
        }
    }
}
