//! SparseFetch vs DenseBcast: the exchange mode is a pure *transport*
//! change.
//!
//! The sparsity-aware fetch pads the received A operand so every column
//! the kernel reads (A columns at the received B's occupied rows) agrees
//! with what the broadcast would have delivered — so the product is
//! bit-identical (`==` on the gathered CSC, not just `eq_modulo_order`)
//! across semirings, grids, batch counts, and overlap modes; only the
//! modeled clocks and recorded step bytes differ. The protocol checker
//! must stay silent in both modes.

use spgemm_core::{run_spgemm, ExchangeMode, OverlapMode, RunConfig};
use spgemm_simgrid::{CheckMode, Step};
use spgemm_sparse::gen::{er_random, rmat};
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
    exchange: ExchangeMode,
) -> spgemm_core::RunOutput<S::T> {
    let mut cfg = RunConfig::new(p, l);
    cfg.forced_batches = Some(nb);
    cfg.overlap = overlap;
    cfg.exchange = exchange;
    cfg.check = CheckMode::Check; // zero tolerated violations, both modes
    run_spgemm::<S>(&cfg, a, b).unwrap()
}

/// Headline property: SparseFetch output is bit-identical to DenseBcast
/// across semirings, grids, batch counts, and both overlap modes.
#[test]
fn sparse_fetch_is_bit_identical_to_dense_bcast() {
    let af = er_random::<PlusTimesF64>(48, 48, 5, 310);
    let bf = er_random::<PlusTimesF64>(48, 48, 5, 311);
    let au = er_random::<PlusTimesU64>(48, 48, 5, 312).map(|_| 1u64);
    let bu = er_random::<PlusTimesU64>(48, 48, 5, 313).map(|_| 1u64);
    for (p, l) in [(4usize, 1usize), (8, 2), (16, 4), (16, 16)] {
        for nb in [1usize, 2, 4] {
            for ov in [OverlapMode::Blocking, OverlapMode::Overlapped] {
                let dense =
                    run::<PlusTimesF64>(&af, &bf, p, l, nb, ov, ExchangeMode::DenseBcast);
                let sparse =
                    run::<PlusTimesF64>(&af, &bf, p, l, nb, ov, ExchangeMode::SparseFetch);
                assert_eq!(
                    dense.c.as_ref().unwrap(),
                    sparse.c.as_ref().unwrap(),
                    "f64 product differs: p={p} l={l} b={nb} {ov:?}"
                );
                let dense =
                    run::<PlusTimesU64>(&au, &bu, p, l, nb, ov, ExchangeMode::DenseBcast);
                let sparse =
                    run::<PlusTimesU64>(&au, &bu, p, l, nb, ov, ExchangeMode::SparseFetch);
                assert_eq!(
                    dense.c.as_ref().unwrap(),
                    sparse.c.as_ref().unwrap(),
                    "u64 product differs: p={p} l={l} b={nb} {ov:?}"
                );
            }
        }
    }
}

/// Skewed non-square A·Aᵀ (the fetch mode's target workload) against the
/// serial reference, with the symbolic pass (no forced batches) also
/// running through the sparse exchange.
#[test]
fn sparse_fetch_aat_matches_serial_reference() {
    let a = rmat::<PlusTimesF64>(6, 4, None, false, 314); // 64², skewed
    let at = spgemm_sparse::ops::transpose(&a);
    let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &at).unwrap();
    for l in [1usize, 4] {
        let mut cfg = RunConfig::new(16, l);
        cfg.exchange = ExchangeMode::SparseFetch;
        cfg.check = CheckMode::Check;
        let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &at).unwrap();
        assert!(
            out.c.as_ref().unwrap().approx_eq(&reference, 1e-10),
            "A·Aᵀ mismatch at l={l}"
        );
    }
}

/// A requester whose fetch-round counter failed to advance reposts round
/// 0's request tag for round 1, with real payloads on the wire: a
/// needed-column request sized as its sender would, then the cache-state
/// control message. The repost queues behind the first request; the owner
/// takes round 0's request and then waits on round 1's, which is never
/// sent. Whatever the thread timing, the desynced round is reported as an
/// unmatched receive naming the awaited round's tag.
#[test]
fn desynced_fetch_request_round_is_an_unmatched_recv() {
    use spgemm_core::exchange::{fetch_req_tag, FetchReq};
    use spgemm_sparse::subset::request_len;
    let err = std::panic::catch_unwind(|| {
        spgemm_simgrid::run_ranks_checked(
            2,
            spgemm_simgrid::Machine::knl(),
            CheckMode::Check,
            |rank| {
                let comm = rank.world_comm();
                if rank.rank() == 0 {
                    let cols = vec![1, 2, 3];
                    let leg = (request_len(&cols), cols.len() + 1);
                    rank.send(&comm, 1, fetch_req_tag(0), FetchReq::Cols { cols, leg });
                    // Round 1's request under round 0's tag: a desynced
                    // counter.
                    rank.send(&comm, 1, fetch_req_tag(0), FetchReq::Unchanged);
                } else {
                    let first: FetchReq = rank.recv(&comm, 0, fetch_req_tag(0));
                    assert!(matches!(first, FetchReq::Cols { .. }), "{first:?}");
                    let _: FetchReq = rank.recv(&comm, 0, fetch_req_tag(1));
                }
            },
        )
    })
    .expect_err("round 1's request is never sent");
    let msg = err.downcast::<String>().map(|s| *s).unwrap_or_default();
    assert!(msg.contains("protocol violation [UnmatchedRecv]"), "{msg}");
    let awaited = format!(
        "rank 1 in recv from rank 0 (comm {:#x}, tag {})",
        spgemm_simgrid::Comm::for_rank(vec![0, 1], 0, 0).id(),
        fetch_req_tag(1)
    );
    assert!(msg.contains(&awaited), "{msg}");
}

/// A requester blocking on the wrong fetch-reply tag (its round counter
/// ran ahead of the owner's) can never be matched: every live rank is
/// receive-blocked and the checker reports an unmatched receive instead
/// of hanging the suite.
#[test]
#[should_panic(expected = "UnmatchedRecv")]
fn mismatched_fetch_reply_tag_is_an_unmatched_recv() {
    use spgemm_core::exchange::{fetch_rep_tag, FetchRep};
    spgemm_simgrid::run_ranks_checked(2, spgemm_simgrid::Machine::knl(), CheckMode::Check, |rank| {
        let comm = rank.world_comm();
        if rank.rank() == 1 {
            // The owner replies for round 0 (a cache-hit control message)…
            rank.send(&comm, 0, fetch_rep_tag(0), FetchRep::<f64>::CacheValid);
        } else {
            // …but the requester waits on round 1's reply tag.
            let _: FetchRep<f64> = rank.recv(&comm, 1, fetch_rep_tag(1));
        }
    });
}

/// Seeded schedule perturbation on the full cached SparseFetch session:
/// across wakeup-order permutations the iterates stay bit-identical, the
/// cache state machine takes the same transitions, and the protocol
/// checker stays silent.
#[test]
fn perturbed_cached_session_is_bit_identical_and_clean() {
    use spgemm_core::{CoreError, IterSession};
    use spgemm_simgrid::{run_ranks_seeded, Grid3D, Machine};
    use std::sync::Arc;

    let m0 = er_random::<PlusTimesF64>(32, 32, 3, 320);
    let run = |seed: Option<u64>| {
        let g = Arc::new(m0.clone());
        let (machine, check) = (Machine::knl_mini(), CheckMode::Check);
        let results = run_ranks_seeded(16, machine, check, seed, None, move |rank| {
            let grid = Grid3D::new(rank, 4);
            let cfg = RunConfig {
                exchange: ExchangeMode::SparseFetch,
                ..RunConfig::new(16, 4)
            };
            let mut sess = IterSession::<PlusTimesF64>::new(
                rank,
                &grid,
                (rank.rank() == 0).then(|| Arc::clone(&g)),
                &cfg,
                true,
            )?;
            let mut cache_trail = Vec::new();
            for _ in 0..3 {
                let st = sess.step(rank, &grid, |_, out| Some(out.piece))?;
                cache_trail.push((st.cache.hits, st.cache.misses, st.cache.served_cached));
            }
            Ok::<_, CoreError>((sess.gather(rank, &grid), cache_trail))
        });
        results
            .into_iter()
            .map(|r| r.expect("perturbed session must stay clean"))
            .collect::<Vec<_>>()
    };
    let base = run(None);
    for seed in [1u64, 2, 3] {
        let perturbed = run(Some(seed));
        for (rk, (b, p)) in base.iter().zip(perturbed.iter()).enumerate() {
            assert_eq!(b.1, p.1, "seed {seed} rank {rk}: cache transitions diverged");
            assert_eq!(b.0, p.0, "seed {seed} rank {rk}: iterate diverged");
        }
    }
}

/// `RunConfig::perturb` reaches the harness: a perturbed one-shot multiply
/// is bit-identical to the unperturbed baseline in both exchange modes.
#[test]
fn perturbed_multiply_matches_baseline() {
    let a = er_random::<PlusTimesF64>(48, 48, 4, 321);
    let b = er_random::<PlusTimesF64>(48, 48, 4, 322);
    for exchange in [ExchangeMode::DenseBcast, ExchangeMode::SparseFetch] {
        let mut cfg = RunConfig::new(16, 4);
        cfg.exchange = exchange;
        cfg.check = CheckMode::Check;
        let base = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
        for seed in [1u64, 2] {
            cfg.perturb = Some(seed);
            let perturbed = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).unwrap();
            assert_eq!(
                base.c.as_ref().unwrap(),
                perturbed.c.as_ref().unwrap(),
                "seed {seed} {exchange:?}: perturbed product diverged"
            );
        }
    }
}

/// The traffic actually moves to the fetch steps: sparse mode records
/// FetchRequest/FetchReply bytes and no ABcast bytes, dense the reverse.
#[test]
fn fetch_steps_carry_the_a_traffic() {
    let a = er_random::<PlusTimesF64>(64, 64, 4, 315);
    let b = er_random::<PlusTimesF64>(64, 64, 4, 316);
    let dense = run::<PlusTimesF64>(&a, &b, 16, 4, 2, OverlapMode::Blocking, ExchangeMode::DenseBcast);
    let sparse = run::<PlusTimesF64>(&a, &b, 16, 4, 2, OverlapMode::Blocking, ExchangeMode::SparseFetch);
    assert!(dense.max.bytes_of(Step::ABcast) > 0);
    assert_eq!(dense.max.bytes_of(Step::FetchRequest), 0);
    assert_eq!(dense.max.bytes_of(Step::FetchReply), 0);
    assert_eq!(sparse.max.bytes_of(Step::ABcast), 0);
    assert!(sparse.max.bytes_of(Step::FetchRequest) > 0);
    assert!(sparse.max.bytes_of(Step::FetchReply) > 0);
    // B moves identically in both modes.
    assert_eq!(dense.max.bytes_of(Step::BBcast), sparse.max.bytes_of(Step::BBcast));
}

/// What the memory-constrained path decides and delivers, pinned across
/// changes of how stage payloads are sized and carried: `b` from a budgeted
/// Symbolic3D sweep, the product's bits, the message count and the tracked
/// peak. [`MEMBOUND_GOLDEN`] is what the build *before* the sweep moved
/// patterns and fetch replies went column-implicit printed, and again the
/// build before the fetch legs got their own wire format; only modeled
/// bytes and seconds may differ from it. The peak moved once, when the
/// batch split began to cut inside each layer's sub-slice (`b·l = 44`
/// leaves a remainder of the local columns, so the batches' column counts
/// differ): `b`, the product's bits and the messages did not. Wake-up
/// order must not matter either (the perturbation lane re-runs this under
/// three seeds).
#[test]
fn membound_kmer_aat_decisions_and_product_are_unchanged() {
    use spgemm_core::{run_spgemm_aat, BackendKind, MemoryBudget};
    use spgemm_sparse::gen::kmer_matrix;
    use spgemm_sparse::ops::{col_concat, permute_rows, random_permutation};

    // Reads × k-mers, windows plus uniform repeats, rows permuted; values
    // whose sums depend on the order they are added in.
    let nreads = 320;
    let windows = kmer_matrix(nreads, nreads * 6, 6, 2024);
    let repeats = er_random::<PlusTimesU64>(nreads, nreads * 4, 6, 2025).map(|_| 1u64);
    let both = col_concat(&[windows, repeats]).unwrap();
    let mut k = 0u64;
    let a = permute_rows(&both, &random_permutation(nreads, 2026)).map(|_| {
        k += 1;
        0.1 + (k % 7) as f64 / 3.0
    });
    let fnv = |c: &CscMatrix<f64>| {
        let words = (c.colptr().iter().map(|&x| x as u64))
            .chain(c.rowidx().iter().map(|&x| u64::from(x)))
            .chain(c.vals().iter().map(|v| v.to_bits()));
        words.fold(0xCBF2_9CE4_8422_2325u64, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01B3)
        })
    };
    let mut rows = Vec::new();
    for (exchange, overlap) in [
        (ExchangeMode::SparseFetch, OverlapMode::Blocking),
        (ExchangeMode::SparseFetch, OverlapMode::Overlapped),
        (ExchangeMode::DenseBcast, OverlapMode::Blocking),
    ] {
        let mut cfg = RunConfig::new(16, 4);
        cfg.backend = BackendKind::Simgrid; // modeled peaks, whatever SPGEMM_BACKEND says
        cfg.budget = MemoryBudget::new(2 * a.nnz() * 24 * 12 / 10);
        cfg.exchange = exchange;
        cfg.overlap = overlap;
        cfg.check = CheckMode::Check;
        let out = run_spgemm_aat::<PlusTimesF64>(&cfg, &a).unwrap();
        assert!(out.nbatches > 1, "the budget must force batching");
        rows.push(format!(
            "{}/{overlap:?} | {} | {:016x} | {} | {}",
            exchange.name(),
            out.nbatches,
            fnv(out.c.as_ref().unwrap()),
            out.per_rank.iter().flat_map(|bd| bd.msgs).sum::<u64>(),
            out.peak_bytes.iter().max().unwrap(),
        ));
    }
    let actual = rows.join("\n");
    assert_eq!(actual, MEMBOUND_GOLDEN, "the table is now:\n{actual}\n");
}

/// `mode | b | FNV-1a of C's colptr, rowidx, value bits | messages | max peak`.
const MEMBOUND_GOLDEN: &str = "\
sparse/Blocking | 11 | 8b5af2945ad49186 | 1472 | 115344\n\
sparse/Overlapped | 11 | 8b5af2945ad49186 | 1472 | 115344\n\
dense/Blocking | 11 | 8b5af2945ad49186 | 1088 | 115344";
