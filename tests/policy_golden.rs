//! The modeled numbers of every driver, pinned bit for bit.
//!
//! One fixed 96×96 matrix at `p = 16, l = 4` under a budget that forces
//! `b > 1`, through `run_spgemm`, `run_spgemm_aat`, both MCL drivers (three
//! iterations each) and hypergraph coarsening, over both exchange modes and
//! both overlap modes. A refactor of how the policy travels from a caller to
//! the rank threads must leave every bit of [`GOLDEN`] alone. Modeled time is
//! a function of the schedule, not of the host, so the table also holds under
//! `SPGEMM_PERTURB_SEED`.
//!
//! The table was last regenerated when fiber pieces and the session's
//! refresh slices of `B̃` began to travel as coded blocks (the fetch
//! reply's wire format behind their own nonempty column ids, sized by
//! `schedule::payload_bytes`), under this rule against the table printed
//! before: `messages | b | max peak` are character-identical on every row,
//! and only `total bits` and `bytes` move, bytes lower on every row.
//!
//! The regeneration before it came when the batch split began to cut inside
//! each layer's column sub-slice (`sparse::ops::batch_pieces`), under this
//! rule against the table printed before: every `mcl-*` row is
//! character-identical (`b·l` divides their 48 local columns); in the
//! `spgemm`, `aat` and `coarsen` rows (`b = 5`, a remainder) only `total
//! bits`, `bytes` and `max peak` differ, and `messages | b` are
//! character-identical. The `tight` row was added then: the session at
//! `b = 5`, which the split before could not assemble. (The regenerations
//! before it, when the fetch legs got their own wire format and when the
//! symbolic sweep began to move patterns, kept `messages | b | max peak`
//! character-identical.) The `mcl-session sparse/*` rows also
//! hold one `ExchangePlan` serving `()` in the sweep and `f64` in the batches
//! with the fetch cache on: sweep rounds bypass the typed tile map, or the
//! plan panics on its second element type.

use spgemm_apps::coarsen::{heavy_connectivity_matching, CoarsenConfig};
use spgemm_apps::mcl::{markov_cluster, mcl_init, MclParams};
use spgemm_core::{
    run_spgemm, run_spgemm_aat, BackendKind, ExchangeMode, MemoryBudget, OverlapMode, RunConfig,
    RunOutput,
};
use spgemm_simgrid::StepBreakdown;
use spgemm_sparse::gen::clustered_similarity;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::CscMatrix;

const P: usize = 16;
const L: usize = 4;

const MODES: [(ExchangeMode, OverlapMode); 4] = [
    (ExchangeMode::DenseBcast, OverlapMode::Blocking),
    (ExchangeMode::DenseBcast, OverlapMode::Overlapped),
    (ExchangeMode::SparseFetch, OverlapMode::Blocking),
    (ExchangeMode::SparseFetch, OverlapMode::Overlapped),
];

/// A few times the two input copies: the operands fit, the unmerged
/// intermediate does not, so Symbolic3D has to batch.
fn budget(m: &CscMatrix<f64>, times: usize) -> MemoryBudget {
    MemoryBudget::new(m.nnz() * 24 * 2 * times)
}

fn run_config(m: &CscMatrix<f64>, exchange: ExchangeMode, overlap: OverlapMode) -> RunConfig {
    let mut cfg = RunConfig::new(P, L);
    cfg.backend = BackendKind::Simgrid; // the table is modeled, whatever SPGEMM_BACKEND says
    cfg.budget = budget(m, 3);
    cfg.exchange = exchange;
    cfg.overlap = overlap;
    cfg
}

fn mcl_params(
    m: &CscMatrix<f64>,
    exchange: ExchangeMode,
    overlap: OverlapMode,
    session: bool,
) -> MclParams {
    let mut params = MclParams::new(P, L);
    // With `select = 8` this budget gives b = 3, 2, 2 over the three
    // iterations.
    params.budget = budget(&mcl_init(m), 4);
    params.select = 8;
    params.exchange = exchange;
    params.overlap = overlap;
    params.session = session;
    params.max_iters = 3;
    params.chaos_threshold = 0.0; // run all three iterations
    params
}

fn coarsen_config(m: &CscMatrix<f64>) -> CoarsenConfig {
    let mut cfg = CoarsenConfig::new(2, P, L);
    cfg.run = run_config(m, ExchangeMode::DenseBcast, OverlapMode::Blocking);
    cfg
}

/// `name | critical-path total bits | bytes | messages | b | max peak`.
fn row(name: &str, bd: &StepBreakdown, nbatches: usize, peak: Option<usize>) -> String {
    format!(
        "{name} | {:016x} | {} | {} | {nbatches} | {}",
        bd.total().to_bits(),
        bd.bytes_total(),
        bd.msgs.iter().sum::<u64>(),
        peak.map_or_else(|| "-".into(), |p| p.to_string()),
    )
}

fn run_row(name: &str, out: &RunOutput<f64>) -> String {
    let peak = out.peak_bytes.iter().copied().max();
    row(name, &out.max, out.nbatches, peak)
}

fn table() -> String {
    let m = clustered_similarity(4, 24, 6, 1, 2021);
    assert_eq!((m.nrows(), m.ncols()), (96, 96));
    let mut rows = Vec::new();
    for (exchange, overlap) in MODES {
        let tag = format!("{}/{overlap:?}", exchange.name());
        let cfg = run_config(&m, exchange, overlap);
        let out = run_spgemm::<PlusTimesF64>(&cfg, &m, &m).unwrap();
        rows.push(run_row(&format!("spgemm {tag}"), &out));
        let out = run_spgemm_aat::<PlusTimesF64>(&cfg, &m).unwrap();
        rows.push(run_row(&format!("aat {tag}"), &out));
        for (driver, session) in [("mcl-legacy", false), ("mcl-session", true)] {
            let params = mcl_params(&m, exchange, overlap, session);
            let result = markov_cluster(&m, &params).unwrap();
            assert_eq!(result.iterations, 3);
            for (i, it) in result.per_iter.iter().enumerate() {
                let name = format!("{driver} {tag} iter {}", i + 1);
                rows.push(row(&name, &it.breakdown, it.nbatches, None));
            }
        }
    }
    let incidence = m.map(|_| 1u64);
    let matching = heavy_connectivity_matching(&incidence, &coarsen_config(&m)).unwrap();
    rows.push(row("coarsen dense/Blocking", &matching.breakdown, matching.nbatches, None));
    // A tighter budget makes the session assemble b = 5 in place, a split
    // whose 5·4 blocks leave a remainder of the 48 local columns.
    let mut params = mcl_params(&m, ExchangeMode::DenseBcast, OverlapMode::Blocking, true);
    params.budget = budget(&mcl_init(&m), 3);
    params.max_iters = 1;
    let it = markov_cluster(&m, &params).unwrap().per_iter[0];
    rows.push(row("mcl-session dense/Blocking tight iter 1", &it.breakdown, it.nbatches, None));
    rows.join("\n")
}

const GOLDEN: &str = "\
spgemm dense/Blocking | 3f57d750f94ff74a | 32753 | 39 | 5 | 19440\n\
aat dense/Blocking | 3f581d7169a73708 | 32753 | 38 | 5 | 19440\n\
mcl-legacy dense/Blocking iter 1 | 3f532e0952915685 | 28563 | 38 | 3 | -\n\
mcl-legacy dense/Blocking iter 2 | 3f50a985441920de | 15161 | 30 | 2 | -\n\
mcl-legacy dense/Blocking iter 3 | 3f50a94440c5403e | 15055 | 30 | 2 | -\n\
mcl-session dense/Blocking iter 1 | 3f532db2f9eaf5e3 | 28959 | 37 | 3 | -\n\
mcl-session dense/Blocking iter 2 | 3f50a8886a90523c | 15703 | 29 | 2 | -\n\
mcl-session dense/Blocking iter 3 | 3f50a7fff379c676 | 15714 | 29 | 2 | -\n\
spgemm dense/Overlapped | 3f53346730bb049b | 32753 | 39 | 5 | 19440\n\
aat dense/Overlapped | 3f5387b5d2a15489 | 32753 | 38 | 5 | 19440\n\
mcl-legacy dense/Overlapped iter 1 | 3f507809c2dd254e | 28563 | 38 | 3 | -\n\
mcl-legacy dense/Overlapped iter 2 | 3f4df0ef2198d01c | 15161 | 30 | 2 | -\n\
mcl-legacy dense/Overlapped iter 3 | 3f4def54abb4c8d2 | 15055 | 30 | 2 | -\n\
mcl-session dense/Overlapped iter 1 | 3f50780a391a0dd7 | 28959 | 37 | 3 | -\n\
mcl-session dense/Overlapped iter 2 | 3f4df0ef2198d012 | 15703 | 29 | 2 | -\n\
mcl-session dense/Overlapped iter 3 | 3f4def54abb4c8d0 | 15714 | 29 | 2 | -\n\
spgemm sparse/Blocking | 3f5ebbc8c8f43989 | 12232 | 51 | 5 | 19440\n\
aat sparse/Blocking | 3f5f01707be6719b | 12232 | 50 | 5 | 19440\n\
mcl-legacy sparse/Blocking iter 1 | 3f5590a8a3b6f2e9 | 15911 | 46 | 3 | -\n\
mcl-legacy sparse/Blocking iter 2 | 3f53d0b781614acc | 9130 | 36 | 2 | -\n\
mcl-legacy sparse/Blocking iter 3 | 3f551f7867a4427b | 9040 | 36 | 2 | -\n\
mcl-session sparse/Blocking iter 1 | 3f5590a919f3db72 | 16307 | 45 | 3 | -\n\
mcl-session sparse/Blocking iter 2 | 3f53d0b781614abf | 9672 | 35 | 2 | -\n\
mcl-session sparse/Blocking iter 3 | 3f551f6ebbb82513 | 9692 | 35 | 2 | -\n\
spgemm sparse/Overlapped | 3f5d6cd9059ed871 | 12232 | 51 | 5 | 19440\n\
aat sparse/Overlapped | 3f5db612e0a0ace9 | 12232 | 50 | 5 | 19440\n\
mcl-legacy sparse/Overlapped iter 1 | 3f54eb989ccec485 | 15911 | 46 | 3 | -\n\
mcl-legacy sparse/Overlapped iter 2 | 3f537cef207db834 | 9130 | 36 | 2 | -\n\
mcl-legacy sparse/Overlapped iter 3 | 3f54cbb05756174d | 9040 | 36 | 2 | -\n\
mcl-session sparse/Overlapped iter 1 | 3f54e7eb3053ff57 | 16307 | 45 | 3 | -\n\
mcl-session sparse/Overlapped iter 2 | 3f53798672e7e30f | 9672 | 35 | 2 | -\n\
mcl-session sparse/Overlapped iter 3 | 3f54c83f3a23f0f0 | 9692 | 35 | 2 | -\n\
coarsen dense/Blocking | 3f57d750f94ff74a | 32753 | 39 | 5 | -\n\
mcl-session dense/Blocking tight iter 1 | 3f57e5126671b75b | 36837 | 53 | 5 | -";

#[test]
fn modeled_numbers_are_unchanged() {
    let actual = table();
    for line in actual.lines() {
        let b: usize = line.split(" | ").nth(4).unwrap().parse().unwrap();
        assert!(b > 1, "the budget must force batching: {line}");
    }
    assert_eq!(actual, GOLDEN, "the table is now:\n{actual}\n");
}
