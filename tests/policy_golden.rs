//! The modeled numbers of every driver, pinned bit for bit.
//!
//! One fixed 96×96 matrix at `p = 16, l = 4` under a budget that forces
//! `b > 1`, through `run_spgemm`, `run_spgemm_aat`, both MCL drivers (three
//! iterations each) and hypergraph coarsening, over both exchange modes and
//! both overlap modes. [`GOLDEN`] is what the build *before* the drivers were
//! moved onto one policy value and one harness seam printed; a refactor of
//! how the policy travels from a caller to the rank threads must leave every
//! bit of it alone. Modeled time is a function of the schedule, not of the
//! host, so the table also holds under `SPGEMM_PERTURB_SEED`.

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
    // iterations; the resident session assembles the next iterate in place
    // only when b·l divides the 48 local columns.
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
    rows.join("\n")
}

const GOLDEN: &str = "\
spgemm dense/Blocking | 3f57feffc6025a09 | 44488 | 39 | 5 | 20880\n\
aat dense/Blocking | 3f583c8277e0e3cf | 44488 | 38 | 5 | 20880\n\
mcl-legacy dense/Blocking iter 1 | 3f534d8b7f01fde8 | 37400 | 38 | 3 | -\n\
mcl-legacy dense/Blocking iter 2 | 3f50bdeea77eebb1 | 20296 | 30 | 2 | -\n\
mcl-legacy dense/Blocking iter 3 | 3f50bce531eb8824 | 19976 | 30 | 2 | -\n\
mcl-session dense/Blocking iter 1 | 3f534d0236d64ffa | 38424 | 37 | 3 | -\n\
mcl-session dense/Blocking iter 2 | 3f50bcb5958e2430 | 21664 | 29 | 2 | -\n\
mcl-session dense/Blocking iter 3 | 3f50bb57c9af275d | 21656 | 29 | 2 | -\n\
spgemm dense/Overlapped | 3f5365170cd69b78 | 44488 | 39 | 5 | 20880\n\
aat dense/Overlapped | 3f53b0ae7f82ad2c | 44488 | 38 | 5 | 20880\n\
mcl-legacy dense/Overlapped iter 1 | 3f509759760567ee | 37400 | 38 | 3 | -\n\
mcl-legacy dense/Overlapped iter 2 | 3f4e194c8bd52cec | 20296 | 30 | 2 | -\n\
mcl-legacy dense/Overlapped iter 3 | 3f4e1600a638465e | 19976 | 30 | 2 | -\n\
mcl-session dense/Overlapped iter 1 | 3f509759760567ee | 38424 | 37 | 3 | -\n\
mcl-session dense/Overlapped iter 2 | 3f4e194c8bd52ce8 | 21664 | 29 | 2 | -\n\
mcl-session dense/Overlapped iter 3 | 3f4e1600a6384658 | 21656 | 29 | 2 | -\n\
spgemm sparse/Blocking | 3f5cfb84ad4d6f22 | 28112 | 51 | 5 | 20880\n\
aat sparse/Blocking | 3f5d37e063698da4 | 28112 | 50 | 5 | 20880\n\
mcl-legacy sparse/Blocking iter 1 | 3f55c18ba42b6b92 | 28972 | 46 | 3 | -\n\
mcl-legacy sparse/Blocking iter 2 | 3f53e4351ed825df | 14104 | 36 | 2 | -\n\
mcl-legacy sparse/Blocking iter 3 | 3f55322bb9e7f87e | 13808 | 36 | 2 | -\n\
mcl-session sparse/Blocking iter 1 | 3f55c18ba42b6b92 | 29996 | 45 | 3 | -\n\
mcl-session sparse/Blocking iter 2 | 3f53e4351ed825d0 | 15472 | 35 | 2 | -\n\
mcl-session sparse/Blocking iter 3 | 3f55321ed75f0a5e | 15476 | 35 | 2 | -\n\
spgemm sparse/Overlapped | 3f5baa06297fc88b | 28112 | 51 | 5 | 20880\n\
aat sparse/Overlapped | 3f5beb00fbffb663 | 28112 | 50 | 5 | 20880\n\
mcl-legacy sparse/Overlapped iter 1 | 3f551bf7de25cfd6 | 28972 | 46 | 3 | -\n\
mcl-legacy sparse/Overlapped iter 2 | 3f538f9c89eaa100 | 14104 | 36 | 2 | -\n\
mcl-legacy sparse/Overlapped iter 3 | 3f54dd829554832a | 13808 | 36 | 2 | -\n\
mcl-session sparse/Overlapped iter 1 | 3f5518cdba8b8f78 | 29996 | 45 | 3 | -\n\
mcl-session sparse/Overlapped iter 2 | 3f538cb3ddaa0d3c | 15472 | 35 | 2 | -\n\
mcl-session sparse/Overlapped iter 3 | 3f54da6b79e1be62 | 15476 | 35 | 2 | -\n\
coarsen dense/Blocking | 3f57feffc6025a09 | 44488 | 39 | 5 | -";

#[test]
fn modeled_numbers_are_unchanged() {
    let actual = table();
    for line in actual.lines() {
        let b: usize = line.split(" | ").nth(4).unwrap().parse().unwrap();
        assert!(b > 1, "the budget must force batching: {line}");
    }
    assert_eq!(actual, GOLDEN, "the table is now:\n{actual}\n");
}
