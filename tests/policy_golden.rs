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
//! The table was last regenerated when the batch split began to cut inside
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
spgemm dense/Blocking | 3f57ee636d00925f | 38960 | 39 | 5 | 19440\n\
aat dense/Blocking | 3f582cd003449a27 | 38960 | 38 | 5 | 19440\n\
mcl-legacy dense/Blocking iter 1 | 3f5342fdf631a40d | 34776 | 38 | 3 | -\n\
mcl-legacy dense/Blocking iter 2 | 3f50b6b7d17eef64 | 18624 | 30 | 2 | -\n\
mcl-legacy dense/Blocking iter 3 | 3f50b57f1d4acd6a | 18280 | 30 | 2 | -\n\
mcl-session dense/Blocking iter 1 | 3f534274ae05f61f | 35800 | 37 | 3 | -\n\
mcl-session dense/Blocking iter 2 | 3f50b5bae0b7d46a | 19992 | 29 | 2 | -\n\
mcl-session dense/Blocking iter 3 | 3f50b43ab8c10749 | 19960 | 29 | 2 | -\n\
spgemm dense/Overlapped | 3f534bd98b24b169 | 38960 | 39 | 5 | 19440\n\
aat dense/Overlapped | 3f539a20c6926c5e | 38960 | 38 | 5 | 19440\n\
mcl-legacy dense/Overlapped iter 1 | 3f508ccbed350e12 | 34776 | 38 | 3 | -\n\
mcl-legacy dense/Overlapped iter 2 | 3f4e0b5722288d61 | 18624 | 30 | 2 | -\n\
mcl-legacy dense/Overlapped iter 3 | 3f4e07c6845c0635 | 18280 | 30 | 2 | -\n\
mcl-session dense/Overlapped iter 1 | 3f508ccbed350e12 | 35800 | 37 | 3 | -\n\
mcl-session dense/Overlapped iter 2 | 3f4e0b5722288d5a | 19992 | 29 | 2 | -\n\
mcl-session dense/Overlapped iter 3 | 3f4e07c6845c0632 | 19960 | 29 | 2 | -\n\
spgemm sparse/Blocking | 3f5ed2682958dfdc | 18439 | 51 | 5 | 19440\n\
aat sparse/Blocking | 3f5f10514775d9b2 | 18439 | 50 | 5 | 19440\n\
mcl-legacy sparse/Blocking iter 1 | 3f55a56ace0edbad | 22124 | 46 | 3 | -\n\
mcl-legacy sparse/Blocking iter 2 | 3f53def974309b68 | 12593 | 36 | 2 | -\n\
mcl-legacy sparse/Blocking iter 3 | 3f552cd1d844aa53 | 12265 | 36 | 2 | -\n\
mcl-session sparse/Blocking iter 1 | 3f55a56ace0edbad | 23148 | 45 | 3 | -\n\
mcl-session sparse/Blocking iter 2 | 3f53def974309b5f | 13961 | 35 | 2 | -\n\
mcl-session sparse/Blocking iter 3 | 3f552cc82c588cee | 13938 | 35 | 2 | -\n\
spgemm sparse/Overlapped | 3f5d836dab41787d | 18439 | 51 | 5 | 19440\n\
aat sparse/Overlapped | 3f5dc43b084de0da | 18439 | 50 | 5 | 19440\n\
mcl-legacy sparse/Overlapped iter 1 | 3f55008d406f120b | 22124 | 46 | 3 | -\n\
mcl-legacy sparse/Overlapped iter 2 | 3f538a21ade386bc | 12593 | 36 | 2 | -\n\
mcl-legacy sparse/Overlapped iter 3 | 3f54d7e98251a530 | 12265 | 36 | 2 | -\n\
mcl-session sparse/Overlapped iter 1 | 3f54fcace46eff92 | 23148 | 45 | 3 | -\n\
mcl-session sparse/Overlapped iter 2 | 3f538778330282ca | 13961 | 35 | 2 | -\n\
mcl-session sparse/Overlapped iter 3 | 3f54d514cedb40f4 | 13938 | 35 | 2 | -\n\
coarsen dense/Blocking | 3f57ee636d00925f | 38960 | 39 | 5 | -\n\
mcl-session dense/Blocking tight iter 1 | 3f57fbab76eb4907 | 43672 | 53 | 5 | -";

#[test]
fn modeled_numbers_are_unchanged() {
    let actual = table();
    for line in actual.lines() {
        let b: usize = line.split(" | ").nth(4).unwrap().parse().unwrap();
        assert!(b > 1, "the budget must force batching: {line}");
    }
    assert_eq!(actual, GOLDEN, "the table is now:\n{actual}\n");
}
