//! The run policy reaches the rank threads through every entry point.
//!
//! Each row hands one non-default [`RunConfig`] (`SparseFetch`,
//! `Overlapped`, previous-generation kernels, an explicit perturbation
//! seed) to a driver the way that driver takes its policy, and checks that
//! the answer is the default policy's answer while the step breakdown
//! shows the policy ran: fetch replies moved bytes, communication was
//! hidden behind compute, and Local-Multiply was charged differently. A
//! field that stops being threaded to some driver fails that driver's row.

use spgemm_apps::bfs::{bfs_levels, BfsConfig};
use spgemm_apps::coarsen::{heavy_connectivity_matching, CoarsenConfig};
use spgemm_apps::mcl::{markov_cluster, MclParams};
use spgemm_core::{
    run_spgemm, run_spgemm_aat, ExchangeMode, KernelStrategy, LayerChoice, OverlapMode, RunConfig,
};
use spgemm_simgrid::{Step, StepBreakdown};
use spgemm_sparse::gen::clustered_similarity;
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::CscMatrix;

/// What a driver answered (rendered, so rows of different types compare
/// alike) and the critical-path breakdown it reported, if it reports one.
type Outcome = (String, Option<StepBreakdown>);

/// One driver, taking the policy the way that driver takes it.
type Entry = fn(&RunConfig) -> Outcome;

fn matrix() -> CscMatrix<f64> {
    clustered_similarity(4, 24, 6, 1, 2021)
}

fn spgemm(run: &RunConfig) -> Outcome {
    let m = matrix().map(|_| 1u64);
    let out = run_spgemm::<PlusTimesU64>(run, &m, &m).unwrap();
    (format!("{:?}", out.c.unwrap()), Some(out.max))
}

fn aat(run: &RunConfig) -> Outcome {
    let m = matrix().map(|_| 1u64);
    let out = run_spgemm_aat::<PlusTimesU64>(run, &m).unwrap();
    (format!("{:?}", out.c.unwrap()), Some(out.max))
}

fn mcl(run: &RunConfig, session: bool) -> Outcome {
    let LayerChoice::Fixed(layers) = run.layers else {
        panic!("MCL takes a fixed layer count")
    };
    let params = MclParams {
        kernels: run.kernels,
        overlap: run.overlap,
        exchange: run.exchange,
        perturb: run.perturb,
        session,
        max_iters: 2,
        chaos_threshold: 0.0,
        ..MclParams::new(run.p, layers)
    };
    let result = markov_cluster(&matrix(), &params).unwrap();
    (format!("{:?}", result.labels), Some(result.per_iter[0].breakdown))
}

fn mcl_session(run: &RunConfig) -> Outcome {
    mcl(run, true)
}

fn mcl_legacy(run: &RunConfig) -> Outcome {
    mcl(run, false)
}

fn coarsen(run: &RunConfig) -> Outcome {
    let mut cfg = CoarsenConfig::new(2, run.p, 1);
    cfg.run = *run;
    let matching = heavy_connectivity_matching(&matrix().map(|_| 1u64), &cfg).unwrap();
    (format!("{:?}", matching.mate), Some(matching.breakdown))
}

/// BFS reports levels only, so its row can check the answer but not the
/// breakdown.
fn bfs(run: &RunConfig) -> Outcome {
    let mut cfg = BfsConfig::new(run.p, 1);
    cfg.run = *run;
    let levels = bfs_levels(&matrix().map(|_| true), &[0, 40], &cfg).unwrap();
    (format!("{levels:?}"), None)
}

#[test]
fn every_entry_runs_the_policy_it_was_given() {
    let default = RunConfig::new(16, 4);
    let policy = RunConfig {
        exchange: ExchangeMode::SparseFetch,
        overlap: OverlapMode::Overlapped,
        kernels: KernelStrategy::Previous,
        perturb: Some(5),
        ..default
    };
    let entries: [(&str, Entry); 6] = [
        ("run_spgemm", spgemm),
        ("run_spgemm_aat", aat),
        ("markov_cluster (session)", mcl_session),
        ("markov_cluster (legacy)", mcl_legacy),
        ("heavy_connectivity_matching", coarsen),
        ("bfs_levels", bfs),
    ];
    for (name, entry) in entries {
        let (want, base) = entry(&default);
        let (got, with_policy) = entry(&policy);
        assert_eq!(got, want, "{name}: the policy changed the answer");
        let (Some(base), Some(bd)) = (base, with_policy) else {
            continue;
        };
        assert_eq!(base.bytes_of(Step::FetchReply), 0, "{name}: default is DenseBcast");
        assert!(bd.bytes_of(Step::FetchReply) > 0, "{name}: SparseFetch never fetched");
        assert_eq!(base.overlap_total(), 0.0, "{name}: default is Blocking");
        assert!(bd.overlap_total() > 0.0, "{name}: Overlapped hid nothing");
        assert_ne!(
            bd.secs_of(Step::LocalMultiply),
            base.secs_of(Step::LocalMultiply),
            "{name}: the previous-generation kernels were not charged"
        );
    }
}
