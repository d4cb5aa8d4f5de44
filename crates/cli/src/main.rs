//! `spgemm` — command-line driver for the IPDPS 2021 reproduction.
//!
//! ```text
//! spgemm gen      --kind er|rmat|clusters|kmer --out M.mtx [shape options]
//! spgemm info     --input M.mtx [--square | --aat]
//! spgemm multiply --a M.mtx [--b N.mtx | --square | --aat] --procs P
//!                 [--layers L | --auto] [--batches B | --budget-mb M]
//!                 [--algorithm summa2d|summa3d|cola|innerabc|auto]
//!                 [--repl-factor C]
//!                 [--kernels new|previous] [--exchange dense|sparse]
//!                 [--backend simgrid|native] [--threads N]
//!                 [--machine knl|haswell|knl-mini|knl-ht]
//!                 [--profile PROFILE.json] [--calibrate-out PROFILE.json]
//!                 [--overlap] [--check] [--trace T.json] [--out C.mtx]
//!                 [--verify] [--json]
//! spgemm plan     --a M.mtx [--b N.mtx | --square | --aat] --procs P
//!                 [--budget-mb M] [--machine NAME | --profile PROFILE.json]
//!                 [--algorithm NAME|auto | --auto] [--repl-factor C]
//!                 [--sample F] [--seed S] [--iters N]
//! spgemm mcl      --input M.mtx --procs P [--layers L] [--inflation I]
//!                 [--select K] [--budget-mb M] [--kernels new|previous]
//!                 [--exchange dense|sparse] [--backend simgrid|native]
//!                 [--threads N] [--overlap] [--no-session] [--no-cache]
//!                 [--machine NAME | --profile PROFILE.json] [--perturb-seed S]
//! spgemm triangles --input M.mtx --procs P [--layers L]
//! spgemm overlap  --input M.mtx --procs P [--layers L] [--min-shared S]
//! spgemm audit    [--sweep [--procs "4,16,64,256"]] [--json]
//!                 [--inject skip-wait|wrong-fetch-tag|skip-collective|wrong-root]
//!                 [--shape fig3-mcl|fig4-friendster|fig4-isolates] [--procs P]
//!                 [--layers L] [--batches B | --auto-target T]
//!                 [--exchange dense|sparse] [--overlap] [--iters N]
//!                 [--algorithm summa3d|cola|innerabc] [--repl-factor C]
//! spgemm serve    --budget-mb M [--max-concurrency N] [--cache-size K]
//!                 [--algorithm NAME|auto] [--repl-factor C]
//!                 [--backend simgrid|native] [--machine NAME] [--no-shrink]
//!                 [--loadgen [--jobs N] [--arrival open|closed] [--rate R]
//!                  [--concurrency C] [--seed S] [--csv OUT.csv]]
//! ```
//!
//! `plan` prints the planner's ranked candidate report and runs nothing;
//! `multiply --auto` plans and then runs the winner. `--profile` loads
//! calibrated machine constants written by `--calibrate-out`. `plan
//! --iters N` amortizes one-time setup costs over `N` iterations of an
//! iterative application (MCL/BFS), which can flip the winning exchange
//! mode.
//!
//! `mcl` keeps the iterate resident across iterations by default (the
//! cross-iteration operand-caching session); `--no-session` selects the
//! legacy gather/re-scatter driver and `--no-cache` disables fetch-state
//! memoization while keeping the session.
//!
//! `--backend native` runs the local kernels for real on `--threads N` OS
//! threads (default: all available cores) and charges their **measured**
//! wall-clock seconds to the per-step report; communication stays modeled.
//! Combining `--backend native` with `--calibrate-out` fits a machine
//! profile from the measured kernel times of the run.
//!
//! `audit` extracts communication schedules **symbolically** — no matrices
//! are built, no payload bytes move — and verifies cross-rank agreement,
//! deadlock-freedom of the fetch conversation, nonblocking-handle
//! discipline, and the Eq. 2 memory bound. `--sweep` enumerates the
//! planner's full candidate grid; `--inject` plants a named schedule bug
//! to demonstrate detection (the run then *fails* with the configuration
//! and offending event); `--json` emits a machine-readable report. The
//! command exits nonzero iff any audited configuration has a violation.
//!
//! `multiply --perturb-seed S` and `mcl --perturb-seed S` run the
//! simulation under seeded schedule perturbation (deterministic
//! wakeup-order jitter at every communication point); results must be
//! bit-identical under any seed.
//!
//! The run-policy flags are parsed once, into one `RunConfig` (`policy.rs`),
//! for `multiply`, `plan`, `mcl` and `audit` alike. Every subcommand rejects
//! a `--key` it does not read, naming it (`mcl` does not take `--check
//! --batches --trace --auto`, which `MclParams` cannot carry).

#![forbid(unsafe_code)]

mod args;
mod policy;

use args::Args;
use policy::{backend_from_args, machine_from_args, run_config_from_args};
use spgemm_apps::mcl::{markov_cluster, MclParams};
use spgemm_apps::overlap::{find_overlaps, OverlapConfig};
use spgemm_apps::triangles::{count_triangles, TriangleConfig};
use spgemm_core::planner::{self, CalibrationInput, PlannerConfig, ProbeConfig};
use spgemm_core::{run_spgemm, AlgorithmFamily, BackendKind, LayerChoice, MemoryBudget, RunConfig};
use spgemm_simgrid::{CheckMode, StepReport};
use spgemm_sparse::gen::{clustered_similarity, er_random, kmer_matrix, rmat};
use spgemm_sparse::io::{read_matrix_market_file, write_matrix_market_file};
use spgemm_sparse::ops::transpose;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::{spgemm_spa, symbolic_nnz};
use spgemm_sparse::CscMatrix;
use std::path::Path;
use std::process::ExitCode;

/// Write to stdout through the one lock all command output takes. A reader
/// that went away (`spgemm … | head`) is not a failure of this program:
/// exit quietly with status 0 instead of panicking like `println!`.
fn emit(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() -> ExitCode {
    let argv = std::env::args().skip(1);
    match Args::parse(argv).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "run with a subcommand: gen | info | multiply | plan | mcl | triangles | \
                 overlap | audit | serve"
            );
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand with every `--key` it reads; any other key is an error
/// naming it, before the subcommand runs.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    (
        "gen",
        cmd_gen,
        &[
            "kind", "out", "seed", "n", "degree", "scale", "edge-factor", "clusters",
            "cluster-size", "intra", "inter", "reads", "kmers", "reads-per-kmer",
        ],
    ),
    ("info", cmd_info, &["input", "b", "square", "aat"]),
    (
        "multiply",
        cmd_multiply,
        &[
            "a", "b", "square", "aat", "procs", "layers", "auto", "batches", "budget-mb",
            "algorithm", "repl-factor", "kernels", "exchange", "backend", "threads", "machine",
            "profile", "calibrate-out", "overlap", "check", "trace", "out", "verify", "json",
            "perturb-seed",
        ],
    ),
    (
        "plan",
        cmd_plan,
        &[
            "a", "b", "square", "aat", "procs", "budget-mb", "machine", "profile", "algorithm",
            "auto", "repl-factor", "sample", "seed", "iters",
        ],
    ),
    (
        "mcl",
        cmd_mcl,
        &[
            "input", "procs", "layers", "inflation", "select", "max-iters", "budget-mb",
            "kernels", "exchange", "backend", "threads", "overlap", "no-session", "no-cache",
            "machine", "profile", "perturb-seed", "out",
        ],
    ),
    ("triangles", cmd_triangles, &["input", "procs", "layers"]),
    ("overlap", cmd_overlap, &["input", "procs", "layers", "min-shared", "show"]),
    (
        "audit",
        cmd_audit,
        &[
            "sweep", "procs", "json", "inject", "shape", "layers", "batches", "auto-target",
            "exchange", "overlap", "iters", "algorithm", "repl-factor",
        ],
    ),
    (
        "serve",
        cmd_serve,
        &[
            "budget-mb", "max-concurrency", "cache-size", "algorithm", "repl-factor", "backend",
            "threads", "machine", "profile", "no-shrink", "check", "loadgen", "jobs", "arrival",
            "rate", "concurrency", "seed", "csv",
        ],
    ),
];

fn run(args: &Args) -> Result<(), String> {
    let (_, cmd, keys) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == args.command)
        .ok_or_else(|| format!("unknown subcommand: {}", args.command))?;
    args.only(keys)?;
    cmd(args)
}

/// `--algorithm NAME [--repl-factor C]`, shared by multiply/plan/serve.
enum AlgorithmArg {
    /// A concrete family, `--repl-factor` folded in for the 1.5D names.
    Fixed(AlgorithmFamily),
    /// `--algorithm auto`: sweep every family valid at `p`.
    Auto,
}

fn algorithm_from_args(args: &Args) -> Result<Option<AlgorithmArg>, String> {
    let c = args.get_or("repl-factor", 1usize)?;
    match args.opt("algorithm") {
        None => {
            if args.opt("repl-factor").is_some() {
                return Err("--repl-factor needs --algorithm cola or --algorithm innerabc".into());
            }
            Ok(None)
        }
        Some("auto") => {
            if args.opt("repl-factor").is_some() {
                return Err(
                    "--algorithm auto sweeps every replication factor; drop --repl-factor".into(),
                );
            }
            Ok(Some(AlgorithmArg::Auto))
        }
        Some(name) => {
            let fam = AlgorithmFamily::parse(name, c).map_err(|e| e.to_string())?;
            if args.opt("repl-factor").is_some() && !fam.is_15d() {
                return Err(format!(
                    "--repl-factor only applies to the 1.5D families (cola, innerabc), not {name}"
                ));
            }
            Ok(Some(AlgorithmArg::Fixed(fam)))
        }
    }
}

fn load(path: &str) -> Result<CscMatrix<f64>, String> {
    read_matrix_market_file(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let kind = args.req("kind")?;
    let out = args.req("out")?.to_string();
    let seed = args.get_or("seed", 1u64)?;
    let m: CscMatrix<f64> = match kind {
        "er" => {
            let n = args.get_or("n", 1000usize)?;
            let deg = args.get_or("degree", 8usize)?;
            er_random::<PlusTimesF64>(n, n, deg, seed)
        }
        "rmat" => {
            let scale = args.get_or("scale", 10u32)?;
            let ef = args.get_or("edge-factor", 12usize)?;
            rmat::<PlusTimesF64>(scale, ef, None, true, seed)
        }
        "clusters" => {
            let nclusters = args.get_or("clusters", 8usize)?;
            let size = args.get_or("cluster-size", 100usize)?;
            let intra = args.get_or("intra", 12usize)?;
            let inter = args.get_or("inter", 1usize)?;
            clustered_similarity(nclusters, size, intra, inter, seed)
        }
        "kmer" => {
            let reads = args.get_or("reads", 1000usize)?;
            let kmers = args.get_or("kmers", 8000usize)?;
            let per = args.get_or("reads-per-kmer", 3usize)?;
            kmer_matrix(reads, kmers, per, seed).map(|v| v as f64)
        }
        other => return Err(format!("unknown matrix kind: {other}")),
    };
    write_matrix_market_file(&m, Path::new(&out)).map_err(|e| format!("writing {out}: {e}"))?;
    outln!("wrote {}x{} matrix with {} nonzeros to {out}", m.nrows(), m.ncols(), m.nnz());
    Ok(())
}

fn operands(args: &Args, a_key: &str) -> Result<(CscMatrix<f64>, CscMatrix<f64>), String> {
    let a = load(args.req(a_key)?)?;
    let b = if args.flag("square") {
        a.clone()
    } else if args.flag("aat") {
        transpose(&a)
    } else if let Some(bp) = args.opt("b") {
        load(bp)?
    } else {
        return Err("need one of --b FILE, --square, or --aat".into());
    };
    Ok((a, b))
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let (a, b) = if args.opt("b").is_some() || args.flag("square") || args.flag("aat") {
        operands(args, "input")?
    } else {
        let a = load(args.req("input")?)?;
        let b = a.clone();
        (a, b)
    };
    let (nnz_c, stats) = symbolic_nnz(&a, &b).map_err(|e| e.to_string())?;
    // A Table V-style row.
    outln!("rows: {}", a.nrows());
    outln!("columns: {}", a.ncols());
    outln!("nnz(A): {}", a.nnz());
    outln!("nnz(B): {}", b.nnz());
    outln!("nnz(C): {nnz_c}");
    outln!("flops: {}", stats.flops);
    outln!("compression factor: {:.3}", stats.flops as f64 / nnz_c.max(1) as f64);
    outln!(
        "memory at r=24 B/nnz: inputs {:.2} MB, unmerged output up to {:.2} MB",
        ((a.nnz() + b.nnz()) * 24) as f64 / 1e6,
        (stats.flops * 24) as f64 / 1e6
    );
    Ok(())
}

fn cmd_multiply(args: &Args) -> Result<(), String> {
    let (a, b) = operands(args, "a")?;
    let mut cfg = run_config_from_args(args)?;
    let p = cfg.p;
    let json = args.flag("json");
    match algorithm_from_args(args)? {
        None => {}
        Some(AlgorithmArg::Fixed(fam)) => {
            fam.validate(p).map_err(|e| e.to_string())?;
            cfg.algorithm = fam;
        }
        Some(AlgorithmArg::Auto) => {
            // Cross-family planning: keep the user's kernel/overlap/
            // exchange choices (`for_run` semantics) but open the family
            // dimension, then run the predicted winner.
            let mut pcfg = PlannerConfig::for_run(&cfg);
            pcfg.layers = None;
            pcfg.families = AlgorithmFamily::sweep(p);
            let report = planner::plan(p, &a, &b, &pcfg).map_err(|e| e.to_string())?;
            let winner = report
                .winner()
                .ok_or("algorithm auto: no candidate is feasible under the budget")?
                .candidate;
            cfg = cfg.with_candidate(&winner);
            if !json {
                outln!("auto algorithm choice ({}):\n{}", winner.label(), report.to_table());
            }
        }
    }
    let out = run_spgemm::<PlusTimesF64>(&cfg, &a, &b).map_err(|e| e.to_string())?;
    let layers = out.layers;
    if let Some(plan) = &out.plan {
        if !json {
            outln!("auto layer choice:\n{}", plan.to_table());
        }
    }
    if let (Some(path), Some(traces)) = (args.opt("trace"), &out.traces) {
        let trace_json = spgemm_simgrid::chrome_trace_json(traces);
        std::fs::write(path, trace_json).map_err(|e| e.to_string())?;
        if !json {
            outln!("wrote Chrome trace to {path}");
        }
    }
    let c = out.c.as_ref().expect("product gathered");
    if !json {
        if cfg.algorithm.is_15d() {
            outln!(
                "C: {}x{} with {} nonzeros, computed by {} on {} processes",
                c.nrows(),
                c.ncols(),
                c.nnz(),
                cfg.algorithm.label(),
                p
            );
        } else {
            outln!(
                "C: {}x{} with {} nonzeros, computed in {} batch(es) on a {}x{}x{} grid",
                c.nrows(),
                c.ncols(),
                c.nnz(),
                out.nbatches,
                ((p / layers) as f64).sqrt() as usize,
                ((p / layers) as f64).sqrt() as usize,
                layers
            );
        }
        if let Some(sym) = &out.symbolic {
            outln!(
                "symbolic: b={} (Eq.2 bound {:?}), flops {}, max unmerged/process {}",
                sym.batches, sym.eq2_lower_bound, sym.flops, sym.max_unmerged_nnz
            );
        }
        let mut report = StepReport::new();
        report.push(format!("p={p} l={layers} b={}", out.nbatches), out.max);
        if let BackendKind::Native { threads } = cfg.backend {
            outln!(
                "\nbackend: native ({threads} kernel thread(s)/process, per-thread load \
                 imbalance {:.2}); kernel seconds below are measured, communication modeled:\n{}",
                out.load_balance.imbalance(),
                report.to_table()
            );
        } else {
            outln!("\nmodeled per-step seconds (max over processes):\n{}", report.to_table());
        }
    }
    let mut verified = None;
    if args.flag("verify") {
        let (reference, _) = spgemm_spa::<PlusTimesF64>(&a, &b).map_err(|e| e.to_string())?;
        if c.approx_eq(&reference, 1e-9) {
            verified = Some(true);
            if !json {
                outln!("verification against serial reference: OK");
            }
        } else {
            return Err("verification FAILED: distributed product differs from serial".into());
        }
    }
    if json {
        outln!("{}", multiply_json(&cfg, &out, p, verified));
    }
    if let Some(path) = args.opt("out") {
        write_matrix_market_file(c, Path::new(path)).map_err(|e| e.to_string())?;
        if !json {
            outln!("wrote product to {path}");
        }
    }
    if let Some(path) = args.opt("calibrate-out") {
        let input = CalibrationInput {
            p,
            layers,
            per_rank: &out.per_rank,
            total_work_units: Some(out.kernel_stats.work_units),
            threads: match cfg.backend {
                BackendKind::Native { threads } => Some(threads),
                BackendKind::Simgrid => None,
            },
        };
        let profile = planner::calibrate(&cfg.machine, &input);
        profile
            .save(Path::new(path))
            .map_err(|e| e.to_string())?;
        if !json {
            outln!(
                "wrote calibrated machine profile to {path} (alpha {:.3e}, beta {:.3e}, \
                 secs/work-unit {:.3e})",
                profile.alpha, profile.beta, profile.secs_per_work_unit
            );
        }
    }
    Ok(())
}

/// Machine-readable `multiply` result, in the same hand-rolled style as
/// `audit --json` (no serializer dependency; keys stable for scripting).
fn multiply_json(
    cfg: &RunConfig,
    out: &spgemm_core::RunOutput<f64>,
    p: usize,
    verified: Option<bool>,
) -> String {
    use spgemm_simgrid::clock::ALL_STEPS;
    let c = out.c.as_ref().expect("product gathered");
    let side = ((p / out.layers) as f64).sqrt() as usize;
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"c\": {{\"rows\": {}, \"cols\": {}, \"nnz\": {}}},\n",
        c.nrows(),
        c.ncols(),
        c.nnz()
    ));
    s.push_str(&format!("  \"procs\": {p},\n"));
    s.push_str(&format!("  \"grid\": [{side}, {side}, {}],\n", out.layers));
    s.push_str(&format!("  \"layers\": {},\n", out.layers));
    s.push_str(&format!("  \"batches\": {},\n", out.nbatches));
    s.push_str(&format!("  \"algorithm\": \"{}\",\n", cfg.algorithm.name()));
    s.push_str(&format!("  \"repl_factor\": {},\n", cfg.algorithm.repl_factor()));
    match cfg.backend {
        BackendKind::Native { threads } => {
            s.push_str("  \"backend\": \"native\",\n");
            s.push_str(&format!("  \"threads\": {threads},\n"));
            s.push_str(&format!(
                "  \"kernel_imbalance\": {:.4},\n",
                out.load_balance.imbalance()
            ));
        }
        BackendKind::Simgrid => s.push_str("  \"backend\": \"simgrid\",\n"),
    }
    match &out.symbolic {
        Some(sym) => {
            let eq2 = sym
                .eq2_lower_bound
                .map_or_else(|| "null".into(), |b| b.to_string());
            s.push_str(&format!(
                "  \"symbolic\": {{\"batches\": {}, \"eq2_lower_bound\": {eq2}, \
                 \"flops\": {}, \"max_unmerged_nnz\": {}}},\n",
                sym.batches, sym.flops, sym.max_unmerged_nnz
            ));
        }
        None => s.push_str("  \"symbolic\": null,\n"),
    }
    s.push_str(&format!(
        "  \"peak_bytes_per_proc\": {},\n",
        out.peak_bytes.iter().copied().max().unwrap_or(0)
    ));
    s.push_str("  \"steps\": {");
    let mut first = true;
    for step in ALL_STEPS {
        let secs = out.max.secs_of(step);
        if secs > 0.0 {
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&format!("\"{}\": {:.9}", step.label(), secs));
        }
    }
    s.push_str("},\n");
    s.push_str(&format!("  \"total_secs\": {:.9},\n", out.max.total()));
    match verified {
        Some(v) => s.push_str(&format!("  \"verified\": {v}\n")),
        None => s.push_str("  \"verified\": null\n"),
    }
    s.push('}');
    s
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let (a, b) = operands(args, "a")?;
    let run = run_config_from_args(args)?;
    let p = run.p;
    let mut pcfg = PlannerConfig::new(run.machine, run.budget);
    pcfg.iterations = args.get_or("iters", 1usize)?;
    pcfg.probe = ProbeConfig {
        sample_fraction: args.get_or("sample", 0.25f64)?,
        seed: args.get_or("seed", ProbeConfig::default().seed)?,
        ..ProbeConfig::default()
    };
    match algorithm_from_args(args)? {
        None => {
            // Bare `plan --auto` also opens the family dimension.
            if args.flag("auto") {
                pcfg.families = AlgorithmFamily::sweep(p);
            }
        }
        Some(AlgorithmArg::Auto) => pcfg.families = AlgorithmFamily::sweep(p),
        Some(AlgorithmArg::Fixed(fam)) => pcfg.families = vec![fam],
    }
    let report = planner::plan(p, &a, &b, &pcfg).map_err(|e| e.to_string())?;
    out!("{}", report.to_table());
    Ok(())
}

fn cmd_mcl(args: &Args) -> Result<(), String> {
    let a = load(args.req("input")?)?;
    // MCL takes the same policy flags as `multiply`, minus the ones
    // `MclParams` has no field for (`COMMANDS` leaves them out).
    let run = run_config_from_args(args)?;
    let LayerChoice::Fixed(layers) = run.layers else {
        return Err("mcl does not take --auto: give --layers L".into());
    };
    let mut params = MclParams {
        inflation: args.get_or("inflation", 2.0f64)?,
        select: args.get_or("select", 64usize)?,
        max_iters: args.get_or("max-iters", 30usize)?,
        machine: run.machine,
        kernels: run.kernels,
        budget: run.budget,
        overlap: run.overlap,
        exchange: run.exchange,
        backend: run.backend,
        perturb: run.perturb,
        ..MclParams::new(run.p, layers)
    };
    if args.flag("no-session") {
        params.session = false;
    }
    if args.flag("no-cache") {
        params.cache = false;
    }
    let result = markov_cluster(&a, &params).map_err(|e| e.to_string())?;
    outln!("iter  batches  chaos      SpGEMM(s)       nnz   bytes(MB)  hit/miss  inval");
    for (i, it) in result.per_iter.iter().enumerate() {
        outln!(
            "{:>4}  {:>7}  {:<9.4} {:.5} {:>9} {:>11.3} {:>4}/{:<4} {:>6}",
            i + 1,
            it.nbatches,
            it.chaos,
            it.breakdown.total(),
            it.nnz,
            it.modeled_bytes as f64 / 1e6,
            it.fetch_hits,
            it.fetch_misses,
            it.invalidated_cols
        );
    }
    let k = spgemm_apps::components::num_clusters(&result.labels);
    outln!("{} clusters after {} iterations", k, result.iterations);
    if let Some(path) = args.opt("out") {
        let body: String = result
            .labels
            .iter()
            .enumerate()
            .map(|(v, c)| format!("{v} {c}\n"))
            .collect();
        std::fs::write(path, body).map_err(|e| e.to_string())?;
        outln!("wrote labels to {path}");
    }
    Ok(())
}

fn cmd_audit(args: &Args) -> Result<(), String> {
    use spgemm_core::audit::{self, AuditConfig, AuditFault, BatchSpec, ConfigOutcome};

    let fault = match args.opt("inject") {
        Some(name) => Some(AuditFault::parse(name).ok_or_else(|| {
            format!(
                "unknown fault: {name} (expected one of: {})",
                AuditFault::NAMES.join(", ")
            )
        })?),
        None => None,
    };
    let report = if args.flag("sweep") {
        let ps: Vec<usize> = args
            .opt("procs")
            .unwrap_or("4,16,64,256")
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad --procs entry: {s:?}"))
            })
            .collect::<Result<_, String>>()?;
        audit::sweep(&ps, fault)
    } else {
        let shape_name = args.opt("shape").unwrap_or("fig3-mcl");
        let shape = audit::workload_shapes()
            .into_iter()
            .find(|s| s.name == shape_name)
            .ok_or_else(|| {
                format!(
                    "unknown shape: {shape_name} (expected fig3-mcl | fig4-friendster | \
                     fig4-isolates)"
                )
            })?;
        let run = run_config_from_args(args)?;
        let LayerChoice::Fixed(layers) = run.layers else {
            return Err("audit extracts one grid: give --layers L, not --auto".into());
        };
        let batch = if let Some(t) = args.opt("auto-target") {
            BatchSpec::Budget {
                target: t.parse().map_err(|_| "bad --auto-target")?,
            }
        } else {
            BatchSpec::Forced(run.forced_batches.unwrap_or(1))
        };
        let family = match algorithm_from_args(args)? {
            None | Some(AlgorithmArg::Fixed(AlgorithmFamily::Summa3dBatched)) => {
                AlgorithmFamily::Summa3dBatched
            }
            Some(AlgorithmArg::Auto) => {
                return Err("audit takes a concrete --algorithm (use --sweep to cover the \
                            whole family grid)"
                    .into())
            }
            Some(AlgorithmArg::Fixed(fam)) if fam.is_15d() => fam,
            Some(AlgorithmArg::Fixed(fam)) => {
                return Err(format!(
                    "audit extracts the summa3d, cola and innerabc schedules, not {}",
                    fam.name()
                ))
            }
        };
        let cfg = AuditConfig {
            shape,
            p: run.p,
            l: layers,
            batch,
            exchange: run.exchange,
            overlap: run.overlap,
            iterations: args.get_or("iters", 1usize)?,
            family,
        };
        audit::AuditReport {
            results: vec![audit::audit_config(&cfg, fault)],
        }
    };

    if args.flag("json") {
        outln!("{}", report.to_json());
    } else {
        outln!(
            "audited {} configuration(s): {} ok, {} infeasible, {} events extracted \
             (payload-free)",
            report.results.len(),
            report.ok_count(),
            report.infeasible_count(),
            report.total_events()
        );
        if !args.flag("sweep") {
            for r in &report.results {
                match &r.outcome {
                    ConfigOutcome::Ok { nbatches, events } => {
                        outln!("{}: clean ({events} events, b={nbatches})", r.label);
                    }
                    ConfigOutcome::Infeasible(reason) => {
                        outln!("{}: infeasible ({reason})", r.label);
                    }
                    ConfigOutcome::Violated(_) => {}
                }
            }
        }
        for (label, vs) in report.violations() {
            outln!("\n{label}:");
            for v in vs {
                outln!("{v}");
            }
        }
    }
    let bad = report.violations().len();
    if bad > 0 {
        return Err(format!("{bad} configuration(s) with schedule violations"));
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use spgemm_core::{JobServer, ServerConfig};

    let budget_mb = args.get_or("budget-mb", 64.0f64)?;
    let mut cfg = ServerConfig::new((budget_mb * 1e6) as usize);
    cfg.max_concurrency = args.get_or("max-concurrency", 4usize)?;
    cfg.cache_capacity = args.get_or("cache-size", 64usize)?;
    cfg.machine = machine_from_args(args)?;
    cfg.backend = backend_from_args(args, cfg.backend)?;
    if args.flag("no-shrink") {
        cfg.shrink = false;
    }
    if args.flag("check") {
        cfg.check = CheckMode::Check;
    }
    match algorithm_from_args(args)? {
        None => {}
        Some(AlgorithmArg::Auto) => cfg.families = spgemm_core::serve::FamilyPolicy::Sweep,
        Some(AlgorithmArg::Fixed(fam)) => {
            cfg.families = spgemm_core::serve::FamilyPolicy::Fixed(fam);
        }
    }

    outln!(
        "serve: global budget {:.1} MB, {} worker(s), plan cache {} entries, shrink {}",
        budget_mb,
        cfg.max_concurrency,
        cfg.cache_capacity,
        if cfg.shrink { "on" } else { "off" }
    );
    let server = JobServer::start(cfg);
    if args.flag("loadgen") {
        serve_loadgen(args, &server, budget_mb)?;
        server.shutdown();
        Ok(())
    } else {
        serve_stdin(server)
    }
}

/// Self-driving mode: synthesize a small mixed workload (MCL-like
/// clusters, uniform ER, skewed RMAT — the fig3/fig4 shapes at CLI scale)
/// and drive it through the server with the chosen arrival process.
fn serve_loadgen(
    args: &Args,
    server: &spgemm_core::JobServer,
    budget_mb: f64,
) -> Result<(), String> {
    use spgemm_core::serve::{run_loadgen, ArrivalProcess, Priority};
    use spgemm_core::{JobSpec, LoadgenConfig, LoadgenReport};

    let jobs = args.get_or("jobs", 200usize)?;
    let seed = args.get_or("seed", 42u64)?;
    let arrival = match args.opt("arrival").unwrap_or("closed") {
        "open" => ArrivalProcess::Open {
            rate_hz: args.get_or("rate", 100.0f64)?,
        },
        "closed" => ArrivalProcess::Closed {
            concurrency: args.get_or("concurrency", 8usize)?,
        },
        other => return Err(format!("unknown arrival process: {other}")),
    };

    // Three structural families, squared (the A·A pattern every iterative
    // app in this repo uses), at two process counts each.
    let shapes: [(&str, CscMatrix<f64>); 3] = [
        ("clusters", clustered_similarity(6, 24, 10, 1, seed)),
        ("er", er_random::<PlusTimesF64>(192, 192, 6, seed)),
        ("rmat", rmat::<PlusTimesF64>(7, 6, None, true, seed)),
    ];
    let mut specs: Vec<JobSpec> = Vec::new();
    for (name, m) in shapes {
        let h = server.register(m);
        for p in [4usize, 16] {
            let mut spec = JobSpec::new(h, h, p, MemoryBudget::unlimited());
            spec.keep_output = false;
            specs.push(spec.clone());
            // A memory-constrained high-priority variant of the same shape
            // (exercises batching, shrink-and-batch and the queue).
            spec.budget = MemoryBudget::new((budget_mb * 1e6 / 2.0) as usize);
            spec.priority = Priority::High;
            specs.push(spec);
        }
        outln!("loadgen: registered shape {name} at p=4 and p=16");
    }

    let cfg = LoadgenConfig {
        jobs,
        arrival,
        seed,
    };
    outln!("loadgen: submitting {jobs} jobs ({arrival:?}, seed {seed})");
    let report = run_loadgen(server, &specs, &cfg);
    outln!("{}", report.to_table());
    if let Some(path) = args.opt("csv") {
        let body = format!("{}\n{}\n", LoadgenReport::csv_header(), report.csv_row());
        std::fs::write(path, body).map_err(|e| e.to_string())?;
        outln!("wrote loadgen CSV to {path}");
    }
    Ok(())
}

/// Interactive mode: a line protocol on stdin against the resident server.
fn serve_stdin(server: spgemm_core::JobServer) -> Result<(), String> {
    use spgemm_core::serve::OperandId;
    use std::io::BufRead;

    outln!("commands: reg FILE | mul A B P [BUDGET_MB] | stats | quit");
    let mut handles: Vec<OperandId> = Vec::new();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let result = match words.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            ["reg", path] => load(path).map(|m| {
                outln!("operand {}: {}x{} with {} nonzeros", handles.len(), m.nrows(), m.ncols(), m.nnz());
                handles.push(server.register(m));
            }),
            ["mul", rest @ ..] if (3..=4).contains(&rest.len()) => {
                serve_one(&server, &handles, rest)
            }
            ["stats"] => {
                let s = server.stats();
                outln!(
                    "submitted {} | completed {} | rejected {} | queued now {} | running {}\n\
                     reserved {} of {} bytes (peak {}) | plan cache {:.0}% hit",
                    s.submitted,
                    s.completed,
                    s.rejected,
                    s.queue_depth,
                    s.running,
                    s.reserved_bytes,
                    s.budget_bytes,
                    s.peak_reserved_bytes,
                    s.cache.plan_hit_rate() * 100.0
                );
                Ok(())
            }
            _ => Err(format!("unrecognized command: {line}")),
        };
        if let Err(e) = result {
            outln!("error: {e}");
        }
    }
    let s = server.shutdown();
    outln!(
        "server drained: {} submitted, {} completed, {} rejected",
        s.submitted, s.completed, s.rejected
    );
    Ok(())
}

/// One interactive `mul A B P [BUDGET_MB]` submission (blocks for the
/// report — the interactive loop is a single tenant).
fn serve_one(
    server: &spgemm_core::JobServer,
    handles: &[spgemm_core::serve::OperandId],
    words: &[&str],
) -> Result<(), String> {
    use spgemm_core::serve::{AdmitKind, JobOutcome};
    use spgemm_core::JobSpec;

    let idx = |w: &str| -> Result<_, String> {
        let i: usize = w.parse().map_err(|_| format!("bad operand index: {w}"))?;
        handles
            .get(i)
            .copied()
            .ok_or(format!("no operand {i} registered yet"))
    };
    let p: usize = words[2].parse().map_err(|_| "bad process count")?;
    let budget = match words.get(3) {
        Some(mb) => {
            let mb: f64 = mb.parse().map_err(|_| "bad budget")?;
            MemoryBudget::new((mb * 1e6) as usize)
        }
        None => MemoryBudget::unlimited(),
    };
    let spec = JobSpec::new(idx(words[0])?, idx(words[1])?, p, budget);
    let report = server.submit(spec).wait();
    match report.outcome {
        JobOutcome::Completed(done) => {
            let shrunk = match done.admit {
                AdmitKind::AsPlanned => String::new(),
                AdmitKind::Shrunk {
                    planned_batches,
                    forced_batches,
                } => format!(" (shrunk {planned_batches}->{forced_batches} batches)"),
            };
            let plan = match report.plan_source {
                Some(spgemm_core::serve::PlanSource::Fresh) => "fresh",
                Some(spgemm_core::serve::PlanSource::ProbeReused) => "probe-reused",
                Some(spgemm_core::serve::PlanSource::Cached) => "cached",
                None => "unplanned",
            };
            outln!(
                "job {} done: nnz(C) {} in {} batch(es) on {} layer(s){}, \
                 modeled {:.5}s, queued {:.4}s, plan {plan}",
                report.id,
                done.nnz_c,
                done.nbatches,
                done.layers,
                shrunk,
                done.breakdown.total(),
                report.queue_secs
            );
        }
        JobOutcome::Rejected(reason) => outln!("job {} rejected: {reason}", report.id),
    }
    Ok(())
}

fn cmd_triangles(args: &Args) -> Result<(), String> {
    let a = load(args.req("input")?)?;
    let adj = a.map(|_| 1u64);
    let cfg = TriangleConfig::new(args.get_or("procs", 16usize)?, args.get_or("layers", 1usize)?);
    let (count, breakdown) = count_triangles(&adj, &cfg).map_err(|e| e.to_string())?;
    outln!("{count} triangles (modeled SpGEMM time {:.5}s)", breakdown.total());
    Ok(())
}

fn cmd_overlap(args: &Args) -> Result<(), String> {
    let a = load(args.req("input")?)?;
    let m = a.map(|_| 1u64);
    let cfg = OverlapConfig::new(
        args.get_or("min-shared", 2u64)?,
        args.get_or("procs", 16usize)?,
        args.get_or("layers", 1usize)?,
    );
    let (pairs, breakdown) = find_overlaps(&m, &cfg).map_err(|e| e.to_string())?;
    outln!(
        "{} candidate pairs with >= {} shared k-mers (modeled SpGEMM time {:.5}s)",
        pairs.len(),
        cfg.min_shared,
        breakdown.total()
    );
    for p in pairs.iter().take(args.get_or("show", 10usize)?) {
        outln!("  {} ~ {} ({} shared)", p.i, p.j, p.shared);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(line: &str) -> Result<(), String> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        let (_, _, keys) = COMMANDS
            .iter()
            .find(|(name, ..)| *name == args.command)
            .expect("a known subcommand");
        args.only(keys)
    }

    #[test]
    fn mcl_rejects_what_mcl_params_cannot_carry() {
        for flag in ["--check", "--batches 4", "--trace t.json", "--auto", "--batching block"] {
            let err = check(&format!("mcl --input m.mtx --procs 16 {flag}")).unwrap_err();
            let key = flag.split(' ').next().unwrap();
            assert_eq!(err, format!("mcl does not take {key}"));
        }
        check("mcl --input m.mtx --procs 16 --layers 4 --overlap --threads 2 --no-session").unwrap();
    }
}
