//! The run-policy flags, parsed once: `--procs --layers --auto --machine
//! --profile --kernels --exchange --overlap --backend --threads --budget-mb
//! --batches --perturb-seed --check --trace` become one
//! [`RunConfig`], and every subcommand that runs or describes a
//! multiplication reads that value instead of the flags.

use crate::args::Args;
use spgemm_core::planner::MachineProfile;
use spgemm_core::{
    BackendKind, ExchangeMode, KernelStrategy, LayerChoice, MemoryBudget, OverlapMode, RunConfig,
};
use spgemm_simgrid::{CheckMode, Machine};
use std::path::Path;

fn machine_by_name(name: &str) -> Result<Machine, String> {
    match name {
        "knl" => Ok(Machine::knl()),
        "haswell" => Ok(Machine::haswell()),
        "knl-mini" => Ok(Machine::knl_mini()),
        "knl-ht" => Ok(Machine::knl_hyperthreaded()),
        other => Err(format!("unknown machine preset: {other}")),
    }
}

/// Resolve the cost-model machine: `--profile FILE` (calibrated
/// constants) wins over `--machine NAME` (preset).
pub(crate) fn machine_from_args(args: &Args) -> Result<Machine, String> {
    if let Some(path) = args.opt("profile") {
        let profile = MachineProfile::load(Path::new(path)).map_err(|e| e.to_string())?;
        // Status line on stderr so `multiply --json` stays parseable.
        eprintln!("loaded machine profile from {path} ({})", profile.source);
        Ok(profile.to_machine())
    } else {
        machine_by_name(args.opt("machine").unwrap_or("knl"))
    }
}

/// `--backend simgrid|native [--threads N]` over `default` (what
/// `SPGEMM_BACKEND`/`SPGEMM_THREADS` selected, or a server's setting).
/// `--threads` needs a Native backend, whether a flag or the default chose
/// it; a bare `--backend native` uses every available core.
pub(crate) fn backend_from_args(args: &Args, default: BackendKind) -> Result<BackendKind, String> {
    let threads: Option<usize> = match args.opt("threads") {
        Some(t) => Some(t.parse().map_err(|_| "bad --threads")?),
        None => None,
    };
    let chosen = match args.opt("backend") {
        Some("native") => BackendKind::Native {
            threads: BackendKind::available_threads(),
        },
        Some("simgrid") => BackendKind::Simgrid,
        Some(other) => return Err(format!("unknown backend: {other}")),
        None => default,
    };
    match (chosen, threads) {
        (BackendKind::Native { .. }, Some(threads)) => Ok(BackendKind::Native { threads }),
        (BackendKind::Simgrid, Some(_)) => Err("--threads requires --backend native".into()),
        (chosen, None) => Ok(chosen),
    }
}

/// The run policy the flags describe, over [`RunConfig::new`]'s defaults
/// (which already honour `SPGEMM_CHECK` and `SPGEMM_BACKEND`). `--batches`
/// forces the batch count and then `--budget-mb` is not read.
pub(crate) fn run_config_from_args(args: &Args) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::new(args.get_or("procs", 16usize)?, args.get_or("layers", 1usize)?);
    if args.flag("auto") {
        cfg.layers = LayerChoice::Auto;
    }
    cfg.machine = machine_from_args(args)?;
    cfg.kernels = match args.opt("kernels").unwrap_or("new") {
        "new" => KernelStrategy::New,
        "previous" => KernelStrategy::Previous,
        other => return Err(format!("unknown kernel strategy: {other}")),
    };
    if let Some(x) = args.opt("exchange") {
        cfg.exchange = ExchangeMode::parse(x)?;
    }
    if args.flag("overlap") {
        cfg.overlap = OverlapMode::Overlapped;
    }
    cfg.backend = backend_from_args(args, cfg.backend)?;
    if let Some(b) = args.opt("batches") {
        cfg.forced_batches = Some(b.parse().map_err(|_| "bad --batches")?);
    } else if let Some(mb) = args.opt("budget-mb") {
        let mb: f64 = mb.parse().map_err(|_| "bad --budget-mb")?;
        cfg.budget = MemoryBudget::new((mb * 1e6) as usize);
    }
    if args.flag("check") {
        cfg.check = CheckMode::Check;
    }
    if let Some(s) = args.opt("perturb-seed") {
        cfg.perturb = Some(s.parse().map_err(|_| "bad --perturb-seed")?);
    }
    cfg.trace = args.opt("trace").is_some();
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn backend_threads_and_default_matrix() {
        use BackendKind::{Native, Simgrid};
        let all = BackendKind::available_threads();
        let env_native = Native { threads: 3 };
        // (flags, default) -> backend, or None for an error.
        let table: [(&[&str], BackendKind, Option<BackendKind>); 12] = [
            (&[], Simgrid, Some(Simgrid)),
            (&[], env_native, Some(env_native)),
            (&["--threads", "2"], Simgrid, None),
            (&["--threads", "2"], env_native, Some(Native { threads: 2 })),
            (&["--backend", "simgrid"], env_native, Some(Simgrid)),
            (&["--backend", "simgrid", "--threads", "2"], Simgrid, None),
            (&["--backend", "simgrid", "--threads", "2"], env_native, None),
            (&["--backend", "native"], Simgrid, Some(Native { threads: all })),
            (&["--backend", "native"], env_native, Some(Native { threads: all })),
            (&["--backend", "native", "--threads", "2"], Simgrid, Some(Native { threads: 2 })),
            (&["--backend", "native", "--threads", "x"], Simgrid, None),
            (&["--backend", "gpu"], Simgrid, None),
        ];
        for (flags, default, want) in table {
            // The same rule for every subcommand that takes the flags.
            for cmd in ["multiply", "mcl", "serve"] {
                let args = parse(&[&[cmd], flags].concat());
                let got = backend_from_args(&args, default).ok();
                assert_eq!(got, want, "{cmd} {flags:?} over {default:?}");
            }
        }
    }

    #[test]
    fn flags_land_in_the_run_config() {
        let line = "multiply --procs 64 --layers 4 --kernels previous --exchange sparse --overlap \
                    --budget-mb 2 --perturb-seed 7 --check --trace t.json";
        let cfg = run_config_from_args(&parse(&line.split(' ').collect::<Vec<_>>())).unwrap();
        assert_eq!((cfg.p, cfg.layers), (64, LayerChoice::Fixed(4)));
        assert_eq!(cfg.kernels, KernelStrategy::Previous);
        assert_eq!((cfg.exchange, cfg.overlap), (ExchangeMode::SparseFetch, OverlapMode::Overlapped));
        assert_eq!(cfg.budget.total_bytes, 2_000_000);
        assert_eq!((cfg.perturb, cfg.check, cfg.trace), (Some(7), CheckMode::Check, true));
        // A forced batch count wins over a budget; bad values are errors.
        let forced = parse(&["audit", "--batches", "3", "--budget-mb", "2"]);
        let forced = run_config_from_args(&forced).unwrap();
        assert!(forced.forced_batches == Some(3) && forced.budget.is_unlimited());
        assert!(run_config_from_args(&parse(&["plan", "--kernels", "newest"])).is_err());
        assert!(run_config_from_args(&parse(&["mcl", "--procs", "many"])).is_err());
    }
}
