//! Execution backends: modeled-clock simulation vs real multithreaded
//! kernels.
//!
//! Every compute step in the distributed pipeline is charged to its rank's
//! clock through [`BackendKind::charge`], which decides what "running a
//! local kernel" costs:
//!
//! * [`BackendKind::Simgrid`] — the paper-reproduction default. Kernels
//!   run on one arena and the rank's clock advances by *modeled* seconds
//!   (`work_units · secs_per_work_unit / thread_scale`, the α–β machine
//!   model of `spgemm-simgrid`).
//! * [`BackendKind::Native`] — kernels run genuinely multithreaded (one
//!   [`SpGemmWorkspace`](spgemm_sparse::SpGemmWorkspace) arena per thread,
//!   see `spgemm_sparse::par`) and the rank's clock advances by the
//!   *measured* wall-clock seconds of the call.
//!
//! Both report through the same `StepReport`/`StepBreakdown` machinery, so
//! a measured Native run and a modeled Simgrid run of the same
//! configuration produce directly comparable tables — that is the
//! measured-vs-modeled contract the planner's calibrator exploits to fit
//! a [`MachineProfile`](crate::planner::MachineProfile) from a real run.
//! Output correctness is backend-independent: the kernels are bit-identical
//! for any thread count, so switching backends changes only the reported
//! times (and real runtime).
//!
//! Communication is always modeled: the virtual cluster's collectives have
//! no physical counterpart in-process. Only the compute columns
//! (`Local-Multiply`, `Merge-Layer`, `Merge-Fiber`, symbolic compute)
//! switch between modeled and measured.

use spgemm_simgrid::{Rank, Step};
use spgemm_sparse::WorkStats;

/// Which backend executes local kernels — the plumbable configuration
/// value carried by `RunConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Serial kernels, modeled clock (the default).
    #[default]
    Simgrid,
    /// Multithreaded kernels, measured wall-clock times.
    Native {
        /// Kernel threads per simulated rank. `1` still measures real
        /// time but runs the kernels inline on one arena.
        threads: usize,
    },
}

impl BackendKind {
    /// Short name for CLI/report labels.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Simgrid => "simgrid",
            BackendKind::Native { .. } => "native",
        }
    }

    /// Kernel threads per rank this backend runs (1 for Simgrid).
    pub(crate) fn threads(self) -> usize {
        match self {
            BackendKind::Simgrid => 1,
            BackendKind::Native { threads } => threads.max(1),
        }
    }

    /// The default backend: the `SPGEMM_BACKEND` environment variable if
    /// set (`native` selects [`BackendKind::Native`] with `SPGEMM_THREADS`
    /// threads, or the machine's available parallelism when unset),
    /// otherwise [`BackendKind::Simgrid`]. Mirrors how `SPGEMM_CHECK`
    /// drives `CheckMode`, and lets CI run the existing integration suites
    /// on the Native backend without touching their code.
    pub(crate) fn default_kind() -> Self {
        match std::env::var("SPGEMM_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("native") => BackendKind::Native {
                threads: std::env::var("SPGEMM_THREADS")
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(Self::available_threads),
            },
            _ => BackendKind::Simgrid,
        }
    }

    /// The host's available parallelism (1 when undetectable).
    pub fn available_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Charge one finished kernel invocation to `rank`'s clock under
    /// `step`: the modeled cost of `stats.work_units` under `Simgrid`, the
    /// `measured_secs` of the call under `Native` (whose work units still
    /// accumulate in the kernel totals).
    pub(crate) fn charge(self, rank: &mut Rank, step: Step, stats: &WorkStats, measured_secs: f64) {
        match self {
            BackendKind::Simgrid => rank.compute(step, stats.work_units),
            BackendKind::Native { .. } => rank.compute_measured(step, measured_secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_threads() {
        assert_eq!(BackendKind::Simgrid.name(), "simgrid");
        assert_eq!(BackendKind::Simgrid.threads(), 1);
        let n = BackendKind::Native { threads: 4 };
        assert_eq!(n.name(), "native");
        assert_eq!(n.threads(), 4);
        assert_eq!(BackendKind::Native { threads: 0 }.threads(), 1);
        assert_eq!(BackendKind::default(), BackendKind::Simgrid);
    }

    #[test]
    fn default_kind_without_env_is_simgrid() {
        if std::env::var("SPGEMM_BACKEND").is_err() {
            assert_eq!(BackendKind::default_kind(), BackendKind::Simgrid);
        }
    }
}
