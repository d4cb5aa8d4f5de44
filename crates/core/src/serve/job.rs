//! Job vocabulary of the serve subsystem: what a tenant submits and what
//! the server reports back.

use crate::memory::MemoryBudget;
use spgemm_simgrid::StepBreakdown;
use spgemm_sparse::CscMatrix;
use std::time::Duration;

/// Monotone id the server assigns to each submitted job.
pub(crate) type JobId = u64;

/// Handle to a matrix registered with the server's operand store.
///
/// Jobs reference operands by handle so that a thousand-job workload over
/// a handful of matrices never copies or re-hashes them per submission;
/// the store also memoizes each handle pair's structural probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperandId(pub(crate) u32);

impl OperandId {
    /// The store slot this handle names (stable for the server's life).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Scheduling priority. Higher admits first; FIFO within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Batch / best-effort work.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: admitted ahead of everything else.
    High,
}

/// Which semiring the multiplication runs under (the server's operands
/// are `f64` matrices; the semiring picks the algebra over them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobSemiring {
    /// Ordinary `(+, ×)` numeric SpGEMM.
    #[default]
    PlusTimes,
    /// Tropical `(min, +)` — shortest-path style products.
    MinPlus,
}

/// One multiply request: operand handles plus per-job policy.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Left operand handle (from [`super::JobServer::register`]).
    pub a: OperandId,
    /// Right operand handle.
    pub b: OperandId,
    /// Algebra to multiply under.
    pub semiring: JobSemiring,
    /// Simulated ranks this job runs on.
    pub p: usize,
    /// The job's own memory budget (aggregate over its `p` ranks). The
    /// planner derives layers and the Alg. 3 batch count from it; the
    /// admission controller charges the resulting Eq. 2 peak against the
    /// *global* budget, so a job never gets more than it asked for and
    /// the server never promises more than it has.
    pub budget: MemoryBudget,
    /// Scheduling class.
    pub priority: Priority,
    /// Give up if not **admitted** within this long of submission; the
    /// job is then explicitly rejected with
    /// [`RejectReason::DeadlineExpired`] rather than left to starve.
    pub deadline: Option<Duration>,
    /// Gather and return the product (`true`) or discard each batch after
    /// formation (`false`, the memory-constrained application pattern).
    pub keep_output: bool,
}

impl JobSpec {
    /// A normal-priority keep-output job with the given operands, ranks
    /// and budget.
    pub fn new(a: OperandId, b: OperandId, p: usize, budget: MemoryBudget) -> Self {
        JobSpec {
            a,
            b,
            semiring: JobSemiring::default(),
            p,
            budget,
            priority: Priority::default(),
            deadline: None,
            keep_output: true,
        }
    }
}

/// Why the server refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// An operand handle does not name a registered matrix.
    UnknownOperand,
    /// `ncols(A) != nrows(B)`.
    DimensionMismatch,
    /// The planner found no feasible configuration under the *job's own*
    /// budget (inputs too large, or one output column's intermediate
    /// cannot fit).
    PlanInfeasible(String),
    /// Even at maximum batching the job's modeled peak exceeds the
    /// server's **global** budget: no amount of waiting can admit it.
    NeverFits {
        /// Aggregate modeled bytes the job needs at its finest batching.
        min_bytes: usize,
        /// The server's global budget.
        budget_bytes: usize,
    },
    /// The job's queue deadline passed before admission.
    DeadlineExpired,
    /// The server was shut down while the job was still queued.
    ServerShutdown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownOperand => write!(f, "unknown operand handle"),
            RejectReason::DimensionMismatch => write!(f, "inner dimensions differ"),
            RejectReason::PlanInfeasible(msg) => write!(f, "plan infeasible: {msg}"),
            RejectReason::NeverFits {
                min_bytes,
                budget_bytes,
            } => write!(
                f,
                "needs {min_bytes} modeled bytes even at maximum batching but the global \
                 budget is {budget_bytes}"
            ),
            RejectReason::DeadlineExpired => write!(f, "queue deadline expired"),
            RejectReason::ServerShutdown => write!(f, "server shut down"),
        }
    }
}

/// How the admission controller let a job in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitKind {
    /// Admitted at the planner's batch count.
    AsPlanned,
    /// Admitted after shrink-and-batch: the batch count was raised from
    /// the planned value so the job's peak fits the budget *currently*
    /// available (trading A-rebroadcast time for earlier admission).
    Shrunk {
        /// The planner's batch count under the job's own budget.
        planned_batches: usize,
        /// The batch count actually run.
        forced_batches: usize,
    },
}

/// Where the job's plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Probe ran and the full candidate ranking was computed.
    Fresh,
    /// The operand pair had been probed before (same handles): the probe
    /// was skipped, but this (budget, p) combination still needed a
    /// predict pass.
    ProbeReused,
    /// Full plan-cache hit: probe *and* predict skipped.
    Cached,
}

/// What happened to one job, returned through its ticket.
#[derive(Debug)]
pub struct JobReport {
    /// The server-assigned id.
    pub id: JobId,
    /// Completion or explicit rejection.
    pub outcome: JobOutcome,
    /// Seconds between submission and admission (wall clock).
    pub queue_secs: f64,
    /// Seconds the multiply itself took (wall clock).
    pub run_secs: f64,
    /// Seconds between submission and the report (wall clock).
    pub total_secs: f64,
    /// Plan provenance (probe/predict skipped or not).
    pub plan_source: Option<PlanSource>,
}

/// Terminal job state.
#[derive(Debug)]
pub enum JobOutcome {
    /// The multiply ran to completion.
    Completed(Box<CompletedJob>),
    /// The server refused the job (never silently dropped).
    Rejected(RejectReason),
}

/// Everything a finished multiply reports.
#[derive(Debug)]
pub struct CompletedJob {
    /// The product, when the spec asked to keep it.
    pub c: Option<CscMatrix<f64>>,
    /// `nnz(C)` of the gathered product (0 when the output was
    /// discarded batch-wise).
    pub nnz_c: usize,
    /// How the job was admitted (as planned or shrunk).
    pub admit: AdmitKind,
    /// Aggregate modeled bytes the admission controller reserved for the
    /// job's lifetime.
    pub reserved_bytes: usize,
    /// Batches actually executed.
    pub nbatches: usize,
    /// Grid layers the plan chose.
    pub layers: usize,
    /// Modeled critical-path step breakdown (max over the job's ranks) —
    /// feeds the existing `StepReport` machinery.
    pub breakdown: StepBreakdown,
    /// Max over the job's ranks of the *runtime*-tracked modeled peak
    /// bytes (per process).
    pub peak_bytes_per_proc: usize,
}

impl JobReport {
    /// Convenience for tests and load generators.
    pub fn completed(&self) -> Option<&CompletedJob> {
        match &self.outcome {
            JobOutcome::Completed(c) => Some(c),
            JobOutcome::Rejected(_) => None,
        }
    }

    /// Was the job explicitly rejected?
    pub fn rejected(&self) -> Option<&RejectReason> {
        match &self.outcome {
            JobOutcome::Completed(_) => None,
            JobOutcome::Rejected(r) => Some(r),
        }
    }
}
