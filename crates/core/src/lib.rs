//! Communication-avoiding, memory-constrained distributed SpGEMM.
//!
//! Rust reproduction of *"Communication-Avoiding and Memory-Constrained
//! Sparse Matrix-Matrix Multiplication at Extreme Scale"* (Hussain,
//! Selvitopi, Buluç, Azad — IPDPS 2021), running on the `spgemm-simgrid`
//! virtual cluster with `spgemm-sparse` local kernels.
//!
//! The algorithm stack, bottom to top:
//!
//! * `summa2d` — 2D sparse SUMMA (Alg. 1): per-stage row/column
//!   broadcasts, local multiply, merge.
//! * `summa3d` — 3D sparse SUMMA (Alg. 2): SUMMA2D per layer, then
//!   ColSplit → AllToAll-Fiber → Merge-Fiber.
//! * `symbolic` — Symbolic3D (Alg. 3): distributed structure-only pass
//!   that determines the exact number of batches `b` a memory budget
//!   allows, plus the Eq. 2 analytic lower bound.
//! * `batched` — BatchedSUMMA3D (Alg. 4): block-cyclic column batching
//!   of `B`/`C`, one SUMMA3D per batch, per-batch delivery to the
//!   application (prune / persist / discard — the HipMCL pattern).
//!
//! Supporting modules: `backend` (modeled-clock vs real-multithreaded
//! kernel execution), [`dist`] (the paper's Fig. 1 3D data distribution,
//! with scatter/gather for testing), [`exchange`] (the pluggable
//! stage-operand movement layer: dense broadcasts vs sparsity-aware
//! point-to-point fetch), `kernels` (the *previous* vs *new*
//! local-kernel strategies of Sec. IV-D), `memory` (the `r`-bytes-per-
//! nonzero budget model and runtime peak tracking), [`harness`] (one-call
//! scatter→multiply→gather drivers used by tests, examples and benches),
//! [`schedule`] (the communication schedule of all of the above, written
//! once as op programs the drivers execute), [`audit`] (the programs'
//! second reader: payload-free lowering to per-rank events and exhaustive
//! verification across the planner's whole configuration grid), and
//! [`serve`] (SpGEMM as a service: a resident
//! multi-tenant job server with admission control under a global memory
//! budget and a sketch-keyed plan cache).

#![forbid(unsafe_code)]

pub mod audit;
pub(crate) mod backend;
pub(crate) mod batched;
pub mod dist;
pub mod exchange;
pub mod family15;
pub mod harness;
pub(crate) mod kernels;
pub(crate) mod memory;
pub mod planner;
pub mod schedule;
pub mod serve;
pub(crate) mod session;
pub(crate) mod summa2d;
pub(crate) mod summa3d;
pub(crate) mod symbolic;

pub use audit::{
    AuditConfig, AuditEvent, AuditFault, AuditReport, BatchSpec, Schedule, WorkloadShape,
};
pub use backend::BackendKind;
pub use dist::{transpose_to_bstyle, CPiece, DistKind};
pub use exchange::{ExchangeMode, ExchangePlan};
pub use family15::AlgorithmFamily;
pub use harness::{
    run_batched, run_on_grid, run_spgemm, run_spgemm_aat, run_spmm, BOperand, LayerChoice,
    RunConfig, RunOutput,
};
pub use kernels::{KernelStrategy, LocalKernels};
pub use memory::{MemoryBudget, R_BYTES_PER_NNZ};
pub use planner::{MachineProfile, PlanReport, PlannerConfig, ProbeConfig};
pub use serve::{
    JobReport, JobServer, JobSpec, LoadgenConfig, LoadgenReport, ServerConfig, ServerStats,
};
pub use session::{IterSession, SessionIterStats};
pub use summa2d::OverlapMode;

/// Errors from the distributed layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Local kernel failure.
    Sparse(spgemm_sparse::SparseError),
    /// The inputs alone exceed the memory budget (Alg. 3's denominator
    /// is non-positive): no batch count can make the multiply fit.
    InputsExceedMemory {
        needed_bytes: usize,
        budget_bytes: usize,
    },
    /// Even one-column batches cannot fit: a single output column's
    /// unmerged intermediate exceeds the memory left after the inputs.
    /// Column-wise batching has hit its upper bound (the paper's bound
    /// analysis; square-tile batching would be required, which the paper
    /// deliberately rejects to keep whole columns available to the
    /// application).
    BatchingInfeasible {
        column_bytes: usize,
        available_bytes: usize,
    },
    /// Invalid configuration (grid/batch parameters).
    Config(String),
}

impl From<spgemm_sparse::SparseError> for CoreError {
    fn from(e: spgemm_sparse::SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Sparse(e) => write!(f, "sparse kernel error: {e}"),
            CoreError::InputsExceedMemory {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "inputs need {needed_bytes} bytes but per-process budget is {budget_bytes}; \
                 no batching can help (Alg. 3 denominator non-positive)"
            ),
            CoreError::BatchingInfeasible {
                column_bytes,
                available_bytes,
            } => write!(
                f,
                "a single output column needs {column_bytes} bytes of intermediate but only \
                 {available_bytes} remain after the inputs; column-wise batching cannot go finer"
            ),
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for the distributed layer.
pub(crate) type Result<T> = std::result::Result<T, CoreError>;
