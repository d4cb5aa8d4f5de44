//! Virtual MPI runtime for reproducing distributed-memory algorithms on a
//! single machine.
//!
//! The paper evaluates on up to 262,144 Cray XC40 cores. This crate
//! substitutes that testbed with a **simulated cluster**:
//!
//! * every simulated MPI process ("rank") runs as a real OS thread and the
//!   algorithms execute for real — outputs are bit-for-bit what an MPI run
//!   would produce;
//! * collective operations (`collectives`) have MPI semantics (bcast /
//!   allreduce / allgather / alltoallv / gather / barrier) and run through
//!   one shared meeting slot per operation (`slot`): each member deposits
//!   its clock and contribution, the last arrival wakes the rest, and each
//!   reads what it needs; user-level point-to-point messages wait in one
//!   FIFO per envelope in the same table, under the same lock;
//! * *time* is modeled, not measured: each rank carries a [`clock::RankClock`]
//!   advanced by an **α–β machine model** ([`cost::Machine`]) — latency `α`
//!   per message round, inverse bandwidth `β` per byte, and a calibrated
//!   seconds-per-work-unit for local computation. Every collective
//!   max-synchronizes the clocks of its participants, so the per-step
//!   breakdowns reported by [`stats`] reflect the critical path, exactly
//!   like the per-step maxima the paper plots.
//!
//! The α–β model is the same model the paper uses for its own complexity
//! analysis (Table II), which is what makes the modeled step breakdowns
//! comparable in *shape* to the paper's measurements.
//!
//! Because the simulation is deterministic, MPI usage errors that are
//! heisenbugs on a real machine are *repeatable* here: the `check` module
//! verifies the collective protocol as it runs (mismatched collective
//! order, root disagreement, malformed alltoallv descriptors, leaked
//! nonblocking handles, non-monotone clocks, stalls) and reports a
//! `ProtocolViolation` naming the ranks and operations involved.
//! Checking defaults on in debug builds — every test exercises it — and is
//! controlled by [`check::CheckMode`] / the `SPGEMM_CHECK` environment
//! variable. In either mode, a collective that a member's thread exited
//! without joining, or a receive from a rank that exited without sending,
//! ends in a panic naming that rank and the operation, never in a hang:
//! with checking off as soon as a waiter sees the exit, with checking on
//! in the stall report, once every rank is blocked or gone.

#![forbid(unsafe_code)]

pub(crate) mod check;
pub mod clock;
pub(crate) mod collectives;
pub(crate) mod comm;
pub(crate) mod cost;
pub mod grid;
pub(crate) mod nonblocking;
pub(crate) mod runtime;
pub(crate) mod slot;
pub mod stats;
pub(crate) mod trace;

pub use check::{CheckMode, LoggedAction, LoggedOp, OpKind};
pub use clock::{Step, StepBreakdown};
pub use comm::{Comm, Rank};
pub use cost::Machine;
pub use grid::Grid3D;
pub use nonblocking::PendingBcast;
pub use runtime::{run_ranks, run_ranks_checked, run_ranks_logged, run_ranks_seeded};
pub use stats::{max_breakdown, KernelCounters, StepReport};
pub use trace::{chrome_trace_json, TraceEvent};
