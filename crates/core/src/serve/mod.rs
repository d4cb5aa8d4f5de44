//! SpGEMM as a service: a resident, multi-tenant job server.
//!
//! Everything below this module exists to answer one question the
//! single-shot harness cannot: *what happens when many multiplies share
//! one machine and one memory budget?* A long-lived [`JobServer`] accepts
//! multiply jobs — operand handles, semiring, per-job budget, priority,
//! optional queue deadline — and packs them onto the simulated cluster
//! concurrently, under three coordinated policies:
//!
//! * **Planning** ([`crate::planner`], memoized by `cache`) — every job
//!   is planned with the PR-4 planner: probe the operands' structure,
//!   predict every candidate grid, run the winner. A two-level cache
//!   makes repeat shapes cheap: a probe memo keyed by operand handles, and
//!   a plan cache keyed by the pair's structural sketch
//!   (plus `p` and budget), so structurally identical work skips probe
//!   *and* predict.
//! * **Admission control** (`admission`) — each job's Eq. 2 modeled
//!   peak, `p · (input + ⌈unmerged/b⌉)`, is reserved against a **global**
//!   budget for the job's lifetime. Oversubscription queues jobs
//!   (priority, then FIFO), *shrinks* them (raise `b` until the peak fits
//!   what's currently free), or rejects them outright when even maximum
//!   batching could never fit. The invariant — admitted peaks never sum
//!   past the budget — is enforced by assertion and pinned by a property
//!   test.
//! * **Load generation** (`loadgen`) — open- and closed-loop arrival
//!   against the server, reporting throughput, p50/p99 latency, queue
//!   depth, admission decisions and cache hit rates.
//!
//! See `DESIGN.md` §15 for the full architecture (job lifecycle, the
//! admission state machine, cache keying and eviction).

pub(crate) mod admission;
pub(crate) mod cache;
pub(crate) mod job;
pub(crate) mod loadgen;
pub(crate) mod server;

pub use job::{
    AdmitKind, JobOutcome, JobReport, JobSemiring, JobSpec, OperandId, PlanSource, Priority,
    RejectReason,
};
pub use loadgen::{run_loadgen, ArrivalProcess, LoadgenConfig, LoadgenReport};
pub use server::{FamilyPolicy, JobServer, ServerConfig, ServerStats};
