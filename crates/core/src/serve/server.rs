//! The resident job server: SpGEMM as a multi-tenant service.
//!
//! One [`JobServer`] owns an operand store, a scheduler thread and a pool
//! of worker threads. Tenants [`JobServer::register`] matrices once, then
//! [`JobServer::submit`] multiply jobs against the returned handles; each
//! job is planned (probe → predict, both memoized by the
//! [`super::PlanCache`]), judged by the [`super::AdmissionController`]
//! against the **global** memory budget, and — once admitted — executed on
//! the simulated cluster as its own world of rank threads, labeled
//! `job-J-rank-I` via [`crate::harness::RunConfig::job`].
//!
//! ## Job lifecycle
//!
//! ```text
//! submit ──▶ validate ──▶ plan (cache) ──▶ decide ──┬▶ run ──▶ report
//!               │                            │      │
//!               ▼                            ▼      ▼ (shrink-and-batch:
//!            reject                        queue      raised b)
//!        (unknown operand,                   │
//!         dim mismatch,          release of a running job,
//!         plan infeasible,       re-decide in (priority, seq)
//!         never fits)            order; deadline ⇒ reject
//! ```
//!
//! Every submitted job terminates in exactly one report — completed or
//! *explicitly* rejected; nothing is silently dropped. For a finite
//! submission stream that guarantees no starvation: once submissions stop,
//! running jobs drain, the whole budget frees, and every queued job either
//! fits (min demand ≤ global budget was checked at submit) or was already
//! rejected as never-fitting.
//!
//! ## Threading
//!
//! The scheduler thread owns all mutable policy state (queue, admission
//! ledger, plan cache) — no locks on the decision path. Workers pull
//! admitted jobs from a shared channel and run the multiply; each multiply
//! internally spawns its `p` rank threads, so `max_concurrency` bounds the
//! number of concurrent *worlds*, while the admission controller bounds
//! their aggregate modeled memory.

use super::admission::{AdmissionController, Decision, JobDemand};
use super::cache::{CacheStats, CachedPlan, PlanCache, PlanKey};
use super::job::{
    AdmitKind, CompletedJob, JobId, JobOutcome, JobReport, JobSemiring, JobSpec, OperandId,
    PlanSource, Priority, RejectReason,
};
use crate::backend::BackendKind;
use crate::family15::AlgorithmFamily;
use crate::harness::{run_spgemm, RunConfig, RunOutput};
use crate::memory::Footprint;
use crate::planner::sketch::sketch;
use crate::planner::{self, Candidate, PlannerConfig, ProbeConfig};
use spgemm_simgrid::{CheckMode, Machine};
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64};
use spgemm_sparse::CscMatrix;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the per-job planner chooses the algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyPolicy {
    /// Every job is planned within one fixed family (the historical
    /// behaviour is `Fixed(Summa3dBatched)`, the default).
    Fixed(AlgorithmFamily),
    /// Sweep every family valid at the job's `p` (including every
    /// replication factor `c`) and run the predicted winner.
    Sweep,
}

impl Default for FamilyPolicy {
    fn default() -> Self {
        FamilyPolicy::Fixed(AlgorithmFamily::Summa3dBatched)
    }
}

impl FamilyPolicy {
    /// The family list handed to the planner for a job on `p` processes.
    pub(crate) fn families_for(self, p: usize) -> Vec<AlgorithmFamily> {
        match self {
            FamilyPolicy::Fixed(f) => vec![f],
            FamilyPolicy::Sweep => AlgorithmFamily::sweep(p),
        }
    }
}

/// Server-wide policy: the global budget and the execution substrate.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Global memory budget (aggregate modeled bytes across every
    /// concurrently admitted job). The admission controller never lets
    /// the sum of admitted jobs' Eq. 2 peaks exceed this.
    pub budget_bytes: usize,
    /// Worker threads — the maximum number of concurrently *running*
    /// multiply worlds (each world spawns its own `p` rank threads).
    pub max_concurrency: usize,
    /// Plan-cache capacity (plans, not probes; 0 disables plan caching).
    pub cache_capacity: usize,
    /// Machine cost model every job is planned and simulated against.
    pub machine: Machine,
    /// Kernel execution backend for admitted runs.
    pub backend: BackendKind,
    /// Collective-protocol verification mode for admitted runs.
    pub check: CheckMode,
    /// Allow shrink-and-batch admission (raise a job's batch count so its
    /// peak fits the budget *currently* available instead of queueing).
    pub shrink: bool,
    /// Probe sampling parameters (part of every sketch, so changing them
    /// naturally partitions the plan cache).
    pub probe: ProbeConfig,
    /// Algorithm families the per-job planner considers.
    pub families: FamilyPolicy,
}

impl ServerConfig {
    /// Defaults: 4 workers, 64-plan cache, KNL model, default backend and
    /// check mode, shrink-and-batch on.
    pub fn new(budget_bytes: usize) -> Self {
        ServerConfig {
            budget_bytes,
            max_concurrency: 4,
            cache_capacity: 64,
            machine: Machine::knl(),
            backend: BackendKind::default_kind(),
            check: CheckMode::default_mode(),
            shrink: true,
            probe: ProbeConfig::default(),
            families: FamilyPolicy::default(),
        }
    }
}

/// Aggregate server counters, snapshotted by [`JobServer::stats`] and
/// returned by [`JobServer::shutdown`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs explicitly rejected (any reason).
    pub rejected: u64,
    /// Completed jobs admitted via shrink-and-batch.
    pub shrunk_admissions: u64,
    /// Jobs that spent time in the queue before their terminal state.
    pub queued_ever: u64,
    /// High-water mark of the queue depth.
    pub peak_queue_depth: usize,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Running jobs at snapshot time.
    pub running: usize,
    /// The global budget.
    pub budget_bytes: usize,
    /// Reserved bytes at snapshot time.
    pub reserved_bytes: usize,
    /// High-water mark of reserved bytes — always `≤ budget_bytes`.
    pub peak_reserved_bytes: usize,
    /// Plan/probe cache counters.
    pub cache: CacheStats,
}

/// Handle to one submitted job; [`JobTicket::wait`] blocks for its report.
#[derive(Debug)]
pub struct JobTicket {
    /// The server-assigned id (also in the report).
    pub id: JobId,
    rx: Receiver<JobReport>,
}

impl JobTicket {
    /// Block until the job completes or is rejected.
    pub fn wait(self) -> JobReport {
        self.rx
            .recv()
            .expect("job server dropped a reply channel without reporting")
    }
}

// ---------------------------------------------------------------------
// Wire types between the public handle, the scheduler and the workers.
// ---------------------------------------------------------------------

struct Submission {
    id: JobId,
    spec: JobSpec,
    reply: Sender<JobReport>,
    submitted: Instant,
}

enum Msg {
    Submit(Box<Submission>),
    Done {
        id: JobId,
        result: Result<Box<RunOutput<f64>>, String>,
        run_secs: f64,
    },
    Stats(Sender<ServerStats>),
    Shutdown(Sender<ServerStats>),
}

struct WorkItem {
    id: JobId,
    semiring: JobSemiring,
    a: Arc<CscMatrix<f64>>,
    b: Arc<CscMatrix<f64>>,
    /// The whole run policy, built once in `Scheduler::dispatch`.
    run: RunConfig,
}

/// A planned job waiting for budget.
struct Pending {
    id: JobId,
    seq: u64,
    priority: Priority,
    spec: JobSpec,
    demand: JobDemand,
    candidate: Candidate,
    a: Arc<CscMatrix<f64>>,
    b: Arc<CscMatrix<f64>>,
    deadline_at: Option<Instant>,
}

/// Per-job bookkeeping the scheduler keeps until the report goes out.
struct JobMeta {
    reply: Sender<JobReport>,
    submitted: Instant,
    admitted: Option<Instant>,
    plan_source: Option<PlanSource>,
    admit: Option<AdmitKind>,
    reserved: usize,
}

// ---------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------

type OperandStore = Arc<RwLock<Vec<Arc<CscMatrix<f64>>>>>;

/// The resident multi-tenant SpGEMM server.
#[derive(Debug)]
pub struct JobServer {
    tx: Sender<Msg>,
    store: OperandStore,
    next_id: AtomicU64,
    scheduler: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Start the scheduler and worker pool.
    pub fn start(cfg: ServerConfig) -> Self {
        let store: OperandStore = Arc::new(RwLock::new(Vec::new()));
        let (tx, rx) = channel::<Msg>();
        let (work_tx, work_rx) = channel::<WorkItem>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let workers: Vec<JoinHandle<()>> = (0..cfg.max_concurrency.max(1))
            .map(|w| {
                let work_rx = Arc::clone(&work_rx);
                let done_tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&work_rx, &done_tx))
                    .expect("spawn serve worker")
            })
            .collect();

        let sched_store = Arc::clone(&store);
        let scheduler = std::thread::Builder::new()
            .name("serve-scheduler".into())
            .spawn(move || Scheduler::new(cfg, sched_store, work_tx).run(&rx))
            .expect("spawn serve scheduler");

        JobServer {
            tx,
            store,
            next_id: AtomicU64::new(0),
            scheduler: Some(scheduler),
            workers,
        }
    }

    /// Register a matrix with the operand store. The handle stays valid
    /// for the server's whole life; operands are immutable once
    /// registered (that immutability is what makes the probe memo exact).
    pub fn register(&self, m: CscMatrix<f64>) -> OperandId {
        let mut store = self.store.write().expect("operand store poisoned");
        let id = u32::try_from(store.len()).expect("operand store overflow");
        store.push(Arc::new(m));
        OperandId(id)
    }

    /// Submit a job; the returned ticket's `JobTicket::wait` blocks for
    /// its report.
    pub fn submit(&self, spec: JobSpec) -> JobTicket {
        let (reply, rx) = channel();
        let id = self.submit_with(spec, reply);
        JobTicket { id, rx }
    }

    /// Submit a job whose report goes to a caller-supplied channel — the
    /// load generator's closed loop shares one channel across every
    /// outstanding job so any completion can trigger the next submission.
    pub fn submit_with(&self, spec: JobSpec, reply: Sender<JobReport>) -> JobId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let sub = Submission {
            id,
            spec,
            reply,
            submitted: Instant::now(),
        };
        if let Err(failed) = self.tx.send(Msg::Submit(Box::new(sub))) {
            // Scheduler already gone: still uphold "every job reports".
            let Msg::Submit(sub) = failed.0 else {
                unreachable!("send failure returns the submit we sent")
            };
            let _ = sub.reply.send(JobReport {
                id,
                outcome: JobOutcome::Rejected(RejectReason::ServerShutdown),
                queue_secs: 0.0,
                run_secs: 0.0,
                total_secs: 0.0,
                plan_source: None,
            });
        }
        id
    }

    /// Snapshot the server counters.
    pub fn stats(&self) -> ServerStats {
        let (tx, rx) = channel();
        if self.tx.send(Msg::Stats(tx)).is_err() {
            return ServerStats::default();
        }
        rx.recv().unwrap_or_default()
    }

    /// Stop accepting work, reject everything still queued
    /// ([`RejectReason::ServerShutdown`]), wait for running jobs to
    /// finish, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner().unwrap_or_default()
    }

    fn shutdown_inner(&mut self) -> Option<ServerStats> {
        let scheduler = self.scheduler.take()?;
        let (tx, rx) = channel();
        let stats = if self.tx.send(Msg::Shutdown(tx)).is_ok() {
            rx.recv().ok()
        } else {
            None
        };
        let _ = scheduler.join();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        stats
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(work_rx: &Arc<Mutex<Receiver<WorkItem>>>, done_tx: &Sender<Msg>) {
    loop {
        // Hold the lock only for the dequeue, never across a run.
        let item = match work_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(item) = item else { return };
        let start = Instant::now();
        let msg = Msg::Done {
            id: item.id,
            result: execute(&item).map(Box::new),
            run_secs: start.elapsed().as_secs_f64(),
        };
        if done_tx.send(msg).is_err() {
            return;
        }
    }
}

fn execute(item: &WorkItem) -> Result<RunOutput<f64>, String> {
    match item.semiring {
        JobSemiring::PlusTimes => run_spgemm::<PlusTimesF64>(&item.run, &item.a, &item.b),
        JobSemiring::MinPlus => run_spgemm::<MinPlusF64>(&item.run, &item.a, &item.b),
    }
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

struct Scheduler {
    cfg: ServerConfig,
    store: OperandStore,
    work_tx: Sender<WorkItem>,
    admission: AdmissionController,
    cache: PlanCache,
    queue: Vec<Pending>,
    meta: HashMap<JobId, JobMeta>,
    running: usize,
    seq: u64,
    shutting_down: bool,
    shutdown_reply: Option<Sender<ServerStats>>,
    stats: ServerStats,
}

impl Scheduler {
    fn new(cfg: ServerConfig, store: OperandStore, work_tx: Sender<WorkItem>) -> Self {
        Scheduler {
            admission: AdmissionController::new(cfg.budget_bytes, cfg.shrink),
            cache: PlanCache::new(cfg.cache_capacity),
            cfg,
            store,
            work_tx,
            queue: Vec::new(),
            meta: HashMap::new(),
            running: 0,
            seq: 0,
            shutting_down: false,
            shutdown_reply: None,
            stats: ServerStats::default(),
        }
    }

    fn run(mut self, rx: &Receiver<Msg>) {
        loop {
            let msg = match self.next_deadline_in() {
                Some(wait) => match rx.recv_timeout(wait) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                },
            };
            if let Some(m) = msg {
                self.handle(m);
            }
            self.expire_deadlines();
            self.drain_queue();
            if self.shutting_down && self.running == 0 {
                if let Some(reply) = self.shutdown_reply.take() {
                    let _ = reply.send(self.snapshot());
                }
                break;
            }
        }
        // Dropping `work_tx` (with `self`) ends the worker loops.
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Submit(sub) => self.handle_submit(*sub),
            Msg::Done {
                id,
                result,
                run_secs,
            } => self.handle_done(id, result, run_secs),
            Msg::Stats(reply) => {
                let _ = reply.send(self.snapshot());
            }
            Msg::Shutdown(reply) => {
                self.shutting_down = true;
                self.shutdown_reply = Some(reply);
                let queued: Vec<Pending> = std::mem::take(&mut self.queue);
                for pend in queued {
                    self.reject(pend.id, RejectReason::ServerShutdown);
                }
            }
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            queue_depth: self.queue.len(),
            running: self.running,
            budget_bytes: self.admission.budget_bytes(),
            reserved_bytes: self.admission.reserved(),
            peak_reserved_bytes: self.admission.peak_reserved(),
            cache: self.cache.stats(),
            ..self.stats
        }
    }

    fn handle_submit(&mut self, sub: Submission) {
        self.stats.submitted += 1;
        self.meta.insert(
            sub.id,
            JobMeta {
                reply: sub.reply,
                submitted: sub.submitted,
                admitted: None,
                plan_source: None,
                admit: None,
                reserved: 0,
            },
        );
        if self.shutting_down {
            self.reject(sub.id, RejectReason::ServerShutdown);
            return;
        }
        let (plan, source, a, b) = match self.plan_job(&sub.spec) {
            Ok(parts) => parts,
            Err(reason) => {
                self.reject(sub.id, reason);
                return;
            }
        };
        if let Some(m) = self.meta.get_mut(&sub.id) {
            m.plan_source = Some(source);
        }
        self.seq += 1;
        let deadline_at = sub.spec.deadline.map(|d| sub.submitted + d);
        let pending = Pending {
            id: sub.id,
            seq: self.seq,
            priority: sub.spec.priority,
            demand: plan.demand,
            candidate: plan.candidate,
            spec: sub.spec,
            a,
            b,
            deadline_at,
        };
        if let Some(pending) = self.try_admit(pending) {
            self.stats.queued_ever += 1;
            self.queue.push(pending);
            self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len());
        }
    }

    /// Plan the job, going through both cache levels. Returns the plan,
    /// its provenance, and the resolved operands.
    #[allow(clippy::type_complexity)] // internal submit-path bundle
    fn plan_job(
        &mut self,
        spec: &JobSpec,
    ) -> Result<
        (CachedPlan, PlanSource, Arc<CscMatrix<f64>>, Arc<CscMatrix<f64>>),
        RejectReason,
    > {
        if spec.p == 0 {
            return Err(RejectReason::PlanInfeasible("p must be at least 1".into()));
        }
        let (a, b) = {
            let store = self.store.read().expect("operand store poisoned");
            let a = store
                .get(spec.a.index())
                .cloned()
                .ok_or(RejectReason::UnknownOperand)?;
            let b = store
                .get(spec.b.index())
                .cloned()
                .ok_or(RejectReason::UnknownOperand)?;
            (a, b)
        };
        if a.ncols() != b.nrows() {
            return Err(RejectReason::DimensionMismatch);
        }

        let pair = (spec.a, spec.b);
        let (hash, est, probe_reused) = match self.cache.probe_lookup(pair) {
            Some((hash, est)) => (hash, est, true),
            None => {
                let est = planner::probe(&a, &b, &self.cfg.probe)
                    .map_err(|e| RejectReason::PlanInfeasible(e.to_string()))?;
                let hash = sketch(&est, &self.cfg.probe);
                let est = Arc::new(est);
                self.cache.probe_insert(pair, hash, Arc::clone(&est));
                (hash, est, false)
            }
        };

        let key = PlanKey {
            sketch: hash,
            p: spec.p,
            budget_bytes: spec.budget.total_bytes,
        };
        if let Some(plan) = self.cache.get(&key) {
            return Ok((plan, PlanSource::Cached, a, b));
        }

        let mut pcfg = PlannerConfig::new(self.cfg.machine, spec.budget);
        pcfg.probe = self.cfg.probe;
        pcfg.families = self.cfg.families.families_for(spec.p);
        let report = planner::plan_with_probe(spec.p, &*a, &*b, &pcfg, &est)
            .map_err(|e| RejectReason::PlanInfeasible(e.to_string()))?;
        let winner = report.winner().ok_or_else(|| {
            let why = report
                .ranked
                .first()
                .map_or_else(|| "no candidates".into(), |c| c.note.clone());
            RejectReason::PlanInfeasible(why)
        })?;
        let plan = CachedPlan {
            candidate: winner.candidate,
            demand: JobDemand {
                p: spec.p,
                footprint: Footprint {
                    inputs: winner.input_bytes_per_proc,
                    unmerged: winner.unmerged_bytes_per_proc,
                },
                planned_batches: winner.batches,
                max_batches: b.ncols().max(1),
            },
        };
        self.cache.insert(key, plan.clone());
        let source = if probe_reused {
            PlanSource::ProbeReused
        } else {
            PlanSource::Fresh
        };
        Ok((plan, source, a, b))
    }

    /// Decide a planned job now. Returns the job back when it must queue.
    fn try_admit(&mut self, pending: Pending) -> Option<Pending> {
        match self.admission.decide(&pending.demand) {
            Decision::Admit { batches, bytes } => {
                self.dispatch(pending, batches, bytes, AdmitKind::AsPlanned);
                None
            }
            Decision::AdmitShrunk { batches, bytes } => {
                let kind = AdmitKind::Shrunk {
                    planned_batches: pending.demand.planned_batches,
                    forced_batches: batches,
                };
                self.dispatch(pending, batches, bytes, kind);
                None
            }
            Decision::Queue => Some(pending),
            Decision::Reject { min_bytes } => {
                let budget_bytes = self.admission.budget_bytes();
                self.reject(
                    pending.id,
                    RejectReason::NeverFits {
                        min_bytes,
                        budget_bytes,
                    },
                );
                None
            }
        }
    }

    fn dispatch(&mut self, pending: Pending, batches: usize, bytes: usize, kind: AdmitKind) {
        self.admission.admit(pending.id, bytes);
        if let Some(m) = self.meta.get_mut(&pending.id) {
            m.admitted = Some(Instant::now());
            m.admit = Some(kind);
            m.reserved = bytes;
        }
        if matches!(kind, AdmitKind::Shrunk { .. }) {
            self.stats.shrunk_admissions += 1;
        }
        self.running += 1;
        let item = WorkItem {
            id: pending.id,
            semiring: pending.spec.semiring,
            a: pending.a,
            b: pending.b,
            run: RunConfig {
                machine: self.cfg.machine,
                budget: pending.spec.budget,
                forced_batches: Some(batches),
                discard_output: !pending.spec.keep_output,
                check: self.cfg.check,
                backend: self.cfg.backend,
                job: Some(pending.id),
                ..RunConfig::new(pending.spec.p, 1).with_candidate(&pending.candidate)
            },
        };
        // Workers only exit after this sender drops, so this cannot fail
        // while the scheduler lives.
        let _ = self.work_tx.send(item);
    }

    fn handle_done(
        &mut self,
        id: JobId,
        result: Result<Box<RunOutput<f64>>, String>,
        run_secs: f64,
    ) {
        self.running -= 1;
        self.admission.release(id);
        let Some(meta) = self.meta.remove(&id) else {
            return;
        };
        let now = Instant::now();
        let queue_secs = meta
            .admitted
            .map_or(0.0, |t| (t - meta.submitted).as_secs_f64());
        let outcome = match result {
            Ok(out) => {
                self.stats.completed += 1;
                JobOutcome::Completed(Box::new(CompletedJob {
                    nnz_c: out.c.as_ref().map_or(0, CscMatrix::nnz),
                    c: out.c,
                    admit: meta.admit.unwrap_or(AdmitKind::AsPlanned),
                    reserved_bytes: meta.reserved,
                    nbatches: out.nbatches,
                    layers: out.layers,
                    breakdown: out.max,
                    peak_bytes_per_proc: out.peak_bytes.iter().copied().max().unwrap_or(0),
                }))
            }
            Err(msg) => {
                self.stats.rejected += 1;
                JobOutcome::Rejected(RejectReason::PlanInfeasible(format!("run failed: {msg}")))
            }
        };
        let _ = meta.reply.send(JobReport {
            id,
            outcome,
            queue_secs,
            run_secs,
            total_secs: (now - meta.submitted).as_secs_f64(),
            plan_source: meta.plan_source,
        });
    }

    fn reject(&mut self, id: JobId, reason: RejectReason) {
        let Some(meta) = self.meta.remove(&id) else {
            return;
        };
        self.stats.rejected += 1;
        let waited = meta.submitted.elapsed().as_secs_f64();
        let _ = meta.reply.send(JobReport {
            id,
            outcome: JobOutcome::Rejected(reason),
            queue_secs: waited,
            run_secs: 0.0,
            total_secs: waited,
            plan_source: meta.plan_source,
        });
    }

    fn next_deadline_in(&self) -> Option<Duration> {
        let now = Instant::now();
        self.queue
            .iter()
            .filter_map(|p| p.deadline_at)
            .min()
            .map(|at| at.saturating_duration_since(now).min(Duration::from_millis(50)))
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deadline_at.is_some_and(|at| at <= now) {
                let pend = self.queue.remove(i);
                self.reject(pend.id, RejectReason::DeadlineExpired);
            } else {
                i += 1;
            }
        }
    }

    /// Backfill: re-decide queued jobs in (priority, submission) order
    /// until a full pass admits nothing.
    fn drain_queue(&mut self) {
        loop {
            if self.queue.is_empty() {
                return;
            }
            let mut order: Vec<usize> = (0..self.queue.len()).collect();
            order.sort_by_key(|&i| (Reverse(self.queue[i].priority), self.queue[i].seq));
            let mut admitted_one = false;
            for &i in &order {
                // Pure decision first; only on admit do we remove + dispatch.
                match self.admission.decide(&self.queue[i].demand) {
                    Decision::Queue => {}
                    _ => {
                        let pend = self.queue.remove(i);
                        let back = self.try_admit(pend);
                        debug_assert!(back.is_none(), "decide/admit disagreed");
                        admitted_one = true;
                        break; // indices shifted; rebuild the order
                    }
                }
            }
            if !admitted_one {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBudget;
    use spgemm_sparse::gen::er_random;

    fn small_server(budget: usize) -> (JobServer, OperandId, OperandId) {
        let mut cfg = ServerConfig::new(budget);
        cfg.machine = Machine::knl_mini();
        cfg.max_concurrency = 2;
        let server = JobServer::start(cfg);
        let a = server.register(er_random::<PlusTimesF64>(48, 48, 4, 1001));
        let b = server.register(er_random::<PlusTimesF64>(48, 48, 4, 1002));
        (server, a, b)
    }

    #[test]
    fn single_job_matches_direct_run() {
        let (server, a, b) = small_server(usize::MAX / 4);
        let spec = JobSpec::new(a, b, 4, MemoryBudget::unlimited());
        let report = server.submit(spec).wait();
        let done = report.completed().expect("ample budget completes");
        assert_eq!(report.plan_source, Some(PlanSource::Fresh));
        assert_eq!(done.admit, AdmitKind::AsPlanned);

        // Bit-identical to a direct harness run of the same plan.
        let am = er_random::<PlusTimesF64>(48, 48, 4, 1001);
        let bm = er_random::<PlusTimesF64>(48, 48, 4, 1002);
        let mut rc = RunConfig::auto(4);
        rc.machine = Machine::knl_mini();
        let direct = run_spgemm::<PlusTimesF64>(&rc, &am, &bm).unwrap();
        assert!(done.c.as_ref().unwrap().eq_modulo_order(direct.c.as_ref().unwrap()));
        let stats = server.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.rejected), (1, 1, 0));
        assert!(stats.peak_reserved_bytes <= stats.budget_bytes);
    }

    #[test]
    fn repeat_jobs_hit_the_plan_cache() {
        let (server, a, b) = small_server(usize::MAX / 4);
        let first = server
            .submit(JobSpec::new(a, b, 4, MemoryBudget::unlimited()))
            .wait();
        assert_eq!(first.plan_source, Some(PlanSource::Fresh));
        for _ in 0..3 {
            let rep = server
                .submit(JobSpec::new(a, b, 4, MemoryBudget::unlimited()))
                .wait();
            assert_eq!(rep.plan_source, Some(PlanSource::Cached));
        }
        // Same pair, different p: probe memo hits, plan level misses.
        let rep = server
            .submit(JobSpec::new(a, b, 16, MemoryBudget::unlimited()))
            .wait();
        assert_eq!(rep.plan_source, Some(PlanSource::ProbeReused));
        let stats = server.shutdown();
        assert_eq!(stats.cache.plan_hits, 3);
        assert_eq!(stats.cache.plan_misses, 2);
        assert_eq!(stats.cache.probe_misses, 1);
        assert!(stats.cache.probe_hits >= 4);
    }

    #[test]
    fn bad_submissions_are_rejected_with_reasons() {
        let (server, a, _b) = small_server(usize::MAX / 4);
        let wide = server.register(er_random::<PlusTimesF64>(24, 24, 2, 1003));
        let rep = server
            .submit(JobSpec::new(a, wide, 4, MemoryBudget::unlimited()))
            .wait();
        assert_eq!(rep.rejected(), Some(&RejectReason::DimensionMismatch));
        let rep = server
            .submit(JobSpec::new(
                OperandId(99),
                a,
                4,
                MemoryBudget::unlimited(),
            ))
            .wait();
        assert_eq!(rep.rejected(), Some(&RejectReason::UnknownOperand));
        // A job whose minimum demand exceeds the global budget.
        let tiny = JobServer::start(ServerConfig {
            machine: Machine::knl_mini(),
            ..ServerConfig::new(64)
        });
        let ta = tiny.register(er_random::<PlusTimesF64>(48, 48, 4, 1004));
        let rep = tiny.submit(JobSpec::new(ta, ta, 4, MemoryBudget::unlimited())).wait();
        assert!(
            matches!(rep.rejected(), Some(RejectReason::NeverFits { .. })),
            "{:?}",
            rep.outcome
        );
        drop(server);
        drop(tiny);
    }

    #[test]
    fn min_plus_jobs_run_the_tropical_semiring() {
        let (server, a, b) = small_server(usize::MAX / 4);
        let mut spec = JobSpec::new(a, b, 4, MemoryBudget::unlimited());
        spec.semiring = JobSemiring::MinPlus;
        let done = server.submit(spec).wait();
        let done = done.completed().expect("completes");
        let am = er_random::<PlusTimesF64>(48, 48, 4, 1001);
        let bm = er_random::<PlusTimesF64>(48, 48, 4, 1002);
        let mut rc = RunConfig::auto(4);
        rc.machine = Machine::knl_mini();
        let direct = run_spgemm::<MinPlusF64>(&rc, &am, &bm).unwrap();
        assert!(done.c.as_ref().unwrap().eq_modulo_order(direct.c.as_ref().unwrap()));
    }
}
