//! Deterministic collective-protocol verification ("MPI lint").
//!
//! MPI programs that mismatch their collectives — different operations on
//! the same communicator, disagreeing roots, wrong-length alltoallv count
//! vectors, forgotten `MPI_Wait`s — fail nondeterministically at scale:
//! they hang, corrupt data, or crash far from the defect. Because this
//! runtime simulates ranks deterministically, those defects can instead be
//! *detected at the first sync point that exhibits them*, every run, with a
//! diagnostic naming the ranks involved.
//!
//! When [`CheckMode::Check`] is active (the default in debug builds, and
//! whenever `SPGEMM_CHECK` is set to anything but `0`/`off`), every
//! collective is verified where it meets: at its deposit in the
//! `(communicator, sequence)` slot ([`crate::slot`]), against the members
//! that deposited there before it, *before* its own seat is filled. The
//! deposit, and a descriptor check just before an `alltoallv`'s, detect:
//!
//! * **Order mismatch** ([`ViolationKind::OrderMismatch`]) — two ranks
//!   enter different collectives as the same operation on one
//!   communicator. Under real MPI this is the classic deadlock /
//!   cross-matched-payload class.
//! * **Root disagreement** ([`ViolationKind::RootMismatch`]) — members of a
//!   rooted collective (`bcast`, `gather`) name different roots.
//! * **Count asymmetry** ([`ViolationKind::CountMismatch`]) — an
//!   `alltoallv` descriptor whose part/size vectors do not match the
//!   communicator size.
//! * **Leaked handles** ([`ViolationKind::LeakedHandle`]) — a nonblocking
//!   handle dropped without [`crate::PendingBcast::wait`], caught by a `Drop`
//!   guard (armed under CheckMode and in all debug builds).
//! * **Non-monotone clocks** ([`ViolationKind::NonMonotoneClock`]) — a
//!   rank arrives at a sync point with a modeled clock earlier than its
//!   previous sync point (a corrupted or wrongly reset clock would silently
//!   skew every downstream cost figure).
//! * **Stalls** ([`ViolationKind::Stall`]) — every live rank is parked at
//!   a slot that can never complete — in a blocking collective or in an
//!   `ibcast`'s `wait` — or blocked in a receive, and at least one at a
//!   slot (collective order diverged across communicators, or a rank
//!   exited without posting its collective). The report lists who entered what where and which
//!   members are missing.
//!
//! Point-to-point traffic ([`crate::Rank::send`]/[`crate::Rank::recv`]) is
//! covered by rules decided by each rank's program order alone, read from
//! the message queues of the same table:
//!
//! * **Unmatched receives** ([`ViolationKind::UnmatchedRecv`]) — every live
//!   rank is blocked in a receive whose envelope's queue is empty, with no
//!   peer left to send to it.
//! * **Orphaned sends** ([`ViolationKind::OrphanedSend`]) — a message still
//!   queued when the last rank exits, reported by
//!   [`crate::runtime::run_ranks_checked`] after the threads join.
//!
//! Two in-flight messages with one envelope are not a defect: they queue in
//! send order (MPI's non-overtaking rule). Whether a program reuses a tag
//! where it should draw a fresh one is a property of its schedule, which
//! the schedule auditor (`spgemm_core::audit`) checks statically.
//!
//! There is one meeting per collective. The checker's state lives in the
//! slot table, under its one lock, so a blocking collective deposits,
//! collects, and parks once; a mismatch trips at the deposit, before the
//! slot can complete, so no cross-matched payload is ever read; and the
//! stall detector counts ranks parked at incomplete slots and ranks parked
//! on empty queues from the same table the completing deposit or send
//! writes. On the first violation the checker trips: the detecting rank
//! panics with the report, and every rank parked at a slot or in a receive
//! is woken with it.
//! Every report starts with `protocol violation`, and
//! [`crate::runtime::run_ranks_checked`] consolidates them after the run.

use crate::comm::{Comm, Rank, WorldShared};
use crate::slot::{Entry, MsgKey, Slot, Slots, Table};
use std::fmt;
use std::sync::{Arc, MutexGuard};

/// Modeled clocks may regress by at most this much between sync points
/// (absorbs floating-point noise in max-reductions).
const CLOCK_SLACK: f64 = 1e-9;

/// Whether the runtime verifies the collective protocol as it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// No verification; zero overhead.
    Off,
    /// Verify every collective at its sync points.
    Check,
}

impl CheckMode {
    /// The default mode: the `SPGEMM_CHECK` environment variable if set
    /// (`0`/`off` disables, anything else enables), otherwise `Check` in
    /// debug builds and `Off` in release builds.
    pub fn default_mode() -> Self {
        match std::env::var("SPGEMM_CHECK") {
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => CheckMode::Off,
            Ok(_) => CheckMode::Check,
            Err(_) => {
                if cfg!(debug_assertions) {
                    CheckMode::Check
                } else {
                    CheckMode::Off
                }
            }
        }
    }

    /// True if verification is active.
    pub(crate) fn is_on(self) -> bool {
        matches!(self, CheckMode::Check)
    }
}

/// The collective operation a rank registered at a sync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Blocking broadcast.
    Bcast,
    /// Blocking allreduce.
    Allreduce,
    /// Blocking allgather.
    Allgather,
    /// Blocking all-to-all with per-destination payloads.
    Alltoallv,
    /// Barrier.
    Barrier,
    /// Gather to a root.
    Gather,
    /// Nonblocking broadcast post.
    IbcastPost,
}

impl OpKind {
    /// Whether this is a nonblocking post, completed by a later wait,
    /// rather than a blocking collective.
    pub fn is_post(self) -> bool {
        self == OpKind::IbcastPost
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpKind::Bcast => "bcast",
            OpKind::Allreduce => "allreduce",
            OpKind::Allgather => "allgather",
            OpKind::Alltoallv => "alltoallv",
            OpKind::Barrier => "barrier",
            OpKind::Gather => "gather",
            OpKind::IbcastPost => "ibcast",
        };
        f.write_str(name)
    }
}

/// The class of a detected protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ViolationKind {
    /// Ranks entered different collectives as one operation.
    OrderMismatch,
    /// Members of a rooted collective named different roots.
    RootMismatch,
    /// An alltoallv descriptor does not match the communicator size.
    CountMismatch,
    /// A nonblocking handle was dropped without `wait()`.
    LeakedHandle,
    /// A rank's modeled clock went backwards between sync points.
    NonMonotoneClock,
    /// Every live rank is parked at a slot that cannot complete or blocked
    /// in a receive.
    Stall,
    /// Every live rank is blocked in a point-to-point receive whose
    /// envelope's queue is empty.
    UnmatchedRecv,
    /// A point-to-point message still queued when the run ended.
    OrphanedSend,
}

/// A detected violation: its class, where it happened, and a detail line
/// naming the ranks, roots, counts or sequence numbers involved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProtocolViolation {
    /// What class of defect this is.
    pub kind: ViolationKind,
    /// Communicator id the offending operation ran on.
    pub comm: u64,
    /// Per-communicator collective sequence number of the operation; for
    /// point-to-point violations, the message tag.
    pub seq: u64,
    /// Human-readable specifics (ranks, kinds, roots, counts).
    pub detail: String,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol violation [{:?}] on comm {:#x} op {}: {}",
            self.kind, self.comm, self.seq, self.detail
        )
    }
}

impl std::error::Error for ProtocolViolation {}

/// One communication action of one rank, as recorded by the op log
/// (enabled by [`crate::runtime::run_ranks_logged`]). The global order is
/// the order actions reached the checker; each rank's subsequence is its
/// deterministic program order. The schedule auditor's conformance test
/// compares extracted schedules against this, action for action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedOp {
    /// Global rank that acted.
    pub rank: usize,
    /// Communicator id.
    pub comm: u64,
    /// What the rank did on it.
    pub action: LoggedAction,
}

/// The action of one [`LoggedOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedAction {
    /// Entered a blocking collective or registered a nonblocking post
    /// (`kind` tells which), naming `root` (member index) and drawing the
    /// per-communicator sequence number `seq`.
    Enter {
        /// Which operation.
        kind: OpKind,
        /// Root member index, for rooted collectives.
        root: Option<usize>,
        /// Per-communicator sequence number.
        seq: u64,
    },
    /// Waited on the nonblocking post that drew `seq`.
    Wait {
        /// Sequence number of the post being completed.
        seq: u64,
    },
    /// Posted a user-level point-to-point send.
    Send {
        /// Destination global rank.
        to: usize,
        /// Message tag.
        tag: u64,
    },
    /// Entered the matching blocking receive.
    Recv {
        /// Source global rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
}

/// The checker's state beside the open slots and the message queues,
/// under the slot table's lock ([`crate::slot::Table`]): who is parked at
/// which slot or on which queue, who has exited, what each member entered
/// and what is in flight live in the table itself.
pub(crate) struct CheckState {
    /// The first violation that tripped the checker, or the orphaned sends
    /// the last rank out found; non-empty halts all further progress.
    violations: Vec<ProtocolViolation>,
    /// Modeled time of each rank's last sync point (monotonicity check).
    last_time: Vec<f64>,
    /// When `Some`, every collective/post entry, nonblocking wait and
    /// point-to-point send/receive is appended here (the op log read back
    /// by [`crate::runtime::run_ranks_logged`]).
    op_log: Option<Vec<LoggedOp>>,
}

impl CheckState {
    pub(crate) fn new(p: usize, log: bool) -> Self {
        CheckState {
            violations: Vec::new(),
            last_time: vec![0.0; p],
            op_log: log.then(Vec::new),
        }
    }

    /// The report every rank panics with once the checker has tripped.
    pub(crate) fn tripped(&self) -> Option<String> {
        (!self.violations.is_empty()).then(|| render(&self.violations))
    }

    pub(crate) fn log(&mut self, rank: usize, comm: u64, action: LoggedAction) {
        if let Some(log) = self.op_log.as_mut() {
            log.push(LoggedOp { rank, comm, action });
        }
    }
}

/// Every rank has exited: messages still queued can never be received, so
/// each non-empty queue is recorded as an [`ViolationKind::OrphanedSend`],
/// in envelope order, for the runtime to surface.
pub(crate) fn record_orphans(t: &mut Table) {
    let mut orphans: Vec<_> = t.queues.iter().map(|(&k, q)| (k, q.len())).collect();
    orphans.sort_unstable();
    t.check
        .violations
        .extend(orphans.into_iter().map(|((c, tag, src, dst), n)| ProtocolViolation {
            kind: ViolationKind::OrphanedSend,
            comm: c,
            seq: tag,
            detail: format!(
                "rank {src} sent to rank {dst} with (comm {c:#x}, tag {tag}) but {n} message(s) \
                 were never received before the run ended"
            ),
        }));
}

impl Slots {
    /// Violations recorded so far (read by the runtime after the run).
    pub(crate) fn violations(&self) -> Vec<ProtocolViolation> {
        self.lock().check.violations.clone()
    }

    /// Take the recorded op log (empty if logging was never enabled).
    pub(crate) fn take_op_log(&self) -> Vec<LoggedOp> {
        self.lock().check.op_log.take().unwrap_or_default()
    }
}

fn render(violations: &[ProtocolViolation]) -> String {
    violations
        .iter()
        .map(ProtocolViolation::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// A stall exists iff every rank is either parked at a slot that is not
/// complete, parked in a receive whose queue is empty, or has exited. A
/// rank parked at a complete slot, or on a queue a send has just filled, is
/// not blocked: the deposit or send woke it, under the lock this reads
/// under. A stall consisting purely of receive-blocked ranks is classed as
/// [`ViolationKind::UnmatchedRecv`].
pub(crate) fn stall_violation(t: &Table) -> Option<ProtocolViolation> {
    let p = t.exited.len();
    let exited = t.exited.iter().filter(|&&e| e).count();
    let mut open: Vec<(&(u64, u64), &Slot)> =
        t.open.iter().filter(|(_, s)| !s.complete()).collect();
    let waiting: usize = open.iter().map(|(_, s)| s.parked).sum();
    let recv_stuck: Vec<MsgKey> = t
        .awaiting
        .iter()
        .flatten()
        .filter(|k| !t.queues.contains_key(k))
        .copied()
        .collect();
    let in_recv = recv_stuck.len();
    if waiting + in_recv == 0 || waiting + in_recv + exited < p {
        return None;
    }
    open.sort_unstable_by_key(|(k, _)| **k);
    let mut stuck: Vec<String> = Vec::new();
    for (&(c, s), slot) in &open {
        let seats = || slot.seats.iter().zip(slot.comm.members());
        let who: Vec<String> = seats()
            .filter_map(|(seat, g)| seat.op.map(|(kind, _)| format!("rank {g} in {kind}")))
            .collect();
        let missing: Vec<usize> = seats()
            .filter(|(seat, _)| seat.op.is_none())
            .map(|(_, &g)| g)
            .collect();
        stuck.push(format!(
            "{} (comm {c:#x}, op {s}) missing members {missing:?}",
            who.join(", ")
        ));
    }
    stuck.sort();
    let pure_p2p = waiting == 0;
    let (comm, seq) = match (open.first(), recv_stuck.first()) {
        (Some(&(&key, _)), _) if !pure_p2p => key,
        (_, Some(&(c, tag, _, _))) => (c, tag),
        _ => (0, 0),
    };
    stuck.extend(recv_stuck.iter().map(|&(c, tag, src, r)| {
        format!("rank {r} in recv from rank {src} (comm {c:#x}, tag {tag}) with no matching send")
    }));
    Some(ProtocolViolation {
        kind: if pure_p2p {
            ViolationKind::UnmatchedRecv
        } else {
            ViolationKind::Stall
        },
        comm,
        seq,
        detail: format!(
            "all live ranks are blocked ({waiting} waiting, {in_recv} in recv, {exited} exited \
             of {p}): {}",
            stuck.join("; ")
        ),
    })
}

/// Record `v` unless the checker has already tripped, release the table,
/// wake every rank parked at a slot or in a receive, and return the report
/// the caller must panic with.
pub(crate) fn trip(slots: &Slots, mut t: MutexGuard<'_, Table>, v: ProtocolViolation) -> String {
    if t.check.violations.is_empty() {
        t.check.violations.push(v);
        t.open.values().for_each(Slot::wake);
        slots.wake_receivers(&t);
    }
    let report = render(&t.check.violations);
    drop(t);
    report
}

/// Panic with the report if the checker has tripped: no rank makes
/// progress after the first violation.
pub(crate) fn halt_if_tripped(t: MutexGuard<'_, Table>) -> MutexGuard<'_, Table> {
    if let Some(report) = t.check.tripped() {
        drop(t);
        panic!("{report}");
    }
    t
}

impl Rank {
    /// Trip the checker with `v` and panic with its report.
    fn fail(&self, t: MutexGuard<'_, Table>, v: ProtocolViolation) -> ! {
        let report = trip(&self.world().slots, t, v);
        panic!("{report}");
    }

    /// Verify this rank's entry `(kind, root)` into collective `seq` on
    /// `comm` at modeled time `now`, before [`Rank::deposit`] fills its
    /// seat: against its own previous sync point, and against the slot's
    /// earlier depositors, which all entered one operation (each deposit
    /// passed this check). Logs the entry. A mismatch trips here, so the
    /// slot never completes and no cross-matched payload is read.
    pub(crate) fn verify_entry<'a>(
        &self,
        t: MutexGuard<'a, Table>,
        comm: &Comm,
        seq: u64,
        (kind, root): Entry,
        now: f64,
    ) -> MutexGuard<'a, Table> {
        let mut t = halt_if_tripped(t);
        let me = self.rank();
        let prev = t.check.last_time[me];
        // Clock monotonicity across this rank's sync points.
        if now < prev - CLOCK_SLACK {
            let detail = format!(
                "rank {me} entered {kind} at modeled time {now:.9}s, earlier than its previous \
                 sync point at {prev:.9}s"
            );
            self.fail(
                t,
                violation(ViolationKind::NonMonotoneClock, comm, seq, detail),
            );
        }
        t.check.last_time[me] = now;
        t.check
            .log(me, comm.id(), LoggedAction::Enter { kind, root, seq });
        let first = t.open.get(&(comm.id(), seq)).and_then(|slot| {
            slot.seats
                .iter()
                .zip(comm.members())
                .find_map(|(s, &g)| Some((g, s.op?)))
        });
        let Some((other, (other_kind, other_root))) = first else {
            return t;
        };
        if other_kind != kind {
            let detail = format!(
                "rank {me} entered {kind} but rank {other} had entered {other_kind} as the same \
                 operation on this communicator"
            );
            self.fail(
                t,
                violation(ViolationKind::OrderMismatch, comm, seq, detail),
            );
        }
        if other_root != root {
            let detail = format!(
                "rank {me} named member {root:?} as {kind} root but rank {other} named member \
                 {other_root:?}"
            );
            self.fail(t, violation(ViolationKind::RootMismatch, comm, seq, detail));
        }
        t
    }

    /// Check an `alltoallv` descriptor's shape against the communicator
    /// size before it is deposited, so the report names the rank and
    /// operation instead of failing a local assertion. No-op when checking
    /// is off.
    pub(crate) fn check_counts(&self, comm: &Comm, seq: u64, parts: usize, sizes: usize) {
        let q = comm.size();
        if !self.world().check.is_on() || (parts == q && sizes == q) {
            return;
        }
        let detail = format!(
            "rank {} posted {} with {parts} parts and {sizes} sizes on a {q}-member communicator",
            self.rank(),
            OpKind::Alltoallv
        );
        let t = self.world().slots.lock();
        self.fail(
            t,
            violation(ViolationKind::CountMismatch, comm, seq, detail),
        );
    }

    /// Before this rank parks (at an incomplete slot, or on an empty queue
    /// in a receive): panic if the checker has tripped, and trip it if every
    /// rank is now blocked or gone.
    pub(crate) fn check_stall<'a>(&self, t: MutexGuard<'a, Table>) -> MutexGuard<'a, Table> {
        let t = halt_if_tripped(t);
        match stall_violation(&t) {
            Some(v) => self.fail(t, v),
            None => t,
        }
    }

    /// Record the completion of nonblocking post `seq` on `comm` in the op
    /// log. Completions register nothing else with the checker (a dropped
    /// handle is caught by its `HandleGuard`).
    pub(crate) fn check_wait(&self, comm: &Comm, seq: u64) {
        if self.world().check.is_on() {
            let mut t = self.world().slots.lock();
            t.check
                .log(self.rank(), comm.id(), LoggedAction::Wait { seq });
        }
    }

    /// Build the `Drop` guard for a nonblocking handle. Armed whenever
    /// checking is on, and in every debug build.
    pub(crate) fn handle_guard(&self, kind: OpKind, comm: &Comm, seq: u64) -> HandleGuard {
        HandleGuard {
            armed: self.world().check.is_on() || cfg!(debug_assertions),
            kind,
            comm: comm.id(),
            seq,
            rank: self.rank(),
            world: Arc::clone(self.world()),
        }
    }
}

fn violation(kind: ViolationKind, comm: &Comm, seq: u64, detail: String) -> ProtocolViolation {
    ProtocolViolation {
        kind,
        comm: comm.id(),
        seq,
        detail,
    }
}

/// Drop guard embedded in nonblocking handles: panics (and trips the
/// checker) if the handle is dropped while still armed, i.e. without
/// [`crate::PendingBcast::wait`] having run.
pub(crate) struct HandleGuard {
    armed: bool,
    kind: OpKind,
    comm: u64,
    seq: u64,
    rank: usize,
    world: Arc<WorldShared>,
}

impl HandleGuard {
    /// Mark the handle as properly consumed.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

impl fmt::Debug for HandleGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandleGuard")
            .field("armed", &self.armed)
            .field("kind", &self.kind)
            .field("comm", &self.comm)
            .field("seq", &self.seq)
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl Drop for HandleGuard {
    fn drop(&mut self) {
        if !self.armed || std::thread::panicking() {
            return;
        }
        let v = ProtocolViolation {
            kind: ViolationKind::LeakedHandle,
            comm: self.comm,
            seq: self.seq,
            detail: format!(
                "rank {} dropped a pending {} (op {} on comm {:#x}) without wait(): \
                 peers would block on its payload and modeled time is skewed",
                self.rank, self.kind, self.seq, self.comm
            ),
        };
        let report = if self.world.check.is_on() {
            trip(&self.world.slots, self.world.slots.lock(), v)
        } else {
            v.to_string()
        };
        panic!("{report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_tracks_build_profile() {
        // Can't mutate the environment safely in a test; just pin the
        // no-env behaviour.
        if std::env::var("SPGEMM_CHECK").is_err() {
            assert_eq!(CheckMode::default_mode().is_on(), cfg!(debug_assertions));
        }
    }

    #[test]
    fn violation_display_names_the_class_and_op() {
        let v = ProtocolViolation {
            kind: ViolationKind::RootMismatch,
            comm: 0xabcd,
            seq: 7,
            detail: "rank 1 named member Some(2) as bcast root but rank 0 named member Some(0)"
                .into(),
        };
        let s = v.to_string();
        assert!(s.starts_with("protocol violation [RootMismatch]"), "{s}");
        assert!(s.contains("0xabcd"), "{s}");
        assert!(s.contains("op 7"), "{s}");
        assert!(s.contains("rank 1"), "{s}");
    }

    #[test]
    fn stall_requires_everyone_blocked_or_gone() {
        let mut t = Table::new(4, false);
        t.exited[3] = true;
        let world = Comm::for_rank(vec![0, 1, 2, 3], 0, 0);
        // Rank 0 entered a barrier and parked; rank 1 is parked at another
        // barrier; rank 2 still computes; rank 3 has exited.
        let mut barrier = Slot::new(&world, &t.exited);
        barrier.seats[0].op = Some((OpKind::Barrier, None));
        barrier.parked = 1;
        t.open.insert((1, 1), barrier);
        let mut other = Slot::new(&world, &t.exited);
        other.seats[1].op = Some((OpKind::Barrier, None));
        other.parked = 1;
        t.open.insert((2, 1), other);
        // One rank still computing: not a stall.
        assert!(stall_violation(&t).is_none());
        // It exits without entering the barrier: now a stall.
        t.exited[2] = true;
        let v = stall_violation(&t).expect("stall");
        assert_eq!(v.kind, ViolationKind::Stall);
        assert!(v.detail.contains("rank 0 in barrier"), "{}", v.detail);
        assert!(v.detail.contains("missing members"), "{}", v.detail);
        // Rank 1's barrier was in fact complete — its last deposit woke
        // rank 1, which has not run yet: a rank parked at a complete slot
        // is not blocked, so nothing is stalled.
        let other = t.open.get_mut(&(2, 1)).expect("inserted above");
        for seat in &mut other.seats {
            seat.op = Some((OpKind::Barrier, None));
        }
        other.filled = 4;
        assert!(other.complete());
        assert!(stall_violation(&t).is_none());
    }

    #[test]
    fn a_receiver_is_blocked_only_while_its_queue_is_empty() {
        let mut t = Table::new(3, false);
        t.exited[2] = true;
        // Ranks 0 and 1 each wait on a message from the other.
        let (to_0, to_1) = ((9, 5, 1, 0), (9, 6, 0, 1));
        t.awaiting[0] = Some(to_0);
        t.awaiting[1] = Some(to_1);
        let v = stall_violation(&t).expect("both queues are empty");
        assert_eq!(v.kind, ViolationKind::UnmatchedRecv);
        assert_eq!((v.comm, v.seq), (9, 5));
        assert!(v.detail.contains("rank 1 in recv from rank 0"), "{}", v.detail);
        // A send has filled rank 0's queue, and rank 0 has not run yet: it
        // is not blocked, so nothing is stalled.
        t.queues.entry(to_0).or_default().push_back(Box::new(1u8));
        assert!(stall_violation(&t).is_none());
    }
}
