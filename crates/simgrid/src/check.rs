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
//! collective registers with a shared, per-`(communicator, sequence)`
//! rendezvous *before* exchanging any data. Registration detects:
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
//! * **Stalls** ([`ViolationKind::Stall`]) — every live rank is blocked at
//!   a rendezvous that can never complete (collective order diverged across
//!   communicators, or a rank exited without posting its collective). The
//!   report lists who is stuck where and which members are missing.
//!
//! Point-to-point traffic ([`crate::Rank::send`]/[`crate::Rank::recv`]) is
//! covered too — every user-level send registers its `(comm, tag, src→dst)`
//! envelope:
//!
//! * **Tag collisions** ([`ViolationKind::TagCollision`]) — a second send
//!   posted with an envelope identical to one still in flight; receives
//!   match on `(source, comm, tag)`, so the payloads would be ambiguous.
//! * **Unmatched receives** ([`ViolationKind::UnmatchedRecv`]) — every live
//!   rank is blocked in a receive no peer has posted (or will ever post) a
//!   matching send for.
//! * **Orphaned sends** ([`ViolationKind::OrphanedSend`]) — a send whose
//!   message was never received by the time the run ended, reported by
//!   [`crate::runtime::run_ranks_checked`] after the threads join.
//!
//! Collectives move their internal traffic through unregistered
//! `pub(crate)` send/recv twins, so checker bookkeeping tracks user-level
//! point-to-point messages only — collective-internal phases can never
//! false-positive here.
//!
//! Blocking collectives park at the rendezvous (condvar) until all members
//! arrive, so a mismatch is reported *before* any cross-matched payload can
//! be exchanged; nonblocking posts register without parking, preserving
//! their overlap semantics. On the first violation the checker trips: the
//! detecting rank panics with the report, all parked ranks are woken, and
//! poison messages unblock ranks waiting inside data exchanges. Every
//! report starts with `protocol violation`, and
//! [`crate::runtime::run_ranks_checked`] consolidates them after the run.

use crate::comm::{Comm, Envelope, Rank, WorldShared};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Every live rank is blocked at a rendezvous that cannot complete.
    Stall,
    /// A second point-to-point send was posted with a `(comm, tag,
    /// src → dst)` envelope identical to one still in flight.
    TagCollision,
    /// Every live rank is blocked in a point-to-point receive that no
    /// matching send has been (or can ever be) posted for.
    UnmatchedRecv,
    /// A point-to-point send whose message was never received by the time
    /// the run ended.
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

/// One rank's registration at a rendezvous.
struct OpEntry {
    rank: usize,
    kind: OpKind,
    /// Root member index, for rooted collectives.
    root: Option<usize>,
}

/// The meeting point for one `(communicator, sequence)` operation.
struct Rendezvous {
    /// Communicator size = registrations required to complete.
    expected: usize,
    /// Global ranks of the communicator's members.
    members: Vec<usize>,
    entries: Vec<OpEntry>,
    /// Ranks parked on the condvar waiting for completion.
    waiters: usize,
    done: bool,
}

impl Rendezvous {
    fn missing_members(&self) -> Vec<usize> {
        self.members
            .iter()
            .copied()
            .filter(|m| !self.entries.iter().any(|e| e.rank == *m))
            .collect()
    }
}

struct CheckState {
    /// Open rendezvous keyed by `(comm_id, seq)`; removed once complete and
    /// drained of waiters.
    rendezvous: HashMap<(u64, u64), Rendezvous>,
    violations: Vec<ProtocolViolation>,
    /// Set on the first violation; halts all further progress.
    tripped: bool,
    /// Modeled time of each rank's last sync point (monotonicity check).
    last_time: Vec<f64>,
    /// Ranks currently parked on the condvar.
    waiting: usize,
    /// Ranks whose threads have exited (normally or by panic).
    finished: usize,
    /// In-flight user-level point-to-point sends (posted, not yet matched
    /// by a receive), keyed by `(comm_id, tag, src, dst)` global ranks.
    p2p_inflight: HashSet<(u64, u64, usize, usize)>,
    /// Ranks blocked in a point-to-point receive with no matching send
    /// posted yet: receiver rank → `(comm_id, tag, src)`.
    p2p_blocked: HashMap<usize, (u64, u64, usize)>,
    /// When `Some`, every collective/post registration, nonblocking wait and
    /// point-to-point send/receive is appended here (the op log read back
    /// by [`crate::runtime::run_ranks_logged`]).
    op_log: Option<Vec<LoggedOp>>,
}

/// World-shared checker state. Created by
/// [`crate::runtime::run_ranks_checked`] when checking is on.
pub(crate) struct CheckShared {
    state: Mutex<CheckState>,
    cv: Condvar,
}

impl CheckShared {
    pub(crate) fn new(p: usize) -> Self {
        CheckShared {
            state: Mutex::new(CheckState {
                rendezvous: HashMap::new(),
                violations: Vec::new(),
                tripped: false,
                last_time: vec![0.0; p],
                waiting: 0,
                finished: 0,
                p2p_inflight: HashSet::new(),
                p2p_blocked: HashMap::new(),
                op_log: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Start recording the op log.
    pub(crate) fn enable_logging(&self) {
        self.lock().op_log = Some(Vec::new());
    }

    /// Take the recorded op log (empty if logging was never enabled).
    pub(crate) fn take_op_log(&self) -> Vec<LoggedOp> {
        self.lock().op_log.take().unwrap_or_default()
    }

    fn lock(&self) -> MutexGuard<'_, CheckState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Violations recorded so far (read by the runtime after the run).
    pub(crate) fn violations(&self) -> Vec<ProtocolViolation> {
        self.lock().violations.clone()
    }
}

fn render(violations: &[ProtocolViolation]) -> String {
    violations
        .iter()
        .map(ProtocolViolation::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// A stall exists iff every rank is either parked at a rendezvous, blocked
/// in a point-to-point receive with no matching send, or has exited — and
/// no completed rendezvous still has waiters to wake (those will make
/// progress once scheduled). A stall consisting purely of receive-blocked
/// ranks is classed as [`ViolationKind::UnmatchedRecv`].
fn stall_violation(st: &CheckState, p: usize) -> Option<ProtocolViolation> {
    let blocked = st.waiting + st.p2p_blocked.len();
    if blocked == 0 || blocked + st.finished < p {
        return None;
    }
    if st.rendezvous.values().any(|r| r.done && r.waiters > 0) {
        return None;
    }
    let mut stuck: Vec<String> = Vec::new();
    let mut comm = 0u64;
    let mut seq = 0u64;
    for ((c, s), r) in &st.rendezvous {
        if r.done || r.entries.is_empty() {
            continue;
        }
        comm = *c;
        seq = *s;
        let who: Vec<String> = r
            .entries
            .iter()
            .map(|e| format!("rank {} in {}", e.rank, e.kind))
            .collect();
        stuck.push(format!(
            "{} (comm {c:#x}, op {s}) missing members {:?}",
            who.join(", "),
            r.missing_members()
        ));
    }
    stuck.sort();
    let mut recv_stuck: Vec<(usize, (u64, u64, usize))> =
        st.p2p_blocked.iter().map(|(&r, &k)| (r, k)).collect();
    recv_stuck.sort_unstable();
    let pure_p2p = st.waiting == 0;
    if let Some(&(_, (c, t, _))) = recv_stuck.first() {
        if pure_p2p {
            comm = c;
            seq = t;
        }
        stuck.extend(recv_stuck.iter().map(|&(r, (c, t, src))| {
            format!(
                "rank {r} in recv from rank {src} (comm {c:#x}, tag {t}) with no matching send"
            )
        }));
    }
    Some(ProtocolViolation {
        kind: if pure_p2p {
            ViolationKind::UnmatchedRecv
        } else {
            ViolationKind::Stall
        },
        comm,
        seq,
        detail: format!(
            "all live ranks are blocked ({} waiting, {} in recv, {} exited of {p}): {}",
            st.waiting,
            st.p2p_blocked.len(),
            st.finished,
            stuck.join("; ")
        ),
    })
}

/// Poison message sent to wake ranks blocked inside a data exchange after
/// the checker trips; `src` is out of range for any real rank.
pub(crate) const POISON_SRC: usize = usize::MAX;

fn poison_world(world: &WorldShared, me: usize, report: &str) {
    for (i, tx) in world.senders.iter().enumerate() {
        if i != me {
            // A peer that already exited is fine — its mailbox is gone.
            let _ = tx.send(Envelope {
                src: POISON_SRC,
                comm_id: 0,
                tag: 0,
                payload: Box::new(report.to_string()),
            });
        }
    }
}

/// Record `v`, trip the checker, wake everyone, and return the report the
/// caller must panic with.
fn trip(check: &CheckShared, world: &WorldShared, me: usize, v: ProtocolViolation) -> String {
    let mut st = check.lock();
    if !st.tripped {
        st.violations.push(v);
        st.tripped = true;
    }
    let report = render(&st.violations);
    drop(st);
    check.cv.notify_all();
    poison_world(world, me, &report);
    report
}

impl Rank {
    /// Register this rank's entry into collective `seq` on `comm` and
    /// verify it against the other members' registrations. Blocking
    /// collectives park here until every member has registered, so
    /// mismatches surface before any payload crosses. No-op when checking
    /// is off.
    pub(crate) fn check_enter(
        &self,
        comm: &Comm,
        seq: u64,
        kind: OpKind,
        root: Option<usize>,
        counts: Option<(usize, usize)>,
        blocking: bool,
    ) {
        self.perturb_point();
        let Some(check) = self.world().check.clone() else {
            return;
        };
        let me = self.rank();
        let now = self.clock().now();
        let q = comm.size();
        let key = (comm.id(), seq);
        let mut st = check.lock();
        if st.tripped {
            let report = render(&st.violations);
            drop(st);
            panic!("{report}");
        }
        // Clock monotonicity across this rank's sync points.
        if now < st.last_time[me] - CLOCK_SLACK {
            let prev = st.last_time[me];
            drop(st);
            let report = trip(
                &check,
                self.world(),
                me,
                ProtocolViolation {
                    kind: ViolationKind::NonMonotoneClock,
                    comm: comm.id(),
                    seq,
                    detail: format!(
                        "rank {me} entered {kind} at modeled time {now:.9}s, earlier than \
                         its previous sync point at {prev:.9}s"
                    ),
                },
            );
            panic!("{report}");
        }
        st.last_time[me] = now;
        // Alltoallv descriptor shape (checked here, not just asserted
        // locally, so the report names the rank and operation).
        if let Some((parts_len, bytes_len)) = counts {
            if parts_len != q || bytes_len != q {
                drop(st);
                let report = trip(
                    &check,
                    self.world(),
                    me,
                    ProtocolViolation {
                        kind: ViolationKind::CountMismatch,
                        comm: comm.id(),
                        seq,
                        detail: format!(
                            "rank {me} posted {kind} with {parts_len} parts and {bytes_len} \
                             sizes on a {q}-member communicator"
                        ),
                    },
                );
                panic!("{report}");
            }
        }
        if let Some(log) = st.op_log.as_mut() {
            log.push(LoggedOp {
                rank: me,
                comm: comm.id(),
                action: LoggedAction::Enter { kind, root, seq },
            });
        }
        // Rendezvous registration and cross-rank agreement.
        let r = st.rendezvous.entry(key).or_insert_with(|| Rendezvous {
            expected: q,
            members: comm.members().to_vec(),
            entries: Vec::new(),
            waiters: 0,
            done: false,
        });
        let mismatch = r.entries.first().and_then(|first| {
            if first.kind != kind {
                Some(ProtocolViolation {
                    kind: ViolationKind::OrderMismatch,
                    comm: comm.id(),
                    seq,
                    detail: format!(
                        "rank {me} entered {kind} but rank {} had entered {} as the same \
                         operation on this communicator",
                        first.rank, first.kind
                    ),
                })
            } else if first.root != root {
                Some(ProtocolViolation {
                    kind: ViolationKind::RootMismatch,
                    comm: comm.id(),
                    seq,
                    detail: format!(
                        "rank {me} named member {:?} as {kind} root but rank {} named \
                         member {:?}",
                        root, first.rank, first.root
                    ),
                })
            } else {
                None
            }
        });
        if let Some(v) = mismatch {
            drop(st);
            let report = trip(&check, self.world(), me, v);
            panic!("{report}");
        }
        r.entries.push(OpEntry { rank: me, kind, root });
        if r.entries.len() == r.expected {
            r.done = true;
            if r.waiters == 0 {
                st.rendezvous.remove(&key);
            }
            drop(st);
            check.cv.notify_all();
            return;
        }
        if !blocking {
            return;
        }
        // Park until the rendezvous completes (or the checker trips).
        r.waiters += 1;
        st.waiting += 1;
        if let Some(v) = stall_violation(&st, self.world().p) {
            drop(st);
            let report = trip(&check, self.world(), me, v);
            panic!("{report}");
        }
        loop {
            st = check.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            if st.tripped {
                let report = render(&st.violations);
                drop(st);
                panic!("{report}");
            }
            if st.rendezvous.get(&key).is_none_or(|r| r.done) {
                st.waiting -= 1;
                let drained = st.rendezvous.get_mut(&key).map(|r| {
                    r.waiters -= 1;
                    r.waiters == 0
                });
                if drained == Some(true) {
                    st.rendezvous.remove(&key);
                }
                return;
            }
        }
    }

    /// Register a point-to-point send of `(comm, tag)` to `dst_index`.
    /// Detects tag collisions (a second undelivered send with the same
    /// match key would make receive pairing ambiguous) and unblocks any
    /// receiver parked on this exact envelope.
    pub(crate) fn check_p2p_send(&self, comm: &Comm, dst_index: usize, tag: u64) {
        let Some(check) = self.world().check.clone() else {
            return;
        };
        let me = self.rank();
        let dst = comm.member(dst_index);
        let key = (comm.id(), tag, me, dst);
        let mut st = check.lock();
        if st.tripped {
            let report = render(&st.violations);
            drop(st);
            panic!("{report}");
        }
        if !st.p2p_inflight.insert(key) {
            drop(st);
            let report = trip(
                &check,
                self.world(),
                me,
                ProtocolViolation {
                    kind: ViolationKind::TagCollision,
                    comm: comm.id(),
                    seq: tag,
                    detail: format!(
                        "rank {me} posted a second send to rank {dst} with (comm {:#x}, \
                         tag {tag}) while the first is still undelivered: receives match \
                         on (source, comm, tag), so the payloads are ambiguous",
                        comm.id()
                    ),
                },
            );
            panic!("{report}");
        }
        if let Some(log) = st.op_log.as_mut() {
            log.push(LoggedOp {
                rank: me,
                comm: comm.id(),
                action: LoggedAction::Send { to: dst, tag },
            });
        }
        if st.p2p_blocked.get(&dst) == Some(&(comm.id(), tag, me)) {
            st.p2p_blocked.remove(&dst);
        }
    }

    /// Record the completion of nonblocking post `seq` on `comm` in the op
    /// log. Completions register nothing else with the checker (a dropped
    /// handle is caught by its `HandleGuard`).
    pub(crate) fn check_wait(&self, comm: &Comm, seq: u64) {
        let Some(check) = self.world().check.as_ref() else {
            return;
        };
        if let Some(log) = check.lock().op_log.as_mut() {
            log.push(LoggedOp {
                rank: self.rank(),
                comm: comm.id(),
                action: LoggedAction::Wait { seq },
            });
        }
    }

    /// Register that this rank is about to block in a point-to-point
    /// receive. If the matching send is already in flight the receive is
    /// guaranteed to complete; otherwise the rank is recorded as
    /// recv-blocked and the stall detector runs.
    pub(crate) fn check_p2p_recv_pre(&self, comm: &Comm, src_index: usize, tag: u64) {
        let Some(check) = self.world().check.clone() else {
            return;
        };
        let me = self.rank();
        let src = comm.member(src_index);
        let mut st = check.lock();
        if st.tripped {
            let report = render(&st.violations);
            drop(st);
            panic!("{report}");
        }
        if let Some(log) = st.op_log.as_mut() {
            log.push(LoggedOp {
                rank: me,
                comm: comm.id(),
                action: LoggedAction::Recv { from: src, tag },
            });
        }
        if st.p2p_inflight.contains(&(comm.id(), tag, src, me)) {
            return;
        }
        st.p2p_blocked.insert(me, (comm.id(), tag, src));
        if let Some(v) = stall_violation(&st, self.world().p) {
            drop(st);
            let report = trip(&check, self.world(), me, v);
            panic!("{report}");
        }
    }

    /// Mark a point-to-point receive as completed: the envelope is no
    /// longer in flight and this rank is no longer recv-blocked.
    pub(crate) fn check_p2p_recv_post(&self, comm: &Comm, src_index: usize, tag: u64) {
        let Some(check) = self.world().check.clone() else {
            return;
        };
        let me = self.rank();
        let src = comm.member(src_index);
        let mut st = check.lock();
        st.p2p_inflight.remove(&(comm.id(), tag, src, me));
        st.p2p_blocked.remove(&me);
    }

    /// Called when this rank's thread exits (normally or by panic): a
    /// departed rank can never complete an open rendezvous, so peers parked
    /// on one may now be provably stalled. The last rank out also sweeps
    /// the point-to-point registry: sends still in flight after every rank
    /// has exited can never be received, so they are recorded as
    /// [`ViolationKind::OrphanedSend`] for the runtime to surface.
    pub(crate) fn check_exit(&self) {
        let Some(check) = self.world().check.clone() else {
            return;
        };
        let mut st = check.lock();
        st.finished += 1;
        if st.finished == self.world().p && !st.tripped && !st.p2p_inflight.is_empty() {
            let mut orphans: Vec<(u64, u64, usize, usize)> =
                st.p2p_inflight.iter().copied().collect();
            orphans.sort_unstable();
            for (c, t, src, dst) in orphans {
                st.violations.push(ProtocolViolation {
                    kind: ViolationKind::OrphanedSend,
                    comm: c,
                    seq: t,
                    detail: format!(
                        "rank {src} sent to rank {dst} with (comm {c:#x}, tag {t}) but \
                         the message was never received before the run ended"
                    ),
                });
            }
        }
        if st.tripped {
            return;
        }
        let Some(v) = stall_violation(&st, self.world().p) else {
            return;
        };
        drop(st);
        let report = trip(&check, self.world(), self.rank(), v);
        // If this rank is exiting because it panicked, that panic is the
        // primary failure; tripping above has already woken the stalled
        // peers. Otherwise this rank exited without posting a collective
        // its peers are waiting on — that is the defect, so report it here.
        if !std::thread::panicking() {
            panic!("{report}");
        }
    }

    /// Build the `Drop` guard for a nonblocking handle. Armed whenever
    /// checking is on, and in every debug build.
    pub(crate) fn handle_guard(&self, kind: OpKind, comm: &Comm, seq: u64) -> HandleGuard {
        HandleGuard {
            armed: self.world().check.is_some() || cfg!(debug_assertions),
            kind,
            comm: comm.id(),
            seq,
            rank: self.rank(),
            world: Arc::clone(self.world()),
        }
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
        let report = match &self.world.check {
            Some(check) => trip(check, &self.world, self.rank, v),
            None => v.to_string(),
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
        let mut st = CheckState {
            rendezvous: HashMap::new(),
            violations: Vec::new(),
            tripped: false,
            last_time: vec![0.0; 4],
            waiting: 2,
            finished: 1,
            p2p_inflight: HashSet::new(),
            p2p_blocked: HashMap::new(),
            op_log: None,
        };
        st.rendezvous.insert(
            (1, 1),
            Rendezvous {
                expected: 4,
                members: vec![0, 1, 2, 3],
                entries: vec![OpEntry {
                    rank: 0,
                    kind: OpKind::Barrier,
                    root: None,
                }],
                waiters: 2,
                done: false,
            },
        );
        // One rank still computing: not a stall.
        assert!(stall_violation(&st, 4).is_none());
        // It exits without entering the barrier: now a stall.
        st.finished = 2;
        let v = stall_violation(&st, 4).expect("stall");
        assert_eq!(v.kind, ViolationKind::Stall);
        assert!(v.detail.contains("rank 0 in barrier"), "{}", v.detail);
        assert!(v.detail.contains("missing members"), "{}", v.detail);
    }
}
