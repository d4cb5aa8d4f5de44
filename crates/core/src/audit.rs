//! Schedule auditor: payload-free symbolic extraction and exhaustive
//! verification of the communication schedule.
//!
//! Every collective, nonblocking post/wait, and point-to-point message
//! the algorithms issue is **content-independent**: empty operands are
//! still broadcast, a batch with zero local columns still runs every
//! stage, and the fetch cache changes payload *kinds*
//! ([`crate::exchange::FetchReq::Unchanged`]), never the message pattern.
//! The schedule is therefore a pure function of the configuration and can
//! be extracted **without constructing matrices or moving bytes**.
//!
//! [`crate::schedule`] writes that function down once, as the op programs
//! the drivers execute. [`AuditConfig::extract`] is their second reader:
//! it resolves a configuration to its program (same Alg. 3 arithmetic,
//! `symbolic::alg3_batch_count`) and lowers every op through the
//! wire table into a typed [`AuditEvent`] trace per rank, taking each
//! rank's communicators from the seams the drivers build theirs from
//! ([`spgemm_simgrid::grid::Grid3D::for_rank_id`],
//! `family15::cola_ring` and its InnerABC siblings).
//!
//! On top of the traces, `verify` checks four property classes:
//!
//! 1. **Cross-rank schedule agreement** — every member of a communicator
//!    sees the identical sequence of collectives/posts/waits (operation,
//!    root, sequence number). A divergence is reported with a minimized
//!    event diff around the first mismatch.
//! 2. **Deadlock-freedom of the point-to-point fetch conversation** — a
//!    deterministic replay scheduler advances all ranks; sends enable
//!    matching receives, blocking collectives and waits rendezvous their
//!    members. Tag collisions, unmatched receives, orphaned sends, and
//!    stuck frontiers (cyclic waits) are violations.
//! 3. **Handle discipline** — every nonblocking post is waited, in post
//!    order per communicator.
//! 4. **Modeled peak memory** — for budget-derived batch counts, the
//!    idealized Eq. 2 footprint `r·(maxnnzA+maxnnzB) + ⌈r·maxnnzC/b⌉`
//!    must stay within `M/p` (Alg. 3 guarantees this by construction; the
//!    auditor re-checks it per configuration so a planner regression is
//!    caught as a named violation, not an OOM at scale).
//!
//! [`sweep`] enumerates the planner's full candidate grid over the
//! fig3/fig4 workload shapes and verifies every valid configuration;
//! [`AuditFault`] injects schedule bugs (a skipped wait, a wrong fetch
//! tag, …) to prove the verifier actually catches them.

use crate::exchange::ExchangeMode;
use crate::family15::{
    cola_ring, iabc_subring, iabc_team, AlgorithmFamily, COLOR_RING15, COLOR_TEAM15,
};
use crate::memory::{Footprint, R_BYTES_PER_NNZ};
use crate::schedule::{self, payload_bytes, Link, Op, Payload, Wire};
use crate::summa2d::OverlapMode;
use crate::symbolic::alg3_batch_count;
use crate::CoreError;
use spgemm_simgrid::grid::{valid_layer_counts, Grid3D};
use spgemm_simgrid::{Comm, OpKind};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// One recorded communication action of one rank.
///
/// `root` is the member *index* within the communicator (the convention of
/// [`spgemm_simgrid::Rank::bcast`] and the protocol checker), `to`/`from`
/// are global ranks, and `seq` is the per-communicator collective sequence
/// number the runtime's `next_seq` would have drawn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A blocking collective (bcast / allreduce / allgather / alltoallv /
    /// gather / barrier) entering its rendezvous.
    Collective {
        /// Communicator id.
        comm: u64,
        /// Which collective.
        op: OpKind,
        /// Root member index, for rooted collectives.
        root: Option<usize>,
        /// Per-communicator sequence number.
        seq: u64,
        /// Modeled payload bytes (informational; per-rank quantities are
        /// allowed to differ, so this is excluded from agreement checks).
        bytes: u64,
    },
    /// A nonblocking collective post (`ibcast`).
    Post {
        /// Communicator id.
        comm: u64,
        /// Which post ([`OpKind::IbcastPost`]).
        op: OpKind,
        /// Root member index, for `ibcast`.
        root: Option<usize>,
        /// Per-communicator sequence number (shared counter with the
        /// blocking collectives, exactly as the runtime draws it).
        seq: u64,
    },
    /// Completion of the post with the same `(comm, seq)`.
    Wait {
        /// Communicator id.
        comm: u64,
        /// Sequence number of the post being completed.
        seq: u64,
    },
    /// A user-level point-to-point send (the fetch protocol).
    Send {
        /// Communicator id the envelope is addressed on.
        comm: u64,
        /// Destination global rank.
        to: usize,
        /// Message tag.
        tag: u64,
    },
    /// The matching blocking receive.
    Recv {
        /// Communicator id.
        comm: u64,
        /// Source global rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Collective {
                comm,
                op,
                root,
                seq,
                bytes,
            } => match root {
                Some(r) => {
                    write!(f, "{op} on comm {comm:#x} seq {seq} root {r} ({bytes} B)")
                }
                None => write!(f, "{op} on comm {comm:#x} seq {seq} ({bytes} B)"),
            },
            AuditEvent::Post {
                comm,
                op,
                root,
                seq,
            } => match root {
                Some(r) => write!(f, "post {op} on comm {comm:#x} seq {seq} root {r}"),
                None => write!(f, "post {op} on comm {comm:#x} seq {seq}"),
            },
            AuditEvent::Wait { comm, seq } => write!(f, "wait on comm {comm:#x} seq {seq}"),
            AuditEvent::Send { comm, to, tag } => {
                write!(f, "send to rank {to} (comm {comm:#x}, tag {tag:#x})")
            }
            AuditEvent::Recv { comm, from, tag } => {
                write!(f, "recv from rank {from} (comm {comm:#x}, tag {tag:#x})")
            }
        }
    }
}

/// The extracted schedule of one configuration: one event trace per rank
/// plus the communicator membership registry the verifier needs.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per-rank event traces, indexed by global rank.
    pub traces: Vec<Vec<AuditEvent>>,
    /// Communicator id → member list (global ranks, index order).
    pub comms: HashMap<u64, Vec<usize>>,
    /// The batch count the configuration resolved to.
    pub nbatches: usize,
    /// Modeled peak memory check, present for budget-derived batch counts:
    /// `(modeled_peak_bytes, per_process_budget_bytes)`.
    pub memory: Option<(u64, u64)>,
}

impl Schedule {
    /// Total event count across all ranks.
    pub(crate) fn total_events(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }
}

/// How a configuration chooses its batch count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSpec {
    /// Forced batch count (skips the symbolic sweep; unlimited budget).
    Forced(usize),
    /// Budget-derived: the per-process budget is sized so Alg. 3 lands
    /// near `target` batches, and the symbolic sweep runs every
    /// multiplication. The auditor then verifies the Eq. 2 footprint of
    /// the chosen count against that budget.
    Budget {
        /// Approximate batch count the budget is tuned for.
        target: usize,
    },
}

impl fmt::Display for BatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchSpec::Forced(n) => write!(f, "b={n}"),
            BatchSpec::Budget { target } => write!(f, "b=auto(~{target})"),
        }
    }
}

/// A workload's modeled global shape: enough to derive the per-process
/// maxima Alg. 3 reduces, without any actual matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadShape {
    /// Short name used in configuration labels.
    pub name: &'static str,
    /// Global matrix dimension (columns of `B`).
    pub n: u64,
    /// Global `nnz(A)`.
    pub nnz_a: u64,
    /// Global `nnz(B)`.
    pub nnz_b: u64,
    /// Global unmerged intermediate nonzeros (`flops`-scale).
    pub unmerged: u64,
}

/// The fig3/fig4 workload shapes the sweep audits: the MCL iteration
/// workload (Fig. 3) and the two Fig. 4 regimes (a huge uniform graph and
/// a smaller matrix with a dense-ish intermediate).
pub fn workload_shapes() -> Vec<WorkloadShape> {
    vec![
        WorkloadShape {
            name: "fig3-mcl",
            n: 100_000,
            nnz_a: 2_000_000,
            nnz_b: 2_000_000,
            unmerged: 40_000_000,
        },
        WorkloadShape {
            name: "fig4-friendster",
            n: 65_000_000,
            nnz_a: 1_800_000_000,
            nnz_b: 1_800_000_000,
            unmerged: 120_000_000_000,
        },
        WorkloadShape {
            name: "fig4-isolates",
            n: 2_000_000,
            nnz_a: 6_000_000,
            nnz_b: 6_000_000,
            unmerged: 60_000_000,
        },
    ]
}

/// One point of the planner's candidate grid, as the auditor sweeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Modeled workload.
    pub shape: WorkloadShape,
    /// World size.
    pub p: usize,
    /// Layer count (ignored by the 1.5D families, which have no grid).
    pub l: usize,
    /// Batch-count choice (the 1.5D families accept only `Forced(1)`:
    /// their stationary dense stripes cannot batch).
    pub batch: BatchSpec,
    /// Stage-operand movement mode (SUMMA families only; 1.5D moves `A`
    /// by ring shifts).
    pub exchange: ExchangeMode,
    /// Blocking or pipelined stages (SUMMA families only).
    pub overlap: OverlapMode,
    /// Session iteration count.
    pub iterations: usize,
    /// Which algorithm family's schedule to extract.
    pub family: AlgorithmFamily,
}

impl AuditConfig {
    /// Human-readable configuration label used in reports.
    pub(crate) fn label(&self) -> String {
        if self.family.is_15d() {
            return format!(
                "{} p={} {} {} iters={}",
                self.shape.name,
                self.p,
                self.family.label(),
                self.batch,
                self.iterations
            );
        }
        let overlap = match self.overlap {
            OverlapMode::Blocking => "blocking",
            OverlapMode::Overlapped => "overlapped",
        };
        format!(
            "{} p={} l={} {} {} {} iters={}",
            self.shape.name,
            self.p,
            self.l,
            self.batch,
            self.exchange.name(),
            overlap,
            self.iterations
        )
    }

    /// Resolve the configuration to the op program every rank runs, its
    /// byte annotations, and the batch count and memory check of the
    /// schedule-to-be, running the same Alg. 3 arithmetic a real run would.
    /// `Err` means the planner itself would reject the configuration
    /// (inputs exceed memory / batching infeasible / invalid replication)
    /// — not a schedule violation.
    fn resolve(&self) -> crate::Result<(Vec<Op>, Bytes, Schedule)> {
        let schedule = |nbatches, memory| Schedule {
            traces: Vec::with_capacity(self.p),
            comms: HashMap::new(),
            nbatches,
            memory,
        };
        let r = R_BYTES_PER_NNZ as u64;
        let p64 = self.p as u64;
        if self.family.is_15d() {
            self.family.validate(self.p)?;
            if self.batch != BatchSpec::Forced(1) {
                return Err(CoreError::Config(format!(
                    "{} admits only b=1 (the stationary dense stripes cannot batch), got {}",
                    self.family.label(),
                    self.batch
                )));
            }
            let t = self.p / self.family.repl_factor();
            let (rounds, has_team) = self.family.rounds_and_team(self.p);
            // The scatter moves the globals, the reduce and the gather the
            // row slice of one dense `C` stripe a rank keeps: all rows for
            // ColA, a team member's `⌈n/c⌉` for InnerABC (8 B/element,
            // square `n × n` operands as the workload shapes model them).
            let n = self.shape.n;
            let kept_rows = match self.family {
                AlgorithmFamily::InnerAbc15 { c } => n.div_ceil(c as u64),
                _ => n,
            };
            let bytes = Bytes {
                scatter: [r * self.shape.nnz_a, 8 * n * n],
                slice: 8 * kept_rows * n.div_ceil(t as u64),
                ..Bytes::default()
            };
            let ops = schedule::family15_session(rounds, has_team, self.iterations);
            return Ok((ops, bytes, schedule(1, None)));
        }
        let pr = spgemm_simgrid::grid::layer_side(self.p, self.l).ok_or_else(|| {
            CoreError::Config(format!(
                "p={} l={} does not form square layers",
                self.p, self.l
            ))
        })?;
        let max_nnz_a = self.shape.nnz_a.div_ceil(p64);
        let max_nnz_b = self.shape.nnz_b.div_ceil(p64);
        let max_unmerged = self.shape.unmerged.div_ceil(p64);
        let ncols_local = self.shape.n.div_ceil(pr as u64).max(1);
        let max_col_unmerged = max_unmerged.div_ceil(ncols_local);
        let footprint = Footprint {
            inputs: (r * (max_nnz_a + max_nnz_b)) as usize,
            unmerged: (r * max_unmerged) as usize,
        };

        // A resident session: `Forced` runs under an unlimited budget,
        // `Budget` under a budget; `schedule::fixed_batches` rules the sweep.
        let (forced, target) = match self.batch {
            BatchSpec::Forced(n) => (Some(n.max(1)), None),
            BatchSpec::Budget { target } => (None, Some(target)),
        };
        let fixed = schedule::fixed_batches(forced, true, target.is_none());
        let (nbatches, sweep, memory) = match (fixed, target) {
            (Some(b), _) => (b, false, None),
            (None, target) => {
                let target = target.expect("only a budget leaves b to the sweep");
                // A per-process budget that holds `target` batches, and
                // never less than the inputs plus one nonzero.
                let per_proc = footprint.at(target).max(footprint.inputs + R_BYTES_PER_NNZ);
                let b = alg3_batch_count(
                    per_proc,
                    max_nnz_a,
                    max_nnz_b,
                    max_unmerged,
                    max_col_unmerged,
                    self.shape.n.max(1) as usize,
                )?;
                (b, true, Some((footprint.at(b) as u64, per_proc as u64)))
            }
        };
        let nb = nbatches as u64;
        let bytes = Bytes {
            scatter: [r * max_nnz_a, r * max_nnz_b],
            nnz_a: max_nnz_a,
            nnz_b: max_nnz_b,
            nnz_b_piece: max_nnz_b.div_ceil(nb),
            pieces: r * max_unmerged.div_ceil(nb),
            slice: 0,
        };
        let ops = schedule::session(pr, self.l, sweep, nbatches, self.overlap, self.iterations);
        Ok((ops, bytes, schedule(nbatches, memory)))
    }

    /// Rank `g`'s communicator on every [`Link`] its family uses, through
    /// the pure seams the drivers build theirs from.
    fn links(&self, g: usize) -> [Option<Comm>; 6] {
        let (p, c) = (self.p, self.family.repl_factor());
        let comm = |members, color| Some(Comm::for_rank(members, color, g));
        let mut links = [const { None }; 6];
        links[Link::World as usize] = comm((0..p).collect(), 0);
        match self.family {
            AlgorithmFamily::ColA15 { .. } => {
                links[Link::Ring as usize] = comm(cola_ring(p, c, g), COLOR_RING15);
            }
            AlgorithmFamily::InnerAbc15 { .. } => {
                links[Link::Ring as usize] = comm(iabc_subring(p, c, g), COLOR_RING15);
                if c > 1 {
                    links[Link::Team as usize] = comm(iabc_team(p, c, g), COLOR_TEAM15);
                }
            }
            _ => {
                let grid = Grid3D::for_rank_id(g, p, self.l);
                links[Link::Row as usize] = Some(grid.row);
                links[Link::Col as usize] = Some(grid.col);
                links[Link::Fiber as usize] = Some(grid.fiber);
            }
        }
        links
    }

    /// Extract this configuration's schedule: resolve it to its op
    /// program, then lower that program once per rank. No matrices are
    /// constructed and no bytes move. `Err` means the planner would reject
    /// the configuration.
    pub fn extract(&self) -> crate::Result<Schedule> {
        let (ops, bytes, mut sched) = self.resolve()?;
        for g in 0..self.p {
            let mut low = Lowering {
                links: self.links(g),
                ..Lowering::default()
            };
            for comm in low.links.iter().flatten() {
                sched
                    .comms
                    .entry(comm.id())
                    .or_insert_with(|| comm.members().to_vec());
            }
            for &op in &ops {
                low.lower(op, self.exchange, &bytes);
            }
            sched.traces.push(low.events);
        }
        Ok(sched)
    }
}

/// Modeled payload sizes of one configuration, used only to annotate
/// collective events (excluded from agreement checks): bytes of what the
/// scatter, the fiber exchange and the 1.5D collectives move, nonzeros of
/// what a stage or the refresh of `B̃` moves — [`payload_bytes`] sizes those
/// as whole operands. The run sends fiber pieces and refresh slices coded,
/// so it records fewer bytes for them than these annotate.
#[derive(Clone, Copy, Default)]
struct Bytes {
    scatter: [u64; 2],
    nnz_a: u64,
    nnz_b: u64,
    nnz_b_piece: u64,
    pieces: u64,
    slice: u64,
}

impl Bytes {
    /// Payload of action `k` of `op`'s wire-table row, which runs on `link`.
    fn of(&self, op: Op, link: Link, k: usize) -> u64 {
        let operand = |nnz: u64| {
            let payload = Payload::Operand { nnz: nnz as usize };
            payload_bytes(op, payload) as u64
        };
        match (op, link) {
            (Op::Scatter, _) => self.scatter[k],
            (Op::Stage { .. }, Link::Row) => operand(self.nnz_a),
            (Op::Stage { batch: Some(_), .. }, _) => operand(self.nnz_b_piece),
            (Op::Stage { .. } | Op::RefreshB, _) => operand(self.nnz_b),
            (Op::SymbolicReduce, _) => 8,
            (Op::Fiber, _) => self.pieces,
            _ => self.slice,
        }
    }
}

/// The second reader of [`crate::schedule`]: one rank's communicators (by
/// [`Link`]), the counters the runtime would hold — one collective sequence
/// per communicator, one fetch-round counter — the post outstanding on
/// each link, and the events recorded so far.
#[derive(Default)]
struct Lowering {
    links: [Option<Comm>; 6],
    seq: [u64; 6],
    fetch_seq: u64,
    posted: [Option<u64>; 6],
    events: Vec<AuditEvent>,
}

/// One point-to-point leg on `comm` as the event its member records.
fn p2p(comm: &Comm, m: schedule::Msg) -> AuditEvent {
    let (peer, tag) = (comm.member(m.peer), m.tag);
    match m.send {
        true => AuditEvent::Send {
            comm: comm.id(),
            to: peer,
            tag,
        },
        false => AuditEvent::Recv {
            comm: comm.id(),
            from: peer,
            tag,
        },
    }
}

impl Lowering {
    /// Record the events this rank contributes to `op`, action by action
    /// of its wire-table row.
    fn lower(&mut self, op: Op, exchange: ExchangeMode, bytes: &Bytes) {
        let on = |link: Link| {
            self.links[link as usize]
                .as_ref()
                .expect("a program only uses the links of its family")
        };
        for (k, &w) in schedule::wire(op, exchange).iter().enumerate() {
            match w {
                Wire::Enter(kind, link) => {
                    let comm = on(link).id();
                    self.seq[link as usize] += 1;
                    let (seq, root) = (self.seq[link as usize], schedule::root(op, kind));
                    self.events.push(if kind.is_post() {
                        self.posted[link as usize] = Some(seq);
                        AuditEvent::Post {
                            comm,
                            op: kind,
                            root,
                            seq,
                        }
                    } else {
                        let bytes = bytes.of(op, link, k);
                        AuditEvent::Collective {
                            comm,
                            op: kind,
                            root,
                            seq,
                            bytes,
                        }
                    });
                }
                Wire::Wait(link) => {
                    let seq = self.posted[link as usize].take();
                    self.events.push(AuditEvent::Wait {
                        comm: on(link).id(),
                        seq: seq.expect("generators post before they wait"),
                    });
                }
                Wire::Fetch => {
                    let Op::Stage { s, .. } = op else {
                        unreachable!("only stages fetch")
                    };
                    let row = on(Link::Row);
                    let legs = schedule::fetch_round(row.size(), row.my_index(), s, self.fetch_seq);
                    self.events.extend(legs.flatten().map(|m| p2p(row, m)));
                    self.fetch_seq += 1;
                }
                Wire::Shift => {
                    let Op::Shift { round } = op else {
                        unreachable!("only shift ops rotate the ring")
                    };
                    let ring = on(Link::Ring);
                    let legs = schedule::ring_shift(ring.size(), ring.my_index(), round);
                    self.events.extend(legs.map(|m| p2p(ring, m)));
                }
            }
        }
    }
}

/// The class of a schedule violation the verifier detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditViolationKind {
    /// Two members of one communicator disagree on the collective
    /// sequence (operation, root, or sequence number).
    ScheduleDivergence,
    /// The replay scheduler stuck with live ranks blocked (unmatched
    /// receive, missing collective entry, or a cyclic wait).
    Deadlock,
    /// A second send posted with a `(comm, tag, src, dst)` envelope
    /// identical to one still in flight.
    TagCollision,
    /// A send never matched by a receive by the end of the schedule.
    OrphanedSend,
    /// A nonblocking post never waited, or waited out of post order.
    HandleDiscipline,
    /// The modeled Eq. 2 peak exceeds the per-process budget for the
    /// chosen batch count.
    MemoryExceeded,
}

impl fmt::Display for AuditViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditViolationKind::ScheduleDivergence => "ScheduleDivergence",
            AuditViolationKind::Deadlock => "Deadlock",
            AuditViolationKind::TagCollision => "TagCollision",
            AuditViolationKind::OrphanedSend => "OrphanedSend",
            AuditViolationKind::HandleDiscipline => "HandleDiscipline",
            AuditViolationKind::MemoryExceeded => "MemoryExceeded",
        };
        f.write_str(s)
    }
}

/// A verified schedule violation: its class, a detail line naming the
/// ranks and events involved, and (for divergences) a minimized
/// event-trace diff around the first mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// What class of defect this is.
    pub kind: AuditViolationKind,
    /// Ranks and events involved.
    pub detail: String,
    /// Minimized event-trace diff (±2 events of context per side).
    pub diff: Option<String>,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule violation [{}]: {}", self.kind, self.detail)?;
        if let Some(diff) = &self.diff {
            write!(f, "\n{diff}")?;
        }
        Ok(())
    }
}

/// Agreement signature of one collective-sequence event:
/// `(event class, op, root, seq, comm)` — class 0 = blocking collective,
/// 1 = nonblocking post, 2 = wait.
type CollectiveSig = (u8, Option<OpKind>, Option<usize>, u64, u64);

/// Whether an event participates in the per-communicator collective
/// sequence (property 1), and its agreement signature if so. Byte counts
/// are per-rank modeled quantities and are deliberately excluded.
fn collective_sig(e: &AuditEvent) -> Option<CollectiveSig> {
    match *e {
        AuditEvent::Collective {
            comm, op, root, seq, ..
        } => Some((0, Some(op), root, seq, comm)),
        AuditEvent::Post {
            comm, op, root, seq,
        } => Some((1, Some(op), root, seq, comm)),
        AuditEvent::Wait { comm, seq } => Some((2, None, None, seq, comm)),
        _ => None,
    }
}

/// Render ±`ctx` events of context around filtered index `at` of `rank`'s
/// events on `comm`, for minimized diffs.
fn render_context(
    trace: &[AuditEvent],
    comm: u64,
    rank: usize,
    at: usize,
    ctx: usize,
) -> String {
    let on_comm: Vec<&AuditEvent> = trace
        .iter()
        .filter(|e| collective_sig(e).is_some_and(|sig| sig.4 == comm))
        .collect();
    let lo = at.saturating_sub(ctx);
    let hi = (at + ctx + 1).min(on_comm.len());
    let mut out = format!("  rank {rank} (events {lo}..{hi} on comm {comm:#x}):\n");
    for (i, e) in on_comm[lo..hi].iter().enumerate() {
        let idx = lo + i;
        let marker = if idx == at { ">>" } else { "  " };
        out.push_str(&format!("  {marker} [{idx}] {e}\n"));
    }
    if at >= on_comm.len() {
        out.push_str(&format!("  >> [{at}] <end of trace>\n"));
    }
    out
}

/// Property 1: every member of every communicator records the identical
/// collective/post/wait sequence. Returns the first divergence found.
fn check_agreement(sched: &Schedule) -> Option<AuditViolation> {
    for (&comm, members) in &sched.comms {
        let Some(&first) = members.first() else {
            continue;
        };
        let seq_of = |rank: usize| {
            sched.traces[rank]
                .iter()
                .filter_map(collective_sig)
                .filter(move |sig| sig.4 == comm)
        };
        for &m in &members[1..] {
            let mut a = seq_of(first);
            let mut b = seq_of(m);
            let mut idx = 0usize;
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break,
                    (x, y) if x == y => idx += 1,
                    (x, y) => {
                        let describe = |v: Option<CollectiveSig>| {
                            match v {
                                Some((0, Some(op), root, seq, _)) => {
                                    format!("{op} seq {seq} root {root:?}")
                                }
                                Some((1, Some(op), root, seq, _)) => {
                                    format!("post {op} seq {seq} root {root:?}")
                                }
                                Some((2, _, _, seq, _)) => format!("wait seq {seq}"),
                                _ => "<end of trace>".into(),
                            }
                        };
                        let diff = format!(
                            "{}{}",
                            render_context(&sched.traces[first], comm, first, idx, 2),
                            render_context(&sched.traces[m], comm, m, idx, 2)
                        );
                        return Some(AuditViolation {
                            kind: AuditViolationKind::ScheduleDivergence,
                            detail: format!(
                                "comm {comm:#x} operation {idx}: rank {first} records {} but \
                                 rank {m} records {}",
                                describe(x),
                                describe(y)
                            ),
                            diff: Some(diff),
                        });
                    }
                }
            }
        }
    }
    None
}

/// The replay's hasher: its keys are communicator ids, tags, ranks and
/// sequence numbers, none chosen by an adversary, so one multiply per word
/// (the Fx scheme) replaces SipHash's rounds. A map's iteration order is
/// now a function of its keys (`RandomState` varied it run to run); it
/// reaches a report only where a schedule leaks posts on two communicators
/// ([`check_handles`]) or orphans two sends ([`check_replay`]).
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed through [`MulHasher`].
type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Property 3: per rank and per communicator, every post is waited and
/// waits come in post order.
fn check_handles(sched: &Schedule) -> Option<AuditViolation> {
    for (rank, trace) in sched.traces.iter().enumerate() {
        let mut posted: IntMap<u64, Vec<u64>> = IntMap::default();
        for (i, e) in trace.iter().enumerate() {
            match *e {
                AuditEvent::Post { comm, seq, .. } => {
                    posted.entry(comm).or_default().push(seq);
                }
                AuditEvent::Wait { comm, seq } => {
                    let queue = posted.entry(comm).or_default();
                    if queue.first() != Some(&seq) {
                        return Some(AuditViolation {
                            kind: AuditViolationKind::HandleDiscipline,
                            detail: format!(
                                "rank {rank} event {i}: wait on comm {comm:#x} seq {seq} but \
                                 the oldest outstanding post is {:?}",
                                queue.first()
                            ),
                            diff: None,
                        });
                    }
                    queue.remove(0);
                }
                _ => {}
            }
        }
        for (comm, queue) in posted {
            if let Some(&seq) = queue.first() {
                return Some(AuditViolation {
                    kind: AuditViolationKind::HandleDiscipline,
                    detail: format!(
                        "rank {rank} leaked a pending post on comm {comm:#x} seq {seq} \
                         (never waited before the schedule ended)"
                    ),
                    diff: None,
                });
            }
        }
    }
    None
}

/// Property 2: replay the whole schedule with a deterministic scheduler.
/// Sends enable matching receives; blocking collectives and waits
/// rendezvous all communicator members. Detects tag collisions, unmatched
/// receives, orphaned sends, and stuck frontiers.
fn check_replay(sched: &Schedule) -> Option<AuditViolation> {
    let p = sched.traces.len();
    let mut cursor = vec![0usize; p];
    let comm_size: IntMap<u64, usize> = sched
        .comms
        .iter()
        .map(|(&comm, members)| (comm, members.len()))
        .collect();
    // (comm, tag, src, dst) → in flight. A duplicate insert is a collision.
    let mut inflight: IntMap<(u64, u64, usize, usize), ()> = IntMap::default();
    // (comm, tag, src, dst) → receiver rank parked on it.
    let mut recv_waiters: IntMap<(u64, u64, usize, usize), usize> = IntMap::default();
    // (comm, seq, class) → (arrived, parked ranks). class 0 = blocking
    // collective rendezvous, 1 = wait rendezvous.
    let mut rendezvous: IntMap<(u64, u64, u8), (usize, Vec<usize>)> = IntMap::default();
    let mut runnable: Vec<usize> = (0..p).rev().collect();

    while let Some(rank) = runnable.pop() {
        while let Some(e) = sched.traces[rank].get(cursor[rank]) {
            match *e {
                AuditEvent::Send { comm, to, tag } => {
                    let key = (comm, tag, rank, to);
                    if inflight.insert(key, ()).is_some() {
                        return Some(AuditViolation {
                            kind: AuditViolationKind::TagCollision,
                            detail: format!(
                                "rank {rank} posted a second send to rank {to} with \
                                 (comm {comm:#x}, tag {tag:#x}) while the first is still \
                                 undelivered"
                            ),
                            diff: None,
                        });
                    }
                    cursor[rank] += 1;
                    if let Some(waiter) = recv_waiters.remove(&key) {
                        runnable.push(waiter);
                    }
                }
                AuditEvent::Recv { comm, from, tag } => {
                    let key = (comm, tag, from, rank);
                    if inflight.remove(&key).is_some() {
                        cursor[rank] += 1;
                    } else {
                        recv_waiters.insert(key, rank);
                        break;
                    }
                }
                AuditEvent::Collective { comm, seq, .. } | AuditEvent::Wait { comm, seq } => {
                    let class = match e {
                        AuditEvent::Collective { .. } => 0u8,
                        _ => 1u8,
                    };
                    let size = comm_size.get(&comm).copied().unwrap_or(1);
                    let entry = rendezvous.entry((comm, seq, class)).or_insert((0, Vec::new()));
                    entry.0 += 1;
                    if entry.0 == size {
                        cursor[rank] += 1;
                        let parked = std::mem::take(&mut entry.1);
                        for r in parked {
                            cursor[r] += 1;
                            runnable.push(r);
                        }
                        rendezvous.remove(&(comm, seq, class));
                    } else {
                        entry.1.push(rank);
                        break;
                    }
                }
                AuditEvent::Post { .. } => {
                    cursor[rank] += 1;
                }
            }
        }
    }

    let stuck: Vec<usize> = (0..p)
        .filter(|&r| cursor[r] < sched.traces[r].len())
        .collect();
    if !stuck.is_empty() {
        let who: Vec<String> = stuck
            .iter()
            .take(4)
            .map(|&r| format!("rank {r} at event {}: {}", cursor[r], sched.traces[r][cursor[r]]))
            .collect();
        let more = if stuck.len() > 4 {
            format!(" (and {} more)", stuck.len() - 4)
        } else {
            String::new()
        };
        return Some(AuditViolation {
            kind: AuditViolationKind::Deadlock,
            detail: format!(
                "{} of {p} ranks can never progress: {}{more}",
                stuck.len(),
                who.join("; ")
            ),
            diff: None,
        });
    }
    if let Some((&(comm, tag, src, dst), ())) = inflight.iter().next() {
        return Some(AuditViolation {
            kind: AuditViolationKind::OrphanedSend,
            detail: format!(
                "rank {src} sent to rank {dst} with (comm {comm:#x}, tag {tag:#x}) but the \
                 message is never received"
            ),
            diff: None,
        });
    }
    None
}

/// Property 4: the modeled Eq. 2 peak stays within the per-process budget
/// (only meaningful for budget-derived batch counts).
fn check_memory(sched: &Schedule) -> Option<AuditViolation> {
    let (peak, per_proc) = sched.memory?;
    if peak > per_proc {
        return Some(AuditViolation {
            kind: AuditViolationKind::MemoryExceeded,
            detail: format!(
                "modeled peak {peak} B exceeds per-process budget {per_proc} B with {} \
                 batches (Eq. 2 model: inputs + per-batch unmerged output)",
                sched.nbatches
            ),
            diff: None,
        });
    }
    None
}

/// Verify all four property classes against an extracted schedule.
/// Returns every violation found (at most one per property class — each
/// checker stops at its first finding to keep reports minimal).
pub(crate) fn verify(sched: &Schedule) -> Vec<AuditViolation> {
    let mut out = Vec::new();
    if let Some(v) = check_agreement(sched) {
        out.push(v);
    }
    if let Some(v) = check_handles(sched) {
        out.push(v);
    }
    if let Some(v) = check_replay(sched) {
        out.push(v);
    }
    if let Some(v) = check_memory(sched) {
        out.push(v);
    }
    out
}

/// A deliberately injected schedule bug, for proving the verifier's
/// coverage (`spgemm audit --inject …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditFault {
    /// Remove one rank's last `wait` (a leaked handle / pipeline bug).
    SkipWait,
    /// Corrupt the tag of one rank's first fetch-protocol send (a
    /// sequence-counter desync between requester and owner).
    WrongFetchTag,
    /// Remove one rank's first fiber collective (a skipped stage).
    SkipCollective,
    /// Change the root of one rank's first rooted collective.
    WrongRoot,
}

impl AuditFault {
    /// Parse a CLI fault name.
    pub fn parse(s: &str) -> Option<AuditFault> {
        match s {
            "skip-wait" => Some(AuditFault::SkipWait),
            "wrong-fetch-tag" => Some(AuditFault::WrongFetchTag),
            "skip-collective" => Some(AuditFault::SkipCollective),
            "wrong-root" => Some(AuditFault::WrongRoot),
            _ => None,
        }
    }

    /// All fault names, for help text.
    pub const NAMES: &'static [&'static str] = &[
        "skip-wait",
        "wrong-fetch-tag",
        "skip-collective",
        "wrong-root",
    ];

    /// Apply the fault to the last rank's trace (the highest rank, so
    /// rank-0-biased reporting bugs would be exposed). Returns a
    /// description of the mutation, or `None` when the schedule has no
    /// applicable event (e.g. no fetch sends under dense exchange).
    pub(crate) fn inject(&self, sched: &mut Schedule) -> Option<String> {
        let victim = sched.traces.len() - 1;
        let trace = &mut sched.traces[victim];
        match self {
            AuditFault::SkipWait => {
                let at = trace
                    .iter()
                    .rposition(|e| matches!(e, AuditEvent::Wait { .. }))?;
                let removed = trace.remove(at);
                Some(format!("rank {victim}: removed event {at} ({removed})"))
            }
            AuditFault::WrongFetchTag => {
                let at = trace.iter().position(|e| {
                    matches!(e, AuditEvent::Send { tag, .. } if *tag >= crate::exchange::FETCH_TAG_BASE)
                })?;
                if let AuditEvent::Send { tag, .. } = &mut trace[at] {
                    let old = *tag;
                    *tag += 2;
                    return Some(format!(
                        "rank {victim}: send event {at} retagged {old:#x} -> {:#x}",
                        old + 2
                    ));
                }
                None
            }
            AuditFault::SkipCollective => {
                let at = trace
                    .iter()
                    .position(|e| matches!(e, AuditEvent::Collective { .. }))?;
                let removed = trace.remove(at);
                Some(format!("rank {victim}: removed event {at} ({removed})"))
            }
            AuditFault::WrongRoot => {
                let at = trace.iter().position(|e| {
                    matches!(
                        e,
                        AuditEvent::Collective { root: Some(_), .. }
                            | AuditEvent::Post { root: Some(_), .. }
                    )
                })?;
                match &mut trace[at] {
                    AuditEvent::Collective { root: Some(r), .. }
                    | AuditEvent::Post { root: Some(r), .. } => {
                        let old = *r;
                        *r += 1;
                        Some(format!(
                            "rank {victim}: event {at} root changed {old} -> {}",
                            old + 1
                        ))
                    }
                    _ => None,
                }
            }
        }
    }
}

/// Outcome of auditing one configuration.
#[derive(Debug, Clone)]
pub enum ConfigOutcome {
    /// Schedule extracted and all four properties verified clean.
    Ok {
        /// Batch count the configuration resolved to.
        nbatches: usize,
        /// Total events across all ranks.
        events: usize,
    },
    /// The planner itself rejects the configuration (not a violation).
    Infeasible(String),
    /// The verifier found violations.
    Violated(Vec<AuditViolation>),
}

/// One audited configuration and its outcome.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Configuration label (`AuditConfig::label`).
    pub label: String,
    /// What the audit concluded.
    pub outcome: ConfigOutcome,
}

/// A full sweep's results.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Per-configuration outcomes, in grid order.
    pub results: Vec<ConfigResult>,
}

impl AuditReport {
    /// Configurations verified clean.
    pub fn ok_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, ConfigOutcome::Ok { .. }))
            .count()
    }

    /// Configurations the planner rejects (infeasible, not violations).
    pub fn infeasible_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, ConfigOutcome::Infeasible(_)))
            .count()
    }

    /// Configurations with at least one verified violation.
    pub fn violations(&self) -> Vec<(&str, &[AuditViolation])> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                ConfigOutcome::Violated(v) => Some((r.label.as_str(), v.as_slice())),
                _ => None,
            })
            .collect()
    }

    /// Total events extracted across all verified configurations.
    pub fn total_events(&self) -> usize {
        self.results
            .iter()
            .map(|r| match r.outcome {
                ConfigOutcome::Ok { events, .. } => events,
                _ => 0,
            })
            .sum()
    }

    /// Render the report as a JSON object (hand-rolled; no dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"configs_checked\": {},\n  \"ok\": {},\n  \"infeasible_count\": {},\n",
            self.results.len(),
            self.ok_count(),
            self.infeasible_count()
        ));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        out.push_str("  \"infeasible\": [");
        let mut first = true;
        for r in &self.results {
            if let ConfigOutcome::Infeasible(reason) = &r.outcome {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\n    {{\"config\": \"{}\", \"reason\": \"{}\"}}",
                    json_escape(&r.label),
                    json_escape(reason)
                ));
            }
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"violations\": [");
        first = true;
        for r in &self.results {
            if let ConfigOutcome::Violated(vs) = &r.outcome {
                for v in vs {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str(&format!(
                        "\n    {{\"config\": \"{}\", \"kind\": \"{}\", \"detail\": \"{}\"{}}}",
                        json_escape(&r.label),
                        v.kind,
                        json_escape(&v.detail),
                        v.diff
                            .as_ref()
                            .map(|d| format!(", \"diff\": \"{}\"", json_escape(d)))
                            .unwrap_or_default()
                    ));
                }
            }
        }
        out.push_str(if first { "]\n" } else { "\n  ]\n" });
        out.push('}');
        out
    }
}

/// Escape a string for embedding in JSON.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Enumerate the planner's full candidate grid over `ps` world sizes: all
/// valid `(p, l)` pairs × batch specifications × both exchange modes ×
/// both overlap modes × session iteration counts × the fig3/fig4 workload
/// shapes.
pub(crate) fn sweep_grid(ps: &[usize]) -> Vec<AuditConfig> {
    let specs = [
        BatchSpec::Forced(1),
        BatchSpec::Forced(2),
        BatchSpec::Forced(4),
        BatchSpec::Budget { target: 1 },
        BatchSpec::Budget { target: 8 },
    ];
    let mut grid = Vec::new();
    for shape in workload_shapes() {
        for &p in ps {
            for l in valid_layer_counts(p) {
                for batch in specs {
                    for exchange in ExchangeMode::ALL {
                        for overlap in [OverlapMode::Blocking, OverlapMode::Overlapped] {
                            for iterations in [1usize, 4] {
                                grid.push(AuditConfig {
                                    shape,
                                    p,
                                    l,
                                    batch,
                                    exchange,
                                    overlap,
                                    iterations,
                                    family: AlgorithmFamily::Summa3dBatched,
                                });
                            }
                        }
                    }
                }
            }
            // The 1.5D families: every valid replication factor for this
            // world size, b=1 only (their stationary stripes cannot
            // batch); exchange/overlap/l are SUMMA knobs and pinned.
            for family in AlgorithmFamily::sweep(p) {
                if !family.is_15d() {
                    continue;
                }
                for iterations in [1usize, 4] {
                    grid.push(AuditConfig {
                        shape,
                        p,
                        l: 1,
                        batch: BatchSpec::Forced(1),
                        exchange: ExchangeMode::DenseBcast,
                        overlap: OverlapMode::Blocking,
                        iterations,
                        family,
                    });
                }
            }
        }
    }
    grid
}

/// Audit one configuration: extract, optionally inject a fault, verify.
pub fn audit_config(cfg: &AuditConfig, fault: Option<AuditFault>) -> ConfigResult {
    let label = cfg.label();
    let mut sched = match cfg.extract() {
        Ok(s) => s,
        Err(e) => {
            return ConfigResult {
                label,
                outcome: ConfigOutcome::Infeasible(e.to_string()),
            }
        }
    };
    if let Some(f) = fault {
        if f.inject(&mut sched).is_none() {
            return ConfigResult {
                label,
                outcome: ConfigOutcome::Infeasible(format!(
                    "fault {f:?} not applicable to this schedule"
                )),
            };
        }
    }
    let violations = verify(&sched);
    let outcome = if violations.is_empty() {
        ConfigOutcome::Ok {
            nbatches: sched.nbatches,
            events: sched.total_events(),
        }
    } else {
        ConfigOutcome::Violated(violations)
    };
    ConfigResult { label, outcome }
}

/// Run the full sweep over `ps` and audit every configuration.
pub fn sweep(ps: &[usize], fault: Option<AuditFault>) -> AuditReport {
    let mut report = AuditReport::default();
    for cfg in sweep_grid(ps) {
        report.results.push(audit_config(&cfg, fault));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> AuditConfig {
        AuditConfig {
            shape: workload_shapes()[0],
            p: 16,
            l: 4,
            batch: BatchSpec::Forced(2),
            exchange: ExchangeMode::SparseFetch,
            overlap: OverlapMode::Overlapped,
            iterations: 2,
            family: AlgorithmFamily::Summa3dBatched,
        }
    }

    fn cfg_15d(p: usize, family: AlgorithmFamily, iterations: usize) -> AuditConfig {
        AuditConfig {
            shape: workload_shapes()[0],
            p,
            l: 1,
            batch: BatchSpec::Forced(1),
            exchange: ExchangeMode::DenseBcast,
            overlap: OverlapMode::Blocking,
            iterations,
            family,
        }
    }

    #[test]
    fn clean_schedules_verify_clean() {
        for exchange in ExchangeMode::ALL {
            for overlap in [OverlapMode::Blocking, OverlapMode::Overlapped] {
                for batch in [BatchSpec::Forced(3), BatchSpec::Budget { target: 4 }] {
                    let cfg = AuditConfig {
                        shape: workload_shapes()[0],
                        p: 16,
                        l: 4,
                        batch,
                        exchange,
                        overlap,
                        iterations: 2,
                        family: AlgorithmFamily::Summa3dBatched,
                    };
                    let sched = cfg.extract().expect("feasible");
                    let violations = verify(&sched);
                    assert!(violations.is_empty(), "{}: {violations:?}", cfg.label());
                }
            }
        }
    }

    #[test]
    fn traces_are_payload_free_but_nonempty() {
        let sched = small_cfg().extract().unwrap();
        assert_eq!(sched.traces.len(), 16);
        assert!(sched.total_events() > 0);
        // Fetch traffic exists under sparse exchange with pr > 1.
        assert!(sched
            .traces
            .iter()
            .any(|t| t.iter().any(|e| matches!(e, AuditEvent::Send { .. }))));
    }

    #[test]
    fn skipped_wait_is_caught() {
        let mut sched = small_cfg().extract().unwrap();
        AuditFault::SkipWait.inject(&mut sched).expect("applicable");
        let violations = verify(&sched);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == AuditViolationKind::ScheduleDivergence
                    || v.kind == AuditViolationKind::HandleDiscipline),
            "{violations:?}"
        );
    }

    #[test]
    fn wrong_fetch_tag_deadlocks_the_replay() {
        let mut sched = small_cfg().extract().unwrap();
        AuditFault::WrongFetchTag
            .inject(&mut sched)
            .expect("sparse schedule has fetch sends");
        let violations = verify(&sched);
        assert!(
            violations.iter().any(|v| matches!(
                v.kind,
                AuditViolationKind::Deadlock | AuditViolationKind::OrphanedSend
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn wrong_root_is_a_divergence_with_diff() {
        let mut sched = small_cfg().extract().unwrap();
        AuditFault::WrongRoot.inject(&mut sched).expect("applicable");
        let violations = verify(&sched);
        let v = violations
            .iter()
            .find(|v| v.kind == AuditViolationKind::ScheduleDivergence)
            .expect("divergence");
        assert!(v.diff.is_some(), "divergences carry a minimized diff");
    }

    #[test]
    fn memory_model_matches_alg3_guarantee() {
        // Budget-derived batch counts must satisfy the Eq. 2 bound by
        // construction, for every shape and grid.
        for shape in workload_shapes() {
            for p in [4usize, 16, 64] {
                for l in valid_layer_counts(p) {
                    for target in [1usize, 4, 32] {
                        let cfg = AuditConfig {
                            shape,
                            p,
                            l,
                            batch: BatchSpec::Budget { target },
                            exchange: ExchangeMode::DenseBcast,
                            overlap: OverlapMode::Blocking,
                            iterations: 1,
                            family: AlgorithmFamily::Summa3dBatched,
                        };
                        // Planner-rejected (Err) configurations are fine.
                        if let Ok(sched) = cfg.extract() {
                            assert!(check_memory(&sched).is_none(), "{}", cfg.label());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let report = sweep(&[4], Some(AuditFault::WrongRoot));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"configs_checked\""));
        assert!(json.contains("\"violations\""));
        // Faulted sweep must report at least one violation.
        assert!(!report.violations().is_empty());
    }

    #[test]
    fn family15_schedules_verify_clean() {
        // Both 1.5D families, non-square world sizes included, across
        // every valid replication factor and multi-iteration sessions.
        for (p, family) in [
            (12, AlgorithmFamily::ColA15 { c: 1 }),
            (12, AlgorithmFamily::ColA15 { c: 3 }),
            (16, AlgorithmFamily::ColA15 { c: 4 }),
            (16, AlgorithmFamily::InnerAbc15 { c: 2 }),
            (16, AlgorithmFamily::InnerAbc15 { c: 4 }),
            (18, AlgorithmFamily::InnerAbc15 { c: 3 }),
        ] {
            for iterations in [1usize, 2] {
                let cfg = cfg_15d(p, family, iterations);
                let sched = cfg.extract().expect("valid 1.5D config");
                assert_eq!(sched.traces.len(), p);
                assert_eq!(sched.nbatches, 1);
                let violations = verify(&sched);
                assert!(violations.is_empty(), "{}: {violations:?}", cfg.label());
            }
        }
    }

    #[test]
    fn family15_rejects_batching() {
        let cfg = AuditConfig {
            batch: BatchSpec::Forced(2),
            ..cfg_15d(16, AlgorithmFamily::ColA15 { c: 4 }, 1)
        };
        assert!(cfg.extract().is_err(), "b>1 must be planner-rejected");
        let cfg = AuditConfig {
            batch: BatchSpec::Budget { target: 4 },
            ..cfg_15d(16, AlgorithmFamily::ColA15 { c: 4 }, 1)
        };
        assert!(cfg.extract().is_err(), "budget batching must be rejected");
    }

    #[test]
    fn family15_invalid_repl_factor_is_planner_rejected() {
        // p % c != 0 and c² ∤ p are config errors, not violations.
        assert!(cfg_15d(12, AlgorithmFamily::ColA15 { c: 5 }, 1)
            .extract()
            .is_err());
        assert!(cfg_15d(12, AlgorithmFamily::InnerAbc15 { c: 3 }, 1)
            .extract()
            .is_err());
    }

    #[test]
    fn family15_wrong_shift_tag_is_caught() {
        // Corrupt one shift send's tag: its receiver can never match, so
        // the replay deadlocks or the send orphans.
        let mut sched = cfg_15d(12, AlgorithmFamily::ColA15 { c: 3 }, 1)
            .extract()
            .unwrap();
        let e = sched.traces[0]
            .iter_mut()
            .find_map(|e| match e {
                AuditEvent::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .expect("ColA schedule has shift sends");
        *e += 999;
        let violations = verify(&sched);
        assert!(
            violations.iter().any(|v| matches!(
                v.kind,
                AuditViolationKind::Deadlock | AuditViolationKind::OrphanedSend
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn sweep_covers_both_15d_families() {
        let grid = sweep_grid(&[16]);
        let has = |needle: &str| grid.iter().any(|c| c.label().contains(needle));
        assert!(has("cola(c=1)"), "sweep must include ColA c=1");
        assert!(has("cola(c=4)"), "sweep must include ColA c=4");
        assert!(has("innerabc(c=2)"), "sweep must include InnerABC c=2");
        // And every 1.5D sweep point must verify clean.
        for cfg in grid.iter().filter(|c| c.family.is_15d()) {
            let res = audit_config(cfg, None);
            assert!(
                matches!(res.outcome, ConfigOutcome::Ok { .. }),
                "{}: {:?}",
                res.label,
                res.outcome
            );
        }
    }

    #[test]
    fn fetch_seq_is_monotone_across_iterations() {
        // The fetch tag counter must not reset between session iterations
        // (the cross-iteration cache relies on unique tags).
        let sched = AuditConfig {
            iterations: 3,
            ..small_cfg()
        }
        .extract()
        .unwrap();
        for trace in &sched.traces {
            let mut last_req = None;
            for e in trace {
                if let AuditEvent::Send { tag, .. } = e {
                    if *tag >= crate::exchange::FETCH_TAG_BASE && tag % 2 == 0 {
                        if let Some(prev) = last_req {
                            assert!(*tag > prev, "fetch req tags must strictly increase");
                        }
                        last_req = Some(*tag);
                    }
                }
            }
        }
    }
}
