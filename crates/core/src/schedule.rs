//! The communication schedule of Alg. 1–4 and the 1.5D families, written
//! once.
//!
//! Every collective, post/wait and point-to-point message the drivers issue
//! is content-independent — a pure function of `(p, l, b, exchange,
//! overlap, family, c, iters)`. This module holds that function as data: a
//! small SPMD-identical [`Op`] vocabulary, generators that emit the op
//! program of each driver, and `wire`, the one table from a
//! communication op and an [`ExchangeMode`] to its ordered wire actions.
//!
//! Two readers walk the same programs. The drivers (`batched`,
//! `symbolic`, [`crate::family15`]) run one `for op in …` loop and
//! execute each op against payloads; a session step runs the `iteration`
//! a one-shot multiply runs. The auditor ([`crate::audit`]) lowers each op
//! through `wire` into per-rank [`crate::audit::AuditEvent`]s. A new
//! movement scheme is one more row of `wire`; a new pipelining order is
//! one more branch of `iteration`.

use crate::exchange::{fetch_rep_tag, fetch_req_tag, ExchangeMode};
use crate::family15::shift_tag;
use crate::memory::R_BYTES_PER_NNZ;
use crate::summa2d::OverlapMode;
use spgemm_simgrid::OpKind;

/// How a stage's operand movement is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Issued and completed in place (Alg. 1 as published).
    Blocking,
    /// Posted nonblocking; completes at the matching [`Phase::Wait`].
    Post,
    /// Completes the stage's [`Phase::Post`].
    Wait,
}

/// One step of a driver program. Every rank runs the same sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Root scatters both global operands.
    Scatter,
    /// Move stage `s`'s `(Ã, B̃)` operands; `batch` names the batch whose
    /// piece of `B̃` moves (`None`: the un-batched `B̃` of the symbolic
    /// sweep).
    Stage {
        /// SUMMA stage, also the root of its broadcasts and fetch round.
        s: usize,
        /// Batch whose `B̃` piece moves.
        batch: Option<usize>,
        /// Blocking, or one half of a post/wait pair.
        phase: Phase,
    },
    /// Alg. 3's world reductions of the symbolic counts.
    SymbolicReduce,
    /// AllToAll-Fiber of the ColSplit pieces (Alg. 2 line 5), a blocking
    /// collective under either overlap mode.
    Fiber,
    /// A session's refresh of `B̃` from the new iterate along the fiber.
    RefreshB,
    /// 1.5D ring rotation of the `A` block after round `round`.
    Shift {
        /// Shift round (selects the tag).
        round: usize,
    },
    /// InnerABC partial-`C` reduce-scatter across the replication team: one
    /// alltoallv that hands each member the row slice of the stripe it
    /// keeps.
    TeamReduce,
    /// Gather of the kept rows of the stationary `C` stripes to the root.
    Gather,
    /// Local multiply of the operands the last stage delivered.
    Multiply,
    /// Local symbolic count of the operands the last stage delivered.
    SymbolicCount,
    /// Merge-Layer of the batch's stage partials.
    MergeLayer,
    /// Merge-Fiber of the pieces [`Op::Fiber`] received.
    MergeFiber,
    /// Hand batch `batch`'s piece of `C` to the application.
    Deliver {
        /// Batch index.
        batch: usize,
    },
}

/// Alg. 3: a blocking structure-only SUMMA2D sweep over the un-batched
/// operands, then the world reductions.
pub(crate) fn symbolic(stages: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(2 * stages + 1);
    for s in 0..stages {
        ops.push(Op::Stage {
            s,
            batch: None,
            phase: Phase::Blocking,
        });
        ops.push(Op::SymbolicCount);
    }
    ops.push(Op::SymbolicReduce);
    ops
}

/// Alg. 4 lines 4–6: one SUMMA3D per batch, `nb ≥ 1` batches, then the
/// refresh of `B̃` from the new iterate if `refresh` (a session on more
/// than one layer). The sweep, if [`fixed_batches`] asks for it, precedes.
///
/// Under [`OverlapMode::Overlapped`] stages are double-buffered: the
/// following stage — after a batch's last stage, the *next batch's* stage 0
/// — is posted before the current stage's multiply, so the multiply (and
/// across batches the merge and fiber phases) hides it. One stage is in
/// flight at any time.
pub(crate) fn iteration(nb: usize, stages: usize, overlap: OverlapMode, refresh: bool) -> Vec<Op> {
    let stage = |s, t, phase| Op::Stage {
        s,
        batch: Some(t),
        phase,
    };
    let piped = overlap == OverlapMode::Overlapped;
    let mut ops = Vec::new();
    if piped {
        ops.push(stage(0, 0, Phase::Post));
    }
    for t in 0..nb {
        for s in 0..stages {
            if !piped {
                ops.push(stage(s, t, Phase::Blocking));
            } else {
                ops.push(stage(s, t, Phase::Wait));
                if s + 1 < stages {
                    ops.push(stage(s + 1, t, Phase::Post));
                } else if t + 1 < nb {
                    ops.push(stage(0, t + 1, Phase::Post));
                }
            }
            ops.push(Op::Multiply);
        }
        ops.extend([
            Op::MergeLayer,
            Op::Fiber,
            Op::MergeFiber,
            Op::Deliver { batch: t },
        ]);
    }
    if refresh {
        ops.push(Op::RefreshB);
    }
    ops
}

/// Alg. 4 line 2: the batch count an iteration runs without Alg. 3, or
/// `None` when the sweep must pick it. A forced count skips the sweep, and
/// so does a resident session under an unlimited budget, where Alg. 3
/// always picks `b = 1`.
pub fn fixed_batches(forced: Option<usize>, resident: bool, unlimited: bool) -> Option<usize> {
    forced.or((resident && unlimited).then_some(1))
}

/// A whole session on a `stages × stages × l` grid: scatter, then `iters`
/// iterations of `nb` batches each, every one preceded by the symbolic
/// sweep when `sweep` is set.
pub(crate) fn session(
    stages: usize,
    l: usize,
    sweep: bool,
    nb: usize,
    overlap: OverlapMode,
    iters: usize,
) -> Vec<Op> {
    let mut ops = vec![Op::Scatter];
    for _ in 0..iters {
        if sweep {
            ops.extend(symbolic(stages));
        }
        ops.extend(iteration(nb, stages, overlap, l > 1));
    }
    ops
}

/// One 1.5D SpMM after its scatter: `rounds` local multiplies with a ring
/// shift between consecutive ones, the team reduction (InnerABC with
/// `c > 1`), and the gather.
pub(crate) fn family15(rounds: usize, has_team: bool) -> Vec<Op> {
    let mut ops = Vec::with_capacity(2 * rounds + 2);
    for round in 0..rounds {
        ops.push(Op::Multiply);
        if round + 1 < rounds {
            ops.push(Op::Shift { round });
        }
    }
    if has_team {
        ops.push(Op::TeamReduce);
    }
    ops.push(Op::Gather);
    ops
}

/// `iters` full 1.5D SpMM calls; there is no resident 1.5D session, so the
/// scatter repeats with every call.
pub(crate) fn family15_session(rounds: usize, has_team: bool, iters: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..iters {
        ops.push(Op::Scatter);
        ops.extend(family15(rounds, has_team));
    }
    ops
}

/// The communicator a wire action runs on, from the acting rank's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// All ranks.
    World,
    /// Process row of the rank's layer (`Ã` moves along it).
    Row,
    /// Process column of the rank's layer (`B̃` moves along it).
    Col,
    /// The rank's fiber across layers.
    Fiber,
    /// The rank's 1.5D shift ring.
    Ring,
    /// The rank's InnerABC replication team.
    Team,
}

/// One wire action of a communication op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wire {
    /// Enter a blocking collective, or register a nonblocking post
    /// (`IbcastPost`), on a link. `Ã` moves on
    /// [`Link::Row`], `B̃` on [`Link::Col`].
    Enter(OpKind, Link),
    /// Complete the post outstanding on a link.
    Wait(Link),
    /// The fetch round for `Ã` on [`Link::Row`]: see [`fetch_round`].
    Fetch,
    /// One rotation of [`Link::Ring`]: see [`ring_shift`].
    Shift,
}

const BCAST_A: Wire = Wire::Enter(OpKind::Bcast, Link::Row);
const BCAST_B: Wire = Wire::Enter(OpKind::Bcast, Link::Col);
const POST_A: Wire = Wire::Enter(OpKind::IbcastPost, Link::Row);
const POST_B: Wire = Wire::Enter(OpKind::IbcastPost, Link::Col);
const WAIT_A: Wire = Wire::Wait(Link::Row);
const WAIT_B: Wire = Wire::Wait(Link::Col);
const SCATTER: Wire = Wire::Enter(OpKind::Bcast, Link::World);
const REDUCE: Wire = Wire::Enter(OpKind::Allreduce, Link::World);
const ALLTOALL: Wire = Wire::Enter(OpKind::Alltoallv, Link::Fiber);

/// The ordered wire actions of `op` under `exchange` (none for compute
/// ops). Under [`ExchangeMode::SparseFetch`] `B̃` must land before the fetch
/// round, whose request set is derived from it — so only `B̃`'s broadcast
/// can be posted ahead and the fetch runs at wait time.
pub(crate) fn wire(op: Op, exchange: ExchangeMode) -> &'static [Wire] {
    use ExchangeMode::{DenseBcast, SparseFetch};
    use Phase::{Blocking, Post, Wait};
    match op {
        // The global `A`, then the global `B`.
        Op::Scatter => &[SCATTER, SCATTER],
        Op::Stage { phase, .. } => match (phase, exchange) {
            (Blocking, DenseBcast) => &[BCAST_A, BCAST_B],
            (Blocking, SparseFetch) => &[BCAST_B, Wire::Fetch],
            (Post, DenseBcast) => &[POST_A, POST_B],
            (Post, SparseFetch) => &[POST_B],
            (Wait, DenseBcast) => &[WAIT_A, WAIT_B],
            (Wait, SparseFetch) => &[WAIT_B, Wire::Fetch],
        },
        // max and sum of the unmerged count, of nnz(Ã) and of nnz(B̃); the
        // flop sum; the per-column maximum.
        Op::SymbolicReduce => &[REDUCE; 8],
        Op::Fiber | Op::RefreshB => &[ALLTOALL],
        Op::Shift { .. } => &[Wire::Shift],
        Op::TeamReduce => &[Wire::Enter(OpKind::Alltoallv, Link::Team)],
        Op::Gather => &[Wire::Enter(OpKind::Gather, Link::World)],
        Op::Multiply | Op::SymbolicCount | Op::MergeLayer | Op::MergeFiber | Op::Deliver { .. } => {
            &[]
        }
    }
}

/// What one sparse message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A whole local piece of `nnz` nonzeros, broadcast or scattered.
    Operand {
        /// Nonzeros of the piece.
        nnz: usize,
    },
    /// The needed-column index set of a fetch round, gap-coded
    /// (`spgemm_sparse::subset::request_len`).
    Request {
        /// Length of the gap-coded list.
        index_bytes: usize,
    },
    /// A varint-coded sparse block of `nnz` nonzeros: the tile answering a
    /// [`Payload::Request`] (exactly its columns, in request order,
    /// `spgemm_sparse::subset::tile_len`), or a whole block that leads with
    /// the request of its own nonempty columns
    /// (`spgemm_sparse::subset::coded_len`). The run moves the matrix and
    /// only sizes its encoding.
    Coded {
        /// Nonzeros of the block.
        nnz: usize,
        /// Length of the block's varint-coded column ids, counts and rows.
        index_bytes: usize,
    },
}

/// Modeled bytes of `payload` as `op` moves it — the one place a sparse
/// message is sized; [`crate::exchange`], the fiber exchange, the refresh
/// of `B̃` and the 1.5D A-shift charge it and [`crate::audit`] annotates
/// with it. A message carries what its receiver lacks.
///
/// A stored nonzero is three 8-byte words, a row index, a column index and
/// a value: [`crate::R_BYTES_PER_NNZ`] = 24 bytes, the paper's `r`.
///
/// | payload | numeric | symbolic sweep stage (`batch: None`) |
/// |---|---|---|
/// | `Operand` | `24·nnz` (Table II) | `16·nnz`: the sweep reads no value |
/// | `Coded` | `8·nnz + index_bytes` | `index_bytes` |
/// | `Request` | `index_bytes` | `index_bytes` |
///
/// Stage broadcasts and the scatter move `Operand`s. Every other sparse
/// block travels coded, so its indices cost what their encoding takes: a
/// count per column and the gaps between a column's rows as varints beside
/// a value word per nonzero — a fetch reply spells no column id (the
/// requester sent them), while a fiber piece, a refresh slice of `B̃` and an
/// A-shift block lead with their nonempty column ids. A request is a
/// gap-coded varint list.
pub fn payload_bytes(op: Op, payload: Payload) -> usize {
    const W: usize = R_BYTES_PER_NNZ / 3; // one index word
    let pattern = matches!(op, Op::Stage { batch: None, .. });
    match payload {
        Payload::Operand { nnz } if pattern => 2 * W * nnz,
        Payload::Operand { nnz } => R_BYTES_PER_NNZ * nnz,
        Payload::Request { index_bytes } => index_bytes,
        Payload::Coded { index_bytes, .. } if pattern => index_bytes,
        Payload::Coded { nnz, index_bytes } => (R_BYTES_PER_NNZ - 2 * W) * nnz + index_bytes,
    }
}

/// Root member index of collective `kind` as issued by `op`: the stage
/// index for stage broadcasts, member 0 for scatter and gather, `None` for
/// unrooted collectives.
pub(crate) fn root(op: Op, kind: OpKind) -> Option<usize> {
    let rooted = matches!(kind, OpKind::Bcast | OpKind::IbcastPost | OpKind::Gather);
    rooted.then_some(match op {
        Op::Stage { s, .. } => s,
        _ => 0,
    })
}

/// One leg of a point-to-point conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Msg {
    /// Whether this member sends (else it blocks in a receive).
    pub send: bool,
    /// Peer member index within the communicator.
    pub peer: usize,
    /// Wire tag.
    pub tag: u64,
}

/// Fetch round `seq` for the `Ã` of row member `owner`, as row member `me`
/// of `q` conducts it: one `[request, reply]` leg pair per peer, in order.
/// The owner serves every other member in index order (receive the
/// request, send the reply); everyone else asks the owner and blocks on
/// its reply. Every round draws a fresh `seq`, so no tag is reused while a
/// message that carries it can be in flight.
pub(crate) fn fetch_round(
    q: usize,
    me: usize,
    owner: usize,
    seq: u64,
) -> impl Iterator<Item = [Msg; 2]> {
    let serve = me == owner;
    let peers = if serve { 0..q } else { owner..owner + 1 };
    peers.filter(move |&peer| peer != me).map(move |peer| {
        [(!serve, fetch_req_tag(seq)), (serve, fetch_rep_tag(seq))].map(|(send, tag)| Msg {
            send,
            peer,
            tag,
        })
    })
}

/// Ring rotation `round` at position `pos` of a `q`-ring: send to the
/// successor, then block on the predecessor. `shift_tag(round)` recurs
/// with every SpMM call; each send is matched within its round, so no two
/// messages with one tag are in flight together.
pub(crate) fn ring_shift(q: usize, pos: usize, round: usize) -> [Msg; 2] {
    let tag = shift_tag(round);
    [(true, (pos + 1) % q), (false, (pos + q - 1) % q)].map(|(send, peer)| Msg { send, peer, tag })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes_table() {
        let stage = |batch| Op::Stage {
            s: 1,
            batch,
            phase: Phase::Blocking,
        };
        let (numeric, sweep) = (stage(Some(3)), stage(None));
        let operand = |nnz| Payload::Operand { nnz };
        let coded = |nnz, index_bytes| Payload::Coded { nnz, index_bytes };
        let request = |index_bytes| Payload::Request { index_bytes };
        // (op, payload, bytes)
        let rows = [
            (numeric, operand(10), 240),
            (sweep, operand(10), 160),
            (numeric, coded(10, 15), 95),
            (sweep, coded(10, 15), 15),
            (numeric, request(6), 6),
            (sweep, request(6), 6),
            // Nothing stored: the reply still delimits its columns.
            (numeric, operand(0), 0),
            (sweep, operand(0), 0),
            (numeric, coded(0, 4), 4),
            (sweep, coded(0, 4), 4),
            // Nothing asked for.
            (numeric, coded(0, 0), 0),
            (sweep, coded(0, 0), 0),
            (numeric, request(0), 0),
            // The scatter moves whole operands.
            (Op::Scatter, operand(10), 240),
            // Fiber pieces, refresh slices and A-shift blocks travel coded,
            // values included, also when nothing is stored.
            (Op::Fiber, coded(10, 17), 97),
            (Op::RefreshB, coded(10, 17), 97),
            (Op::Shift { round: 2 }, coded(10, 17), 97),
            (Op::Fiber, coded(0, 1), 1),
            (Op::RefreshB, coded(0, 1), 1),
            (Op::Shift { round: 0 }, coded(0, 1), 1),
        ];
        for (op, payload, bytes) in rows {
            assert_eq!(payload_bytes(op, payload), bytes, "{op:?} {payload:?}");
        }
        // Post and wait halves size like the blocking stage they split.
        for phase in [Phase::Post, Phase::Wait] {
            let op = Op::Stage {
                s: 0,
                batch: None,
                phase,
            };
            assert_eq!(payload_bytes(op, operand(10)), 160);
        }
    }

    /// The pipelined program keeps exactly one stage in flight, waits every
    /// stage it posts (same `s`, same batch) before that stage's multiply,
    /// and carries the last post of a batch into the next batch.
    #[test]
    fn iteration_posts_every_stage_once_and_waits_it_before_its_multiply() {
        for (nb, stages) in [(1, 1), (1, 3), (3, 2), (2, 4)] {
            let blocking = iteration(nb, stages, OverlapMode::Blocking, false);
            let piped = iteration(nb, stages, OverlapMode::Overlapped, false);
            let stage_of = |op: &Op| match *op {
                Op::Stage { s, batch, phase } => Some((s, batch.unwrap(), phase)),
                _ => None,
            };
            let expected: Vec<_> = (0..nb)
                .flat_map(|t| (0..stages).map(move |s| (s, t)))
                .collect();
            let of_phase = |ops: &[Op], want| -> Vec<_> {
                let staged = ops.iter().filter_map(stage_of);
                staged.filter(|x| x.2 == want).map(|x| (x.0, x.1)).collect()
            };
            assert_eq!(of_phase(&blocking, Phase::Blocking), expected);
            assert_eq!(of_phase(&piped, Phase::Post), expected);
            assert_eq!(of_phase(&piped, Phase::Wait), expected);
            assert!(of_phase(&piped, Phase::Blocking).is_empty());
            let mut in_flight = None;
            let mut landed = false;
            for op in &piped {
                match (stage_of(op), op) {
                    (Some((s, t, Phase::Post)), _) => {
                        assert_eq!(in_flight.replace((s, t)), None, "two stages in flight");
                    }
                    (Some((s, t, _)), _) => {
                        assert_eq!(in_flight.take(), Some((s, t)), "wait without its post");
                        landed = true;
                    }
                    (None, Op::Multiply) => assert!(std::mem::take(&mut landed)),
                    _ => {}
                }
            }
            assert_eq!(in_flight, None, "the program ends with a stage posted");
            // Apart from how stage operands move, both orders run the same
            // steps, the fiber exchange included.
            let rest = |ops: &[Op]| -> Vec<Op> {
                let moves = |op: &Op| matches!(op, Op::Stage { .. });
                ops.iter().copied().filter(|op| !moves(op)).collect()
            };
            assert_eq!(rest(&blocking), rest(&piped));
        }
    }
}
