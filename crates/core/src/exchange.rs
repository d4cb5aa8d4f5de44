//! The exchange layer: every operand movement of a SUMMA stage behind one
//! pluggable seam.
//!
//! A stage of 2D SUMMA (Alg. 1) must deliver two operands to every process
//! of a layer: the stage column of `Ã` (owned by column `s` of each process
//! row) and the stage row of `B̃` (owned by row `s` of each process
//! column). *How* those operands move is a policy choice with a large
//! modeled-cost footprint, so it lives behind [`ExchangePlan`] rather than
//! inline collective calls:
//!
//! * [`ExchangeMode::DenseBcast`] — the paper's strategy: broadcast the
//!   full local piece along the process row / column (blocking `bcast` or
//!   the overlapped `ibcast` pipeline). Cost per stage ≈
//!   `2·⌈log q⌉·(α + β·nnz·r)` on the tree model.
//! * [`ExchangeMode::SparseFetch`] — sparsity-aware point-to-point fetch
//!   (after SpComm3D, arXiv:2404.19638): `B̃` still moves by broadcast,
//!   then each receiver derives from `B̃`'s row structure exactly which
//!   columns of the stage's `Ã` its local multiply will read, posts that
//!   index set to the owner ([`Step::FetchRequest`]), and gets back a
//!   compact column-subset tile ([`Step::FetchReply`]) that is padded to
//!   full operand width. Both are charged in their own wire format: the
//!   request as a gap-coded varint list ([`request_len`]), the reply as
//!   varint counts and row gaps beside a plain value vector
//!   ([`tile_len`]). The tile holds exactly the requested columns in
//!   request order, so it spells no column id. When the operands are
//!   hypersparse — the regime a
//!   3D grid with `l ≥ 4` layers produces — most of `Ã`'s columns meet no
//!   nonzero of `B̃`, and the fetched volume is a small fraction of the
//!   dense broadcast.
//!
//! Every message is sized by [`schedule::payload_bytes`]. Nothing is
//! encoded on the host: the matrices move as they are, and a fetch leg is
//! sized once, by its sender, from the length its encoding would take. Its
//! `(bytes, coded integers)` pair travels with it, and both sides charge it
//! to the leg's own step: the wire time, and a real codec's CPU
//! ([`C_CODEC`] per coded integer). The other sparse blocks that move
//! whole — fiber pieces, refresh slices of `B̃`, 1.5D A-shift blocks — are
//! sized as coded blocks (`block_leg`) and charged the same way (`charge`,
//! `charge_codec`). The
//! symbolic sweep's stages (`batch: None`) move [`CscMatrix::pattern`]s —
//! indices without values — through the same `ExchangePlan::stage`.
//!
//! Both modes produce **bit-identical** numeric output: the padded fetch
//! operand agrees with the broadcast operand on every column the local
//! kernel reads (property-tested in `spgemm_sparse::subset`, in its
//! `codec_proptests` and in the `exchange_modes` integration tests).
//!
//! ### Tag discipline
//!
//! Fetch traffic uses plain matched sends, and one envelope's messages are
//! received in send order. Every fetch round still draws a fresh sequence
//! number from the plan's monotone counter; all members of a communicator
//! execute the same exchanges in the same order (SPMD), so the counters
//! agree without coordination. A round taken out of step then waits on a
//! tag no peer sends and deadlocks visibly (the runtime's checker reports
//! an unmatched receive) instead of taking another round's payload. The
//! schedule auditor ([`crate::audit`]) checks the discipline statically: a
//! second send on an undelivered envelope is its `TagCollision`.

use crate::schedule::{self, payload_bytes, Link, Msg, Op, Payload, Phase, Wire};
use spgemm_simgrid::{Grid3D, PendingBcast, Rank, Step};
use spgemm_sparse::ops::extract_cols;
use spgemm_sparse::spgemm::C_CODEC;
use spgemm_sparse::subset::{
    coded_len, needed_rows, pad_cols, request_len, tile_len, SubsetWorkspace,
};
use spgemm_sparse::CscMatrix;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// High bits reserved for fetch tags so they can never collide with the
/// raw point-to-point tags used elsewhere (e.g. the transpose exchange's
/// `0x7A_0001`), even on a shared communicator.
pub(crate) const FETCH_TAG_BASE: u64 = 0xFE << 48;

/// Request tag of fetch round `seq` (receiver → owner). Exposed so the
/// schedule auditor ([`crate::audit`]) derives the exact wire tags a real
/// run uses; [`ExchangePlan`] routes through the same function.
#[must_use]
pub fn fetch_req_tag(seq: u64) -> u64 {
    FETCH_TAG_BASE + 2 * seq
}

/// Reply tag of fetch round `seq` (owner → receiver), paired with
/// [`fetch_req_tag`].
#[must_use]
pub fn fetch_rep_tag(seq: u64) -> u64 {
    fetch_req_tag(seq) + 1
}

/// Both stage operands `(Ã, B̃)` as delivered to this rank.
pub(crate) type OperandPair<T> = (Arc<CscMatrix<T>>, Arc<CscMatrix<T>>);

/// How stage operands move between the processes of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExchangeMode {
    /// Broadcast full local pieces along process rows/columns (Alg. 1 as
    /// published; the default and the baseline every figure is built on).
    #[default]
    DenseBcast,
    /// Broadcast `B̃`, then fetch only the needed columns of `Ã` over
    /// tag-matched point-to-point request/reply rounds.
    SparseFetch,
}

impl ExchangeMode {
    /// Stable lowercase name (CLI value, planner candidate label token).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExchangeMode::DenseBcast => "dense",
            ExchangeMode::SparseFetch => "sparse",
        }
    }

    /// Parse a CLI value (`dense` / `sparse`).
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "dense" | "bcast" => Ok(ExchangeMode::DenseBcast),
            "sparse" | "fetch" => Ok(ExchangeMode::SparseFetch),
            other => Err(format!(
                "unknown exchange mode '{other}' (expected 'dense' or 'sparse')"
            )),
        }
    }

    /// Every mode, for planner enumeration and sweeps.
    pub const ALL: [ExchangeMode; 2] = [ExchangeMode::DenseBcast, ExchangeMode::SparseFetch];
}

/// Wire request of one fetch round (receiver → stage owner). Public so
/// protocol-negative tests (desynced rounds, unmatched receives) can put
/// real fetch payloads on the wire.
#[derive(Debug)]
pub enum FetchReq {
    /// Full needed-column index set: the cold path, and the path taken
    /// whenever the receiver's structure changed or caching is off. An
    /// empty set triggers the zero-row fast path on the owner.
    Cols {
        /// The needed columns, ascending.
        cols: Vec<u32>,
        /// Modeled bytes and coded integers of the request, as its sender
        /// sized them.
        leg: (usize, usize),
    },
    /// The receiver's needed set for this `(stage, batch)` key is
    /// identical to the one the owner last served; the owner decides from
    /// its column epochs whether the receiver's cached tile is still
    /// valid. Carries no payload — a pure control message.
    Unchanged,
}

/// Wire reply of one fetch round (stage owner → receiver). Public for the
/// same protocol-negative tests as [`FetchReq`].
#[derive(Debug)]
pub enum FetchRep<T: Copy> {
    /// The requested columns of the owner's operand, in request order.
    Tile {
        /// Column `i` holds requested column `i`.
        tile: CscMatrix<T>,
        /// Modeled bytes and coded integers of the reply, as its sender
        /// sized them.
        leg: (usize, usize),
    },
    /// Zero-row fast path: the receiver needed nothing, so only the
    /// operand dimensions travel (the receiver pads an empty matrix).
    Empty { nrows: u64, ncols: u64 },
    /// Every column the receiver's cached tile covers is unchanged since
    /// it was served — reuse it as-is.
    CacheValid,
}

/// Counters of the cross-iteration fetch cache (and the zero-row fast
/// path), per rank. Receiver-side rounds count as `hits`/`misses`;
/// `served_cached` counts the owner side of hits; `invalidated_cols`
/// accumulates the dirty columns noted via
/// `ExchangePlan::note_dirty_cols`; `bytes_saved` is the modeled reply
/// volume hits avoided.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FetchCacheStats {
    /// Rounds answered `CacheValid` (receiver side).
    pub hits: u64,
    /// Cached-eligible rounds that had to ship a tile (receiver side).
    pub misses: u64,
    /// `CacheValid` replies issued (owner side).
    pub served_cached: u64,
    /// Dirty columns recorded across all epochs.
    pub invalidated_cols: u64,
    /// Modeled reply bytes avoided by hits (receiver side).
    pub bytes_saved: u64,
    /// Zero-row fast-path rounds (either side).
    pub empty_rounds: u64,
}

impl FetchCacheStats {
    /// Counter-wise difference against an earlier snapshot.
    #[must_use]
    pub(crate) fn delta(&self, earlier: &FetchCacheStats) -> FetchCacheStats {
        FetchCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            served_cached: self.served_cached - earlier.served_cached,
            invalidated_cols: self.invalidated_cols - earlier.invalidated_cols,
            bytes_saved: self.bytes_saved - earlier.bytes_saved,
            empty_rounds: self.empty_rounds - earlier.empty_rounds,
        }
    }
}

/// Owner-side memo of the last request served to one requester of one
/// batch: the needed set (so `Unchanged` requests need not resend it) and
/// the epoch at which the tile was cut.
struct OwnerEntry {
    needed: Vec<u32>,
    served_epoch: u64,
}

/// Receiver-side cached tile for one `(stage, batch)` key.
struct TileEntry<T> {
    needed: Vec<u32>,
    tile: Arc<CscMatrix<T>>,
    rep_bytes: u64,
}

/// Cross-iteration fetch-cache state (see [`ExchangePlan::enable_cache`]).
///
/// Epochs are purely rank-local: every rank advances its epoch once per
/// iteration via [`ExchangePlan::note_dirty_cols`], and an owner compares
/// only its *own* column epochs against the epoch at which it last served
/// a tile — no cross-rank epoch agreement is needed. The receiver-side
/// tiles are type-erased because one plan serves any element type; a plan
/// is in practice reused with a single `T` for its whole life.
struct FetchCache {
    epoch: u64,
    /// Local column index → epoch at which it last changed.
    col_epoch: HashMap<u32, u64>,
    /// `(batch, requester)` → last served request. The stage index is
    /// implied: a rank only owns the stage equal to its own row index.
    owner_memo: HashMap<(usize, usize), OwnerEntry>,
    /// `(stage, batch)` → cached padded tile
    /// (`HashMap<(usize, usize), TileEntry<T>>` behind `Any`).
    tiles: Option<Box<dyn Any + Send>>,
    /// Batch of the stage op whose fetch round is running; `None`
    /// (e.g. during the symbolic sweep) bypasses caching.
    cur_batch: Option<usize>,
    stats: FetchCacheStats,
}

/// Per-rank state of the exchange layer: the mode, the reusable
/// needed-rows scratch, the monotone fetch-round counter (see the
/// module docs on tag discipline), and — for iterative sessions — the
/// cross-iteration fetch cache. One plan lives for a whole run — its
/// workspace capacity and counter span every stage, batch, and layer; an
/// [`crate::session::IterSession`] keeps one plan alive across iterations.
#[derive(Default)]
pub struct ExchangePlan {
    mode: ExchangeMode,
    ws: SubsetWorkspace,
    fetch_seq: u64,
    cache: Option<FetchCache>,
}

impl std::fmt::Debug for ExchangePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExchangePlan")
            .field("mode", &self.mode)
            .field("fetch_seq", &self.fetch_seq)
            .field("cache_enabled", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

/// The posted-but-unwaited broadcasts `[Ã, B̃]` of the one stage a
/// pipelined program keeps in flight. Under [`ExchangeMode::SparseFetch`]
/// only `B̃`'s is ever posted: the `Ã` fetch depends on the received `B̃`'s
/// structure, so it runs at wait time and is not hidden by the pipeline.
pub(crate) type StagePending<T> = [Option<PendingBcast<CscMatrix<T>>>; 2];

impl ExchangePlan {
    /// A fresh plan for one rank of one run.
    #[must_use]
    pub(crate) fn new(mode: ExchangeMode) -> Self {
        ExchangePlan {
            mode,
            ws: SubsetWorkspace::new(),
            fetch_seq: 0,
            cache: None,
        }
    }

    /// The mode this plan executes.
    #[must_use]
    pub(crate) fn mode(&self) -> ExchangeMode {
        self.mode
    }

    /// Turn on the cross-iteration fetch cache. SPMD contract: every rank
    /// of the run must enable it (the wire protocol differs once a
    /// receiver starts sending `Unchanged` requests, and the owner can
    /// only answer them from its memo). Idempotent.
    pub(crate) fn enable_cache(&mut self) {
        if self.cache.is_none() {
            self.cache = Some(FetchCache {
                epoch: 0,
                col_epoch: HashMap::new(),
                owner_memo: HashMap::new(),
                tiles: None,
                cur_batch: None,
                stats: FetchCacheStats::default(),
            });
        }
    }

    /// Advance the cache epoch and mark `dirty` local columns of this
    /// rank's resident `A` operand as changed. Call once per iteration on
    /// every rank — even with an empty dirty set — after the session
    /// updates its iterate. Owners consult these epochs to decide whether
    /// a previously served tile is still valid.
    pub(crate) fn note_dirty_cols(&mut self, dirty: &[u32]) {
        if let Some(c) = self.cache.as_mut() {
            c.epoch += 1;
            for &col in dirty {
                c.col_epoch.insert(col, c.epoch);
            }
            c.stats.invalidated_cols += dirty.len() as u64;
        }
    }

    /// Current cache counters (zeros when the cache is disabled).
    #[must_use]
    pub(crate) fn cache_stats(&self) -> FetchCacheStats {
        self.cache.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// The cache key for a fetch round of stage `s`, if caching applies.
    fn cache_key(&self, s: usize) -> Option<(usize, usize)> {
        self.cache
            .as_ref()
            .and_then(|c| c.cur_batch.map(|b| (s, b)))
    }

    /// Typed view of the receiver-side tile map, creating it on first use.
    /// Panics if one plan is reused across element types (not a supported
    /// pattern — a session is monomorphic in its semiring).
    fn tiles_mut<T: Copy + Send + Sync + 'static>(
        &mut self,
    ) -> &mut HashMap<(usize, usize), TileEntry<T>> {
        let cache = self.cache.as_mut().expect("tile access requires the cache");
        cache
            .tiles
            .get_or_insert_with(|| {
                Box::new(HashMap::<(usize, usize), TileEntry<T>>::new()) as Box<dyn Any + Send>
            })
            .downcast_mut()
            .expect("one ExchangePlan fetch cache cannot serve two element types")
    }

    /// Execute one [`Op::Stage`]: walk its row of the wire table against
    /// this rank's `Ã` (`a`) and the op's piece of `B̃` (`b`), keeping posted
    /// broadcasts in `pending` until their wait. Returns the stage's
    /// operands once both have landed — from a blocking or a wait phase.
    /// `steps` attributes the `Ã`/`B̃` broadcast legs; fetch legs always
    /// go to `FetchRequest`/`FetchReply`. Fetch rounds are cached under the
    /// batch of the op that runs them (a wait, not the post it completes);
    /// the symbolic sweep's (`batch: None`) bypass the cache, and are sized
    /// as the patterns they must be given. A wait phase must be given the
    /// `a` its post was given.
    #[allow(clippy::too_many_arguments)] // SPMD plumbing: grid + operands + model
    pub(crate) fn stage<T: Copy + Send + Sync + 'static>(
        &mut self,
        rank: &mut Rank,
        grid: &Grid3D,
        op: Op,
        a: &Arc<CscMatrix<T>>,
        b: &Arc<CscMatrix<T>>,
        steps: (Step, Step),
        pending: &mut StagePending<T>,
    ) -> Option<OperandPair<T>> {
        let Op::Stage { s, batch, phase } = op else {
            unreachable!("{op:?} is not a stage op")
        };
        debug_assert!(
            batch.is_some() || std::mem::size_of::<T>() == 0,
            "{op:?} is charged as a pattern and must carry one"
        );
        if let Some(c) = self.cache.as_mut().filter(|_| phase != Phase::Post) {
            c.cur_batch = batch;
        }
        // `Ã` moves on the process row, `B̃` on the process column.
        let side = |link| match link {
            Link::Row => (0, &grid.row, a, steps.0),
            Link::Col => (1, &grid.col, b, steps.1),
            other => unreachable!("stage operands do not move on {other:?}"),
        };
        let mut landed = [None, None];
        for &w in schedule::wire(op, self.mode) {
            match w {
                Wire::Enter(kind, link) => {
                    let (i, comm, local, step) = side(link);
                    let payload = (comm.my_index() == s).then(|| Arc::clone(local));
                    let bytes = payload_bytes(op, Payload::Operand { nnz: local.nnz() });
                    if kind.is_post() {
                        pending[i] = Some(rank.ibcast(comm, s, payload, bytes, step));
                    } else {
                        landed[i] = Some(rank.bcast(comm, s, payload, bytes, step));
                    }
                }
                Wire::Wait(link) => {
                    let i = side(link).0;
                    let posted = pending[i].take();
                    landed[i] = Some(
                        posted
                            .expect("programs post a stage before waiting it")
                            .wait(rank),
                    );
                }
                Wire::Fetch => {
                    let b_recv = landed[1].as_ref().expect("B̃ lands before the fetch round");
                    landed[0] = Some(self.fetch_stage_a(rank, grid, op, a, b_recv));
                }
                Wire::Shift => unreachable!("stages do not shift"),
            }
        }
        let [a_recv, b_recv] = landed;
        a_recv.zip(b_recv)
    }

    /// The point-to-point fetch round for the `Ã` operand of stage op `op`
    /// along the process row (owner: member `s`).
    ///
    /// Receivers post their needed-column index set and reassemble the
    /// compact reply to full operand width (empty untouched columns cost
    /// nothing in the paper's per-nonzero byte model). The owner serves the
    /// requests of every other row member in member order and uses its own
    /// local piece directly. Modeled time follows the per-side convention
    /// of the transpose exchange: each message charges `α + β·bytes` to
    /// the side that handles it, so the owner — which serves `q − 1`
    /// replies serially — is the modeled bottleneck.
    fn fetch_stage_a<T: Copy + Send + Sync + 'static>(
        &mut self,
        rank: &mut Rank,
        grid: &Grid3D,
        op: Op,
        a_shared: &Arc<CscMatrix<T>>,
        b_recv: &CscMatrix<T>,
    ) -> Arc<CscMatrix<T>> {
        let Op::Stage { s, .. } = op else {
            unreachable!("{op:?} is not a stage op")
        };
        let row = &grid.row;
        let me = row.my_index();
        let seq = self.fetch_seq;
        self.fetch_seq += 1;
        debug_assert!(
            me != s || a_shared.ncols() == b_recv.nrows(),
            "stage {s}: owner's A piece and B row slice must conform \
             (layer {}, row {}, col {})",
            grid.k,
            grid.i,
            grid.j
        );
        let mut fetched = None;
        for [req, rep] in schedule::fetch_round(row.size(), me, s, seq) {
            if me == s {
                let request: FetchReq = rank.recv(row, req.peer, req.tag);
                let reply = self.serve_request(rank, op, a_shared, req.peer, request);
                rank.send(row, rep.peer, rep.tag, reply);
            } else {
                fetched = Some(self.request_a(rank, grid, op, [req, rep], b_recv));
            }
        }
        // The owner (and the lone member of a one-process row) uses its
        // own piece directly.
        fetched.unwrap_or_else(|| Arc::clone(a_shared))
    }

    /// Requester side of one fetch round: post the needed-column set over
    /// the `req` leg, take the reply over `rep`, pad it to operand width.
    fn request_a<T: Copy + Send + Sync + 'static>(
        &mut self,
        rank: &mut Rank,
        grid: &Grid3D,
        op: Op,
        [req, rep]: [Msg; 2],
        b_recv: &CscMatrix<T>,
    ) -> Arc<CscMatrix<T>> {
        let s = req.peer; // the stage's owner
        let row = &grid.row;
        let needed = needed_rows(b_recv, &mut self.ws);

        // Zero-row fast path: nothing of Ã is needed. The messages
        // still flow — the checker's send/recv pairing stays valid and
        // SPMD rounds stay aligned — but they carry no payload and
        // cost no modeled time: a real implementation with persistent
        // comm-graph knowledge (SpComm3D-style setup, amortized by the
        // session) would not exchange anything at all.
        if needed.is_empty() {
            let request = FetchReq::Cols {
                cols: Vec::new(),
                leg: (0, 0),
            };
            rank.send(row, req.peer, req.tag, request);
            rank.clock_mut().record_comm(Step::FetchRequest, 0, 1);
            let reply: FetchRep<T> = rank.recv(row, rep.peer, rep.tag);
            rank.clock_mut().record_comm(Step::FetchReply, 0, 1);
            let FetchRep::Empty { nrows, ncols } = reply else {
                unreachable!("owner must answer an empty request with Empty")
            };
            if let Some(c) = self.cache.as_mut() {
                c.stats.empty_rounds += 1;
            }
            debug_assert_eq!(ncols as usize, b_recv.nrows());
            return Arc::new(CscMatrix::zero(nrows as usize, ncols as usize));
        }

        let key = self.cache_key(s);
        let cached_ok = key.is_some_and(|k| {
            self.tiles_mut::<T>()
                .get(&k)
                .is_some_and(|e| e.needed == needed)
        });
        if cached_ok {
            rank.send(row, req.peer, req.tag, FetchReq::Unchanged);
            charge(rank, Step::FetchRequest, (0, 0));
        } else {
            let index_bytes = request_len(&needed);
            let leg = (
                payload_bytes(op, Payload::Request { index_bytes }),
                needed.len() + 1,
            );
            charge(rank, Step::FetchRequest, leg);
            let cols = needed.clone();
            rank.send(row, req.peer, req.tag, FetchReq::Cols { cols, leg });
        }

        let reply: FetchRep<T> = rank.recv(row, rep.peer, rep.tag);
        match reply {
            FetchRep::CacheValid => {
                charge(rank, Step::FetchReply, (0, 0));
                let k = key.expect("CacheValid only answers Unchanged");
                let (tile, saved) = {
                    let e = self.tiles_mut::<T>().get(&k).expect("hit requires a tile");
                    (Arc::clone(&e.tile), e.rep_bytes)
                };
                let stats = &mut self.cache.as_mut().expect("cache").stats;
                stats.hits += 1;
                stats.bytes_saved += saved;
                debug_assert_eq!(tile.ncols(), b_recv.nrows());
                spgemm_sparse::debug_validate!(
                    *tile,
                    spgemm_sparse::Sortedness::Sorted,
                    "replayed cached fetch tile (stage {s}, batch {})",
                    k.1
                );
                tile
            }
            FetchRep::Tile { tile, leg } => {
                charge(rank, Step::FetchReply, leg);
                let a = Arc::new(pad_cols(tile, &needed, b_recv.nrows()));
                debug_assert_eq!(
                    a.ncols(),
                    b_recv.nrows(),
                    "stage {s}: padded fetch operand must conform to B's row slice"
                );
                if let Some(k) = key {
                    self.tiles_mut::<T>().insert(
                        k,
                        TileEntry {
                            needed,
                            tile: Arc::clone(&a),
                            rep_bytes: leg.0 as u64,
                        },
                    );
                    self.cache.as_mut().expect("cache").stats.misses += 1;
                }
                a
            }
            FetchRep::Empty { .. } => {
                unreachable!("owner never answers a non-empty request with Empty")
            }
        }
    }

    /// Owner side of one fetch round: decide the reply for `requester`'s
    /// request against this rank's `a_shared`, charging the modeled cost
    /// of both message legs to this rank's clock (per-side convention —
    /// the owner, serving `q − 1` peers serially, is the bottleneck).
    fn serve_request<T: Copy + Send + Sync + 'static>(
        &mut self,
        rank: &mut Rank,
        op: Op,
        a_shared: &Arc<CscMatrix<T>>,
        requester: usize,
        req: FetchReq,
    ) -> FetchRep<T> {
        match req {
            FetchReq::Cols { cols: needed, leg } => {
                if needed.is_empty() {
                    // Zero-row fast path: no extraction, no modeled time.
                    rank.clock_mut().record_comm(Step::FetchRequest, 0, 1);
                    rank.clock_mut().record_comm(Step::FetchReply, 0, 1);
                    if let Some(c) = self.cache.as_mut() {
                        c.stats.empty_rounds += 1;
                    }
                    return FetchRep::Empty {
                        nrows: a_shared.nrows() as u64,
                        ncols: a_shared.ncols() as u64,
                    };
                }
                charge(rank, Step::FetchRequest, leg);
                let reply = reply_tile(rank, op, a_shared, &needed);
                if let Some(c) = self.cache.as_mut() {
                    if let Some(batch) = c.cur_batch {
                        let epoch = c.epoch;
                        c.owner_memo.insert(
                            (batch, requester),
                            OwnerEntry {
                                needed,
                                served_epoch: epoch,
                            },
                        );
                    }
                }
                reply
            }
            FetchReq::Unchanged => {
                charge(rank, Step::FetchRequest, (0, 0));
                let cache = self
                    .cache
                    .as_mut()
                    .expect("Unchanged request reached an owner without a cache (SPMD violation)");
                let batch = cache
                    .cur_batch
                    .expect("Unchanged request outside a batch context (SPMD violation)");
                let key = (batch, requester);
                let entry = cache
                    .owner_memo
                    .get(&key)
                    .expect("Unchanged request before any served tile (SPMD violation)");
                let clean = entry.needed.iter().all(|c| {
                    cache
                        .col_epoch
                        .get(c)
                        .is_none_or(|&changed| changed <= entry.served_epoch)
                });
                if clean {
                    cache.stats.served_cached += 1;
                    charge(rank, Step::FetchReply, (0, 0));
                    FetchRep::CacheValid
                } else {
                    let reply = reply_tile(rank, op, a_shared, &entry.needed);
                    let epoch = cache.epoch;
                    cache.owner_memo.get_mut(&key).expect("entry").served_epoch = epoch;
                    reply
                }
            }
        }
    }
}

/// The owner's reply carrying `cols` of `a`, sized once here and charged to
/// this side: its coded integers are a count per column and a row per
/// nonzero.
fn reply_tile<T: Copy>(rank: &mut Rank, op: Op, a: &CscMatrix<T>, cols: &[u32]) -> FetchRep<T> {
    let idx: Vec<usize> = cols.iter().map(|&j| j as usize).collect();
    let tile = extract_cols(a, &idx);
    let (nnz, index_bytes) = (tile.nnz(), tile_len(a, cols));
    let leg = (
        payload_bytes(op, Payload::Coded { nnz, index_bytes }),
        cols.len() + nnz,
    );
    charge(rank, Step::FetchReply, leg);
    FetchRep::Tile { tile, leg }
}

/// Modeled bytes and coded integers of all of `m` sent by `op` as one
/// coded block: the request of its `k` nonempty columns (a count and a gap
/// per column), a count per column and a row per nonzero, and a value word
/// per nonzero. Only the sender sizes a block; the pair travels with it.
pub(crate) fn block_leg<T: Copy>(op: Op, m: &CscMatrix<T>) -> (usize, usize) {
    let (index_bytes, k) = coded_len(m);
    let nnz = m.nnz();
    (
        payload_bytes(op, Payload::Coded { nnz, index_bytes }),
        2 * k + 1 + nnz,
    )
}

/// Charge one side of a point-to-point message leg of `bytes` whose codec
/// handles `coded` integers to this rank's clock: the CPU a real encode or
/// decode would take (the host runs none) plus `α + β·bytes` seconds, and
/// the byte/message counters of `step`.
pub(crate) fn charge(rank: &mut Rank, step: Step, (bytes, coded): (usize, usize)) {
    let machine = rank.machine();
    let cost = machine.compute_secs(coded as f64 * C_CODEC) + machine.send_secs(bytes);
    rank.clock_mut().advance(step, cost);
    rank.clock_mut().record_comm(step, bytes as u64, 1);
}

/// Charge the codec CPU of `coded` integers to `step`, where the message's
/// wire time is charged elsewhere: the encode of a shifted block, and both
/// sides of an all-to-all, whose collective charges the transfer.
pub(crate) fn charge_codec(rank: &mut Rank, step: Step, coded: usize) {
    if coded > 0 {
        let cost = rank.machine().compute_secs(coded as f64 * C_CODEC);
        rank.clock_mut().advance(step, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_simgrid::{run_ranks, Grid3D, Machine};
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesF64;
    use spgemm_sparse::ops::col_block;

    /// Every stage of one blocking sweep, in order, its fetch rounds cached
    /// under `batch`.
    fn all_stages(
        plan: &mut ExchangePlan,
        rank: &mut Rank,
        grid: &Grid3D,
        batch: Option<usize>,
        a: &Arc<CscMatrix<f64>>,
        b: &Arc<CscMatrix<f64>>,
    ) -> Vec<OperandPair<f64>> {
        let steps = (Step::ABcast, Step::BBcast);
        let phase = Phase::Blocking;
        (0..grid.pr)
            .map(|s| Op::Stage { s, batch, phase })
            .map(|op| plan.stage(rank, grid, op, a, b, steps, &mut Default::default()))
            .map(|landed| landed.expect("a blocking stage delivers both operands"))
            .collect()
    }

    #[test]
    fn mode_names_and_parse_roundtrip() {
        for mode in ExchangeMode::ALL {
            assert_eq!(ExchangeMode::parse(mode.name()), Ok(mode));
        }
        assert_eq!(ExchangeMode::parse("bcast"), Ok(ExchangeMode::DenseBcast));
        assert_eq!(ExchangeMode::parse("fetch"), Ok(ExchangeMode::SparseFetch));
        assert!(ExchangeMode::parse("carrier-pigeon").is_err());
        assert_eq!(ExchangeMode::default(), ExchangeMode::DenseBcast);
    }

    /// Blocking exchange delivers identical operands in both modes (on the
    /// columns the kernel reads), and fetch traffic lands on its own steps.
    #[test]
    fn blocking_exchange_operands_agree_across_modes() {
        let n = 24usize;
        let run = |mode: ExchangeMode| {
            run_ranks(4, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, 1);
                // Each rank owns a distinct A piece and B piece, keyed by
                // its grid coordinates so both modes see the same world.
                let a_local =
                    Arc::new(er_random::<PlusTimesF64>(n, n, 3, 100 + grid.j as u64));
                let b_local = Arc::new(col_block(
                    &er_random::<PlusTimesF64>(n, n, 2, 200 + grid.i as u64),
                    0..n,
                ));
                let mut plan = ExchangePlan::new(mode);
                let mut got = Vec::new();
                let landed = all_stages(&mut plan, rank, &grid, Some(0), &a_local, &b_local);
                for (a_recv, b_recv) in landed {
                    assert_eq!(a_recv.ncols(), b_recv.nrows());
                    // Compare only what a kernel would read: A's columns at
                    // B's occupied rows.
                    let mut ws = spgemm_sparse::subset::SubsetWorkspace::new();
                    let need = spgemm_sparse::subset::needed_rows(&b_recv, &mut ws);
                    let idx: Vec<usize> = need.iter().map(|&j| j as usize).collect();
                    let read = pad_cols(extract_cols(&a_recv, &idx), &need, a_recv.ncols());
                    got.push((read, b_recv.as_ref().clone()));
                }
                let fetch_bytes = rank.clock().breakdown().bytes_of(Step::FetchReply);
                (got, fetch_bytes)
            })
        };
        let dense = run(ExchangeMode::DenseBcast);
        let sparse = run(ExchangeMode::SparseFetch);
        for (rk, ((dg, dfb), (sg, sfb))) in dense.iter().zip(sparse.iter()).enumerate() {
            assert_eq!(*dfb, 0, "rank {rk}: dense mode must not fetch");
            let _ = sfb;
            for (s, ((da, db), (sa, sb))) in dg.iter().zip(sg.iter()).enumerate() {
                assert!(da.eq_modulo_order(sa), "rank {rk} stage {s}: A operand");
                assert!(db.eq_modulo_order(sb), "rank {rk} stage {s}: B operand");
            }
        }
        // At least the off-owner ranks must have fetched something.
        assert!(sparse.iter().any(|(_, fb)| *fb > 0), "no fetch traffic recorded");
    }

    /// Regression (empty-fetch round trip): a receiver whose `needed_rows`
    /// set is empty must not pay the α request/reply round — the messages
    /// still flow (checker pairing stays valid) but carry no payload and
    /// cost no modeled time, and the owner never extracts a compact tile.
    #[test]
    fn empty_fetch_round_costs_nothing() {
        let n = 16usize;
        let results = run_ranks(4, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 1);
            let a_local = Arc::new(er_random::<PlusTimesF64>(n, n, 3, 500 + grid.j as u64));
            // An all-zero B piece: every receiver derives an empty needed set.
            let b_local = Arc::new(CscMatrix::<f64>::zero(n, n));
            let mut plan = ExchangePlan::new(ExchangeMode::SparseFetch);
            let landed = all_stages(&mut plan, rank, &grid, Some(0), &a_local, &b_local);
            for (s, (a_recv, b_recv)) in landed.iter().enumerate() {
                assert_eq!(a_recv.ncols(), b_recv.nrows());
                if grid.row.my_index() != s {
                    assert_eq!(a_recv.nnz(), 0, "receiver pads an all-zero operand");
                }
            }
            let bd = *rank.clock().breakdown();
            (
                bd.secs_of(Step::FetchRequest) + bd.secs_of(Step::FetchReply),
                bd.bytes_of(Step::FetchRequest) + bd.bytes_of(Step::FetchReply),
                bd.msgs[Step::FetchRequest as usize] + bd.msgs[Step::FetchReply as usize],
            )
        });
        for (rk, (secs, bytes, msgs)) in results.iter().enumerate() {
            assert_eq!(*secs, 0.0, "rank {rk}: empty rounds must cost no modeled time");
            assert_eq!(*bytes, 0, "rank {rk}: empty rounds must move no modeled bytes");
            assert!(*msgs > 0, "rank {rk}: the send/recv pairing must still happen");
        }
    }

    /// Bytes of the LEB128 varint of `x`, from its bit length.
    fn varint_len(x: u64) -> u64 {
        u64::from(64 - x.leading_zeros()).max(1).div_ceil(7)
    }

    /// Both fetch legs are charged for what their encodings would carry,
    /// recomputed on the requester from what it received, stage by stage: the
    /// request from `needed` (its count, the first column, then
    /// `c − prev − 1`), the reply as a value word per nonzero plus the
    /// varints of a count per requested column and the row gaps inside each
    /// (rows in full if the tile is unsorted) — the varints alone in the
    /// symbolic sweep, whose tiles are patterns. Each side also pays the
    /// codec's CPU for the integers it coded.
    #[test]
    fn reply_bytes_follow_the_tile_and_the_needed_set() {
        type Leg = (u64, f64);
        fn recorded_vs_received<T: Copy + Send + Sync + 'static>(
            batch: Option<usize>,
            view: fn(&CscMatrix<f64>) -> CscMatrix<T>,
            sorted: bool,
        ) -> Vec<[(Leg, Leg); 2]> {
            let n = 24usize;
            let per_rank = run_ranks(9, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, 1);
                let mut a = er_random::<PlusTimesF64>(n, n, 3, 800 + grid.j as u64);
                if !sorted {
                    // Reverse every column: the tile must code rows in full.
                    let (nrows, ncols, colptr, mut rowidx, mut vals, _) = a.into_parts();
                    for w in colptr.windows(2) {
                        rowidx[w[0]..w[1]].reverse();
                        vals[w[0]..w[1]].reverse();
                    }
                    a = CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap();
                }
                let b = er_random::<PlusTimesF64>(n, n, 2, 900 + grid.i as u64);
                let (a, b) = (Arc::new(view(&a)), Arc::new(view(&b)));
                let mut plan = ExchangePlan::new(ExchangeMode::SparseFetch);
                let mut seen = Vec::new();
                let legs = |rank: &Rank| {
                    let bd = rank.clock().breakdown();
                    [Step::FetchRequest, Step::FetchReply]
                        .map(|st| (bd.bytes_of(st), bd.secs_of(st)))
                };
                for s in 0..grid.pr {
                    let op = Op::Stage {
                        s,
                        batch,
                        phase: Phase::Blocking,
                    };
                    let steps = (Step::ABcast, Step::BBcast);
                    let before = legs(rank);
                    let (tile, b_recv) = plan
                        .stage(rank, &grid, op, &a, &b, steps, &mut Default::default())
                        .expect("a blocking stage delivers both operands");
                    let after = legs(rank);
                    let recorded =
                        [0, 1].map(|i| (after[i].0 - before[i].0, after[i].1 - before[i].1));
                    // The owner's clock holds the legs it served instead.
                    if s == grid.row.my_index() {
                        continue;
                    }
                    assert_eq!(tile.is_sorted(), sorted);
                    let needed = needed_rows(&b_recv, &mut SubsetWorkspace::new());
                    let k = needed.len() as u64;
                    let mut next = 0u64;
                    let request: u64 = varint_len(k)
                        + needed
                            .iter()
                            .map(|&c| {
                                let gap = u64::from(c) - next;
                                next = u64::from(c) + 1;
                                varint_len(gap)
                            })
                            .sum::<u64>();
                    let index: u64 = needed
                        .iter()
                        .map(|&c| {
                            let rows = tile.col(c as usize).0;
                            let mut prev = 0;
                            let coded: u64 = rows
                                .iter()
                                .map(|&r| {
                                    let x = if sorted { r - prev } else { r };
                                    prev = r;
                                    varint_len(u64::from(x))
                                })
                                .sum();
                            varint_len(rows.len() as u64) + coded
                        })
                        .sum();
                    let nnz = tile.nnz() as u64;
                    let value_word = if batch.is_some() { 8 } else { 0 };
                    let m = rank.machine();
                    let secs = |bytes: u64, coded: u64| {
                        m.send_secs(bytes as usize) + m.compute_secs(coded as f64 * C_CODEC)
                    };
                    let reply = value_word * nnz + index;
                    assert!(k > 0 && nnz > 0, "the test needs non-empty tiles");
                    seen.push([
                        (recorded[0], (request, secs(request, k + 1))),
                        (recorded[1], (reply, secs(reply, k + nnz))),
                    ]);
                }
                seen
            });
            per_rank.into_iter().flatten().collect()
        }
        for sorted in [true, false] {
            let numeric = recorded_vs_received::<f64>(Some(0), CscMatrix::clone, sorted);
            let sweep = recorded_vs_received::<()>(None, CscMatrix::pattern, sorted);
            assert_eq!(numeric.len(), 9 * 2, "two row peers per rank");
            for (what, legs) in [("numeric", numeric), ("sweep", sweep)] {
                for [request, reply] in legs {
                    for (leg, (got, want)) in [("request", request), ("reply", reply)] {
                        let what = format!("{what} {leg}, sorted = {sorted}");
                        assert_eq!(got.0, want.0, "{what}: bytes");
                        let close = (got.1 - want.1).abs() <= 1e-12 * want.1;
                        assert!(close, "{what}: {got:?} vs {want:?}");
                    }
                }
            }
        }
    }

    /// The cross-iteration cache: identical structure across rounds turns
    /// the second round's fetch into an α-only `Unchanged`/`CacheValid`
    /// exchange; dirtying the operand columns forces a full re-fetch; the
    /// delivered operands are bit-identical throughout.
    #[test]
    fn fetch_cache_hits_then_invalidates() {
        let n = 16usize;
        let results = run_ranks(4, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 1);
            let a_local = Arc::new(er_random::<PlusTimesF64>(n, n, 4, 600 + grid.j as u64));
            let b_local = Arc::new(er_random::<PlusTimesF64>(n, n, 3, 700 + grid.i as u64));
            let mut plan = ExchangePlan::new(ExchangeMode::SparseFetch);
            plan.enable_cache();
            let run_iter = |plan: &mut ExchangePlan, rank: &mut Rank| {
                let landed = all_stages(plan, rank, &grid, Some(0), &a_local, &b_local);
                landed.into_iter().map(|(a, _)| a).collect::<Vec<_>>()
            };
            let it1 = run_iter(&mut plan, rank);
            let s1 = plan.cache_stats();
            plan.note_dirty_cols(&[]); // iteration boundary, nothing changed
            let it2 = run_iter(&mut plan, rank);
            let s2 = plan.cache_stats();
            let all: Vec<u32> = (0..a_local.ncols() as u32).collect();
            plan.note_dirty_cols(&all); // everything changed
            let it3 = run_iter(&mut plan, rank);
            let s3 = plan.cache_stats();
            for ((x, y), z) in it1.iter().zip(&it2).zip(&it3) {
                assert!(x.eq_modulo_order(y), "warm operand diverged");
                assert!(x.eq_modulo_order(z), "re-fetched operand diverged");
            }
            (s1, s2.delta(&s1), s3.delta(&s2))
        });
        for (rk, (cold, warm, inval)) in results.iter().enumerate() {
            // Each rank is receiver for pr−1 = 1 stage and owner for 1.
            assert_eq!(cold.hits, 0, "rank {rk}: cold round cannot hit");
            assert_eq!(cold.misses, 1, "rank {rk}: cold round fetches once");
            assert_eq!(warm.hits, 1, "rank {rk}: warm round must hit: {warm:?}");
            assert_eq!(warm.served_cached, 1, "rank {rk}: owner must serve from memo");
            assert_eq!(warm.misses, 0, "rank {rk}: warm round must not re-fetch");
            assert!(warm.bytes_saved > 0, "rank {rk}: a hit saves reply bytes");
            assert_eq!(inval.hits, 0, "rank {rk}: dirtied round cannot hit");
            assert_eq!(inval.misses, 1, "rank {rk}: dirtied round re-fetches");
            assert_eq!(inval.served_cached, 0, "rank {rk}: no stale serve");
        }
    }

    /// Regression for the cache-replay validation hook: a corrupted cached
    /// tile (out-of-bounds row index injected between iterations) must be
    /// caught by `debug_validate!` the moment a `CacheValid` reply replays
    /// it, not flow silently into the multiply kernel.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "debug_validate! only fires in debug builds"
    )]
    #[should_panic(expected = "invariant violation in replayed cached fetch tile")]
    fn corrupted_cached_tile_is_caught_on_replay() {
        let n = 16usize;
        run_ranks(4, Machine::knl(), move |rank| {
            let grid = Grid3D::new(rank, 1);
            let a_local = Arc::new(er_random::<PlusTimesF64>(n, n, 4, 600 + grid.j as u64));
            let b_local = Arc::new(er_random::<PlusTimesF64>(n, n, 3, 700 + grid.i as u64));
            let mut plan = ExchangePlan::new(ExchangeMode::SparseFetch);
            plan.enable_cache();
            let run_iter = |plan: &mut ExchangePlan, rank: &mut Rank| {
                all_stages(plan, rank, &grid, Some(0), &a_local, &b_local);
            };
            run_iter(&mut plan, rank);
            // Corrupt every cached tile in place: same shape and needed
            // set (so the Unchanged/CacheValid protocol still engages),
            // but one row index pushed out of bounds.
            for entry in plan.tiles_mut::<f64>().values_mut() {
                let (nrows, ncols, colptr, mut rowidx, vals, sorted) =
                    entry.tile.as_ref().clone().into_parts();
                assert!(!rowidx.is_empty(), "test needs a non-empty cached tile");
                rowidx[0] = nrows as u32 + 7;
                entry.tile =
                    Arc::new(CscMatrix::from_parts_raw(nrows, ncols, colptr, rowidx, vals, sorted));
            }
            plan.note_dirty_cols(&[]); // iteration boundary, nothing changed
            run_iter(&mut plan, rank); // CacheValid replay must panic here
        });
    }

    /// The post/wait phases of the pipelined program deliver the blocking
    /// sweep's operands in both modes, leave nothing posted, and keep the
    /// checker quiet (unique tags per round).
    #[test]
    fn pipelined_exchange_matches_blocking() {
        let n = 20usize;
        for mode in ExchangeMode::ALL {
            let results = run_ranks(4, Machine::knl(), move |rank| {
                let grid = Grid3D::new(rank, 1);
                let a_local =
                    Arc::new(er_random::<PlusTimesF64>(n, n, 3, 300 + grid.j as u64));
                let b_local =
                    Arc::new(er_random::<PlusTimesF64>(n, n, 2, 400 + grid.i as u64));
                let mut pipelined = ExchangePlan::new(mode);
                let mut pending = StagePending::default();
                let overlapped = crate::summa2d::OverlapMode::Overlapped;
                let piped: Vec<_> = schedule::iteration(1, grid.pr, overlapped, false)
                    .into_iter()
                    .filter(|op| matches!(op, Op::Stage { .. }))
                    .filter_map(|op| {
                        let steps = (Step::ABcast, Step::BBcast);
                        pipelined.stage(rank, &grid, op, &a_local, &b_local, steps, &mut pending)
                    })
                    .collect();
                assert!(pending.iter().all(Option::is_none), "a posted stage leaked");
                let mut blocking = ExchangePlan::new(mode);
                let block = all_stages(&mut blocking, rank, &grid, Some(0), &a_local, &b_local);
                assert_eq!(piped.len(), block.len());
                piped
                    .iter()
                    .zip(&block)
                    .map(|((pa, pb), (ba, bb))| pa.eq_modulo_order(ba) && pb.eq_modulo_order(bb))
                    .collect::<Vec<_>>()
            });
            for (rk, stages) in results.iter().enumerate() {
                assert!(
                    stages.iter().all(|&ok| ok),
                    "rank {rk} mode {mode:?}: pipelined operands diverge"
                );
            }
        }
    }
}
