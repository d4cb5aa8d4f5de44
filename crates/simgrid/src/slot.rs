//! Meeting slots and message queues: the one transport of a world.
//!
//! A collective drawn as sequence number `seq` on communicator `comm` meets
//! at one slot, keyed `(comm id, seq)`, in the world's [`Slots`]. Each
//! member **deposits** the operation it entered (kind and root), its entry
//! clock, one word (an `alltoallv` member's send volume, a broadcast root's
//! modeled size, `0` otherwise) and its contribution, then **collects**: it
//! parks until every member has deposited — the last arrival wakes the
//! rest — and reads what it needs through a [`Meeting`]: the max clock,
//! the max word, and any member's contribution, borrowed or moved. The
//! slot is removed when its last member leaves. A blocking collective
//! deposits and collects back to back, so it parks once;
//! [`crate::Rank::ibcast`] deposits at post and collects at
//! [`crate::PendingBcast::wait`].
//!
//! A point-to-point message ([`crate::Rank::send`]) is pushed onto the
//! FIFO of its envelope `(comm id, tag, src, dst)` in the same table;
//! [`crate::Rank::recv`] pops the front of its envelope's queue, parking
//! on its rank's own condvar while the queue is empty, and a send to the
//! envelope a receiver is parked on wakes it. One FIFO per envelope is MPI's non-overtaking rule: two messages
//! with one envelope are received in the order they were sent.
//!
//! The table's one lock also guards the protocol checker's state
//! ([`crate::check`]). Under [`crate::CheckMode::Check`] a deposit is
//! verified against the slot's earlier depositors before its seat is
//! filled, so a mismatch trips before the slot can complete; and the stall
//! detector reads who is parked at which incomplete slot, and who waits on
//! which empty queue, from this table, under the same lock as the deposit
//! or send that releases them.
//!
//! Two events end a wait early, each with a panic: the checker tripping
//! (every parked rank panics with its report), and — with checking off — a
//! peer that has not deposited, or has not sent, exiting its thread: it
//! never will, so every rank waiting on it panics naming that rank and the
//! slot or envelope. A send to an exited rank panics the same way. With
//! checking on, those exits are left to the stall detector, whose report
//! names the missing member once every rank is blocked or gone, and to the
//! last rank out, which reports every message still queued as orphaned.
//! An exited member counts as having left every slot it was in, so a run
//! that ends, cleanly or not, leaves no slot open.

use crate::check::{
    halt_if_tripped, record_orphans, stall_violation, trip, CheckState, LoggedAction, OpKind,
};
use crate::comm::{Comm, Rank};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a member contributes to a meeting, type-erased; every member of
/// one collective deposits and reads the same concrete type.
pub(crate) type Part = Box<dyn Any + Send>;

/// The operation a member enters, and its root for rooted collectives.
pub(crate) type Entry = (OpKind, Option<usize>);

/// The panic a waiter raises when a member it waits for has exited; the
/// runtime ranks it below the failure that made that member exit.
pub(crate) const PEER_EXITED: &str = "exited before joining";

/// One member's place at a slot.
#[derive(Default)]
pub(crate) struct Seat {
    /// What the member entered; `None` until it deposits.
    pub(crate) op: Option<Entry>,
    /// Left the slot, or exited its thread.
    gone: bool,
    clock: f64,
    word: u64,
    part: Option<Part>,
}

/// The meeting point of one `(comm id, seq)` collective.
pub(crate) struct Slot {
    pub(crate) comm: Comm,
    /// By member index.
    pub(crate) seats: Vec<Seat>,
    pub(crate) filled: usize,
    /// Members not yet gone.
    present: usize,
    /// Members parked in `collect`; counted only when checking is on.
    pub(crate) parked: usize,
    cv: Arc<Condvar>,
}

impl Slot {
    pub(crate) fn new(comm: &Comm, exited: &[bool]) -> Self {
        let mut seats: Vec<Seat> = (0..comm.size()).map(|_| Seat::default()).collect();
        for (seat, &g) in seats.iter_mut().zip(comm.members()) {
            seat.gone = exited[g];
        }
        Slot {
            present: seats.iter().filter(|s| !s.gone).count(),
            comm: comm.clone(),
            seats,
            filled: 0,
            parked: 0,
            cv: Arc::new(Condvar::new()),
        }
    }

    pub(crate) fn complete(&self) -> bool {
        self.filled == self.seats.len()
    }

    /// Wake every member parked here.
    pub(crate) fn wake(&self) {
        self.cv.notify_all();
    }
}

/// The envelope a point-to-point message travels under: `(comm id, tag,
/// src, dst)`, source and destination as global ranks.
pub(crate) type MsgKey = (u64, u64, usize, usize);

/// The open slots, the queued messages and the checker's state, under one
/// lock.
pub(crate) struct Table {
    pub(crate) open: HashMap<(u64, u64), Slot>,
    /// One FIFO per envelope with a message in it; a queue is removed when
    /// its last message is received.
    pub(crate) queues: HashMap<MsgKey, VecDeque<Part>>,
    /// By global rank: the envelope the rank is parked in `recv` on.
    pub(crate) awaiting: Vec<Option<MsgKey>>,
    /// By global rank: the rank's thread has exited.
    pub(crate) exited: Vec<bool>,
    pub(crate) check: CheckState,
}

impl Table {
    /// An empty table for `p` ranks; `log` starts the checker's op log.
    pub(crate) fn new(p: usize, log: bool) -> Self {
        Table {
            open: HashMap::new(),
            queues: HashMap::new(),
            awaiting: vec![None; p],
            exited: vec![false; p],
            check: CheckState::new(p, log),
        }
    }
}

/// The one table of a world, and one condvar per rank, on which it parks
/// in `recv`.
pub(crate) struct Slots {
    table: Mutex<Table>,
    inbox: Vec<Condvar>,
}

impl Slots {
    /// An empty table for `p` ranks; `log` starts the checker's op log.
    pub(crate) fn new(p: usize, log: bool) -> Self {
        Slots {
            table: Mutex::new(Table::new(p, log)),
            inbox: (0..p).map(|_| Condvar::new()).collect(),
        }
    }

    /// Wake every rank parked in a receive; `t` is this table, locked.
    /// Ranks not parked are left alone: an exit that wakes nobody costs no
    /// system call.
    pub(crate) fn wake_receivers(&self, t: &Table) {
        for (cv, key) in self.inbox.iter().zip(&t.awaiting) {
            if key.is_some() {
                cv.notify_one();
            }
        }
    }

    /// A rank that panics under the lock (a reader's downcast) leaves the
    /// counts valid — it has not left, and its exit marks it gone — so the
    /// guard is recovered: the ranks still running, and every `exit`, must
    /// get through.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(comm id, seq)` of every slot still open.
    pub(crate) fn open(&self) -> Vec<(u64, u64)> {
        self.lock().open.keys().copied().collect()
    }
}

/// A complete slot, as one member reads it.
pub(crate) struct Meeting<'a> {
    seats: &'a mut [Seat],
    last: bool,
}

impl Meeting<'_> {
    /// The max entry clock, folded in member order.
    pub(crate) fn clock(&self) -> f64 {
        self.seats
            .iter()
            .map(|s| s.clock)
            .reduce(f64::max)
            .expect("a slot has members")
    }

    /// The max deposited word.
    pub(crate) fn word(&self) -> u64 {
        self.seats.iter().map(|s| s.word).max().unwrap_or(0)
    }

    /// Whether every other member has left: the reader may move what the
    /// others would have copied.
    pub(crate) fn last(&self) -> bool {
        self.last
    }

    /// Member `i`'s contribution.
    pub(crate) fn part<T: 'static>(&mut self, i: usize) -> &mut T {
        self.seats[i]
            .part
            .as_mut()
            .and_then(|p| p.downcast_mut())
            .unwrap_or_else(|| panic!("{}", mismatch::<T>(i)))
    }

    /// Move member `i`'s contribution out of the slot.
    pub(crate) fn take<T: 'static>(&mut self, i: usize) -> T {
        *self.seats[i]
            .part
            .take()
            .and_then(|p| p.downcast().ok())
            .unwrap_or_else(|| panic!("{}", mismatch::<T>(i)))
    }
}

fn mismatch<T>(i: usize) -> String {
    format!(
        "member {i} deposited no {} at this collective",
        std::any::type_name::<T>()
    )
}

impl Rank {
    /// Deposit this member's entry `op`, its entry clock, `word` and `part`
    /// at slot `seq` on `comm`; the last member to deposit wakes the
    /// others. Under checking, the entry is verified first (see
    /// [`Rank::verify_entry`]).
    pub(crate) fn deposit(&self, comm: &Comm, seq: u64, op: Entry, word: u64, part: Option<Part>) {
        self.perturb_point();
        let now = self.clock().now();
        let mut t = self.world().slots.lock();
        if self.world().check.is_on() {
            t = self.verify_entry(t, comm, seq, op, now);
        }
        let Table { open, exited, .. } = &mut *t;
        let slot = open
            .entry((comm.id(), seq))
            .or_insert_with(|| Slot::new(comm, exited));
        slot.seats[comm.my_index()] = Seat {
            op: Some(op),
            gone: false,
            clock: now,
            word,
            part,
        };
        slot.filled += 1;
        if slot.complete() {
            // Wake the others once the table is free for them to read.
            let cv = Arc::clone(&slot.cv);
            drop(t);
            cv.notify_all();
        }
    }

    /// Wait until every member of `comm` has deposited at slot `seq`, read
    /// it with `read`, and leave; the last member out removes the slot.
    pub(crate) fn collect<R>(
        &self,
        comm: &Comm,
        seq: u64,
        read: impl FnOnce(&mut Meeting<'_>) -> R,
    ) -> R {
        self.perturb_point();
        let key = (comm.id(), seq);
        let checking = self.world().check.is_on();
        let mut t = self.world().slots.lock();
        let mut parked = false;
        loop {
            let Table { open, exited, .. } = &mut *t;
            let slot = open
                .get_mut(&key)
                .expect("a member collects only from a slot it deposited at");
            if slot.complete() {
                break;
            }
            let cv = Arc::clone(&slot.cv);
            if checking {
                if !parked {
                    slot.parked += 1;
                    parked = true;
                }
                t = self.check_stall(t);
            } else if let Some((_, g)) = slot
                .seats
                .iter()
                .zip(comm.members())
                .find(|(s, &g)| s.op.is_none() && exited[g])
            {
                let msg = format!(
                    "rank {g} {PEER_EXITED} the collective rank {} waits on (comm {:#x}, op {seq})",
                    self.rank(),
                    comm.id()
                );
                drop(t);
                panic!("{msg}");
            }
            t = cv.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        let slot = t.open.get_mut(&key).expect("slot checked above");
        slot.parked -= usize::from(parked);
        let out = read(&mut Meeting {
            last: slot.present == 1,
            seats: &mut slot.seats,
        });
        slot.seats[comm.my_index()].gone = true;
        slot.present -= 1;
        let closed = (slot.present == 0).then(|| t.open.remove(&key));
        drop(t);
        drop(closed);
        out
    }

    /// Typed point-to-point send to `dst_index` within `comm`: the message
    /// joins the FIFO of its envelope, and a receiver parked on that
    /// envelope is woken.
    ///
    /// A send to a rank that has exited can never be received: with
    /// checking off it panics naming that rank; with checking on the
    /// message stays queued and is reported as orphaned when the run ends.
    pub fn send<T: Send + 'static>(&self, comm: &Comm, dst_index: usize, tag: u64, value: T) {
        self.perturb_point();
        let (me, dst) = (self.rank(), comm.member(dst_index));
        let slots = &self.world().slots;
        let mut t = slots.lock();
        if self.world().check.is_on() {
            t = halt_if_tripped(t);
            t.check
                .log(me, comm.id(), LoggedAction::Send { to: dst, tag });
        } else if t.exited[dst] {
            let msg = format!(
                "rank {dst} {PEER_EXITED} the message rank {me} sends it (comm {:#x}, tag {tag})",
                comm.id()
            );
            drop(t);
            panic!("{msg}");
        }
        let key = (comm.id(), tag, me, dst);
        t.queues.entry(key).or_default().push_back(Box::new(value));
        // Only a receiver parked on this envelope has anything to wake for.
        let parked = t.awaiting[dst] == Some(key);
        drop(t);
        if parked {
            slots.inbox[dst].notify_one();
        }
    }

    /// Typed blocking receive of the oldest message sent to this rank from
    /// `src_index` within `comm` with `tag`.
    ///
    /// Messages with one envelope are received in the order they were sent
    /// (MPI's non-overtaking rule); traffic under other envelopes is left
    /// queued. With checking on, a receive no send can ever match is
    /// reported as an unmatched receive instead of hanging forever; with
    /// checking off, it panics once its source has exited.
    pub fn recv<T: Send + 'static>(&mut self, comm: &Comm, src_index: usize, tag: u64) -> T {
        self.perturb_point();
        let (me, src) = (self.rank(), comm.member(src_index));
        let key = (comm.id(), tag, src, me);
        let checking = self.world().check.is_on();
        let slots = &self.world().slots;
        let mut t = slots.lock();
        if checking {
            t.check
                .log(me, comm.id(), LoggedAction::Recv { from: src, tag });
        }
        let part = loop {
            if let Some(part) = pop(&mut t.queues, &key) {
                break part;
            }
            if let Some(report) = t.check.tripped() {
                drop(t);
                panic!("{report}");
            }
            t.awaiting[me] = Some(key);
            if checking {
                t = self.check_stall(t);
            } else if t.exited[src] {
                let msg = format!(
                    "rank {src} {PEER_EXITED} the message rank {me} waits on (comm {:#x}, tag {tag})",
                    comm.id()
                );
                drop(t);
                panic!("{msg}");
            }
            t = slots.inbox[me]
                .wait(t)
                .unwrap_or_else(PoisonError::into_inner);
        };
        t.awaiting[me] = None;
        drop(t);
        *part.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} (comm {:#x}, tag {tag}): expected {}",
                comm.id(),
                std::any::type_name::<T>()
            )
        })
    }

    /// This rank's thread is exiting: it leaves every slot it is in, and
    /// every rank waiting for its deposit or its message is woken. Under
    /// checking, a departed rank may complete a stall, which trips the
    /// checker here — the stalled ranks are woken with the report and raise
    /// it — and the last rank out reports every message still queued as
    /// orphaned.
    pub(crate) fn exit(&self) {
        let me = self.rank();
        let slots = &self.world().slots;
        let mut t = slots.lock();
        t.exited[me] = true;
        t.awaiting[me] = None;
        let mut closed = Vec::new();
        t.open.retain(|_, slot| {
            let Some(i) = slot.comm.members().iter().position(|&g| g == me) else {
                return true;
            };
            let seat = &mut slot.seats[i];
            if !seat.gone {
                seat.gone = true;
                slot.present -= 1;
            }
            if seat.op.is_none() {
                slot.cv.notify_all();
            }
            if slot.present > 0 {
                return true;
            }
            closed.push(std::mem::take(&mut slot.seats));
            false
        });
        let stall = if self.world().check.is_on() && t.check.tripped().is_none() {
            if t.exited.iter().all(|&e| e) {
                record_orphans(&mut t);
            }
            stall_violation(&t)
        } else {
            None
        };
        match stall {
            Some(v) => drop(trip(slots, t, v)),
            None => {
                slots.wake_receivers(&t);
                drop(t);
            }
        }
        drop(closed);
    }
}

/// Pop the oldest message queued under `key`, removing its queue once empty.
fn pop(queues: &mut HashMap<MsgKey, VecDeque<Part>>, key: &MsgKey) -> Option<Part> {
    let queue = queues.get_mut(key)?;
    let part = queue.pop_front();
    if queue.is_empty() {
        queues.remove(key);
    }
    part
}
