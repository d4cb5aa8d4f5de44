//! Meeting slots: the transport every collective runs over.
//!
//! A collective drawn as sequence number `seq` on communicator `comm` meets
//! at one slot, keyed `(comm id, seq)`, in the world's [`Slots`]. Each
//! member **deposits** its entry clock, one word (an `alltoallv` member's
//! send volume, a broadcast root's modeled size, `0` otherwise) and its
//! contribution, then **collects**: it parks until every member has
//! deposited — the last arrival wakes the rest — and reads what it needs
//! through a [`Meeting`]: the max clock, the max word, and any member's
//! contribution, borrowed or moved. The slot is removed when its last
//! member leaves. A blocking collective deposits and collects back to
//! back; [`crate::Rank::ibcast`] deposits at post and collects at
//! [`crate::PendingBcast::wait`].
//!
//! Two events end a wait early, each with a panic: the protocol checker
//! tripping (every parked rank panics with its report), and a member that
//! has not deposited exiting its thread — it never will, so every rank
//! parked at a slot it has not filled panics naming that rank and the
//! slot. An exited member counts as having left every slot it was in, so
//! a run that ends, cleanly or not, leaves no slot open.

use crate::comm::{Comm, Rank};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a member contributes to a meeting, type-erased; every member of
/// one collective deposits and reads the same concrete type.
pub(crate) type Part = Box<dyn Any + Send>;

/// The panic a waiter raises when a member it waits for has exited; the
/// runtime ranks it below the failure that made that member exit.
pub(crate) const PEER_EXITED: &str = "exited before joining";

/// One member's place at a slot.
#[derive(Default)]
struct Seat {
    filled: bool,
    /// Left the slot, or exited its thread.
    gone: bool,
    clock: f64,
    word: u64,
    part: Option<Part>,
}

/// The meeting point of one `(comm id, seq)` collective.
struct Slot {
    comm: Comm,
    /// By member index.
    seats: Vec<Seat>,
    filled: usize,
    /// Members not yet gone.
    present: usize,
    cv: Arc<Condvar>,
}

impl Slot {
    fn new(comm: &Comm, exited: &[bool]) -> Self {
        let mut seats: Vec<Seat> = (0..comm.size()).map(|_| Seat::default()).collect();
        for (seat, &g) in seats.iter_mut().zip(comm.members()) {
            seat.gone = exited[g];
        }
        Slot {
            present: seats.iter().filter(|s| !s.gone).count(),
            comm: comm.clone(),
            seats,
            filled: 0,
            cv: Arc::new(Condvar::new()),
        }
    }

    fn complete(&self) -> bool {
        self.filled == self.seats.len()
    }
}

struct Table {
    open: HashMap<(u64, u64), Slot>,
    /// By global rank: the rank's thread has exited.
    exited: Vec<bool>,
    /// The checker's report, once it has tripped.
    tripped: Option<String>,
}

/// Every open slot of one world.
pub(crate) struct Slots(Mutex<Table>);

impl Slots {
    pub(crate) fn new(p: usize) -> Self {
        Slots(Mutex::new(Table {
            open: HashMap::new(),
            exited: vec![false; p],
            tripped: None,
        }))
    }

    /// A rank that panics under the lock (a reader's downcast) leaves the
    /// counts valid — it has not left, and its exit marks it gone — so the
    /// guard is recovered: the ranks still running, and every `exit`, must
    /// get through.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Global rank `rank`'s thread has exited: it leaves every slot it is
    /// in, and ranks waiting for its deposit are woken to report it.
    pub(crate) fn exit(&self, rank: usize) {
        let mut t = self.lock();
        t.exited[rank] = true;
        let mut closed = Vec::new();
        t.open.retain(|_, slot| {
            let Some(i) = slot.comm.members().iter().position(|&g| g == rank) else {
                return true;
            };
            let seat = &mut slot.seats[i];
            if !seat.gone {
                seat.gone = true;
                slot.present -= 1;
            }
            if !seat.filled {
                slot.cv.notify_all();
            }
            if slot.present > 0 {
                return true;
            }
            closed.push(std::mem::take(&mut slot.seats));
            false
        });
        drop(t);
        drop(closed);
    }

    /// The checker has tripped: every rank parked at a slot, or arriving
    /// at one later, panics with `report`.
    pub(crate) fn trip(&self, report: &str) {
        let mut t = self.lock();
        t.tripped.get_or_insert_with(|| report.to_string());
        t.open.values().for_each(|slot| slot.cv.notify_all());
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
    /// Deposit this member's entry clock, `word` and `part` at slot `seq`
    /// on `comm`; the last member to deposit wakes the others.
    pub(crate) fn deposit(&self, comm: &Comm, seq: u64, word: u64, part: Option<Part>) {
        self.perturb_point();
        let mut t = self.world().slots.lock();
        let Table { open, exited, .. } = &mut *t;
        let slot = open
            .entry((comm.id(), seq))
            .or_insert_with(|| Slot::new(comm, exited));
        slot.seats[comm.my_index()] = Seat {
            filled: true,
            gone: false,
            clock: self.clock().now(),
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
        let mut t = self.world().slots.lock();
        loop {
            let slot = t
                .open
                .get(&key)
                .expect("a member collects only from a slot it deposited at");
            if slot.complete() {
                break;
            }
            let failure = t.tripped.clone().or_else(|| {
                let (_, g) = slot
                    .seats
                    .iter()
                    .zip(comm.members())
                    .find(|(s, &g)| !s.filled && t.exited[g])?;
                Some(format!(
                    "rank {g} {PEER_EXITED} the collective rank {} waits on (comm {:#x}, op {seq})",
                    self.rank(),
                    comm.id()
                ))
            });
            if let Some(msg) = failure {
                drop(t);
                panic!("{msg}");
            }
            let cv = Arc::clone(&slot.cv);
            t = cv.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
        let slot = t.open.get_mut(&key).expect("slot checked above");
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
}
