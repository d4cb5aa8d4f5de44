//! Ranks, communicators, and typed point-to-point messaging.
//!
//! A [`Rank`] is the per-thread context of one simulated MPI process. A
//! [`Comm`] is a subgroup of ranks (like an `MPI_Comm`): the process-row,
//! process-column, fiber, and layer communicators of the 3D grid are all
//! `Comm`s. Each rank's mailbox carries only user-level point-to-point
//! messages ([`Rank::send`] / [`Rank::recv`]); collectives meet at slots
//! ([`crate::slot`]). Messages are matched on `(source, communicator,
//! tag)`, with out-of-order arrivals stashed in arrival order, so two
//! messages with one envelope are received in the order they were sent
//! (MPI's non-overtaking rule).

use crate::check::CheckShared;
use crate::clock::{RankClock, Step};
use crate::cost::Machine;
use crate::slot::Slots;
use crossbeam::channel::{Receiver, Sender};
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// A message in flight.
pub(crate) struct Envelope {
    pub src: usize,
    pub comm_id: u64,
    pub tag: u64,
    pub payload: Box<dyn Any + Send>,
}

/// Shared world state: one mailbox per rank, the collectives' meeting
/// slots, plus the protocol checker when
/// [`crate::check::CheckMode::Check`] is active.
pub(crate) struct WorldShared {
    pub p: usize,
    pub senders: Vec<Sender<Envelope>>,
    pub slots: Slots,
    pub check: Option<Arc<CheckShared>>,
    /// Schedule-perturbation seed: when set, every rank injects a
    /// deterministic, seed-derived amount of scheduler jitter at
    /// communication points ([`Rank::perturb_point`]), permuting thread
    /// wakeup order at rendezvous without changing any result.
    pub perturb: Option<u64>,
}

/// A communicator: an ordered group of global ranks.
///
/// The member list order defines member indices (root indices, all-to-all
/// slot order). Identified by a stable hash of `(members, color)` so that
/// every member derives the same id without coordination.
#[derive(Clone, Debug)]
pub struct Comm {
    members: Arc<Vec<usize>>,
    my_index: usize,
    id: u64,
}

impl Comm {
    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// Global rank of member `index`.
    pub fn member(&self, index: usize) -> usize {
        self.members[index]
    }

    /// All members (global ranks, in index order).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Stable communicator id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Build a communicator descriptor for global rank `rank` without a
    /// live runtime.
    ///
    /// Communicator identity is a pure function of `(members, color)` —
    /// [`Rank::comm`] delegates here — which is what lets the schedule
    /// auditor (`spgemm_core::audit`) construct the exact communicators a
    /// real run would use, payload-free.
    pub fn for_rank(members: Vec<usize>, color: u64, rank: usize) -> Comm {
        let my_index = members
            .iter()
            .position(|&g| g == rank)
            .expect("constructing a communicator that does not contain this rank");
        let id = comm_id(&members, color);
        Comm {
            members: Arc::new(members),
            my_index,
            id,
        }
    }
}

/// Stable communicator id for a member list + color.
///
/// The derivation every member uses to agree on an id without
/// coordination, exposed so symbolic executors can mirror it.
pub(crate) fn comm_id(members: &[usize], color: u64) -> u64 {
    fnv1a(
        members
            .iter()
            .flat_map(|&m| (m as u64).to_le_bytes())
            .chain(color.to_le_bytes()),
    )
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Per-thread context of one simulated MPI process.
pub struct Rank {
    rank: usize,
    world: Arc<WorldShared>,
    rx: Receiver<Envelope>,
    stash: Vec<Envelope>,
    clock: RankClock,
    machine: Machine,
    /// Per-communicator collective sequence numbers (SPMD programs call
    /// collectives on a communicator in identical order on every member,
    /// so these counters agree without coordination).
    op_seq: HashMap<u64, u64>,
    /// Count of perturbation points passed, so each point draws fresh
    /// jitter from the seed (interior mutability: perturbation points sit
    /// on `&self` paths like [`Rank::send`]).
    jitter: Cell<u64>,
}

impl Rank {
    pub(crate) fn new(
        rank: usize,
        world: Arc<WorldShared>,
        rx: Receiver<Envelope>,
        machine: Machine,
    ) -> Self {
        Rank {
            rank,
            world,
            rx,
            stash: Vec::new(),
            clock: RankClock::new(),
            machine,
            op_seq: HashMap::new(),
            jitter: Cell::new(0),
        }
    }

    /// Inject deterministic scheduler jitter if a perturbation seed is
    /// set: a seed-derived number of `yield_now`s (and an occasional
    /// microsecond-scale sleep) permutes which thread wins each race at
    /// rendezvous and mailbox operations. Results must be bit-identical
    /// under any seed — a run that isn't has an order-dependence bug the
    /// default schedule was hiding.
    pub(crate) fn perturb_point(&self) {
        let Some(seed) = self.world.perturb else {
            return;
        };
        let n = self.jitter.get();
        self.jitter.set(n + 1);
        // splitmix64-style finalizer over (seed, rank, point index).
        let mut z = seed
            ^ (self.rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ n.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        for _ in 0..(z % 8) {
            std::thread::yield_now();
        }
        if z.is_multiple_of(61) {
            std::thread::sleep(std::time::Duration::from_micros((z >> 8) % 50));
        }
    }

    /// Global rank id, `0..world_size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of simulated processes.
    pub fn world_size(&self) -> usize {
        self.world.p
    }

    /// The machine model in effect.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Read access to the modeled clock.
    pub fn clock(&self) -> &RankClock {
        &self.clock
    }

    /// Mutable access to the modeled clock (harness use: resets).
    pub fn clock_mut(&mut self) -> &mut RankClock {
        &mut self.clock
    }

    /// Shared world state (checker and mailboxes).
    pub(crate) fn world(&self) -> &Arc<WorldShared> {
        &self.world
    }

    /// Advance the modeled clock by `work_units` of local computation
    /// attributed to `step` (converted through the machine model).
    pub fn compute(&mut self, step: Step, work_units: f64) {
        let dt = self.machine.compute_secs(work_units);
        self.clock.advance(step, dt);
    }

    /// Advance the modeled clock by a *measured* wall-clock duration of
    /// local computation attributed to `step`.
    ///
    /// The `Native` backend's path into the clock: the kernel actually ran
    /// (possibly multithreaded), and its elapsed seconds enter the same
    /// per-step breakdown that [`Rank::compute`] fills with modeled
    /// seconds, so measured and modeled runs report through one machinery.
    pub fn compute_measured(&mut self, step: Step, secs: f64) {
        self.clock.advance(step, secs);
    }

    /// Build the communicator containing every rank.
    pub fn world_comm(&self) -> Comm {
        self.comm((0..self.world.p).collect(), 0)
    }

    /// Build a communicator from an explicit member list (must contain this
    /// rank). `color` disambiguates distinct communicators that happen to
    /// share a member list.
    pub fn comm(&self, members: Vec<usize>, color: u64) -> Comm {
        Comm::for_rank(members, color, self.rank)
    }

    /// Allocate the next collective sequence number on `comm`.
    pub(crate) fn next_seq(&mut self, comm: &Comm) -> u64 {
        let seq = self.op_seq.entry(comm.id()).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Typed point-to-point send to `dst_index` within `comm`.
    ///
    /// Registers the envelope with the protocol checker (tag collisions,
    /// orphaned sends).
    pub fn send<T: Send + 'static>(&self, comm: &Comm, dst_index: usize, tag: u64, value: T) {
        self.check_p2p_send(comm, dst_index, tag);
        self.perturb_point();
        let dst = comm.member(dst_index);
        self.world.senders[dst]
            .send(Envelope {
                src: self.rank,
                comm_id: comm.id(),
                tag,
                payload: Box::new(value),
            })
            .expect("rank mailbox closed: peer thread exited early");
    }

    /// Typed blocking receive matching `(src_index, comm, tag)`.
    ///
    /// Non-matching arrivals are stashed in arrival order and re-examined
    /// on later receives, so interleaved traffic on other communicators is
    /// safe and messages with one envelope never overtake each other.
    /// Registers with the protocol checker so a receive with no matching
    /// send is reported as a stall instead of hanging forever.
    pub fn recv<T: Send + 'static>(&mut self, comm: &Comm, src_index: usize, tag: u64) -> T {
        self.check_p2p_recv_pre(comm, src_index, tag);
        self.perturb_point();
        let src = comm.member(src_index);
        let comm_id = comm.id();
        let matches = |e: &Envelope| e.src == src && e.comm_id == comm_id && e.tag == tag;
        let env = match self.stash.iter().position(matches) {
            Some(pos) => self.stash.remove(pos),
            None => loop {
                let env = self
                    .rx
                    .recv()
                    .expect("rank mailbox closed while waiting for a message");
                if env.src == crate::check::POISON_SRC {
                    // The protocol checker tripped on another rank while we
                    // were blocked here; surface its report.
                    let report = env
                        .payload
                        .downcast::<String>()
                        .map_or_else(|_| "protocol violation".into(), |b| *b);
                    panic!("{report}");
                }
                if matches(&env) {
                    break env;
                }
                self.stash.push(env);
            },
        };
        self.check_p2p_recv_post(comm, src_index, tag);
        Self::downcast(env, src, comm_id, tag)
    }

    fn downcast<T: 'static>(env: Envelope, src: usize, comm_id: u64, tag: u64) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} (comm {comm_id:#x}, tag {tag}): \
                 expected {}",
                std::any::type_name::<T>()
            )
        })
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank")
            .field("rank", &self.rank)
            .field("world_size", &self.world.p)
            .field("now", &self.clock.now())
            .finish_non_exhaustive()
    }
}

impl Drop for Rank {
    /// A departing rank can never complete an open rendezvous: it leaves
    /// every meeting slot (waking peers waiting for its deposit) and tells
    /// the checker, so peers parked at a rendezvous learn they are stalled.
    fn drop(&mut self) {
        self.world.slots.exit(self.rank);
        self.check_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::CheckMode;
    use crate::runtime::{run_ranks, run_ranks_checked};

    #[test]
    fn comm_ids_agree_across_members_and_differ_by_color() {
        let results = run_ranks(4, Machine::knl(), |rank| {
            let a = rank.comm(vec![0, 1, 2, 3], 7);
            let b = rank.comm(vec![0, 1, 2, 3], 8);
            (a.id(), b.id())
        });
        let (a0, b0) = results[0];
        assert!(results.iter().all(|&(a, b)| a == a0 && b == b0));
        assert_ne!(a0, b0);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_ranks(2, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 42, String::from("hello"));
                rank.recv::<u64>(&comm, 1, 43)
            } else {
                let s: String = rank.recv(&comm, 0, 42);
                assert_eq!(s, "hello");
                rank.send(&comm, 0, 43, 99u64);
                0
            }
        });
        assert_eq!(results[0], 99);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run_ranks(2, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                rank.send(&comm, 1, 2, 222u32);
                rank.send(&comm, 1, 1, 111u32);
                0
            } else {
                let first: u32 = rank.recv(&comm, 0, 1);
                let second: u32 = rank.recv(&comm, 0, 2);
                assert_eq!((first, second), (111, 222));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn one_envelope_is_received_in_send_order() {
        // MPI's non-overtaking rule: two messages with one envelope arrive
        // in send order, even when other traffic is taken out of the stash
        // between them. (Two in-flight sends with one envelope are a tag
        // collision to the checker, so it is off here.)
        let results = run_ranks_checked(2, Machine::knl(), CheckMode::Off, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 3, 0u32);
                rank.send(&comm, 1, 5, 1u32);
                rank.send(&comm, 1, 7, 0u32);
                rank.send(&comm, 1, 5, 2u32);
                rank.send(&comm, 1, 9, 0u32);
                vec![]
            } else {
                // Stashes tags 3, 5, 7, 5 in that order, then takes tag 3
                // from the front and tag 7 from between the two 5s.
                let _: u32 = rank.recv(&comm, 0, 9);
                let _: u32 = rank.recv(&comm, 0, 3);
                let _: u32 = rank.recv(&comm, 0, 7);
                vec![rank.recv::<u32>(&comm, 0, 5), rank.recv::<u32>(&comm, 0, 5)]
            }
        });
        assert_eq!(results[1], vec![1, 2]);
    }

    #[test]
    fn member_indexing() {
        run_ranks(4, Machine::knl(), |rank| {
            let evens = if rank.rank() % 2 == 0 {
                Some(rank.comm(vec![0, 2], 1))
            } else {
                None
            };
            if let Some(c) = evens {
                assert_eq!(c.size(), 2);
                assert_eq!(c.member(c.my_index()), rank.rank());
            }
        });
    }
}
