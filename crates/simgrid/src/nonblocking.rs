//! Nonblocking broadcast: post now, complete later, overlap in between.
//!
//! `ibcast` returns a typed [`PendingBcast`] handle instead of blocking. At
//! post time each member deposits its post clock (and the root its payload
//! and modeled size) at the operation's meeting slot ([`crate::slot`]) and
//! returns at once; **no modeled time is charged** until
//! [`PendingBcast::wait`], which collects from the slot. Completion
//! semantics mirror MPI's progress rule for collectives:
//!
//! * the broadcast cannot start before its **slowest poster**: completion
//!   time is `max(post times) + α–β cost` (the same cost its blocking
//!   twin charges);
//! * at `wait()`, only the **uncovered remainder** of that span is
//!   charged — residual entry skew to [`Step::Wait`] (as blocking
//!   collectives do via their clock sync), the rest to the op's step;
//! * whatever portion of the span this rank spent computing between post
//!   and wait is recorded as hidden time
//!   ([`crate::RankClock::record_overlap`]), so `secs + overlap_secs`
//!   equals the blocking variant's wait-plus-cost span and the overlap
//!   saving is directly readable from the breakdown.
//!
//! A rank that posts and immediately waits therefore charges exactly what
//! the blocking broadcast would — nonblocking with no intervening work is
//! cost-neutral, which keeps blocking-mode figures comparable — and why no
//! collective whose result is needed at once (the fiber all-to-all) has a
//! nonblocking twin.
//!
//! Handles are `#[must_use]`: dropping one without waiting would leave
//! peers' payloads uncollected and sequence counters skewed. SPMD
//! programs must post and wait in the same order on every member of a
//! communicator, exactly like the blocking collectives.

use crate::check::{HandleGuard, OpKind};
use crate::clock::Step;
use crate::collectives::root_deposit;
use crate::comm::{Comm, Rank};
use std::marker::PhantomData;
use std::sync::Arc;

/// Handle of a posted [`Rank::ibcast`]: a posted-but-not-completed
/// broadcast. Consume with [`PendingBcast::wait`].
#[must_use = "a pending broadcast must be wait()ed: dropping it loses the payload and skews modeled time"]
pub struct PendingBcast<T> {
    comm: Comm,
    seq: u64,
    root: usize,
    step: Step,
    posted_at: f64,
    /// Flags the handle if dropped without [`PendingBcast::wait`] (checker /
    /// debug builds).
    guard: HandleGuard,
    payload: PhantomData<fn() -> Arc<T>>,
}

impl<T> std::fmt::Debug for PendingBcast<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingBcast")
            .field("seq", &self.seq)
            .field("root", &self.root)
            .field("step", &self.step)
            .field("posted_at", &self.posted_at)
            .finish_non_exhaustive()
    }
}

impl Rank {
    /// Post a broadcast of `value` (present on `root` only) without
    /// charging modeled time. See [`Rank::bcast`] for the blocking twin's
    /// argument conventions; completion and charging happen at
    /// [`PendingBcast::wait`] on the returned handle.
    pub fn ibcast<T: Send + Sync + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        value: Option<Arc<T>>,
        bytes: usize,
        step: Step,
    ) -> PendingBcast<T> {
        let seq = self.next_seq(comm);
        let (word, part) = root_deposit(comm, root, value, bytes);
        self.deposit(comm, seq, (OpKind::IbcastPost, Some(root)), word, part);
        PendingBcast {
            guard: self.handle_guard(OpKind::IbcastPost, comm, seq),
            comm: comm.clone(),
            seq,
            root,
            step,
            posted_at: self.clock().now(),
            payload: PhantomData,
        }
    }
}

impl<T: Send + Sync + 'static> PendingBcast<T> {
    /// Block until every member has posted, then charge the uncovered
    /// remainder of the modeled span and return the payload.
    pub fn wait(mut self, rank: &mut Rank) -> Arc<T> {
        self.guard.disarm();
        rank.check_wait(&self.comm, self.seq);
        let q = self.comm.size();
        let (max_post, bytes, out) = rank.collect(&self.comm, self.seq, |m| {
            let out = Arc::clone(m.part::<Arc<T>>(self.root));
            (m.clock(), m.word() as usize, out)
        });
        // The modeled span is `[posted_at, max_post + cost]`. Work this rank
        // did between post and wait covers a prefix of it; the remainder is
        // charged (entry skew to `Wait`, the α–β cost tail to the op's
        // step), and the covered portion is recorded as overlap.
        let complete_at = max_post + rank.machine().bcast_secs(q, bytes);
        let hidden = (rank.clock().now().min(complete_at) - self.posted_at).max(0.0);
        rank.clock_mut().advance_to(Step::Wait, max_post);
        rank.clock_mut().advance_to(self.step, complete_at);
        rank.clock_mut().record_overlap(self.step, hidden);
        rank.clock_mut().record_comm(self.step, bytes as u64, 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Machine;
    use crate::runtime::run_ranks;

    #[test]
    fn ibcast_delivers_to_all() {
        let results = run_ranks(5, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let payload = (comm.my_index() == 3).then(|| Arc::new(vec![7u32, 8, 9]));
            let pending = rank.ibcast(&comm, 3, payload, 12, Step::ABcast);
            let v = pending.wait(rank);
            (*v).clone()
        });
        assert!(results.iter().all(|v| v == &vec![7, 8, 9]));
    }

    #[test]
    fn immediate_wait_is_cost_neutral_with_blocking() {
        // Post-then-wait with no intervening work charges exactly the
        // blocking cost and records zero overlap.
        let bytes = 1_000_000;
        let results = run_ranks(8, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let payload = (comm.my_index() == 0).then(|| Arc::new(0u8));
            let pending = rank.ibcast(&comm, 0, payload, bytes, Step::ABcast);
            let _ = pending.wait(rank);
            let b = rank.clock().breakdown();
            (b.secs_of(Step::ABcast), b.overlap_total(), b.bytes_of(Step::ABcast))
        });
        let expect = Machine::knl().bcast_secs(8, bytes);
        for &(t, hidden, recorded) in &results {
            assert!((t - expect).abs() < 1e-12, "got {t}, expected {expect}");
            assert_eq!(hidden, 0.0);
            assert_eq!(recorded, bytes as u64);
        }
    }

    #[test]
    fn compute_between_post_and_wait_hides_cost() {
        // Every rank posts at t=0, computes for longer than the broadcast
        // takes, then waits: the full cost is hidden and no extra modeled
        // time is charged at wait.
        let bytes = 1_000_000;
        let m = Machine::knl();
        let cost = m.bcast_secs(4, bytes);
        let work = cost * 3.0;
        let results = run_ranks(4, m, |rank| {
            let comm = rank.world_comm();
            let payload = (comm.my_index() == 0).then(|| Arc::new(0u8));
            let pending = rank.ibcast(&comm, 0, payload, bytes, Step::ABcast);
            rank.clock_mut().advance(Step::LocalMultiply, work);
            let _ = pending.wait(rank);
            let b = rank.clock().breakdown();
            (rank.clock().now(), b.secs_of(Step::ABcast), b.overlap_of(Step::ABcast))
        });
        for &(now, charged, hidden) in &results {
            assert!((now - work).abs() < 1e-12, "wait added time despite full overlap");
            assert_eq!(charged, 0.0);
            assert!((hidden - cost).abs() < 1e-12, "hidden {hidden} != cost {cost}");
        }
    }

    #[test]
    fn partial_overlap_charges_the_remainder() {
        let bytes = 1_000_000;
        let m = Machine::knl();
        let cost = m.bcast_secs(4, bytes);
        let work = cost / 2.0;
        let results = run_ranks(4, m, |rank| {
            let comm = rank.world_comm();
            let payload = (comm.my_index() == 0).then(|| Arc::new(0u8));
            let pending = rank.ibcast(&comm, 0, payload, bytes, Step::ABcast);
            rank.clock_mut().advance(Step::LocalMultiply, work);
            let _ = pending.wait(rank);
            let b = rank.clock().breakdown();
            (b.secs_of(Step::ABcast), b.overlap_of(Step::ABcast))
        });
        for &(charged, hidden) in &results {
            assert!((charged - (cost - work)).abs() < 1e-12);
            assert!((hidden - work).abs() < 1e-12);
            // Invariant: charged + hidden equals the blocking cost.
            assert!((charged + hidden - cost).abs() < 1e-12);
        }
    }

    #[test]
    fn completion_waits_for_slowest_poster() {
        // Rank 1 computes 10 s before posting; everyone completes at
        // 10 + cost, with the skew on the fast ranks attributed to Wait.
        let bytes = 1 << 20;
        let m = Machine::knl();
        let results = run_ranks(2, m, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 1 {
                rank.clock_mut().advance(Step::LocalMultiply, 10.0);
            }
            let payload = (comm.my_index() == 0).then(|| Arc::new(0u8));
            let pending = rank.ibcast(&comm, 0, payload, bytes, Step::BBcast);
            let _ = pending.wait(rank);
            let b = rank.clock().breakdown();
            (rank.clock().now(), b.secs_of(Step::Wait), b.secs_of(Step::BBcast))
        });
        let cost = m.bcast_secs(2, bytes);
        for &(now, _, charged) in &results {
            assert!((now - (10.0 + cost)).abs() < 1e-12);
            assert!((charged - cost).abs() < 1e-12);
        }
        assert!((results[0].1 - 10.0).abs() < 1e-12, "rank 0 waits out the skew");
        assert_eq!(results[1].1, 0.0);
    }

    #[test]
    fn single_member_comm_is_free() {
        let results = run_ranks(1, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let pending = rank.ibcast(&comm, 0, Some(Arc::new(5u64)), 64, Step::ABcast);
            let v = *pending.wait(rank);
            (v, rank.clock().now())
        });
        assert_eq!(results[0].0, 5);
        assert_eq!(results[0].1, 0.0);
    }

    #[test]
    fn pipelined_posts_interleave_with_blocking_collectives() {
        // Post two broadcasts back-to-back, run a blocking allreduce on the
        // same communicator in between, then wait both — each operation
        // meets at the slot of its own sequence number.
        let results = run_ranks(3, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let p0 = (comm.my_index() == 0).then(|| Arc::new(10u32));
            let pending0 = rank.ibcast(&comm, 0, p0, 4, Step::ABcast);
            let p1 = (comm.my_index() == 1).then(|| Arc::new(20u32));
            let pending1 = rank.ibcast(&comm, 1, p1, 4, Step::BBcast);
            let sum = rank.allreduce(&comm, 1u64, |a, b| a + b, 8, Step::Other);
            let v0 = *pending0.wait(rank);
            let v1 = *pending1.wait(rank);
            (v0, v1, sum)
        });
        assert!(results.iter().all(|&r| r == (10, 20, 3)));
    }
}
