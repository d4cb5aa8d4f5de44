//! MPI-style collectives with modeled-time accounting.
//!
//! Every collective does three things, all through one meeting slot
//! ([`crate::slot`]) per operation:
//!
//! 1. **Synchronizes modeled clocks**: all participants jump to the maximum
//!    entry time, folded in member order (a collective cannot complete
//!    before its slowest member arrives). The waiting span is attributed
//!    to [`Step::Wait`] — see that variant's docs — so load-imbalance skew
//!    never pollutes the α–β cost of the collective's own step.
//! 2. **Moves the data for real**: each member deposits its contribution
//!    and reads the others' from the slot. Broadcast payloads travel as
//!    `Arc`s — the zero-copy analogue of shared-memory transport; receivers
//!    treat them as read-only, as MPI receivers do — and `alltoallv` parts
//!    and gathered values are moved, never cloned.
//! 3. **Advances the clock** by the α–β cost of the operation
//!    (see [`crate::cost::Machine`]) and records modeled bytes/messages.
//!
//! Payload sizes are always passed explicitly in *modeled bytes* (the
//! paper's `r` bytes per nonzero), decoupling the simulator from any
//! particular matrix representation.

use crate::check::OpKind;
use crate::clock::Step;
use crate::comm::{Comm, Rank};
use crate::slot::{Meeting, Part};
use std::sync::Arc;

impl Rank {
    /// Deposit `word` and `part` at slot `seq`, wait for every member, and
    /// read the slot with `read`. Returns the synchronized clock, which
    /// this rank has advanced to under [`Step::Wait`].
    fn meet<R>(
        &mut self,
        comm: &Comm,
        seq: u64,
        word: u64,
        part: Option<Part>,
        read: impl FnOnce(&mut Meeting<'_>) -> R,
    ) -> (f64, R) {
        self.deposit(comm, seq, word, part);
        let (t, out) = self.collect(comm, seq, |m| (m.clock(), read(m)));
        self.clock_mut().advance_to(Step::Wait, t);
        (t, out)
    }

    /// Broadcast `value` (present on `root` only) to every member.
    ///
    /// `bytes` is the modeled payload size; only the **root's** value is
    /// used (it travels with the payload), so receivers need not know the
    /// size in advance — exactly like the size embedded in an MPI bcast of
    /// a serialized sparse matrix. Returns the shared payload.
    pub fn bcast<T: Send + Sync + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        value: Option<Arc<T>>,
        bytes: usize,
        step: Step,
    ) -> Arc<T> {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(comm, seq, OpKind::Bcast, Some(root), None, true);
        let (word, part) = root_deposit(comm, root, value, bytes);
        let (t0, (out, bytes)) = self.meet(comm, seq, word, part, |m| {
            (Arc::clone(m.part::<Arc<T>>(root)), m.word() as usize)
        });
        let cost = self.machine().bcast_secs(q, bytes);
        self.clock_mut().advance_to(step, t0 + cost);
        self.clock_mut().record_comm(step, bytes as u64, 1);
        out
    }

    /// Allreduce with a commutative-associative combiner, folded in member
    /// order so the result's bits do not depend on arrival order.
    pub fn allreduce<T: Send + Copy + 'static>(
        &mut self,
        comm: &Comm,
        value: T,
        op: fn(T, T) -> T,
        bytes: usize,
        step: Step,
    ) -> T {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(comm, seq, OpKind::Allreduce, None, None, true);
        let (t0, result) = self.meet(comm, seq, 0, Some(Box::new(value)), |m| {
            (1..q).fold(*m.part::<T>(0), |acc, i| op(acc, *m.part::<T>(i)))
        });
        let cost = self.machine().allreduce_secs(q, bytes);
        self.clock_mut().advance_to(step, t0 + cost);
        self.clock_mut().record_comm(step, bytes as u64, 1);
        result
    }

    /// Allgather: every member contributes one value; all receive the full
    /// vector in member-index order. `bytes_each` models each contribution.
    /// Each contribution is cloned once per reader but the last, which
    /// moves it — wrap large payloads in `Arc`.
    pub fn allgather<T: Send + Clone + 'static>(
        &mut self,
        comm: &Comm,
        value: T,
        bytes_each: usize,
        step: Step,
    ) -> Vec<T> {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(comm, seq, OpKind::Allgather, None, None, true);
        let (t0, out) = self.meet(comm, seq, 0, Some(Box::new(value)), |m| {
            (0..q)
                .map(|i| if m.last() { m.take::<T>(i) } else { m.part::<T>(i).clone() })
                .collect()
        });
        let cost = self.machine().allgather_secs(q, bytes_each);
        self.clock_mut().advance_to(step, t0 + cost);
        self.clock_mut()
            .record_comm(step, (bytes_each * (q - 1)) as u64, 1);
        out
    }

    /// All-to-all with per-destination payloads: `parts[i]` goes to member
    /// `i` (our own slot comes back unchanged). `bytes[i]` models
    /// `parts[i]`'s size. The modeled cost uses the *heaviest* sender's
    /// total volume — this is what makes Merge-Fiber load imbalance visible
    /// and motivates the paper's block-cyclic batch splitting. Recorded
    /// bytes are the **receive side** (each size travels with its part), as
    /// [`crate::clock::StepBreakdown::bytes`] documents — under asymmetric
    /// traffic the sent and received totals differ per rank.
    pub fn alltoallv<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        parts: Vec<T>,
        bytes: &[usize],
        step: Step,
    ) -> Vec<T> {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(
            comm,
            seq,
            OpKind::Alltoallv,
            None,
            Some((parts.len(), bytes.len())),
            true,
        );
        assert_eq!(parts.len(), q, "alltoallv needs one part per member");
        assert_eq!(bytes.len(), q, "alltoallv needs one size per member");
        let me = comm.my_index();
        let sent = bytes.iter().sum::<usize>() - bytes[me];
        // Each part travels with its size, which the receiver records.
        let outgoing: Vec<Option<(T, u64)>> = parts
            .into_iter()
            .zip(bytes)
            .map(|(part, &b)| Some((part, b as u64)))
            .collect();
        let (t0, (out, recv_bytes, max_bytes)) =
            self.meet(comm, seq, sent as u64, Some(Box::new(outgoing)), |m| {
                let mut recv_bytes = 0u64;
                let out: Vec<T> = (0..q)
                    .map(|i| {
                        let (part, b) = m.part::<Vec<Option<(T, u64)>>>(i)[me]
                            .take()
                            .expect("alltoallv part already taken");
                        if i != me {
                            recv_bytes += b;
                        }
                        part
                    })
                    .collect();
                (out, recv_bytes, m.word())
            });
        // Heaviest sender determines the modeled completion time.
        let cost = self.machine().alltoall_secs(q, max_bytes as usize);
        self.clock_mut().advance_to(step, t0 + cost);
        self.clock_mut().record_comm(step, recv_bytes, 1);
        out
    }

    /// Barrier: synchronize clocks and charge one latency round.
    pub fn barrier(&mut self, comm: &Comm, step: Step) {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(comm, seq, OpKind::Barrier, None, None, true);
        let (t0, ()) = self.meet(comm, seq, 0, None, |_| ());
        let cost = self.machine().barrier_secs(q);
        self.clock_mut().advance_to(step, t0 + cost);
    }

    /// Gather every member's value to `root` (returns `Some(values)` on the
    /// root, `None` elsewhere). Used by harnesses to collect results;
    /// charged to [`Step::Other`] semantics via the `step` argument.
    ///
    /// Cost is asymmetric, as in `MPI_Gather`: the root pays the full tree
    /// ingest (`Machine::gather_secs`); a non-root returns
    /// after its own send ([`crate::cost::Machine::send_secs`]). There is no
    /// broadcast back, so charging `allgather_secs` on every rank — as this
    /// function once did — overcounts both sides.
    pub fn gather_to_root<T: Send + 'static>(
        &mut self,
        comm: &Comm,
        root: usize,
        value: T,
        bytes: usize,
        step: Step,
    ) -> Option<Vec<T>> {
        let q = comm.size();
        let seq = self.next_seq(comm);
        self.check_enter(comm, seq, OpKind::Gather, Some(root), None, true);
        let is_root = comm.my_index() == root;
        let (t0, result) = self.meet(comm, seq, 0, Some(Box::new(value)), |m| {
            is_root.then(|| (0..q).map(|i| m.take::<T>(i)).collect())
        });
        let cost = if is_root {
            self.machine().gather_secs(q, bytes)
        } else if q > 1 {
            self.machine().send_secs(bytes)
        } else {
            0.0
        };
        self.clock_mut().advance_to(step, t0 + cost);
        result
    }
}

/// A broadcast member's deposit: the root's payload and modeled size; `0`
/// and nothing elsewhere, so the slot's max word is the root's size.
pub(crate) fn root_deposit<T: Send + Sync + 'static>(
    comm: &Comm,
    root: usize,
    value: Option<Arc<T>>,
    bytes: usize,
) -> (u64, Option<Part>) {
    if comm.my_index() == root {
        let v = value.expect("the broadcast root must supply the payload");
        (bytes as u64, Some(Box::new(v)))
    } else {
        assert!(value.is_none(), "a non-root rank supplied a broadcast payload");
        (0, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Machine;
    use crate::runtime::run_ranks;

    #[test]
    fn bcast_delivers_to_all() {
        let results = run_ranks(6, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let payload = if comm.my_index() == 2 {
                Some(Arc::new(vec![1u32, 2, 3]))
            } else {
                None
            };
            let v = rank.bcast(&comm, 2, payload, 12, Step::ABcast);
            (*v).clone()
        });
        assert!(results.iter().all(|v| v == &vec![1, 2, 3]));
    }

    #[test]
    fn bcast_charges_alpha_beta_cost() {
        let results = run_ranks(8, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let payload = (comm.my_index() == 0).then(|| Arc::new(0u8));
            rank.bcast(&comm, 0, payload, 1_000_000, Step::ABcast);
            rank.clock().breakdown().secs_of(Step::ABcast)
        });
        let m = Machine::knl();
        let expect = m.bcast_secs(8, 1_000_000);
        for &t in &results {
            assert!((t - expect).abs() < 1e-12, "got {t}, expected {expect}");
        }
    }

    #[test]
    fn allreduce_computes_global_op() {
        let results = run_ranks(5, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.allreduce(&comm, rank.rank() as u64 + 1, |a, b| a.max(b), 8, Step::SymbolicComm)
        });
        assert!(results.iter().all(|&v| v == 5));
    }

    #[test]
    fn allreduce_sum() {
        let results = run_ranks(4, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.allreduce(&comm, rank.rank() as u64, |a, b| a + b, 8, Step::Other)
        });
        assert!(results.iter().all(|&v| v == 6));
    }

    #[test]
    fn allgather_preserves_member_order() {
        let results = run_ranks(4, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.allgather(&comm, rank.rank() * 2, 8, Step::Other)
        });
        for r in results {
            assert_eq!(r, vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn alltoallv_transposes_slots() {
        let results = run_ranks(3, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let parts: Vec<String> = (0..3).map(|i| format!("{}->{}", rank.rank(), i)).collect();
            rank.alltoallv(&comm, parts, &[8, 8, 8], Step::AllToAllFiber)
        });
        // out[i] on rank r must be "i->r".
        for (r, out) in results.iter().enumerate() {
            for (i, s) in out.iter().enumerate() {
                assert_eq!(s, &format!("{i}->{r}"));
            }
        }
    }

    #[test]
    fn clocks_synchronize_to_slowest_member() {
        let results = run_ranks(4, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            // Rank 1 does heavy "compute" first.
            if rank.rank() == 1 {
                rank.clock_mut().advance(Step::LocalMultiply, 10.0);
            }
            rank.barrier(&comm, Step::Other);
            rank.clock().now()
        });
        let t0 = results[0];
        assert!(t0 >= 10.0);
        assert!(results.iter().all(|&t| (t - t0).abs() < 1e-12));
    }

    #[test]
    fn sub_communicators_do_not_crosstalk() {
        // Two disjoint pair-communicators broadcasting concurrently.
        let results = run_ranks(4, Machine::knl(), |rank| {
            let pair = if rank.rank() < 2 {
                rank.comm(vec![0, 1], 10)
            } else {
                rank.comm(vec![2, 3], 10)
            };
            let payload = (pair.my_index() == 0).then(|| Arc::new(rank.rank()));
            let v = rank.bcast(&pair, 0, payload, 8, Step::BBcast);
            *v
        });
        assert_eq!(results, vec![0, 0, 2, 2]);
    }

    #[test]
    fn gather_to_root_collects_in_order() {
        let results = run_ranks(4, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.gather_to_root(&comm, 1, rank.rank() as u32 * 3, 4, Step::Other)
        });
        assert!(results[0].is_none());
        assert_eq!(results[1], Some(vec![0, 3, 6, 9]));
    }

    #[test]
    fn alltoall_cost_uses_heaviest_sender() {
        let results = run_ranks(2, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            // Rank 0 sends 1 MB to rank 1; rank 1 sends 1 byte back.
            let bytes = if rank.rank() == 0 { [0, 1_000_000] } else { [1, 0] };
            rank.alltoallv(&comm, vec![0u8, 1u8], &bytes, Step::AllToAllFiber);
            rank.clock().breakdown().secs_of(Step::AllToAllFiber)
        });
        let m = Machine::knl();
        let expect = m.alltoall_secs(2, 1_000_000);
        assert!(results.iter().all(|&t| (t - expect).abs() < 1e-12));
    }

    #[test]
    fn alltoallv_records_receive_side_bytes() {
        // Same asymmetric setup as above: rank 0 sends 1 MB and receives 1
        // byte; rank 1 the reverse. `StepBreakdown::bytes` documents the
        // receive side, so the recorded volumes must differ per rank.
        let results = run_ranks(2, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let bytes = if rank.rank() == 0 { [0, 1_000_000] } else { [1, 0] };
            rank.alltoallv(&comm, vec![0u8, 1u8], &bytes, Step::AllToAllFiber);
            rank.clock().breakdown().bytes_of(Step::AllToAllFiber)
        });
        assert_eq!(results, vec![1, 1_000_000]);
    }

    #[test]
    fn gather_charges_root_tree_and_leaf_send() {
        let (q, bytes) = (4, 1 << 16);
        let results = run_ranks(q, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.gather_to_root(&comm, 1, rank.rank(), bytes, Step::SymbolicComm);
            rank.clock().breakdown().secs_of(Step::SymbolicComm)
        });
        let m = Machine::knl();
        for (r, &t) in results.iter().enumerate() {
            let expect = if r == 1 {
                m.gather_secs(q, bytes)
            } else {
                m.send_secs(bytes)
            };
            assert!((t - expect).abs() < 1e-12, "rank {r}: got {t}, expected {expect}");
        }
    }

    #[test]
    fn barrier_charges_machine_barrier_secs() {
        let results = run_ranks(8, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            rank.barrier(&comm, Step::SymbolicComm);
            rank.clock().breakdown().secs_of(Step::SymbolicComm)
        });
        let expect = Machine::knl().barrier_secs(8);
        assert!(results.iter().all(|&t| (t - expect).abs() < 1e-12));
    }
}
