//! Protocol-checker injection tests: deliberately mis-programmed
//! collectives must trip [`spgemm_simgrid::check`] with a diagnostic
//! naming the ranks, operations and sequence numbers involved — and a
//! correctly programmed run must pass untouched.

use spgemm_simgrid::{run_ranks_checked, CheckMode, Machine, Step};
use std::sync::Arc;

/// Run `f`, which must panic, and return its panic message.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("expected the checker to trip");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(err) => match err.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<non-string panic>".to_string(),
        },
    }
}

#[test]
fn mismatched_collective_order_names_both_operations() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            // A matching first collective, so the divergence is op 2.
            rank.barrier(&comm, Step::Other);
            if rank.rank() == 0 {
                rank.barrier(&comm, Step::Other);
            } else {
                rank.allreduce(&comm, 1u64, |a, b| a + b, 8, Step::Other);
            }
        });
    });
    assert!(msg.contains("protocol violation [OrderMismatch]"), "{msg}");
    assert!(msg.contains("op 2"), "{msg}");
    assert!(msg.contains("barrier") && msg.contains("allreduce"), "{msg}");
}

#[test]
fn bcast_root_disagreement_names_both_roots() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            // Each rank believes itself the root.
            let me = rank.rank();
            rank.bcast(&comm, me, Some(Arc::new(7u64)), 8, Step::Other);
        });
    });
    assert!(msg.contains("protocol violation [RootMismatch]"), "{msg}");
    assert!(msg.contains("bcast root"), "{msg}");
    assert!(msg.contains("Some(0)") && msg.contains("Some(1)"), "{msg}");
}

#[test]
fn asymmetric_alltoallv_counts_name_the_rank_and_shape() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 1 {
                // Size vector for a 3-member communicator on a 2-member one.
                rank.alltoallv(&comm, vec![10u64, 11], &[8, 8, 8], Step::Other)
            } else {
                rank.alltoallv(&comm, vec![20u64, 21], &[8, 8], Step::Other)
            }
        });
    });
    assert!(msg.contains("protocol violation [CountMismatch]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(
        msg.contains("2 parts and 3 sizes on a 2-member communicator"),
        "{msg}"
    );
}

#[test]
fn dropped_nonblocking_handle_is_reported_as_a_leak() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            let root_payload = (rank.rank() == 0).then(|| Arc::new(vec![1u8; 64]));
            let pending = rank.ibcast(&comm, 0, root_payload, 64, Step::Other);
            if rank.rank() == 0 {
                drop(pending); // regression: handle leaked without wait()
            } else {
                let _ = pending.wait(rank);
            }
        });
    });
    assert!(msg.contains("protocol violation [LeakedHandle]"), "{msg}");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("without wait()"), "{msg}");
}

#[test]
fn clock_reset_between_sync_points_is_non_monotone() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            rank.compute(Step::Other, 1e9); // modeled time well past zero
            rank.barrier(&comm, Step::Other);
            if rank.rank() == 1 {
                rank.clock_mut().reset(); // corrupt: time goes backwards
            }
            rank.barrier(&comm, Step::Other);
        });
    });
    assert!(msg.contains("protocol violation [NonMonotoneClock]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("earlier than"), "{msg}");
}

#[test]
fn divergent_order_across_communicators_is_a_stall() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            // Classic cross-communicator deadlock: the two ranks take the
            // same two barriers in opposite order.
            let a = rank.comm(vec![0, 1], 1);
            let b = rank.comm(vec![0, 1], 2);
            if rank.rank() == 0 {
                rank.barrier(&a, Step::Other);
                rank.barrier(&b, Step::Other);
            } else {
                rank.barrier(&b, Step::Other);
                rank.barrier(&a, Step::Other);
            }
        });
    });
    assert!(msg.contains("protocol violation [Stall]"), "{msg}");
    assert!(msg.contains("blocked"), "{msg}");
    assert!(msg.contains("missing members"), "{msg}");
}

#[test]
fn rank_exiting_without_its_collective_is_a_stall() {
    let msg = panic_message(|| {
        run_ranks_checked(3, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            if rank.rank() != 1 {
                rank.barrier(&comm, Step::Other);
            }
        });
    });
    assert!(msg.contains("protocol violation [Stall]"), "{msg}");
    assert!(msg.contains("missing members [1]"), "{msg}");
    assert!(msg.contains("exited"), "{msg}");
}

#[test]
fn duplicate_inflight_send_is_a_tag_collision() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            // Rank 1 receives only after the barrier, which rank 0 enters
            // after both sends, so the first send is still undelivered when
            // the second is posted, whatever the thread timing.
            if rank.rank() == 0 {
                // Two undelivered sends with the same (comm, tag, dst):
                // receives match on (source, comm, tag), so delivery order
                // would be ambiguous.
                rank.send(&comm, 1, 5, 1u32);
                rank.send(&comm, 1, 5, 2u32);
                rank.barrier(&comm, Step::Other);
            } else {
                rank.barrier(&comm, Step::Other);
                let _: u32 = rank.recv(&comm, 0, 5);
                let _: u32 = rank.recv(&comm, 0, 5);
            }
        });
    });
    assert!(msg.contains("protocol violation [TagCollision]"), "{msg}");
    assert!(msg.contains("second send"), "{msg}");
    assert!(msg.contains("tag 5"), "{msg}");
}

#[test]
fn receive_with_no_matching_send_is_unmatched() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 7, 1u32);
                // Then exit: rank 1's second recv can never complete.
            } else {
                let _: u32 = rank.recv(&comm, 0, 7);
                let _: u32 = rank.recv(&comm, 0, 8);
            }
        });
    });
    assert!(msg.contains("protocol violation [UnmatchedRecv]"), "{msg}");
    assert!(msg.contains("rank 1 in recv from rank 0"), "{msg}");
    assert!(msg.contains("tag 8"), "{msg}");
}

#[test]
fn send_never_received_is_an_orphan() {
    let msg = panic_message(|| {
        run_ranks_checked(2, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 9, 42u32);
            }
            // Rank 1 never receives; both ranks exit cleanly.
        });
    });
    assert!(msg.contains("protocol violation [OrphanedSend]"), "{msg}");
    assert!(msg.contains("rank 0 sent to rank 1"), "{msg}");
    assert!(msg.contains("never received"), "{msg}");
}

#[test]
fn well_formed_point_to_point_passes_under_check_mode() {
    // Exercises ordinary matched sends and self-sends. Each round uses its
    // own tag: reusing a tag toward the same peer is only legal once the
    // first delivery is known complete, which unsynchronized SPMD rounds
    // cannot guarantee.
    let results = run_ranks_checked(4, Machine::knl(), CheckMode::Check, |rank| {
        let comm = rank.world_comm();
        let me = rank.rank();
        let right = (me + 1) % 4;
        let left = (me + 3) % 4;
        rank.send(&comm, right, 11, me as u64);
        let from_left: u64 = rank.recv(&comm, left, 11);
        rank.send(&comm, right, 13, from_left);
        let second: u64 = rank.recv(&comm, left, 13);
        // Self-send, as transpose_to_bstyle does on the diagonal.
        rank.send(&comm, me, 12, second);
        rank.recv::<u64>(&comm, me, 12)
    });
    assert_eq!(results.len(), 4);
    for (me, &got) in results.iter().enumerate() {
        assert_eq!(got as usize, (me + 2) % 4);
    }
}

#[test]
fn well_formed_program_passes_under_check_mode() {
    let results = run_ranks_checked(4, Machine::knl(), CheckMode::Check, |rank| {
        let comm = rank.world_comm();
        let sum = rank.allreduce(&comm, rank.rank() as u64, |a, b| a + b, 8, Step::Other);
        let root_payload = (rank.rank() == 0).then(|| Arc::new(sum));
        let pending = rank.ibcast(&comm, 0, root_payload, 8, Step::Other);
        let shared = pending.wait(rank);
        rank.barrier(&comm, Step::Other);
        *shared
    });
    assert_eq!(results, vec![6, 6, 6, 6]);
}
