//! Spawning and joining simulated ranks.

use crate::check::{CheckMode, LoggedOp};
use crate::comm::{Rank, WorldShared};
use crate::cost::Machine;
use crate::slot::{Slots, PEER_EXITED};
use std::sync::Arc;

/// Default perturbation seed: the `SPGEMM_PERTURB_SEED` environment
/// variable if it parses as a `u64`, otherwise none. Lets whole test
/// suites re-run under schedule perturbation without code changes.
fn env_perturb_seed() -> Option<u64> {
    std::env::var("SPGEMM_PERTURB_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Stack size per simulated rank. Local SpGEMM kernels recurse little, so a
/// modest stack keeps thousand-rank simulations cheap.
const RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Run `f` on `p` simulated ranks (one OS thread each) under `machine`'s
/// cost model; returns each rank's result in rank order.
///
/// Protocol checking follows [`CheckMode::default_mode`]: on in debug
/// builds and whenever `SPGEMM_CHECK` enables it, so every test exercises
/// the checker. Use [`run_ranks_checked`] to pick the mode explicitly.
///
/// Panics in any rank are propagated (with the rank id) after all threads
/// are joined, so a failing assertion inside a simulated algorithm fails
/// the enclosing test.
pub fn run_ranks<R, F>(p: usize, machine: Machine, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    run_ranks_checked(p, machine, CheckMode::default_mode(), f)
}

/// [`run_ranks`] with an explicit protocol-checking mode.
///
/// Failure reporting gives algorithmic panics precedence: if a rank failed
/// for a reason other than a protocol violation or a secondary
/// infrastructure panic it caused (a peer finding it exited), that
/// panic (with its rank id) is re-raised first; otherwise the checker's
/// consolidated `protocol violation` report is raised.
///
/// Schedule perturbation follows the `SPGEMM_PERTURB_SEED` environment
/// variable; use [`run_ranks_seeded`] to pick the seed explicitly.
pub fn run_ranks_checked<R, F>(p: usize, machine: Machine, mode: CheckMode, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    run_ranks_seeded(p, machine, mode, None, None, f)
}

/// [`run_ranks_checked`] with an explicit schedule-perturbation seed and an
/// optional job label — the one launcher every other one is a default of.
///
/// With a seed, every rank injects deterministic seed-derived scheduler
/// jitter at its communication points, permuting thread wakeup order at
/// every rendezvous. Algorithm results must be bit-identical under any
/// seed; runs that differ (or trip the checker only under some seeds) have
/// an order-dependence bug the default schedule was hiding. The seed rule
/// lives here and nowhere else: an explicit `Some(seed)` wins, `None` falls
/// back to `SPGEMM_PERTURB_SEED`, and with neither the run is unperturbed.
///
/// `job` is for multi-tenant packing: when several simulated clusters run
/// concurrently in one process (the serve subsystem schedules one world per
/// admitted job), rank threads are named `job-J-rank-I` instead of `rank-I`
/// and panic reports lead with the job id — so a stack dump or failure
/// message of a packed server names *which* job's world misbehaved.
pub fn run_ranks_seeded<R, F>(
    p: usize,
    machine: Machine,
    mode: CheckMode,
    seed: Option<u64>,
    job: Option<u64>,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    let seed = seed.or_else(env_perturb_seed);
    run_ranks_inner(p, machine, mode, seed, false, job, f).0
}

/// [`run_ranks`] with the protocol checker forced on and its op log
/// enabled: returns each rank's result plus every collective/nonblocking
/// registration, nonblocking wait and point-to-point send/receive the run
/// made, in checker arrival order (each rank's subsequence is its program
/// order). The schedule auditor's conformance test compares extracted
/// schedules against this ground truth.
pub fn run_ranks_logged<R, F>(p: usize, machine: Machine, f: F) -> (Vec<R>, Vec<LoggedOp>)
where
    R: Send,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    run_ranks_inner(p, machine, CheckMode::Check, env_perturb_seed(), true, None, f)
}

fn run_ranks_inner<R, F>(
    p: usize,
    machine: Machine,
    mode: CheckMode,
    perturb: Option<u64>,
    log: bool,
    job: Option<u64>,
    f: F,
) -> (Vec<R>, Vec<LoggedOp>)
where
    R: Send,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    assert!(p > 0, "need at least one rank");
    let world = Arc::new(WorldShared {
        p,
        slots: Slots::new(p, log),
        check: mode,
        perturb,
    });
    let f = &f;
    let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
    let mut failures: Vec<(usize, String)> = Vec::new();

    crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(p);
        for (i, slot) in results.iter_mut().enumerate() {
            let world = Arc::clone(&world);
            let handle = s
                .builder()
                .name(match job {
                    Some(j) => format!("job-{j}-rank-{i}"),
                    None => format!("rank-{i}"),
                })
                .stack_size(RANK_STACK_BYTES)
                .spawn(move |_| {
                    let mut rank = Rank::new(i, world, machine);
                    *slot = Some(f(&mut rank));
                })
                .expect("failed to spawn rank thread");
            handles.push((i, handle));
        }
        for (i, h) in handles {
            if let Err(e) = h.join() {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".into());
                failures.push((i, msg));
            }
        }
    })
    .expect("rank scope failed");
    // Every rank has left or exited every slot it was in.
    let open = world.slots.open();
    assert!(open.is_empty(), "meeting slots left open after the run: {open:x?}");

    let who = |i: usize| match job {
        Some(j) => format!("job {j} rank {i}"),
        None => format!("rank {i}"),
    };
    if !failures.is_empty() {
        // An algorithmic failure outranks the secondary panics it causes on
        // peer ranks: protocol reports (a stall, or the report a trip wakes
        // parked ranks with) *and* the panics of peers that found the failed
        // rank's thread gone — a collective it never joined, a message it
        // never sent, or one sent to it after it exited. A low rank dying of
        // those must not mask the real failure on a higher rank.
        let secondary =
            |msg: &str| ["protocol violation", PEER_EXITED].iter().any(|s| msg.contains(s));
        if let Some((i, msg)) = failures.iter().find(|(_, msg)| !secondary(msg)) {
            panic!("{} panicked: {msg}", who(*i));
        }
        let violations = world.slots.violations();
        if !violations.is_empty() {
            let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
            panic!("{}", report.join("\n"));
        }
        // Only secondary infrastructure panics and no checker report (e.g.
        // checking off): surface the first one rather than nothing.
        let (i, msg) = &failures[0];
        panic!("{} panicked: {msg}", who(*i));
    }

    // Violations recorded at exit (orphaned point-to-point messages) don't
    // panic any rank — the threads have already finished — so a clean join
    // must still surface them.
    let violations = world.slots.violations();
    if !violations.is_empty() {
        let report: Vec<String> = violations.iter().map(ToString::to_string).collect();
        panic!("{}", report.join("\n"));
    }

    let op_log = world.slots.take_op_log();
    let results = results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("{} produced no result", who(i))))
        .collect();
    (results, op_log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let r = run_ranks(8, Machine::knl(), |rank| rank.rank() * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_rank_works() {
        let r = run_ranks(1, Machine::knl(), |rank| rank.world_size());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn many_ranks_spawn_cheaply() {
        let r = run_ranks(256, Machine::knl(), |rank| rank.rank());
        assert_eq!(r.len(), 256);
        assert_eq!(r[255], 255);
    }

    #[test]
    #[should_panic(expected = "rank 3 panicked")]
    fn panics_propagate_with_rank_id() {
        run_ranks(4, Machine::knl(), |rank| {
            if rank.rank() == 3 {
                panic!("boom");
            }
            0
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn algorithmic_panic_outranks_secondary_infrastructure_panics() {
        // Rank 2 dies mid-run; rank 0 keeps sending to it until it has
        // exited, and the send panics with the "exited before joining"
        // message. That secondary panic (on a *lower* rank id, hence joined
        // first) must not mask the real algorithmic failure on rank 2.
        run_ranks_checked(3, Machine::knl(), CheckMode::Off, |rank| {
            let comm = rank.world_comm();
            match rank.rank() {
                2 => panic!("boom"),
                0 => {
                    let mut tag = 0u64;
                    loop {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        rank.send(&comm, 2, tag, 0u8);
                        tag += 1;
                    }
                }
                _ => (),
            }
        });
    }

    #[test]
    fn perturbed_schedules_are_bit_identical() {
        let program = |rank: &mut Rank| {
            let comm = rank.world_comm();
            let me = rank.rank();
            let p = rank.world_size();
            rank.send(&comm, (me + 1) % p, 7, me as u64);
            let from_prev: u64 = rank.recv(&comm, (me + p - 1) % p, 7);
            rank.barrier(&comm, crate::clock::Step::Other);
            from_prev
        };
        let base = run_ranks_seeded(8, Machine::knl(), CheckMode::Check, None, None, program);
        for seed in [1u64, 2, 3] {
            let perturbed =
                run_ranks_seeded(8, Machine::knl(), CheckMode::Check, Some(seed), None, program);
            assert_eq!(perturbed, base, "seed {seed} changed results");
        }
    }

    #[test]
    fn op_log_records_per_rank_program_order() {
        use crate::check::{LoggedAction, OpKind};
        let (_, log) = run_ranks_logged(4, Machine::knl(), |rank| {
            let comm = rank.world_comm();
            let (me, p) = (rank.rank(), rank.world_size());
            rank.barrier(&comm, crate::clock::Step::Other);
            rank.send(&comm, (me + 1) % p, 7, me as u64);
            let _: u64 = rank.recv(&comm, (me + p - 1) % p, 7);
            let payload = (me == 1).then(|| Arc::new(5u8));
            let pending = rank.ibcast(&comm, 1, payload, 1, crate::clock::Step::Other);
            pending.wait(rank);
        });
        // Every rank's subsequence is its whole program: collective, send,
        // receive, post, wait — with peers, tags, roots and sequence numbers.
        assert_eq!(log.len(), 4 * 5);
        for r in 0..4 {
            let mine: Vec<LoggedAction> = log
                .iter()
                .filter(|o| o.rank == r)
                .map(|o| o.action)
                .collect();
            assert_eq!(
                mine,
                vec![
                    LoggedAction::Enter {
                        kind: OpKind::Barrier,
                        root: None,
                        seq: 1
                    },
                    LoggedAction::Send {
                        to: (r + 1) % 4,
                        tag: 7
                    },
                    LoggedAction::Recv {
                        from: (r + 3) % 4,
                        tag: 7
                    },
                    LoggedAction::Enter {
                        kind: OpKind::IbcastPost,
                        root: Some(1),
                        seq: 2
                    },
                    LoggedAction::Wait { seq: 2 },
                ]
            );
        }
    }

    /// Ranks 0–2 broadcast from `root` with `ibcast` (or blocking `bcast`)
    /// while rank `dead` panics before joining: the survivors must not wait
    /// forever, and the caller must see the dead rank's panic.
    fn dead_member_of_a_broadcast(mode: CheckMode, root: usize, dead: usize, nonblocking: bool) {
        run_ranks_checked(3, Machine::knl(), mode, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == dead {
                panic!("boom");
            }
            let payload = (rank.rank() == root).then(|| Arc::new(7u64));
            let step = crate::clock::Step::Other;
            if nonblocking {
                let pending = rank.ibcast(&comm, root, payload, 8, step);
                let _ = pending.wait(rank);
            } else {
                rank.bcast(&comm, root, payload, 8, step);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 0 panicked: boom")]
    fn ibcast_whose_root_died_before_posting_reports_the_root() {
        dead_member_of_a_broadcast(CheckMode::Check, 0, 0, true);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: boom")]
    fn ibcast_missing_a_dead_member_reports_that_member() {
        dead_member_of_a_broadcast(CheckMode::Check, 0, 2, true);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn unchecked_bcast_missing_a_dead_member_reports_that_member() {
        dead_member_of_a_broadcast(CheckMode::Off, 0, 1, false);
    }

    #[test]
    fn a_waiter_names_the_exited_member_and_the_slot() {
        let err = std::panic::catch_unwind(|| {
            run_ranks_checked(2, Machine::knl(), CheckMode::Off, |rank| {
                let comm = rank.world_comm();
                if rank.rank() == 1 {
                    return;
                }
                rank.barrier(&comm, crate::clock::Step::Other);
            })
        })
        .expect_err("rank 0 cannot complete its barrier");
        let msg = err.downcast::<String>().map(|s| *s).unwrap_or_default();
        assert!(msg.starts_with("rank 0 panicked: rank 1 exited before joining"), "{msg}");
        assert!(msg.contains("op 1"), "{msg}");
    }

    /// Rank 0 waits, with checking off, on a message rank 1 never sends:
    /// rank 1 returns, or panics with "boom" if `fail`. Returns the run's
    /// panic message. The run has its own thread so that a receive that
    /// hangs fails the caller instead of hanging it.
    fn unchecked_recv_from_a_peer_that_exits(fail: bool) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let err = std::panic::catch_unwind(|| {
                run_ranks_checked(2, Machine::knl(), CheckMode::Off, |rank| {
                    let comm = rank.world_comm();
                    match rank.rank() {
                        0 => {
                            let _: u64 = rank.recv(&comm, 1, 5);
                        }
                        _ => assert!(!fail, "boom"),
                    }
                })
            })
            .expect_err("rank 0 cannot complete its receive");
            let _ = tx.send(err.downcast::<String>().map(|s| *s).unwrap_or_default());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the receive from an exited peer did not end within 10 s")
    }

    #[test]
    fn unchecked_recv_from_an_exited_peer_names_it_and_the_envelope() {
        let msg = unchecked_recv_from_a_peer_that_exits(false);
        assert!(msg.starts_with("rank 0 panicked: rank 1 exited before joining"), "{msg}");
        assert!(msg.contains("tag 5"), "{msg}");
        // That panic is secondary: the failure that made rank 1 exit wins.
        let msg = unchecked_recv_from_a_peer_that_exits(true);
        assert!(msg.starts_with("rank 1 panicked: boom"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn algorithmic_panic_outranks_secondary_protocol_reports() {
        // Rank 2 dies mid-run while the others sit in a barrier; the
        // checker wakes them with a stall report, but the original panic
        // must be the one the caller sees.
        run_ranks_checked(4, Machine::knl(), CheckMode::Check, |rank| {
            let comm = rank.world_comm();
            if rank.rank() == 2 {
                panic!("boom");
            }
            rank.barrier(&comm, crate::clock::Step::Other);
        });
    }
}
