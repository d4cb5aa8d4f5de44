//! Every collective's modeled numbers and results, pinned bit for bit.
//!
//! One 64-rank program on a `Grid3D` with `l = 4` runs each collective on
//! the communicator it serves in the drivers, four rounds over, with
//! rank-skewed `compute` between the ops so every clock max-sync has a
//! slowest member to find: `bcast` on rows, `ibcast` on columns with work
//! between post and `wait`, an `f64`-sum `allreduce` on layers (addition
//! of floats is not associative, so the fold order shows in the bits),
//! `allgather` and `alltoallv` on fibers, `gather_to_root` on columns and
//! a world `barrier`. Each rank records its final `now()` bits, every
//! `Step`'s seconds bits, bytes, messages and overlap bits, and a checksum
//! of every result it received; [`GOLDEN`] is one FNV-1a digest over all
//! 64 records. How ranks meet is the runtime's business: no bit here may
//! depend on it, nor on `SPGEMM_PERTURB_SEED`.
//!
//! The runtime itself asserts, after every run, that no meeting slot is
//! left open; the two runs here that end in a rank's panic must therefore
//! report that panic and nothing else.

use spgemm_simgrid::{run_ranks, run_ranks_checked, CheckMode, Grid3D, Machine, Rank, Step};
use std::sync::Arc;

/// Digest of the 64 rank records, printed by the build before the
/// collectives moved to meeting slots.
const GOLDEN: u64 = 0x05c9_59fc_dde9_cf02;

const P: usize = 64;
const LAYERS: usize = 4;
const ROUNDS: usize = 4;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// Rank-skewed work units: a different slowest member per round.
fn skew(rank: usize, round: usize, salt: usize) -> f64 {
    1_000.0 * ((rank * 7 + round * 13 + salt * 5) % 11 + 1) as f64
}

/// One rank's program; returns its record (checksum first, then the
/// clock's bits).
fn program(rank: &mut Rank) -> Vec<u64> {
    let grid = Grid3D::new(rank, LAYERS);
    let me = rank.rank();
    let mut sum = Fnv::new();
    for round in 0..ROUNDS {
        rank.compute(Step::LocalMultiply, skew(me, round, 0));

        // Row broadcast; the payload and its modeled size depend on the root.
        let root = round % grid.row.size();
        let payload = (grid.row.my_index() == root)
            .then(|| Arc::new((0..=me % 5).map(|x| x as f64 + 0.25 * me as f64).collect()));
        let v: Arc<Vec<f64>> =
            rank.bcast(&grid.row, root, payload, 24 * (1 + me % 5), Step::ABcast);
        v.iter().for_each(|x| sum.word(x.to_bits()));

        // Column ibcast with work between post and wait.
        let root = (round + 1) % grid.col.size();
        let payload =
            (grid.col.my_index() == root).then(|| Arc::new(me as u64 * 31 + round as u64));
        let pending = rank.ibcast(&grid.col, root, payload, 4_096 * (1 + me % 3), Step::BBcast);
        rank.compute(Step::LocalMultiply, skew(me, round, 1));
        sum.word(*pending.wait(rank));

        // Non-associative float sum over the layer.
        let x = 0.1 * me as f64 + 1e-3 * round as f64 + 1e9 * (me % 2) as f64;
        let s = rank.allreduce(&grid.layer, x, |a, b| a + b, 8, Step::SymbolicComm);
        sum.word(s.to_bits());

        rank.compute(Step::MergeLayer, skew(me, round, 2));

        // Fiber allgather of a vector per member.
        let mine = vec![me as u64, round as u64, (me * round) as u64];
        for part in rank.allgather(&grid.fiber, mine, 24, Step::AllToAllFiber) {
            part.iter().for_each(|&w| sum.word(w));
        }

        // Fiber alltoallv with asymmetric sizes.
        let q = grid.fiber.size();
        let parts: Vec<Vec<u64>> = (0..q)
            .map(|i| vec![(me * 100 + i) as u64; 1 + (me + i + round) % 3])
            .collect();
        let bytes: Vec<usize> = (0..q)
            .map(|i| 1_000 * (1 + (me * 3 + i * 7 + round) % 5))
            .collect();
        for part in rank.alltoallv(&grid.fiber, parts, &bytes, Step::AllToAllFiber) {
            part.iter().for_each(|&w| sum.word(w));
        }

        rank.compute(Step::MergeFiber, skew(me, round, 3));

        // Column gather to a rotating root.
        let root = round % grid.col.size();
        if let Some(all) = rank.gather_to_root(&grid.col, root, (me, round), 16, Step::Other) {
            all.iter().for_each(|&(r, k)| sum.word((r * 10 + k) as u64));
        }

        rank.barrier(&grid.world, Step::Other);
    }
    let b = rank.clock().breakdown();
    let mut record = vec![sum.0, rank.clock().now().to_bits()];
    record.extend(b.secs.iter().map(|s| s.to_bits()));
    record.extend(b.bytes);
    record.extend(b.msgs);
    record.extend(b.overlap_secs.iter().map(|s| s.to_bits()));
    record
}

#[test]
fn every_collective_is_pinned_bit_for_bit() {
    let records = run_ranks(P, Machine::knl(), program);
    let mut digest = Fnv::new();
    for record in &records {
        record.iter().for_each(|&w| digest.word(w));
    }
    let latest = records
        .iter()
        .map(|r| f64::from_bits(r[1]))
        .fold(0.0, f64::max);
    println!("digest {:#018x}, latest clock {latest:e} s", digest.0);
    assert_eq!(
        digest.0, GOLDEN,
        "collective golden moved (latest clock {latest:e} s)"
    );
}

/// Run `f`, which must panic, and return its panic message.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("expected the run to fail");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(err) => err
            .downcast::<&str>()
            .map_or("<non-string panic>".into(), |s| s.to_string()),
    }
}

#[test]
fn a_panicked_run_reports_the_panic_and_leaves_no_slot_open() {
    for mode in [CheckMode::Check, CheckMode::Off] {
        let msg = panic_message(|| {
            run_ranks_checked(P, Machine::knl(), mode, |rank| {
                let grid = Grid3D::new(rank, LAYERS);
                // Round one completes everywhere; in round two rank 37 dies
                // while its peers are inside collectives.
                for round in 0..2 {
                    if round == 1 && rank.rank() == 37 {
                        panic!("boom");
                    }
                    let root = round % grid.row.size();
                    let payload = (grid.row.my_index() == root).then(|| Arc::new(round));
                    let pending = rank.ibcast(&grid.row, root, payload, 64, Step::ABcast);
                    rank.allreduce(&grid.fiber, 1u64, |a, b| a + b, 8, Step::Other);
                    let _ = pending.wait(rank);
                    rank.barrier(&grid.world, Step::Other);
                }
            });
        });
        assert_eq!(msg, "rank 37 panicked: boom", "{mode:?}");
    }
}
