//! Sparse blocks that move whole travel as coded blocks, and a run records
//! exactly their wire size.
//!
//! A fiber piece (Alg. 2 line 5) and a 1.5D A-shift block are sent as the
//! request of their nonempty columns followed by the tile of those columns:
//! varint counts and rows — row gaps when the block is sorted, full rows
//! when it is not — beside one value word per nonzero. These tests rebuild,
//! serially and independently of the run, every block each rank receives,
//! size it with their own varint sum through `schedule::payload_bytes`, and
//! hold the bytes each rank recorded to that sum.

use spgemm_core::dist::sub_block;
use spgemm_core::family15::cola_block_at;
use spgemm_core::schedule::{payload_bytes, Op, Payload};
use spgemm_core::{
    run_spgemm, run_spmm, AlgorithmFamily, BackendKind, KernelStrategy, OverlapMode, RunConfig,
};
use spgemm_simgrid::{Grid3D, Step};
use spgemm_sparse::gen::er_random;
use spgemm_sparse::ops::{block_range, col_block, row_block};
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::{CscMatrix, DenseBlock, Triples};

/// Bytes of the LEB128 varint of `x`, by threshold.
fn varint_len(x: u64) -> usize {
    [0x7F, 0x3FFF, 0x1F_FFFF, 0xFFF_FFFF]
        .iter()
        .position(|&max| x <= max)
        .map_or(5, |i| i + 1)
}

/// Wire size of all of `m` as a coded block moved by `op`: the count and
/// gaps of its nonempty column ids, then per such column a count and its
/// rows (gaps from the previous row if `sorted`, else in full), then a
/// value word per nonzero.
fn wire_bytes(op: Op, m: &CscMatrix<u64>, sorted: bool) -> usize {
    let (mut index, mut cols, mut next) = (0, 0, 0);
    for j in 0..m.ncols() {
        let rows = m.col(j).0;
        if rows.is_empty() {
            continue;
        }
        cols += 1;
        index += varint_len((j - next) as u64) + varint_len(rows.len() as u64);
        next = j + 1;
        let mut prev = 0;
        for &r in rows {
            index += varint_len(u64::from(if sorted { r - prev } else { r }));
            prev = r;
        }
    }
    index += varint_len(cols);
    let payload = Payload::Coded {
        nnz: m.nnz(),
        index_bytes: index,
    };
    payload_bytes(op, payload)
}

/// Layer `k`'s product `A·B` on a `pr × pr × l` grid: only the inner
/// indices of the layer's slices `(s, k)`, `s < pr`, contribute.
fn layer_product(
    a: &CscMatrix<u64>,
    b: &CscMatrix<u64>,
    pr: usize,
    l: usize,
    k: usize,
) -> CscMatrix<u64> {
    let n = a.ncols();
    let mut inner = vec![false; n];
    for s in 0..pr {
        for c in sub_block(n, pr, s, l, k) {
            inner[c] = true;
        }
    }
    let mut t = Triples::new(a.nrows(), n);
    for (r, c, v) in a.iter() {
        if inner[c] {
            t.push(r, c as u32, v);
        }
    }
    spgemm_spa::<PlusTimesU64>(&t.to_csc(), b).unwrap().0
}

/// At `p = 16, l = 4` every rank's AllToAll-Fiber bytes are the wire size
/// of the `l − 1` pieces the other layers sent it — sorted pieces under the
/// previous kernels, unsorted under the new — and its own piece costs
/// nothing. Local rows run past 127, so a row in full and a row gap differ
/// in length.
#[test]
fn fiber_bytes_are_the_wire_size_of_the_pieces_received() {
    let (p, l) = (16, 4);
    let a = er_random::<PlusTimesU64>(611, 58, 12, 4401).map(|_| 1u64);
    let b = er_random::<PlusTimesU64>(58, 67, 3, 4402).map(|_| 1u64);
    let grid0 = Grid3D::for_rank_id(0, p, l);
    let pr = grid0.pr;
    let layers: Vec<CscMatrix<u64>> = (0..l).map(|k| layer_product(&a, &b, pr, l, k)).collect();
    assert!(layers.iter().all(CscMatrix::is_sorted));
    for strategy in [KernelStrategy::Previous, KernelStrategy::New] {
        let sorted = strategy == KernelStrategy::Previous;
        for overlap in [OverlapMode::Blocking, OverlapMode::Overlapped] {
            let mut cfg = RunConfig::new(p, l);
            cfg.backend = BackendKind::Simgrid;
            cfg.kernels = strategy;
            cfg.overlap = overlap;
            cfg.forced_batches = Some(1);
            let out = run_spgemm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
            let op = Op::Fiber;
            let mut moved = 0;
            for (g, breakdown) in out.per_rank.iter().enumerate() {
                let grid = Grid3D::for_rank_id(g, p, l);
                let rows = block_range(a.nrows(), pr, grid.i);
                let cols = block_range(b.ncols(), pr, grid.j);
                // One batch: piece k' is column slice k' of the local columns.
                let piece = block_range(cols.len(), l, grid.k);
                let piece = cols.start + piece.start..cols.start + piece.end;
                let want: usize = (0..l)
                    .filter(|&k| k != grid.k)
                    .map(|k| row_block(&col_block(&layers[k], piece.clone()), rows.clone()))
                    .map(|received| wire_bytes(op, &received, sorted))
                    .sum();
                assert_eq!(
                    breakdown.bytes_of(Step::AllToAllFiber),
                    want as u64,
                    "{} {overlap:?} rank {g}",
                    strategy.name()
                );
                moved += want;
            }
            assert!(moved > 0, "the test needs pieces with entries");
        }
    }
}

/// Under ColA with `c = 2` every rank's A-Shift bytes are the wire size of
/// the column blocks of `A` it received, one per round after the first.
#[test]
fn a_shift_bytes_are_the_wire_size_of_the_blocks_received() {
    let (p, c) = (16, 2);
    let t = p / c;
    let a = er_random::<PlusTimesU64>(300, 200, 3, 4403).map(|_| 3u64);
    assert!(a.is_sorted());
    let b = DenseBlock::from_fn(200, 24, |i, j| ((i + 2 * j) % 7) as u64);
    let mut cfg = RunConfig::new(p, 1);
    cfg.algorithm = AlgorithmFamily::ColA15 { c };
    cfg.backend = BackendKind::Simgrid;
    let out = run_spmm::<PlusTimesU64>(&cfg, &a, &b).unwrap();
    for (g, breakdown) in out.per_rank.iter().enumerate() {
        let want: usize = (0..t - 1)
            .map(|round| {
                let block = cola_block_at(p, c, g, round + 1);
                let received = col_block(&a, block_range(a.ncols(), t, block));
                wire_bytes(Op::Shift { round }, &received, true)
            })
            .sum();
        assert_eq!(breakdown.bytes_of(Step::AShift), want as u64, "rank {g}");
        let msgs = breakdown.msgs[Step::AShift as usize];
        assert_eq!(msgs, (t - 1) as u64, "rank {g}");
    }
}
