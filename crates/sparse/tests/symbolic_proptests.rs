//! The symbolic sweep's counting regime never changes the answer.
//!
//! `symbolic_col_counts` counts a column either through the hash
//! accumulator (one insert per flop) or, when `A` is dense enough to get a
//! table of column bitsets, as the popcount of the union of the selected
//! columns' bitsets. The contract is that the choice is invisible: the same
//! per-column counts, the same `flops` and `nnz_out`, the same
//! `work_units` bits. `spgemm::force_union` (a test hook) pins either
//! regime for every column, and each comparison runs forced-accumulator,
//! forced-union and the chosen regime on one set of arenas, so a table left
//! behind by a previous sweep of another shape would show. The counts are
//! also held to `spgemm_spa`, which shares no code with either regime.
//!
//! Shapes: block heights on both sides of a bitset word (`nrows` 63, 64,
//! 65), degenerate ones (0 and 1) and the protein block height 848; `B`
//! with empty and single-entry columns; `A` with a full column, empty
//! columns and rows stored out of order; 1, 2 and 4 arenas, the last two
//! building one table per column range.

use proptest::prelude::*;
use spgemm_sparse::semiring::PlusTimesF64;
use spgemm_sparse::spgemm::{force_union, spgemm_spa, symbolic_col_counts};
use spgemm_sparse::{CscMatrix, SpGemmWorkspace, WorkStats};

const NROWS: [usize; 6] = [0, 1, 63, 64, 65, 848];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `nrows × ncols` with each column's rows stored in a shuffled order.
/// Column kinds cycle by `kind(j)`: 0 empty, 1 one entry, 2 full (every
/// row), otherwise each row kept with probability `keep_of_64 / 64`.
fn operand(
    nrows: usize,
    ncols: usize,
    seed: u64,
    kind: impl Fn(usize, &mut u64) -> u64,
) -> CscMatrix<f64> {
    let mut s = seed;
    let (mut colptr, mut rowidx) = (vec![0], Vec::new());
    for j in 0..ncols {
        let mut rows: Vec<u32> = match (kind(j, &mut s), nrows) {
            (_, 0) | (0, _) => Vec::new(),
            (1, _) => vec![(splitmix(&mut s) % nrows as u64) as u32],
            (2, _) => (0..nrows as u32).collect(),
            (keep_of_64, _) => (0..nrows as u32)
                .filter(|_| splitmix(&mut s) % 64 < keep_of_64)
                .collect(),
        };
        // Fisher–Yates: the sweep must not assume sorted columns.
        for i in (1..rows.len()).rev() {
            rows.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
        }
        rowidx.extend(rows);
        colptr.push(rowidx.len());
    }
    let vals = vec![1.0; rowidx.len()];
    CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap()
}

/// Columns of every kind: empty, single, full and random fills from 1/64
/// to 63/64.
fn mixed(j: usize, s: &mut u64) -> u64 {
    match j % 5 {
        k @ 0..=2 => k as u64,
        _ => 3 + splitmix(s) % 61,
    }
}

/// The sweep under `force` on `ws`, the override cleared afterwards.
fn sweep(
    a: &CscMatrix<f64>,
    b: &CscMatrix<f64>,
    ws: &mut [SpGemmWorkspace<u64>],
    force: Option<bool>,
) -> (Vec<u64>, WorkStats) {
    force_union(force);
    let (counts, stats, _) = symbolic_col_counts(a, b, ws).unwrap();
    force_union(None);
    (counts, stats)
}

/// Forced accumulator, forced union and the chosen regime agree with each
/// other at every arena count, and with `spgemm_spa`'s column counts.
fn check(a: &CscMatrix<f64>, b: &CscMatrix<f64>) {
    let (oracle, spa_stats) = spgemm_spa::<PlusTimesF64>(a, b).unwrap();
    let want: Vec<u64> = (0..oracle.ncols())
        .map(|j| oracle.col_nnz(j) as u64)
        .collect();
    let shape = format!("{}x{} · {}x{}", a.nrows(), a.ncols(), b.nrows(), b.ncols());
    for arenas in [1, 2, 4] {
        let mut ws: Vec<SpGemmWorkspace<u64>> =
            (0..arenas).map(|_| SpGemmWorkspace::new()).collect();
        let (counts, base) = sweep(a, b, &mut ws, Some(false));
        assert_eq!(counts, want, "{shape}, {arenas} arenas: accumulator vs SPA");
        assert_eq!(
            (base.flops, base.nnz_out),
            (spa_stats.flops, oracle.nnz() as u64),
            "{shape}, {arenas} arenas: accumulator flops and nnz"
        );
        for force in [Some(true), None, Some(false), Some(true)] {
            let (got, stats) = sweep(a, b, &mut ws, force);
            let what = format!("{shape}, {arenas} arenas, force {force:?}");
            assert_eq!(got, counts, "{what}: counts");
            assert_eq!(
                (stats.flops, stats.nnz_out, stats.work_units.to_bits()),
                (base.flops, base.nnz_out, base.work_units.to_bits()),
                "{what}: flops, nnz_out, work-unit bits"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mixes of empty, single-entry, full and partly filled columns
    /// on both sides, at every block height.
    #[test]
    fn regimes_agree_on_mixed_operands(inner in 1usize..40, ncols in 1usize..24, seed in 0u64..u64::MAX) {
        for nrows in NROWS {
            let a = operand(nrows, inner, seed ^ nrows as u64, mixed);
            let b = operand(inner, ncols, seed.rotate_left(17), mixed);
            check(&a, &b);
        }
    }
}

/// `A` dense enough for the chosen rule to table it (every column holds
/// half the rows, one holds all of them), against a `B` whose columns run
/// from empty through single entries to full.
#[test]
fn regimes_agree_on_a_dense_operand() {
    for nrows in NROWS {
        let inner = 20;
        let a = operand(
            nrows,
            inner,
            11 + nrows as u64,
            |j, _| if j == 7 { 2 } else { 32 },
        );
        let b = operand(inner, 30, 12, mixed);
        check(&a, &b);
        let single = operand(inner, 8, 13, |_, _| 1);
        check(&a, &single);
        check(&a, &CscMatrix::zero(inner, 3));
    }
}

/// The rule picks the union where it should: a dense `A` gets its bitset
/// table (the arena grows by `8·ncols·⌈nrows/64⌉` bytes, far more than the
/// accumulator holds at this height), a hypersparse one never does.
#[test]
fn only_a_dense_operand_is_tabled() {
    let (nrows, inner) = (848usize, 512);
    let table_bytes = (8 * inner * nrows.div_ceil(64)) as u64;
    let b = operand(inner, 16, 21, |_, _| 16);
    let peaks = |a: &CscMatrix<f64>| {
        let mut ws = [SpGemmWorkspace::<u64>::new()];
        let (_, chosen) = sweep(a, &b, &mut ws, None);
        let mut ws = [SpGemmWorkspace::<u64>::new()];
        let (_, accum) = sweep(a, &b, &mut ws, Some(false));
        (chosen.peak_scratch_bytes, accum.peak_scratch_bytes)
    };
    let (chosen, accum) = peaks(&operand(nrows, inner, 22, |_, _| 16));
    assert!(accum < table_bytes, "the accumulator alone holds {accum} B");
    assert!(
        chosen >= table_bytes,
        "dense A: {chosen} B of scratch, no table"
    );
    let (chosen, accum) = peaks(&operand(nrows, inner, 23, |j, _| (j % 2) as u64));
    assert_eq!(chosen, accum, "hypersparse A must not be tabled");
}
