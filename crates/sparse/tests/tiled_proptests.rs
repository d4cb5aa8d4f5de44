//! The tiled accumulator is `spmm_acc` with another memory layout.
//!
//! [`TiledStripe::accumulate`] visits the entries of `C` tile by tile and
//! row by row where [`spmm_acc`] visits them column by column, and reads its
//! `B` stripe in place where `spmm_acc` is handed a copy. The contract is
//! that nothing else differs: for every `C(i, j)` the same products are
//! added in the same order (rounds as called, ascending `k` inside a block,
//! `A`'s stored order inside a column), and a `B(k, j)` that `S::is_zero`
//! is skipped per `(k, j)`. So the two must be **array-identical** under
//! `to_bits`, and equal in `flops`, `nnz_out` and the bits of `work_units`,
//! round for round.
//!
//! The operands are chosen so that a reordered or an extra addition shows:
//! values mix `1.0` with `±1e16`, columns of `A` are unsorted and repeat
//! rows (so the stored order inside a column reaches one `C(i, j)` more than
//! once), `B` holds `-0.0` next to `0.0` under plus-times and `+∞` (the
//! zero) under min-plus, where adding a skipped product would still change
//! nothing — its `flops` would. Stripe widths sit on both sides of one and
//! two tiles, the stripe is cut from the middle of a wider `B`, and several
//! rounds with `b_row_offset > 0` land in one accumulator.
//!
//! [`TiledStripe::fold`] of a row range must equal those rows of the sums
//! taken entry by entry in part order, for empty, full, uneven and last-row
//! ranges: a tile's rows are a contiguous run at the tile's own base, and a
//! fold that reads another tile's run or adds the parts in another order
//! shows in the `±1e16` values.

use proptest::prelude::*;
use spgemm_sparse::dense::TILE;
use spgemm_sparse::ops::block_range;
use spgemm_sparse::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::{spmm_acc, CscMatrix, DenseBlock, Semiring, TiledStripe};
use std::ops::Range;

const WIDTHS: [usize; 8] = [0, 1, 7, 8, 9, 16, 17, 33];
const NROWS: [usize; 4] = [0, 1, 2, 257];
const ZERO_PERCENT: [u64; 4] = [0, 50, 95, 100];
/// Inner-dimension block of each round; the second starts at offset 11.
const ROUNDS: [usize; 3] = [11, 1, 6];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bit pattern two equal results must share.
trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for u64 {
    fn bits(self) -> u64 {
        self
    }
}

fn bits<T: Bits>(data: &[T]) -> Vec<u64> {
    data.iter().map(|v| v.bits()).collect()
}

/// Columns in rotation: empty, one entry, full (ascending), and a random
/// unsorted column that may name a row several times.
fn ragged_a<T: Copy>(nrows: usize, ncols: usize, values: &[T], seed: u64) -> CscMatrix<T> {
    let mut s = seed;
    let (mut colptr, mut rowidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    let pick = |s: &mut u64| values[(splitmix(s) % values.len() as u64) as usize];
    for j in 0..ncols {
        let rows: Vec<u32> = match (nrows, j % 4) {
            (0, _) | (_, 0) => Vec::new(),
            (_, 1) => vec![(splitmix(&mut s) % nrows as u64) as u32],
            (_, 2) => (0..nrows as u32).collect(),
            _ => (0..1 + splitmix(&mut s) % 12)
                .map(|_| (splitmix(&mut s) % nrows.min(5) as u64) as u32)
                .collect(),
        };
        for r in rows {
            rowidx.push(r);
            vals.push(pick(&mut s));
        }
        colptr.push(rowidx.len());
    }
    CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap()
}

/// One semiring's check: `ROUNDS` blocks of `A` against a stripe of `width`
/// columns cut from the middle of `B`, through both kernels, then the fold
/// of row ranges of the single-round stripes and their sum against the same
/// sums taken entry by entry.
fn check<S: Semiring>(
    nrows: usize,
    width: usize,
    zero_percent: u64,
    values: &[S::T],
    zeros: &[S::T],
    seed: u64,
) where
    S::T: Bits,
{
    let what = format!("nrows={nrows} width={width} zeros={zero_percent}% seed={seed}");
    let mut s = seed;
    let inner: usize = ROUNDS.iter().sum();
    let (left, right) = (3, 2);
    let b = DenseBlock::from_fn(inner, left + width + right, |_, _| {
        let from = if splitmix(&mut s) % 100 < zero_percent {
            zeros
        } else {
            values
        };
        from[(splitmix(&mut s) % from.len() as u64) as usize]
    });
    let b_cols = left..left + width;
    let stripe_copy = b.col_slice(b_cols.clone());

    let mut reference = DenseBlock::new_fill(nrows, width, S::zero());
    let mut tiled = TiledStripe::new_fill(nrows, width, S::zero());
    let mut singles = Vec::new();
    let mut offset = 0;
    for (round, k) in ROUNDS.into_iter().enumerate() {
        let a = ragged_a(nrows, k, values, seed ^ round as u64);
        let want = spmm_acc::<S>(&a, &stripe_copy, offset, &mut reference).unwrap();
        let got = tiled
            .accumulate::<S>(&a, &b, b_cols.clone(), offset)
            .unwrap();
        assert_eq!(
            (got.flops, got.nnz_out, got.work_units.to_bits()),
            (want.flops, want.nnz_out, want.work_units.to_bits()),
            "{what}: round {round} counters"
        );
        let mut single = TiledStripe::new_fill(nrows, width, S::zero());
        single
            .accumulate::<S>(&a, &b, b_cols.clone(), offset)
            .unwrap();
        singles.push(single);
        offset += k;
    }
    let block = tiled.to_block();
    assert_eq!((block.nrows(), block.ncols()), (nrows, width), "{what}");
    assert_eq!(bits(block.data()), bits(reference.data()), "{what}: C");

    // The fold's parts: the single-round stripes and their sum. The middle
    // round's lone column of `A` is empty, so without the sum every entry
    // would fold at most two nonzero terms, in either order alike.
    let mut parts: Vec<&TiledStripe<S::T>> = singles.iter().collect();
    parts.push(&tiled);
    let blocks: Vec<DenseBlock<S::T>> = parts.iter().map(|part| part.to_block()).collect();
    let entrywise: Vec<S::T> = (0..nrows * width)
        .map(|i| {
            blocks[1..]
                .iter()
                .fold(blocks[0].data()[i], |acc, block| S::add(acc, block.data()[i]))
        })
        .collect();
    for rows in row_ranges(nrows) {
        let folded = TiledStripe::fold::<S>(&parts, rows.clone()).to_block();
        let want: Vec<S::T> = (0..width)
            .flat_map(|j| entrywise[j * nrows..][rows.clone()].iter().copied())
            .collect();
        assert_eq!(
            (folded.nrows(), folded.ncols()),
            (rows.len(), width),
            "{what}: fold of rows {rows:?}"
        );
        assert_eq!(bits(folded.data()), bits(&want), "{what}: fold of rows {rows:?}");
    }
}

/// The row ranges a fold is asked for: empty at the top, middle and bottom,
/// the whole stripe, the last row, and the uneven slices the four members
/// of a replication team keep.
fn row_ranges(nrows: usize) -> Vec<Range<usize>> {
    let mid = nrows / 2;
    let mut ranges = vec![
        0..0,
        mid..mid,
        nrows..nrows,
        0..nrows,
        nrows.saturating_sub(1)..nrows,
    ];
    ranges.extend((0..4).map(|k| block_range(nrows, 4, k)));
    ranges
}

fn check_all_shapes(seed: u64) {
    for nrows in NROWS {
        for width in WIDTHS {
            for zp in ZERO_PERCENT {
                let s = seed ^ (nrows * 1000 + width) as u64;
                // (1e16 + 1.0) - 1e16 != 1.0 + (1e16 - 1e16).
                let reals = [1.0, 0.1, -0.3, 2.5, 1e16, -1e16, 7.0];
                check::<PlusTimesF64>(nrows, width, zp, &reals, &[0.0, -0.0], s);
                // Min-plus: the zero is +∞, and 0.0 is an ordinary value.
                let costs = [0.0, 1.0, 2.5, -3.0, 1e16, 7.0];
                check::<MinPlusF64>(nrows, width, zp, &costs, &[f64::INFINITY], s);
                check::<PlusTimesU64>(nrows, width, zp, &[1, 2, 3, 5, 8], &[0], s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tiled_accumulator_equals_spmm_acc(seed in 0u64..u64::MAX) {
        check_all_shapes(seed);
    }
}

/// A fixed seed, so the suite does not depend on the case generator, and the
/// shapes whose tiles are all remainder or all full.
#[test]
fn tile_boundaries_at_a_fixed_seed() {
    assert!(WIDTHS.contains(&(TILE - 1)) && WIDTHS.contains(&TILE) && WIDTHS.contains(&(TILE + 1)));
    check_all_shapes(20_210_517);
}

#[test]
fn mismatched_shapes_are_rejected() {
    let a = CscMatrix::<u64>::zero(4, 3);
    let b = DenseBlock::new_fill(5, 6, 1u64);
    let mut c = TiledStripe::new_fill(4, 2, 0u64);
    assert!(c.accumulate::<PlusTimesU64>(&a, &b, 1..3, 2).is_ok());
    // Rows of B past its end, columns past its end, a stripe of another
    // width, an accumulator of another height.
    assert!(c.accumulate::<PlusTimesU64>(&a, &b, 1..3, 3).is_err());
    assert!(c.accumulate::<PlusTimesU64>(&a, &b, 5..7, 0).is_err());
    assert!(c.accumulate::<PlusTimesU64>(&a, &b, 1..4, 0).is_err());
    let mut short = TiledStripe::new_fill(3, 2, 0u64);
    assert!(short.accumulate::<PlusTimesU64>(&a, &b, 1..3, 0).is_err());
}
