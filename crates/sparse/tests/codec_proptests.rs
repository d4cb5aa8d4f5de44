//! The fetch wire format loses nothing and costs what it says.
//!
//! [`ColTile`] replaced a copy path that cut the requested columns of `A`
//! into a compact matrix on the owner and scattered it back to full width on
//! the requester. Its contract is that path's result, **bit for bit**: the
//! same shape, column pointers, row order inside every column, value bits
//! (`NaN` payloads and `-0.0` included) and sortedness flag, for sorted and
//! unsorted sources, empty columns, an empty request and `()` patterns.
//! [`padded_oracle`] is that path, inlined.
//!
//! The encoded lengths are what the run charges, so they are checked against
//! an independent sum of varint lengths ([`varint_len`], a threshold table
//! rather than the encoder's shift loop). The u32 edge is exercised directly:
//! rows and columns at `u32::MAX − 1` and `u32::MAX`, gaps of `2²⁸` and more
//! (five-byte varints), and `0` as the first index.
//!
//! A whole block sent as a coded block (a fiber piece, a refresh slice, an
//! A-shift block) is only sized, by [`coded_len`]: it must equal the request
//! of the block's nonempty columns plus their tile, as encoded, and that
//! pair must decode back to the block ([`check_coded`]) — on every shape
//! above and on rows and column gaps at each varint boundary up to `2²¹`.

use proptest::prelude::*;
use spgemm_sparse::ops::extract_cols;
use spgemm_sparse::subset::{coded_len, ColRequest, ColTile};
use spgemm_sparse::CscMatrix;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bit pattern two equal values must share.
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

impl Bits for () {
    fn bits(self) -> u64 {
        0
    }
}

/// Bytes of the LEB128 varint of `x`, by threshold.
fn varint_len(x: u64) -> usize {
    [0x7F, 0x3FFF, 0x1F_FFFF, 0xFFF_FFFF, 0x7_FFFF_FFFF]
        .iter()
        .position(|&max| x <= max)
        .map_or(6, |i| i + 1)
}

/// What the copy path delivered: the listed columns of `m` at their global
/// index, every other column empty, `m`'s sortedness flag.
fn padded_oracle<T: Copy>(m: &CscMatrix<T>, cols: &[u32]) -> CscMatrix<T> {
    let idx: Vec<usize> = cols.iter().map(|&j| j as usize).collect();
    let compact = extract_cols(m, &idx);
    let mut colptr = vec![0usize; m.ncols() + 1];
    for (i, &j) in cols.iter().enumerate() {
        colptr[j as usize + 1] = compact.col_nnz(i);
    }
    for j in 0..m.ncols() {
        colptr[j + 1] += colptr[j];
    }
    let (_, _, _, rowidx, vals, sorted) = compact.into_parts();
    CscMatrix::from_parts_raw(m.nrows(), m.ncols(), colptr, rowidx, vals, sorted)
}

/// Index bytes of `cols` of `m`: per column a count, then rows — gaps from
/// the previous row (from 0 for the first) if `m` is sorted, else in full.
fn expected_index_bytes<T: Copy>(m: &CscMatrix<T>, cols: &[u32]) -> usize {
    cols.iter()
        .map(|&j| {
            let rows = m.col(j as usize).0;
            let mut prev = 0;
            let coded: usize = rows
                .iter()
                .map(|&r| {
                    let x = if m.is_sorted() { r - prev } else { r };
                    prev = r;
                    varint_len(u64::from(x))
                })
                .sum();
            varint_len(rows.len() as u64) + coded
        })
        .sum()
}

/// Request bytes of `cols`: the count, the first column, then `c − prev − 1`.
fn expected_request_bytes(cols: &[u32]) -> usize {
    let gaps = cols.iter().enumerate().map(|(i, &c)| match i {
        0 => u64::from(c),
        _ => u64::from(c) - u64::from(cols[i - 1]) - 1,
    });
    varint_len(cols.len() as u64) + gaps.map(varint_len).sum::<usize>()
}

fn assert_bit_identical<T: Bits>(got: &CscMatrix<T>, want: &CscMatrix<T>, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    assert_eq!(got.colptr(), want.colptr(), "{what}: colptr");
    assert_eq!(got.rowidx(), want.rowidx(), "{what}: rowidx");
    let bits = |m: &CscMatrix<T>| m.vals().iter().map(|v| v.bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
    assert_eq!(got.is_sorted(), want.is_sorted(), "{what}: sortedness flag");
}

/// One round trip of `cols` of `m` against the oracle and the length sum.
fn check<T: Bits + std::fmt::Debug>(m: &CscMatrix<T>, cols: &[u32], what: &str) {
    let tile = ColTile::encode(m, cols);
    let nnz: usize = cols.iter().map(|&j| m.col_nnz(j as usize)).sum();
    assert_eq!(tile.nnz(), nnz, "{what}: nnz");
    assert_eq!(
        tile.index_bytes(),
        expected_index_bytes(m, cols),
        "{what}: index bytes"
    );
    assert_bit_identical(&tile.decode(cols), &padded_oracle(m, cols), what);

    let request = ColRequest::encode(cols);
    assert_eq!(
        request.index_bytes(),
        expected_request_bytes(cols),
        "{what}: request bytes"
    );
    assert_eq!(request.decode(), cols, "{what}: request");
}

/// `m` sized as a coded block: [`coded_len`] is the request of its nonempty
/// columns plus their tile as encoded (and as independently summed), and
/// the pair decodes back to `m` bit for bit.
fn check_coded<T: Bits + std::fmt::Debug>(m: &CscMatrix<T>, what: &str) {
    let nonempty: Vec<u32> = (0..m.ncols())
        .filter(|&j| m.col_nnz(j) > 0)
        .map(|j| j as u32)
        .collect();
    let request = ColRequest::encode(&nonempty);
    let tile = ColTile::encode(m, &nonempty);
    let encoded = request.index_bytes() + tile.index_bytes();
    assert_eq!(
        coded_len(m),
        (encoded, nonempty.len()),
        "{what}: coded length"
    );
    assert_eq!(
        encoded,
        expected_request_bytes(&nonempty) + expected_index_bytes(m, &nonempty),
        "{what}: coded length by varint sum"
    );
    assert_bit_identical(&tile.decode(&request.decode()), m, &format!("{what}: coded"));
}

/// Rows a column may hold: the varint boundaries and the u32 edge, where
/// the shape allows them, else uniform below `nrows`.
fn pick_row(nrows: usize, s: &mut u64) -> u32 {
    const EDGES: [u32; 12] = [
        0,
        1,
        127,
        128,
        0x3FFF,
        0x4000,
        1 << 21,
        (1 << 28) - 1,
        1 << 28,
        (1 << 28) + 1,
        u32::MAX - 2,
        u32::MAX - 1,
    ];
    let edge = EDGES[(splitmix(s) % EDGES.len() as u64) as usize];
    if (edge as usize) < nrows && splitmix(s).is_multiple_of(2) {
        edge
    } else {
        (splitmix(s) % nrows as u64) as u32
    }
}

/// `ncols` columns of `nrows` rows in rotation: empty, one entry, ascending
/// distinct rows, and (unless `sorted`) rows in any order that may repeat.
/// An unsorted matrix always holds one descending pair, so its flag is off.
fn matrix<T: Copy>(
    nrows: usize,
    ncols: usize,
    sorted: bool,
    values: &[T],
    seed: u64,
) -> CscMatrix<T> {
    let mut s = seed;
    let (mut colptr, mut rowidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    for j in 0..ncols {
        let mut rows: Vec<u32> = match (nrows, j % 4) {
            (0, _) | (_, 0) => Vec::new(),
            (_, 1) => vec![pick_row(nrows, &mut s)],
            _ => (0..1 + splitmix(&mut s) % 9)
                .map(|_| pick_row(nrows, &mut s))
                .collect(),
        };
        if sorted || j % 4 == 2 {
            rows.sort_unstable();
            rows.dedup();
        }
        if !sorted && j == 3 && nrows >= 2 {
            rows = vec![1, 0];
        }
        for r in rows {
            rowidx.push(r);
            vals.push(values[(splitmix(&mut s) % values.len() as u64) as usize]);
        }
        colptr.push(rowidx.len());
    }
    let m = CscMatrix::from_parts(nrows, ncols, colptr, rowidx, vals).unwrap();
    assert!(
        sorted == m.is_sorted() || nrows < 2 || ncols < 4,
        "generator missed its sortedness"
    );
    m
}

/// Ascending distinct columns of `0..ncols`, about `percent` of them.
fn subset(ncols: usize, percent: u64, seed: u64) -> Vec<u32> {
    let mut s = seed;
    (0..ncols as u32)
        .filter(|_| splitmix(&mut s) % 100 < percent)
        .collect()
}

const NROWS: [usize; 5] = [0, 1, 2, 300, u32::MAX as usize];
const NCOLS: [usize; 4] = [0, 1, 5, 40];
const PERCENT: [u64; 4] = [0, 30, 70, 100];

fn check_all_shapes(seed: u64) {
    let nan_a = f64::from_bits(0x7FF8_0000_0000_0001);
    let nan_b = f64::from_bits(0xFFF4_0000_DEAD_BEEF);
    let reals = [1.0, -0.0, 0.0, nan_a, nan_b, f64::INFINITY, 1e-300, -2.5];
    for nrows in NROWS {
        for ncols in NCOLS {
            for sorted in [true, false] {
                for percent in PERCENT {
                    let s = seed ^ (nrows as u64 * 7919 + ncols as u64 * 31 + percent);
                    let what = format!(
                        "nrows={nrows} ncols={ncols} sorted={sorted} {percent}% seed={seed}"
                    );
                    let cols = subset(ncols, percent, s);
                    let m = matrix(nrows, ncols, sorted, &reals, s);
                    check(&m, &cols, &format!("{what} f64"));
                    check(&m.pattern(), &cols, &format!("{what} ()"));
                    check_coded(&m, &format!("{what} f64"));
                    check_coded(&m.pattern(), &format!("{what} ()"));
                    let m = matrix(nrows, ncols, sorted, &[0u64, 1, u64::MAX, 1 << 63], s);
                    check(&m, &cols, &format!("{what} u64"));
                    check_coded(&m, &format!("{what} u64"));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn decode_of_encode_is_the_padded_copy(seed in 0u64..u64::MAX) {
        check_all_shapes(seed);
    }

    #[test]
    fn requests_round_trip_at_any_width(seed in 0u64..u64::MAX, len in 0usize..64) {
        // Ascending distinct columns whose gaps `c − prev − 1` sit on the
        // varint length boundaries, up to five bytes; the top two columns of
        // the u32 range close the list half the time.
        const GAPS: [u64; 9] = [0, 1, 126, 127, 128, 0x3FFF, 0x4000, 1 << 28, u32::MAX as u64];
        let mut s = seed;
        let mut cols = Vec::new();
        let mut next = 0u64;
        for _ in 0..len {
            let c = next + GAPS[(splitmix(&mut s) % GAPS.len() as u64) as usize];
            if c >= u64::from(u32::MAX - 1) {
                break;
            }
            cols.push(c as u32);
            next = c + 1;
        }
        if seed.is_multiple_of(2) {
            cols.extend([u32::MAX - 1, u32::MAX]);
        }
        let request = ColRequest::encode(&cols);
        prop_assert_eq!(request.index_bytes(), expected_request_bytes(&cols));
        prop_assert_eq!(request.decode(), cols);
    }
}

/// A fixed seed, so the suite does not depend on the case generator.
#[test]
fn every_shape_at_a_fixed_seed() {
    check_all_shapes(20_210_517);
}

/// The two formats spelled out byte by byte.
#[test]
fn wire_bytes_by_hand() {
    // Count 5, first column 0, then c − prev − 1: 0 (adjacent), 126 and 127
    // (one byte), 128 (two bytes).
    let request = ColRequest::encode(&[0, 1, 128, 256, 385]);
    assert_eq!(request.index_bytes(), 1 + 1 + 1 + 1 + 1 + 2);
    assert_eq!(
        ColRequest::encode(&[]).index_bytes(),
        1,
        "an empty request is its count"
    );

    // Sorted: column 0 = rows {0, 2²⁸} → count 2, row 0, gap 2²⁸ (five
    // bytes); column 1 empty → count 0; column 2 = {u32::MAX − 1} → count
    // 1, five bytes.
    let top = u32::MAX - 1;
    let nrows = u32::MAX as usize;
    let colptr = vec![0, 2, 2, 3];
    let sorted =
        CscMatrix::from_parts(nrows, 3, colptr, vec![0, 1 << 28, top], vec![1.0, 2.0, 3.0])
            .unwrap();
    assert!(sorted.is_sorted());
    let tile = ColTile::encode(&sorted, &[0, 1, 2]);
    assert_eq!(tile.index_bytes(), (1 + 1 + 5) + 1 + (1 + 5));
    let back = tile.decode(&[0, 1, 2]);
    assert_eq!(back.rowidx(), &[0, 1 << 28, top]);

    // Unsorted: rows in full, so a descending pair {u32::MAX − 1, 0} costs
    // 5 + 1 instead of a wrapped gap.
    let unsorted = CscMatrix::from_parts(nrows, 1, vec![0, 2], vec![top, 0], vec![(), ()]).unwrap();
    assert!(!unsorted.is_sorted());
    let tile = ColTile::encode(&unsorted, &[0]);
    assert_eq!(tile.index_bytes(), 1 + 5 + 1);
    assert_eq!(tile.decode(&[0]).rowidx(), &[top, 0]);
}

/// A request naming no column decodes to the owner's shape with nothing in
/// it; a tile of empty columns still delimits each with a zero count.
#[test]
fn nothing_asked_and_nothing_stored() {
    let m = matrix(300, 40, true, &[1.5f64], 7);
    let empty = ColTile::encode(&m, &[]);
    assert_eq!((empty.index_bytes(), empty.nnz()), (0, 0));
    let padded = empty.decode(&[]);
    assert_eq!((padded.nrows(), padded.ncols(), padded.nnz()), (300, 40, 0));

    let zero = CscMatrix::<f64>::zero(300, 40);
    let cols = [0, 17, 39];
    let tile = ColTile::encode(&zero, &cols);
    assert_eq!(tile.index_bytes(), cols.len());
    assert_bit_identical(
        &tile.decode(&cols),
        &padded_oracle(&zero, &cols),
        "all empty",
    );
}

/// Coded blocks whose rows, row gaps and column gaps sit on each side of
/// every varint boundary up to `2²¹`, in hypersparse shapes (a few entries
/// across `2²¹ + 3` columns), sorted and unsorted, beside empty blocks.
#[test]
fn coded_blocks_at_the_varint_boundaries() {
    const EDGES: [u32; 6] = [127, 128, 16_383, 16_384, (1 << 21) - 1, 1 << 21];
    let n = (1 << 21) + 3;
    for sorted in [true, false] {
        for (e, &edge) in EDGES.iter().enumerate() {
            // Column 0 holds row `edge` alone; column `edge + 1` sits a gap
            // of `edge` after it and holds rows 0 and `edge` (a row gap of
            // `edge`), or unsorted `edge` then 0 (rows in full); the last
            // column holds row 1 and the next boundary, in either order.
            let far = n - 1;
            let (second, vals) = if sorted {
                (vec![0, edge], vec![2.0, 3.0])
            } else {
                (vec![edge, 0], vec![3.0, 2.0])
            };
            let mut triples = vec![(edge, 0u32, 1.0)];
            triples.extend(second.iter().zip(vals).map(|(&r, v)| (r, edge + 1, v)));
            triples.push((1, far, 4.0));
            let other = EDGES[(e + 1) % EDGES.len()];
            triples.push((other, far, 5.0));
            if !sorted {
                triples.swap(3, 4);
            }
            let mut colptr = vec![0usize; n as usize + 1];
            for &(_, c, _) in &triples {
                colptr[c as usize + 1] += 1;
            }
            for j in 0..n as usize {
                colptr[j + 1] += colptr[j];
            }
            let rowidx: Vec<u32> = triples.iter().map(|t| t.0).collect();
            let vals: Vec<f64> = triples.iter().map(|t| t.2).collect();
            let m = CscMatrix::from_parts(n as usize, n as usize, colptr, rowidx, vals).unwrap();
            let what = format!("edge {edge}, sorted {sorted}");
            assert_eq!(m.is_sorted(), sorted, "{what}: generator");
            check_coded(&m, &what);
            check_coded(&m.pattern(), &format!("{what} ()"));
        }
    }
    for (nrows, ncols) in [(0, 0), (0, 7), (7, 0), (5, 1 << 21)] {
        let zero = CscMatrix::<f64>::zero(nrows, ncols);
        assert_eq!(coded_len(&zero), (1, 0), "an empty block is its count");
        check_coded(&zero, &format!("empty {nrows}x{ncols}"));
    }
}
