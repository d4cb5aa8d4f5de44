//! The fetch wire format is sized exactly and the fetch moves the operand
//! bit for bit.
//!
//! The run encodes no message. The owner cuts the requested columns of `A`
//! into a compact matrix and the requester places them at their global
//! columns ([`pad_cols`]): [`moved`] is that path. Each message is only
//! sized, by [`request_len`], [`tile_len`] and [`coded_len`]. This file
//! holds the reference varint codec those lengths stand for
//! ([`ColRequest`], [`ColTile`]): what a real implementation would put on
//! the wire, and what the host measurement behind `C_CODEC` times
//! ([`codec_cost`]).
//!
//! The host operand's contract is the copy path's result, **bit for bit**:
//! the same shape, column pointers, row order inside every column, value
//! bits (`NaN` payloads and `-0.0` included) and sortedness flag, for
//! sorted and unsorted sources, empty columns, an empty request and `()`
//! patterns. [`padded_oracle`] is that path, inlined; the reference codec's
//! round trip must deliver it too.
//!
//! Every length is checked three ways: the sizer, the reference encoder's
//! output, and an independent sum of varint lengths ([`varint_len`], a
//! threshold table rather than a shift loop). The u32 edge is exercised
//! directly: rows and columns at `u32::MAX − 1` and `u32::MAX`, gaps of
//! `2²⁸` and more (five-byte varints), and `0` as the first index.
//!
//! A whole block sent as a coded block (a fiber piece, a refresh slice, an
//! A-shift block) is sized by [`coded_len`]: it must equal the request of
//! the block's nonempty columns plus their tile, and that pair must decode
//! back to the block ([`check_coded`]) — on every shape above and on rows
//! and column gaps at each varint boundary up to `2²¹`.

use proptest::prelude::*;
use spgemm_sparse::ops::extract_cols;
use spgemm_sparse::subset::{coded_len, pad_cols, request_len, tile_len};
use spgemm_sparse::CscMatrix;

/// Append `x` as an LEB128 varint: seven bits per byte, low group first,
/// the high bit set on every byte but the last. The one- and two-byte forms
/// (every gap of a hypersparse column) take no data-dependent branch: both
/// bytes are written and the second is dropped again when it is not needed.
#[inline]
fn put_varint(out: &mut Vec<u8>, x: u64) {
    if x < 1 << 14 {
        let two = u8::from(x >= 0x80);
        out.extend_from_slice(&[(x as u8 & 0x7F) | (two << 7), (x >> 7) as u8]);
        out.truncate(out.len() - 1 + usize::from(two));
        return;
    }
    let mut x = x;
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// The varint at `bytes[*pos..]`, advancing `pos` past it; branch-free for
/// the one- and two-byte forms like [`put_varint`].
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let b0 = u64::from(bytes[*pos]);
    let b1 = u64::from(bytes.get(*pos + 1).copied().unwrap_or(0));
    if b0 & b1 & 0x80 == 0 {
        let two = b0 >> 7;
        *pos += 1 + two as usize;
        return (b0 & 0x7F) | ((b1 << 7) & 0u64.wrapping_sub(two));
    }
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        x |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return x;
        }
        shift += 7;
    }
}

/// The needed-column set of a fetch request, encoded: the column count,
/// then the first column, then `c − prev − 1` for each later column, every
/// number a varint.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColRequest(Vec<u8>);

impl ColRequest {
    /// Encode `cols` (ascending, distinct).
    fn encode(cols: &[u32]) -> Self {
        let mut out = Vec::with_capacity(cols.len() + 1);
        put_varint(&mut out, cols.len() as u64);
        // `next` is one past the previous column, so the first gap is the
        // column itself.
        let mut next = 0u64;
        for &c in cols {
            put_varint(&mut out, u64::from(c) - next);
            next = u64::from(c) + 1;
        }
        ColRequest(out)
    }

    /// The columns, ascending.
    fn decode(&self) -> Vec<u32> {
        let mut pos = 0;
        let k = get_varint(&self.0, &mut pos) as usize;
        let mut next = 0u64;
        let cols = (0..k)
            .map(|_| {
                let c = next + get_varint(&self.0, &mut pos);
                next = c + 1;
                c as u32
            })
            .collect();
        assert_eq!(pos, self.0.len(), "trailing bytes in a column request");
        cols
    }

    /// Encoded length in bytes.
    fn index_bytes(&self) -> usize {
        self.0.len()
    }
}

/// A column subset of a matrix, encoded as a fetch reply: per requested
/// column in request order, a varint count and then the column's rows (the
/// first row in full and then `row − prev` when the source is sorted, every
/// row in full when it is not), beside the columns' values in the same
/// order. The source's shape and sortedness ride along as metadata.
#[derive(Debug, Clone, PartialEq)]
struct ColTile<T> {
    nrows: usize,
    ncols: usize,
    sorted: bool,
    index: Vec<u8>,
    vals: Vec<T>,
}

impl<T: Copy> ColTile<T> {
    /// Encode the listed columns of `m` (ascending, distinct), keeping each
    /// column's entry order.
    fn encode(m: &CscMatrix<T>, cols: &[u32]) -> Self {
        let nnz: usize = cols.iter().map(|&j| m.col_nnz(j as usize)).sum();
        let mut index = Vec::with_capacity(2 * (nnz + cols.len()));
        let mut vals = Vec::with_capacity(nnz);
        let sorted = m.is_sorted();
        for &j in cols {
            let (rows, vs) = m.col(j as usize);
            put_varint(&mut index, rows.len() as u64);
            if sorted {
                let mut prev = 0;
                for &r in rows {
                    put_varint(&mut index, u64::from(r - prev));
                    prev = r;
                }
            } else {
                for &r in rows {
                    put_varint(&mut index, u64::from(r));
                }
            }
            vals.extend_from_slice(vs);
        }
        ColTile {
            nrows: m.nrows(),
            ncols: m.ncols(),
            sorted,
            index,
            vals,
        }
    }

    /// The full-width operand: column `i` of the tile at global column
    /// `cols[i]`, where `cols` is the list the tile was encoded from. The
    /// value section moves into the result.
    fn decode(self, cols: &[u32]) -> CscMatrix<T> {
        let mut colptr = vec![0; self.ncols + 1];
        let mut rowidx = vec![0u32; self.vals.len()];
        let (mut pos, mut nnz) = (0, 0);
        for &j in cols {
            let count = get_varint(&self.index, &mut pos) as usize;
            colptr[j as usize + 1] = count;
            let rows = &mut rowidx[nnz..nnz + count];
            if self.sorted {
                let mut prev = 0;
                for row in rows {
                    prev += get_varint(&self.index, &mut pos) as u32;
                    *row = prev;
                }
            } else {
                for row in rows {
                    *row = get_varint(&self.index, &mut pos) as u32;
                }
            }
            nnz += count;
        }
        // Counts to offsets; the unlisted columns stay empty.
        let mut offset = 0;
        for ptr in &mut colptr {
            offset += *ptr;
            *ptr = offset;
        }
        assert_eq!(pos, self.index.len(), "trailing bytes in a reply tile");
        CscMatrix::from_parts_unchecked(
            self.nrows,
            self.ncols,
            colptr,
            rowidx,
            self.vals,
            self.sorted,
        )
    }

    /// Length of the index section in bytes.
    fn index_bytes(&self) -> usize {
        self.index.len()
    }

    /// Entries the tile carries.
    fn nnz(&self) -> usize {
        self.vals.len()
    }
}

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
    let (_, _, _, rowidx, vals, _) = compact.into_parts();
    CscMatrix::from_parts_raw(m.nrows(), m.ncols(), colptr, rowidx, vals, m.is_sorted())
}

/// What the run delivers for `cols` of `m`: the owner's compact cut of
/// those columns, padded to full width on the requester.
fn moved<T: Copy>(m: &CscMatrix<T>, cols: &[u32]) -> CscMatrix<T> {
    let idx: Vec<usize> = cols.iter().map(|&j| j as usize).collect();
    pad_cols(extract_cols(m, &idx), cols, m.ncols())
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

/// The fetch of `cols` of `m`: the host path delivers the copy path's
/// operand, and so does the reference codec's round trip; the reply and
/// request sizers equal the reference encoder's lengths and the varint sums.
fn check<T: Bits + std::fmt::Debug>(m: &CscMatrix<T>, cols: &[u32], what: &str) {
    let oracle = padded_oracle(m, cols);
    assert_bit_identical(&moved(m, cols), &oracle, what);

    let encoded = ColTile::encode(m, cols);
    let nnz: usize = cols.iter().map(|&j| m.col_nnz(j as usize)).sum();
    assert_eq!(encoded.nnz(), nnz, "{what}: encoded nnz");
    let index_bytes = tile_len(m, cols);
    assert_eq!(index_bytes, encoded.index_bytes(), "{what}: tile length");
    assert_eq!(
        index_bytes,
        expected_index_bytes(m, cols),
        "{what}: tile length by varint sum"
    );
    let reference = format!("{what}: reference codec");
    assert_bit_identical(&encoded.decode(cols), &oracle, &reference);

    let request = ColRequest::encode(cols);
    assert_eq!(request_len(cols), request.index_bytes(), "{what}: request length");
    assert_eq!(
        request_len(cols),
        expected_request_bytes(cols),
        "{what}: request length by varint sum"
    );
    assert_eq!(request.decode(), cols, "{what}: request");
}

/// `m` sized as a coded block: [`coded_len`] is the request of its nonempty
/// columns plus their tile — as sized, as encoded and as independently
/// summed — and the encoded pair decodes back to `m` bit for bit.
fn check_coded<T: Bits + std::fmt::Debug>(m: &CscMatrix<T>, what: &str) {
    let nonempty: Vec<u32> = (0..m.ncols())
        .filter(|&j| m.col_nnz(j) > 0)
        .map(|j| j as u32)
        .collect();
    let request = ColRequest::encode(&nonempty);
    let tile = ColTile::encode(m, &nonempty);
    let encoded = request.index_bytes() + tile.index_bytes();
    let sized = [request_len(&nonempty), tile_len(m, &nonempty)];
    assert_eq!(sized, [request.index_bytes(), tile.index_bytes()], "{what}: as encoded");
    assert_eq!(coded_len(m), (encoded, nonempty.len()), "{what}: coded length");
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
    fn fetch_delivers_the_padded_copy_at_the_sized_length(seed in 0u64..u64::MAX) {
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
        prop_assert_eq!(request_len(&cols), request.index_bytes());
        prop_assert_eq!(request.index_bytes(), expected_request_bytes(&cols));
        prop_assert_eq!(request.decode(), cols);
    }
}

/// A fixed seed, so the suite does not depend on the case generator.
#[test]
fn every_shape_at_a_fixed_seed() {
    check_all_shapes(20_210_517);
}

/// The two formats spelled out byte by byte, sized and encoded.
#[test]
fn wire_bytes_by_hand() {
    // Count 5, first column 0, then c − prev − 1: 0 (adjacent), 126 and 127
    // (one byte), 128 (two bytes).
    let cols = [0, 1, 128, 256, 385];
    assert_eq!(request_len(&cols), 1 + 1 + 1 + 1 + 1 + 2);
    assert_eq!(ColRequest::encode(&cols).index_bytes(), request_len(&cols));
    assert_eq!(request_len(&[]), 1, "an empty request is its count");
    assert_eq!(ColRequest::encode(&[]).index_bytes(), 1);

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
    assert_eq!(tile_len(&sorted, &[0, 1, 2]), (1 + 1 + 5) + 1 + (1 + 5));
    let tile = ColTile::encode(&sorted, &[0, 1, 2]);
    assert_eq!(tile.index_bytes(), (1 + 1 + 5) + 1 + (1 + 5));
    let back = tile.decode(&[0, 1, 2]);
    assert_eq!(back.rowidx(), &[0, 1 << 28, top]);
    let got = moved(&sorted, &[0, 2]);
    assert_eq!((got.colptr(), got.rowidx()), (&[0, 2, 2, 3][..], &[0, 1 << 28, top][..]));

    // Unsorted: rows in full, so a descending pair {u32::MAX − 1, 0} costs
    // 5 + 1 instead of a wrapped gap.
    let unsorted = CscMatrix::from_parts(nrows, 1, vec![0, 2], vec![top, 0], vec![(), ()]).unwrap();
    assert!(!unsorted.is_sorted());
    assert_eq!(tile_len(&unsorted, &[0]), 1 + 5 + 1);
    let tile = ColTile::encode(&unsorted, &[0]);
    assert_eq!(tile.index_bytes(), 1 + 5 + 1);
    assert_eq!(tile.decode(&[0]).rowidx(), &[top, 0]);
    let got = moved(&unsorted, &[0]);
    assert_eq!((got.rowidx(), got.is_sorted()), (&[top, 0][..], false));
}

/// A request naming no column pads to the owner's shape with nothing in
/// it; a tile of empty columns still delimits each with a zero count.
#[test]
fn nothing_asked_and_nothing_stored() {
    let m = matrix(300, 40, true, &[1.5f64], 7);
    assert_eq!(tile_len(&m, &[]), 0);
    let empty = ColTile::encode(&m, &[]);
    assert_eq!((empty.index_bytes(), empty.nnz()), (0, 0));
    for padded in [empty.decode(&[]), moved(&m, &[])] {
        assert_eq!((padded.nrows(), padded.ncols(), padded.nnz()), (300, 40, 0));
    }

    let zero = CscMatrix::<f64>::zero(300, 40);
    let cols = [0, 17, 39];
    assert_eq!(tile_len(&zero, &cols), cols.len());
    let tile = ColTile::encode(&zero, &cols);
    assert_eq!(tile.index_bytes(), cols.len());
    let oracle = padded_oracle(&zero, &cols);
    assert_bit_identical(&tile.decode(&cols), &oracle, "all empty, encoded");
    assert_bit_identical(&moved(&zero, &cols), &oracle, "all empty");
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

/// The host measurement behind `spgemm::C_CODEC`: nanoseconds per coded
/// integer per side of the reference codec, beside the hash kernel's
/// nanoseconds per flop on the products the tiles feed, for one rank of
/// the reads × k-mers `A·Aᵀ` of 8000 reads at `p = 16, l = 4` in nine
/// batches. Best of 15 sweeps each. Run with `cargo test -p spgemm-sparse
/// --release --test codec_proptests codec_cost -- --ignored --nocapture`.
#[test]
#[ignore = "host timing: prints the measurement behind C_CODEC"]
fn codec_cost() {
    use spgemm_sparse::gen::{er_random, kmer_matrix};
    use spgemm_sparse::ops::{
        block_range, col_block, col_concat, permute_rows, random_permutation, row_block,
        transpose,
    };
    use spgemm_sparse::semiring::{PlusTimesF64, PlusTimesU64};
    use spgemm_sparse::spgemm::{spgemm_hash_unsorted, SpGemmWorkspace};
    use spgemm_sparse::subset::{needed_rows, SubsetWorkspace};
    use std::time::Instant;

    let nreads = 8000;
    let windows = kmer_matrix(nreads, nreads * 6, 6, 1);
    let repeats = er_random::<PlusTimesU64>(nreads, nreads * 4, 6, 2).map(|_| 1u64);
    let both = col_concat(&[windows, repeats]).unwrap();
    let a = permute_rows(&both, &random_permutation(nreads, 3)).map(|v| v as f64);
    // Rank (0, 0, 0): A-style piece of `A`, B-style piece of `Aᵀ`.
    let a_piece = row_block(&col_block(&a, 0..a.ncols() / 8), 0..nreads / 2);
    let b_piece = row_block(&col_block(&transpose(&a), 0..nreads / 2), 0..a.ncols() / 8);
    let batches: Vec<CscMatrix<f64>> = (0..9)
        .map(|t| col_block(&b_piece, block_range(b_piece.ncols(), 9, t)))
        .collect();
    let needed: Vec<Vec<u32>> = batches
        .iter()
        .map(|b| needed_rows(b, &mut SubsetWorkspace::new()))
        .collect();

    let mut ws = [SpGemmWorkspace::<f64>::new()];
    let (mut encode, mut decode, mut multiply) = (f64::MAX, f64::MAX, f64::MAX);
    let (mut coded, mut flops) = (0, 0);
    for _ in 0..15 {
        let t = Instant::now();
        let tiles: Vec<ColTile<f64>> = needed
            .iter()
            .map(|cols| ColTile::encode(&a_piece, cols))
            .collect();
        encode = encode.min(t.elapsed().as_secs_f64());
        coded = needed
            .iter()
            .zip(&tiles)
            .map(|(c, t)| c.len() + t.nnz())
            .sum::<usize>();
        let t = Instant::now();
        let fetched: Vec<CscMatrix<f64>> = tiles
            .into_iter()
            .zip(&needed)
            .map(|(t, c)| t.decode(c))
            .collect();
        decode = decode.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        flops = 0;
        for (a_fetched, b) in fetched.iter().zip(&batches) {
            let (_, stats, _) = spgemm_hash_unsorted::<PlusTimesF64>(a_fetched, b, &mut ws).unwrap();
            flops += stats.flops;
        }
        multiply = multiply.min(t.elapsed().as_secs_f64());
    }
    let per_int = |secs: f64| secs * 1e9 / coded as f64;
    let codec = per_int((encode + decode) / 2.0);
    let kernel = multiply * 1e9 / flops as f64;
    println!(
        "{coded} coded integers, {flops} flops: encode {:.2} ns, decode {:.2} ns, \
         mean {codec:.2} ns per integer per side; hash kernel {kernel:.2} ns/flop; \
         ratio {:.3}",
        per_int(encode),
        per_int(decode),
        codec / kernel
    );
}
