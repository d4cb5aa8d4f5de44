//! Reusable per-column accumulator: one table, two ways of addressing it.
//!
//! The core data structure behind the paper's sort-free kernels: a table
//! keyed by row index, reused across output columns (the "workhorse
//! collection" pattern — clearing touches only occupied slots, so a
//! hyper-sparse column doesn't pay for the table's full capacity).
//!
//! [`HashAccum::reset`] is told the column's bound on distinct keys
//! (`expected`: its flop count, or the entries merged into it) and the
//! block's `nrows`, and picks the addressing for that column:
//!
//! * **hashed** — open addressing with linear probing at load ≤ 0.5, for
//!   columns that can touch only a small part of the block's rows (the
//!   hypersparse blocks of the communication-bound runs);
//! * **direct** — slot = row index, no hash and no probe, when
//!   `2·expected ≥ nrows` (high-compression columns: the
//!   protein-similarity squarings of the paper's headline runs). This is
//!   SPA-style accumulation *without* SPA's memory objection: the hashed
//!   table for such a column would have `2·min(expected, nrows) ≥ nrows`
//!   slots anyway, so the same two arrays are simply indexed by row.
//!
//! Both regimes record keys in first-touch order and combine values in feed
//! order, so what is drained — row order and value bits — does not depend
//! on the regime (nor on the table's capacity).

use crate::semiring::Semiring;

const EMPTY: u32 = u32::MAX;

/// A column is addressed directly when `DIRECT_DEN · expected ≥ nrows`.
///
/// Measured through `spgemm_hash_unsorted` on `clustered_similarity` blocks
/// of 424, 16 384 and 131 072 rows (`tests::crossover`; the table is in
/// DESIGN.md §3, "The accumulator under the Sec. IV-D kernels"). While the
/// table fits in cache, direct addressing is not slower per flop at any
/// column density (4–18 % faster), so there the rule only has to bound
/// memory. On the 131 072-row block hashing is 6–7 % ahead for bounds up to
/// ≈ `nrows / 8` (its table is the smaller working set) and direct
/// addressing is 19–24 % ahead from `nrows / 2` on. 2 puts the switch at the
/// upper end of that interval — which is also the point from which the
/// direct regime asks for no more slots than the hashed table would
/// (`2·min(expected, nrows) ≥ nrows`).
const DIRECT_DEN: usize = 2;

#[cfg(test)]
thread_local! {
    /// Overrides the regime rule on this thread: tests force either regime
    /// on one feed, and the crossover measurement times both.
    static FORCE_DIRECT: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Per-column accumulator mapping row index → value (see the module docs
/// for the two addressing regimes).
///
/// Capacity is always a power of two: at least 2× the column's bound on
/// distinct keys when hashed (load factor ≤ 0.5), at least `nrows` when
/// addressed directly.
pub(crate) struct HashAccum<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
    /// Slots currently occupied, in insertion order (drain + reset list).
    occupied: Vec<u32>,
    /// Sort scratch of [`Self::drain_into_sorted`]: `(key << 32) | slot`
    /// per occupied slot of a hashed column.
    packed: Vec<u64>,
    mask: usize,
    /// `Some(nrows)` while the current column is addressed directly.
    direct: Option<usize>,
    /// Linear-probe steps past the home slot since construction
    /// (collisions only: a key found or placed at its home slot costs none).
    probes: u64,
    /// Heap allocations performed by table and sort-scratch growth since
    /// construction.
    grows: u64,
    fill: T,
}

impl<T> std::fmt::Debug for HashAccum<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashAccum")
            .field("capacity", &self.keys.len())
            .field("occupied", &self.occupied.len())
            .field("direct", &self.direct.is_some())
            .finish_non_exhaustive()
    }
}

impl<T: Copy> HashAccum<T> {
    /// New accumulator. `fill` initializes value slots (any value works; the
    /// `keys` sentinel is authoritative). Typically `S::zero()`.
    pub(crate) fn new(fill: T) -> Self {
        HashAccum {
            keys: Vec::new(),
            vals: Vec::new(),
            occupied: Vec::new(),
            packed: Vec::new(),
            mask: 0,
            direct: None,
            probes: 0,
            grows: 0,
            fill,
        }
    }

    /// Prepare for a column of a block with `nrows` rows that receives at
    /// most `expected` entries (a flop or input-entry count, so it may far
    /// exceed `nrows`; distinct keys are bounded by both). Picks the
    /// column's addressing, grows the table if needed and clears previous
    /// occupancy. Every key fed until the next reset must be `< nrows`.
    pub(crate) fn reset(&mut self, expected: usize, nrows: usize) {
        let direct = expected.saturating_mul(DIRECT_DEN) >= nrows;
        #[cfg(test)]
        let direct = FORCE_DIRECT.get().unwrap_or(direct);
        // Row indices are `u32` with `u32::MAX` reserved, so `nrows` caps
        // the distinct keys whatever the flop count says — and keeps slot
        // numbers within `u32`: hashed columns have `expected < nrows / 2`.
        let slots = if direct {
            nrows
        } else {
            expected.min(nrows) * 2
        };
        let want = slots.max(2).next_power_of_two();
        debug_assert!(want - 1 <= EMPTY as usize, "slot numbers must fit u32");
        if want > self.keys.len() {
            self.keys = vec![EMPTY; want];
            self.vals = vec![self.fill; want];
            self.mask = want - 1;
            // Two fresh buffers (keys + vals); capacity only ever grows.
            self.grows += 2;
        } else {
            for &slot in &self.occupied {
                self.keys[slot as usize] = EMPTY;
            }
        }
        self.occupied.clear();
        self.direct = direct.then_some(nrows);
    }

    /// Number of distinct keys currently stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.occupied.len()
    }

    /// Heap allocations performed by growth so far (two buffers per growth
    /// of the table, one per growth of the sorted drain's scratch; never
    /// decreases — capacity only grows).
    pub(crate) fn grows(&self) -> u64 {
        self.grows
    }

    /// Bytes currently held by the table, its occupancy list and the sorted
    /// drain's scratch.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<T>()
            + self.occupied.capacity() * std::mem::size_of::<u32>()
            + self.packed.capacity() * std::mem::size_of::<u64>()
    }

    /// `table[rows[i]] ⊕= map(vals[i])` under semiring `S`, for a whole input
    /// column in order (`map` scales it in a multiply and is the identity in
    /// a merge). The regime is branched on once per call, not per entry.
    #[inline]
    pub(crate) fn accumulate_col<S: Semiring<T = T>>(
        &mut self,
        rows: &[u32],
        vals: &[T],
        map: impl Fn(T) -> T,
    ) {
        self.feed(rows.iter().zip(vals).map(|(&key, &v)| (key, map(v))), S::add);
    }

    /// Insert keys for symbolic (structure-only) counting.
    #[inline]
    pub(crate) fn insert_keys(&mut self, keys: &[u32]) {
        let fill = self.fill;
        self.feed(keys.iter().map(|&key| (key, fill)), |seen, _| seen);
    }

    /// The one inner loop per regime: store a key's first value, `add` later
    /// ones onto it in feed order, list keys in first-touch order.
    #[inline]
    fn feed(&mut self, entries: impl Iterator<Item = (u32, T)>, add: impl Fn(T, T) -> T) {
        if let Some(nrows) = self.direct {
            // Slices of exactly `nrows` slots, borrowed into locals: one
            // bounds check per entry, no hash, no probe.
            let keys = &mut self.keys[..nrows];
            let vals = &mut self.vals[..nrows];
            for (key, val) in entries {
                let slot = key as usize;
                if keys[slot] == EMPTY {
                    keys[slot] = key;
                    vals[slot] = val;
                    self.occupied.push(key);
                } else {
                    vals[slot] = add(vals[slot], val);
                }
            }
            return;
        }
        let mask = self.mask;
        let keys = &mut self.keys[..=mask];
        let vals = &mut self.vals[..=mask];
        for (key, val) in entries {
            debug_assert_ne!(key, EMPTY, "row index u32::MAX is reserved");
            // Fibonacci hashing: good spread for clustered row indices.
            let mut slot = (key.wrapping_mul(0x9E37_79B1) as usize) & mask;
            loop {
                let k = keys[slot];
                if k == key {
                    vals[slot] = add(vals[slot], val);
                    break;
                }
                if k == EMPTY {
                    keys[slot] = key;
                    vals[slot] = val;
                    self.occupied.push(slot as u32);
                    break;
                }
                slot = (slot + 1) & mask;
                self.probes += 1;
            }
        }
    }

    /// Append stored `(key, value)` pairs to the output vectors in
    /// *insertion* order (unsorted — the whole point of the sort-free
    /// kernels), then leave the table ready for reuse via [`Self::reset`].
    pub(crate) fn drain_into(&mut self, rows: &mut Vec<u32>, vals: &mut Vec<T>) {
        for &slot in &self.occupied {
            rows.push(self.keys[slot as usize]);
            vals.push(self.vals[slot as usize]);
        }
    }

    /// Append stored `(key, value)` pairs sorted ascending by key.
    ///
    /// A directly addressed column is already in key order in the table:
    /// one scan of its `nrows` slots (no more than twice the entries fed).
    /// A hashed column packs each occupied slot with its key into one word
    /// of a reused scratch and sorts the words — keys are distinct, so the
    /// order is the key order, found without a table lookup per comparison.
    pub(crate) fn drain_into_sorted(&mut self, rows: &mut Vec<u32>, vals: &mut Vec<T>) {
        if let Some(nrows) = self.direct {
            for (&key, &val) in self.keys[..nrows].iter().zip(&self.vals[..nrows]) {
                if key != EMPTY {
                    rows.push(key);
                    vals.push(val);
                }
            }
            return;
        }
        if self.packed.capacity() < self.occupied.len() {
            self.packed = Vec::with_capacity(self.occupied.len().next_power_of_two());
            self.grows += 1;
        }
        self.packed.clear();
        let keys = &self.keys;
        let pack = |&slot: &u32| (u64::from(keys[slot as usize]) << 32) | u64::from(slot);
        self.packed.extend(self.occupied.iter().map(pack));
        self.packed.sort_unstable();
        for &word in &self.packed {
            rows.push((word >> 32) as u32);
            vals.push(self.vals[word as u32 as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlusF64, PlusTimesF64, PlusTimesU64};

    /// Rows of a block every test column fits in, hashed: `2·8 < NROWS`.
    const NROWS: usize = 1 << 20;

    /// One pair through the column feed.
    fn add<S: Semiring>(acc: &mut HashAccum<S::T>, key: u32, val: S::T) {
        acc.accumulate_col::<S>(&[key], &[val], |v| v);
    }

    /// `reset` with the regime dictated instead of chosen.
    fn reset_as<T: Copy>(acc: &mut HashAccum<T>, expected: usize, nrows: usize, direct: bool) {
        FORCE_DIRECT.set(Some(direct));
        acc.reset(expected, nrows);
        FORCE_DIRECT.set(None);
    }

    #[test]
    fn accumulate_combines_duplicates() {
        let mut acc = HashAccum::new(0.0);
        acc.reset(4, NROWS);
        add::<PlusTimesF64>(&mut acc, 7, 1.0);
        add::<PlusTimesF64>(&mut acc, 7, 2.0);
        add::<PlusTimesF64>(&mut acc, 3, 5.0);
        assert_eq!(acc.len(), 2);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into_sorted(&mut r, &mut v);
        assert_eq!(r, vec![3, 7]);
        assert_eq!(v, vec![5.0, 3.0]);
    }

    #[test]
    fn reset_clears_only_occupied() {
        let mut acc = HashAccum::new(0u64);
        acc.reset(8, NROWS);
        for k in 0..8 {
            add::<PlusTimesU64>(&mut acc, k, 1);
        }
        acc.reset(8, NROWS);
        assert_eq!(acc.len(), 0);
        add::<PlusTimesU64>(&mut acc, 3, 9);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into(&mut r, &mut v);
        assert_eq!(r, vec![3]);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn grows_when_expected_exceeds_capacity() {
        let mut acc = HashAccum::new(0u64);
        acc.reset(2, NROWS);
        acc.reset(1000, NROWS);
        acc.insert_keys(&(0..1000).collect::<Vec<u32>>());
        assert_eq!(acc.len(), 1000);
    }

    #[test]
    fn collision_heavy_keys_all_stored() {
        // Keys that collide under the multiplier still resolve by probing,
        // and only those extra steps are counted.
        let mut acc = HashAccum::new(0u64);
        acc.reset(64, NROWS);
        add::<PlusTimesU64>(&mut acc, 5, 1);
        add::<PlusTimesU64>(&mut acc, 5, 1);
        assert_eq!(acc.probes, 0, "a key at its home slot costs no probe step");
        for i in 0..64u32 {
            add::<PlusTimesU64>(&mut acc, i * 128, 1);
        }
        assert_eq!(acc.len(), 65);
        assert!(acc.probes > 0, "128 slots, keys 128 apart: these collide");
    }

    #[test]
    fn growth_and_footprint_are_tracked() {
        let mut acc = HashAccum::new(0u64);
        assert_eq!(acc.grows(), 0);
        acc.reset(4, NROWS);
        assert_eq!(acc.grows(), 2, "first reset allocates keys + vals");
        acc.reset(4, NROWS);
        assert_eq!(acc.grows(), 2, "reuse at same size must not allocate");
        acc.reset(1000, NROWS);
        assert_eq!(acc.grows(), 4, "growing past capacity reallocates");
        // 1000 keys → 2048-slot table: keys and vals are 8 bytes per slot.
        assert!(acc.footprint_bytes() >= 2048 * (4 + 8));
    }

    #[test]
    fn table_is_sized_by_rows_not_by_flops() {
        // A flop count is no bound on distinct keys: the paper-scale
        // `expected` used to overflow the u32 slot numbers and ask for
        // terabytes. Ten rows never need more than a 32-slot-class table,
        // in either regime.
        for direct in [true, false] {
            let mut acc = HashAccum::new(0u64);
            reset_as(&mut acc, usize::MAX / 4, 10, direct);
            assert!(
                acc.keys.len() <= 32,
                "direct={direct}: {} slots",
                acc.keys.len()
            );
            for k in (0..10).rev() {
                add::<PlusTimesU64>(&mut acc, k, 1);
            }
            assert_eq!(acc.len(), 10);
        }
        let mut acc = HashAccum::new(0u64);
        acc.reset(usize::MAX / 4, 10);
        assert!(acc.direct.is_some() && acc.keys.len() <= 32);
    }

    #[test]
    fn regime_follows_the_bound_and_never_outgrows_the_hashed_table() {
        let mut acc = HashAccum::new(0u64);
        for nrows in [1usize, 2, 255, 256, 257, 1000] {
            for expected in 1..=nrows + 3 {
                acc.reset(expected, nrows);
                assert_eq!(acc.direct.is_some(), DIRECT_DEN * expected >= nrows);
            }
            // At the threshold the direct slots fit in what hashing asks for.
            let at = nrows.div_ceil(DIRECT_DEN);
            let mut hashed = HashAccum::new(0u64);
            reset_as(&mut hashed, at, nrows, false);
            let mut direct = HashAccum::new(0u64);
            reset_as(&mut direct, at, nrows, true);
            assert!(direct.keys.len() <= hashed.keys.len(), "nrows {nrows}");
        }
    }

    /// Feed `cols` to one accumulator, each column in the given regime, and
    /// return what the drains emit.
    fn drained<S: Semiring<T = f64>>(
        acc: &mut HashAccum<f64>,
        nrows: usize,
        cols: &[Vec<(u32, f64)>],
        direct: impl Fn(usize) -> bool,
        sorted: bool,
    ) -> Vec<(Vec<u32>, Vec<u64>)> {
        cols.iter()
            .enumerate()
            .map(|(j, col)| {
                reset_as(acc, col.len(), nrows, direct(j));
                // Two feeds per column: the regime must survive a call.
                let (front, back) = col.split_at(col.len() / 2);
                for half in [front, back] {
                    let (rows, vals): (Vec<u32>, Vec<f64>) = half.iter().copied().unzip();
                    acc.accumulate_col::<S>(&rows, &vals, |v| v);
                }
                let (mut r, mut v) = (Vec::new(), Vec::new());
                if sorted {
                    acc.drain_into_sorted(&mut r, &mut v);
                } else {
                    acc.drain_into(&mut r, &mut v);
                }
                (r, v.into_iter().map(f64::to_bits).collect())
            })
            .collect()
    }

    #[test]
    fn both_regimes_drain_the_same_arrays() {
        // Row order and value bits must not depend on the addressing, also
        // when one table alternates regimes column by column and is reused
        // under another semiring (stale values in a slot must never show).
        let nrows = 257;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let cols: Vec<Vec<(u32, f64)>> = (0..40)
            .map(|j| {
                let len = [0, 1, 5, 64, 129, 600][j % 6];
                (0..len)
                    .map(|_| {
                        (
                            (next() % nrows as u64) as u32,
                            (next() % 1000) as f64 / 7.0 - 60.0,
                        )
                    })
                    .collect()
            })
            .collect();
        for sorted in [false, true] {
            let mut table = HashAccum::new(0.0);
            let hashed = drained::<PlusTimesF64>(&mut table, nrows, &cols, |_| false, sorted);
            let mut acc = HashAccum::new(0.0);
            let direct = drained::<PlusTimesF64>(&mut acc, nrows, &cols, |_| true, sorted);
            assert_eq!(direct, hashed, "sorted={sorted}: direct vs hashed");
            let mixed = drained::<PlusTimesF64>(&mut acc, nrows, &cols, |j| j % 3 != 0, sorted);
            assert_eq!(
                mixed, hashed,
                "sorted={sorted}: alternating regimes on a used table"
            );
            // Same tables, now (min, +): every slot still holds a sum.
            let min_hashed = drained::<MinPlusF64>(&mut table, nrows, &cols, |_| false, sorted);
            let min_mixed = drained::<MinPlusF64>(&mut acc, nrows, &cols, |j| j % 2 == 0, sorted);
            assert_eq!(
                min_mixed, min_hashed,
                "sorted={sorted}: after a semiring change"
            );
            assert_ne!(min_hashed, hashed);
        }
    }

    /// The measurement behind [`DIRECT_DEN`]: ns per flop of accumulate +
    /// unsorted drain over the output columns of one SUMMA stage's local
    /// multiply `A₀₀·A₀₀`, every column forced into one regime. `A₀₀` is
    /// the leading `n × n` block of a permuted two-cluster
    /// `clustered_similarity(2, n, intra_per_col, 1)` — the blocks a 2 × 2
    /// grid sees of the `protein-sq-compute` matrix at `n` = 424,
    /// `intra_per_col` = 352.
    /// `cargo test -p spgemm-sparse --release --lib crossover -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check"]
    fn crossover() {
        use crate::gen::clustered_similarity;
        use crate::ops::{col_block, permute_symmetric, random_permutation, row_block};
        use std::time::Instant;
        let time = |a: &crate::CscMatrix<f64>, ncols: usize, direct: bool| {
            FORCE_DIRECT.set(Some(direct));
            let b = col_block(a, 0..ncols);
            let mut ws = [crate::SpGemmWorkspace::new()];
            let mut best = f64::INFINITY;
            let mut flops = 0;
            for _ in 0..5 {
                let start = Instant::now();
                let (c, stats, _) =
                    crate::spgemm::spgemm_hash_unsorted::<PlusTimesF64>(a, &b, &mut ws).unwrap();
                best = best.min(start.elapsed().as_secs_f64());
                flops = stats.flops as usize;
                std::hint::black_box(c);
            }
            FORCE_DIRECT.set(None);
            (best * 1e9 / flops as f64, flops / ncols)
        };
        println!("     n intra  ub/col  ub/n  hashed direct  (ns/flop, best of 5)");
        for (n, intras) in [
            (424usize, &[2usize, 4, 8, 12, 16, 24, 32, 64, 352][..]),
            (16_384, &[8, 16, 32, 64, 90, 128, 180, 256, 512][..]),
            (131_072, &[32, 64, 128, 256, 362, 512, 724][..]),
        ] {
            for &intra in intras {
                let m = clustered_similarity(2, n, intra, 1, 7);
                let m = permute_symmetric(&m, &random_permutation(2 * n, 7));
                let a = row_block(&col_block(&m, 0..n), 0..n);
                let ncols = (100_000_000 / (intra * intra)).clamp(16, n.min(2048));
                let (hashed, ub) = time(&a, ncols, false);
                let (direct, _) = time(&a, ncols, true);
                println!(
                    "{n:6} {intra:5} {ub:7} {:5.2} {hashed:7.2} {direct:6.2}",
                    ub as f64 / n as f64
                );
            }
        }
    }

    #[test]
    fn sorted_drain_after_reuse_stays_sorted() {
        // A sorted drain must not corrupt later resets or drains on the
        // same table, and its scratch is allocated once.
        let mut acc = HashAccum::new(0u64);
        for round in 0..3u64 {
            acc.reset(5, NROWS);
            for k in [9u32, 2, 14, 2, 5] {
                add::<PlusTimesU64>(&mut acc, k, round + 1);
            }
            let (mut r, mut v) = (Vec::new(), Vec::new());
            acc.drain_into_sorted(&mut r, &mut v);
            assert_eq!(r, vec![2, 5, 9, 14], "round {round}");
            assert_eq!(v, vec![2 * (round + 1), round + 1, round + 1, round + 1]);
            assert_eq!(acc.grows(), 3, "keys, vals and the sort scratch, once");
        }
    }

    #[test]
    fn insertion_order_drain_is_unsorted_but_complete() {
        for nrows in [10, NROWS] {
            let mut acc = HashAccum::new(0.0);
            acc.reset(4, nrows);
            add::<PlusTimesF64>(&mut acc, 9, 1.0);
            add::<PlusTimesF64>(&mut acc, 2, 2.0);
            add::<PlusTimesF64>(&mut acc, 5, 3.0);
            let (mut r, mut v) = (Vec::new(), Vec::new());
            acc.drain_into(&mut r, &mut v);
            assert_eq!(r, vec![9, 2, 5]); // insertion order
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
    }
}
