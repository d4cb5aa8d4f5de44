//! 2D and 3D process grids (Sec. III of the paper).
//!
//! A 3D grid organizes `p` ranks as `√(p/l) × √(p/l) × l`. Rank `g` maps to
//! layer `k = g / (p/l)`, then row `i` and column `j` within the layer.
//! The grid exposes the four communicators the algorithms need:
//!
//! * **row** — `P(i, :, k)`: A-Broadcast travels here.
//! * **col** — `P(:, j, k)`: B-Broadcast travels here.
//! * **fiber** — `P(i, j, :)`: AllToAll-Fiber travels here.
//! * **layer** — `P(:, :, k)`: layer-local reductions (symbolic step).

use crate::comm::{Comm, Rank};

const COLOR_ROW: u64 = 1;
const COLOR_COL: u64 = 2;
const COLOR_FIBER: u64 = 3;
const COLOR_LAYER: u64 = 4;

/// Side length `√(p/l)` if `(p, l)` forms a valid square-per-layer grid.
pub fn layer_side(p: usize, l: usize) -> Option<usize> {
    if l == 0 || !p.is_multiple_of(l) {
        return None;
    }
    let per_layer = p / l;
    let side = (per_layer as f64).sqrt().round() as usize;
    (side * side == per_layer).then_some(side)
}

/// Valid layer counts for `p` ranks (those giving square layers), ascending.
pub fn valid_layer_counts(p: usize) -> Vec<usize> {
    (1..=p).filter(|&l| layer_side(p, l).is_some()).collect()
}

/// A 3D process grid view from one rank.
#[derive(Clone, Debug)]
pub struct Grid3D {
    /// Number of layers `l`.
    pub l: usize,
    /// Per-layer grid side `√(p/l)`.
    pub pr: usize,
    /// This rank's row within its layer.
    pub i: usize,
    /// This rank's column within its layer.
    pub j: usize,
    /// This rank's layer.
    pub k: usize,
    /// Process row `P(i, :, k)`.
    pub row: Comm,
    /// Process column `P(:, j, k)`.
    pub col: Comm,
    /// Fiber `P(i, j, :)`.
    pub fiber: Comm,
    /// Whole layer `P(:, :, k)`.
    pub layer: Comm,
    /// All ranks.
    pub world: Comm,
}

impl Grid3D {
    /// Build the grid view for `rank` with `l` layers. Panics if `(p, l)`
    /// does not form square layers — call [`layer_side`] to validate first.
    pub fn new(rank: &Rank, l: usize) -> Grid3D {
        Grid3D::for_rank_id(rank.rank(), rank.world_size(), l)
    }

    /// Build the grid view for global rank `g` of a `p`-rank world, with no
    /// live runtime. `Grid3D::new` delegates here; the schedule auditor
    /// calls it directly so the symbolic executor sees the exact same
    /// member lists and communicator ids a real run would.
    pub fn for_rank_id(g: usize, p: usize, l: usize) -> Grid3D {
        let pr = layer_side(p, l)
            .unwrap_or_else(|| panic!("invalid 3D grid: p={p}, l={l} (layers must be square)"));
        let per_layer = pr * pr;
        let k = g / per_layer;
        let r2 = g % per_layer;
        let i = r2 / pr;
        let j = r2 % pr;
        let base = k * per_layer;

        let row_members: Vec<usize> = (0..pr).map(|jj| base + i * pr + jj).collect();
        let col_members: Vec<usize> = (0..pr).map(|ii| base + ii * pr + j).collect();
        let fiber_members: Vec<usize> = (0..l).map(|kk| kk * per_layer + i * pr + j).collect();
        let layer_members: Vec<usize> = (0..per_layer).map(|r| base + r).collect();

        Grid3D {
            l,
            pr,
            i,
            j,
            k,
            row: Comm::for_rank(row_members, COLOR_ROW, g),
            col: Comm::for_rank(col_members, COLOR_COL, g),
            fiber: Comm::for_rank(fiber_members, COLOR_FIBER, g),
            layer: Comm::for_rank(layer_members, COLOR_LAYER, g),
            world: Comm::for_rank((0..p).collect(), 0, g),
        }
    }

    /// Total rank count.
    pub fn p(&self) -> usize {
        self.world.size()
    }

    /// Global rank of grid position `(i, j, k)`.
    pub fn rank_of(&self, i: usize, j: usize, k: usize) -> usize {
        k * self.pr * self.pr + i * self.pr + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Machine;
    use crate::runtime::run_ranks;

    #[test]
    fn layer_side_validates() {
        assert_eq!(layer_side(16, 1), Some(4));
        assert_eq!(layer_side(16, 4), Some(2));
        assert_eq!(layer_side(16, 16), Some(1));
        assert_eq!(layer_side(16, 2), None); // 8 not square
        assert_eq!(layer_side(12, 3), Some(2));
        assert_eq!(layer_side(10, 0), None);
        assert_eq!(layer_side(10, 3), None);
    }

    #[test]
    fn valid_layer_counts_for_64() {
        assert_eq!(valid_layer_counts(64), vec![1, 4, 16, 64]);
    }

    #[test]
    fn coordinates_partition_correctly() {
        let coords = run_ranks(16, Machine::knl(), |rank| {
            let g = Grid3D::new(rank, 4);
            assert_eq!(g.pr, 2);
            assert_eq!(g.rank_of(g.i, g.j, g.k), rank.rank());
            (g.i, g.j, g.k)
        });
        // All coordinates distinct.
        let mut set: Vec<_> = coords;
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn communicator_sizes() {
        run_ranks(16, Machine::knl(), |rank| {
            let g = Grid3D::new(rank, 4);
            assert_eq!(g.row.size(), 2);
            assert_eq!(g.col.size(), 2);
            assert_eq!(g.fiber.size(), 4);
            assert_eq!(g.layer.size(), 4);
            assert_eq!(g.world.size(), 16);
        });
    }

    #[test]
    fn row_comm_members_share_row_and_layer() {
        run_ranks(36, Machine::knl(), |rank| {
            let g = Grid3D::new(rank, 4); // 3x3x4
            for (idx, &m) in g.row.members().iter().enumerate() {
                let per_layer = g.pr * g.pr;
                assert_eq!(m / per_layer, g.k, "same layer");
                assert_eq!((m % per_layer) / g.pr, g.i, "same row");
                assert_eq!((m % per_layer) % g.pr, idx, "indexed by column");
            }
        });
    }

    #[test]
    fn fiber_members_span_layers() {
        run_ranks(8, Machine::knl(), |rank| {
            let g = Grid3D::new(rank, 2);
            assert_eq!(g.fiber.size(), 2);
            for (kk, &m) in g.fiber.members().iter().enumerate() {
                assert_eq!(m / (g.pr * g.pr), kk);
            }
        });
    }

    #[test]
    fn one_layer_grid_is_the_2d_grid() {
        run_ranks(9, Machine::knl(), |rank| {
            let g = Grid3D::new(rank, 1);
            assert_eq!(g.pr, 3);
            assert_eq!(g.row.size(), 3);
            assert_eq!(g.col.size(), 3);
        });
    }

    #[test]
    #[should_panic(expected = "invalid 3D grid")]
    fn invalid_grid_panics() {
        run_ranks(8, Machine::knl(), |rank| {
            Grid3D::new(rank, 4); // 2 per layer: not square
        });
    }
}
