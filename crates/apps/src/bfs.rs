//! Level-synchronous breadth-first search via semiring SpGEMM.
//!
//! A demonstration of the paper's Sec. II-A point that the algorithms run
//! over arbitrary semirings: BFS is iterated multiplication of the
//! adjacency matrix with a frontier "matrix" over `(∨, ∧)`.
//! The frontier is an `n × s` boolean matrix (one column per concurrent
//! source), so a multi-source BFS is a single batched SpGEMM per level —
//! the GraphBLAS formulation, running here on the distributed stack.

use spgemm_core::{run_spgemm, CoreError, RunConfig};
use spgemm_sparse::semiring::BoolOrAnd;
use spgemm_sparse::{CscMatrix, Triples};

/// Configuration for distributed BFS.
#[derive(Debug, Clone, Copy)]
pub struct BfsConfig {
    /// The distributed-run configuration used for each level's SpGEMM.
    pub run: RunConfig,
    /// Level cap (defaults to `n` via [`BfsConfig::new`]'s caller passing 0).
    pub max_levels: usize,
}

impl BfsConfig {
    /// BFS on a `p`-rank, `l`-layer grid.
    pub fn new(p: usize, layers: usize) -> Self {
        BfsConfig {
            run: RunConfig::new(p, layers),
            max_levels: usize::MAX,
        }
    }
}

/// Multi-source BFS levels: `levels[s][v]` is the hop distance from
/// `sources[s]` to `v`, or `None` if unreachable.
pub fn bfs_levels(
    adj: &CscMatrix<bool>,
    sources: &[u32],
    cfg: &BfsConfig,
) -> Result<Vec<Vec<Option<u32>>>, CoreError> {
    let n = adj.nrows();
    if adj.ncols() != n {
        return Err(CoreError::Config("BFS needs a square adjacency matrix".into()));
    }
    // Entry (r, c) encodes edge c -> r, so `A · frontier` reaches the
    // out-neighbours of the frontier (GraphBLAS convention).
    let s = sources.len();

    let mut levels: Vec<Vec<Option<u32>>> = vec![vec![None; n]; s];
    let mut frontier = {
        let mut t = Triples::new(n, s);
        for (c, &src) in sources.iter().enumerate() {
            t.push(src, c as u32, true);
            levels[c][src as usize] = Some(0);
        }
        t.to_csc()
    };

    let mut level = 0u32;
    while frontier.nnz() > 0 && (level as usize) < cfg.max_levels {
        level += 1;
        let out = run_spgemm::<BoolOrAnd>(&cfg.run, adj, &frontier)?;
        let reached = out.c.expect("BFS keeps the product");
        // Next frontier: newly discovered vertices only.
        let mut t = Triples::new(n, s);
        for (v, c, _) in reached.iter() {
            if levels[c][v as usize].is_none() {
                levels[c][v as usize] = Some(level);
                t.push(v, c as u32, true);
            }
        }
        frontier = t.to_csc();
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::BoolOrAnd as B;

    /// Serial reference BFS: the oracle of the distributed run.
    fn bfs_serial(adj: &CscMatrix<bool>, source: u32) -> Vec<Option<u32>> {
        let n = adj.nrows();
        // Entry (r, c) is edge c -> r, matching the distributed formulation.
        let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (r, c, _) in adj.iter() {
            nbrs[c].push(r);
        }
        let mut level = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        level[source as usize] = Some(0u32);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let next = level[u as usize].unwrap() + 1;
            for &v in &nbrs[u as usize] {
                if level[v as usize].is_none() {
                    level[v as usize] = Some(next);
                    queue.push_back(v);
                }
            }
        }
        level
    }

    fn path_graph(n: usize) -> CscMatrix<bool> {
        // Edge i -> i+1 stored as entry (i+1, i).
        let mut t = Triples::new(n, n);
        for i in 0..n - 1 {
            t.push((i + 1) as u32, i as u32, true);
        }
        t.to_csc()
    }

    #[test]
    fn path_graph_levels_are_distances() {
        let adj = path_graph(10);
        let levels = bfs_levels(&adj, &[0], &BfsConfig::new(4, 1)).unwrap();
        for (v, &lvl) in levels[0].iter().enumerate() {
            assert_eq!(lvl, Some(v as u32));
        }
    }

    #[test]
    fn matches_serial_on_random_graph() {
        let adj = er_random::<B>(60, 60, 3, 401);
        let expected = bfs_serial(&adj, 7);
        for (p, l) in [(1usize, 1usize), (4, 4), (16, 4)] {
            let levels = bfs_levels(&adj, &[7], &BfsConfig::new(p, l)).unwrap();
            assert_eq!(levels[0], expected, "p={p} l={l}");
        }
    }

    #[test]
    fn multi_source_equals_independent_searches() {
        let adj = er_random::<B>(50, 50, 3, 402);
        let sources = [3u32, 25, 49];
        let multi = bfs_levels(&adj, &sources, &BfsConfig::new(4, 4)).unwrap();
        for (c, &s) in sources.iter().enumerate() {
            assert_eq!(multi[c], bfs_serial(&adj, s), "source {s}");
        }
    }

    #[test]
    fn unreachable_vertices_stay_none() {
        // Two components: 0-1-2 and 3-4.
        let mut t = Triples::new(5, 5);
        t.push(1, 0, true);
        t.push(2, 1, true);
        t.push(4, 3, true);
        let adj = t.to_csc();
        let levels = bfs_levels(&adj, &[0], &BfsConfig::new(4, 1)).unwrap();
        assert_eq!(levels[0][2], Some(2));
        assert_eq!(levels[0][3], None);
        assert_eq!(levels[0][4], None);
    }

    #[test]
    fn level_cap_truncates() {
        let adj = path_graph(10);
        let mut cfg = BfsConfig::new(4, 1);
        cfg.max_levels = 3;
        let levels = bfs_levels(&adj, &[0], &cfg).unwrap();
        assert_eq!(levels[0][3], Some(3));
        assert_eq!(levels[0][4], None, "beyond the level cap");
    }
}
