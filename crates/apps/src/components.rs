//! Union-find and connected components over sparse patterns.
//!
//! Used to extract clusters from a converged Markov-clustering matrix:
//! nodes joined by any surviving (above-threshold) entry belong to the
//! same cluster.

use spgemm_sparse::CscMatrix;

/// Disjoint-set forest with union by rank and path halving.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were disjoint.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        true
    }

    /// Dense labeling: `labels[i]` is a cluster id in `0..k`, consistent
    /// across members.
    pub(crate) fn labels(&mut self) -> Vec<usize> {
        let n = self.parent.len();
        let mut map = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut out = vec![0usize; n];
        for i in 0..n as u32 {
            let root = self.find(i) as usize;
            if map[root] == usize::MAX {
                map[root] = next;
                next += 1;
            }
            out[i as usize] = map[root];
        }
        out
    }
}

/// Connected components of the (symmetrized) nonzero pattern of `m`,
/// keeping only entries with `|value| > threshold`. Returns per-node
/// cluster labels.
pub(crate) fn components_from_pattern(m: &CscMatrix<f64>, threshold: f64) -> Vec<usize> {
    assert_eq!(m.nrows(), m.ncols(), "components need a square matrix");
    let mut uf = UnionFind::new(m.nrows());
    for (r, c, v) in m.iter() {
        if v.abs() > threshold && r as usize != c {
            uf.union(r, c as u32);
        }
    }
    uf.labels()
}

/// Number of distinct labels.
pub fn num_clusters(labels: &[usize]) -> usize {
    let mut seen = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// True when two labelings induce the same partition (up to renaming).
pub fn same_partition(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b.iter()) {
        if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::Triples;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(3));
        let labels = uf.labels();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
        assert_eq!(num_clusters(&labels), 3);
    }

    #[test]
    fn components_respect_threshold() {
        // 0-1 strong, 1-2 weak: threshold cuts the weak edge.
        let mut t = Triples::new(3, 3);
        t.push(0, 1, 0.9);
        t.push(1, 0, 0.9);
        t.push(1, 2, 1e-9);
        let m = t.to_csc();
        let labels = components_from_pattern(&m, 1e-6);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn same_partition_up_to_renaming() {
        assert!(same_partition(&[0, 0, 1, 1], &[5, 5, 2, 2]));
        assert!(!same_partition(&[0, 0, 1, 1], &[0, 1, 1, 1]));
        assert!(!same_partition(&[0, 0], &[0, 0, 0]));
        // Refinement in either direction is rejected.
        assert!(!same_partition(&[0, 0, 1, 1], &[0, 0, 0, 0]));
    }

    #[test]
    fn long_chains_collapse() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(num_clusters(&uf.labels()), 1);
    }
}
