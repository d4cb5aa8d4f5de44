//! Applications on top of memory-constrained distributed SpGEMM.
//!
//! These are the workloads the paper motivates and evaluates (Secs. I, V):
//!
//! * [`mcl`] — HipMCL-style Markov clustering: iterated matrix squaring
//!   with **per-batch** column pruning, the flagship memory-constrained
//!   application (Fig. 3). Each batch of `A²` is inflated, normalized and
//!   pruned *inside* the batched multiply, so the full expanded matrix is
//!   never resident.
//! * [`triangles`] — triangle counting via `L·L` masked by `L`
//!   (Azad-Buluç-Gilbert style), the paper's `A·A` social-network use case.
//! * [`overlap`] — BELLA/PASTIS-style candidate overlap detection:
//!   `A·Aᵀ` on a reads × k-mers matrix counts shared k-mers per read pair.
//! * [`jaccard`] — Jaccard similarity of adjacency sets through `A·Aᵀ`
//!   plus degree vectors (Besta et al., cited in the paper's intro).
//! * [`coarsen`] — heavy-connectivity matching for multilevel hypergraph
//!   coarsening (the Zoltan use case): batched `A·Aᵀ` reduced to matching
//!   candidates inside the multiply, every batch discarded.
//!
//! * [`bfs`] — level-synchronous multi-source BFS over the `(∨, ∧)`
//!   semiring: the GraphBLAS formulation running on the distributed stack,
//!   demonstrating the paper's semiring generality (Sec. II-A).
//!
//! [`components`] provides the union-find used to extract clusters.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod coarsen;
pub mod components;
pub mod jaccard;
pub mod mcl;
pub mod overlap;
pub mod triangles;

pub use bfs::{bfs_levels, BfsConfig};
pub use coarsen::{heavy_connectivity_matching, CoarsenConfig};
pub use jaccard::{jaccard_similarities, JaccardConfig};
pub use mcl::{markov_cluster, MclParams, MclResult};
pub use overlap::{find_overlaps, OverlapConfig};
pub use triangles::{count_triangles, count_triangles_serial, TriangleConfig};
