//! Local sparse-matrix substrate for the IPDPS 2021 SpGEMM reproduction.
//!
//! This crate provides everything a *single process* of the distributed
//! algorithm needs:
//!
//! * [`CscMatrix`] — compressed sparse column storage with tracked
//!   column-sortedness (the paper's sort-free kernels deliberately produce
//!   unsorted columns; see Sec. IV-D of the paper).
//! * [`Semiring`] — SpGEMM over arbitrary semirings (Sec. II-A).
//! * [`spgemm`] — local multiplication kernels: the *previous-generation*
//!   heap kernel \[13\] and hybrid sorted-hash kernel \[25\], and this
//!   paper's **unsorted-hash** kernel, plus symbolic (nnz-count) variants.
//! * [`merge`] — k-way merge kernels used by Merge-Layer / Merge-Fiber:
//!   the previous heap merge and this paper's **unsorted-hash merge**.
//! * [`par`] — the column-range dispatch behind every scratch-taking
//!   kernel: flop-balanced output-column ranges, one thread and one
//!   workspace arena per range, bit-identical output for any arena count.
//! * [`ops`] — transpose, column split/concat (block and block-cyclic),
//!   pruning, elementwise operations.
//! * [`gen`] — deterministic generators standing in for the paper's test
//!   matrices (Erdős–Rényi, R-MAT, clustered protein-similarity,
//!   reads×k-mers incidence).
//! * [`io`] — Matrix Market I/O.
//!
//! All kernels report [`WorkStats`] (flops, output nnz, abstract work units)
//! that the `spgemm-simgrid` cost model converts into modeled time.
//!
//! Structural invariants of every format are enforced in debug builds at
//! kernel boundaries through [`validate`] (see the [`debug_validate!`]
//! macro and the [`validate::Sortedness`] contract tag).

#![forbid(unsafe_code)]

pub(crate) mod csc;
pub mod dense;
pub mod gen;
pub mod io;
pub mod merge;
pub mod ops;
pub mod par;
pub mod semiring;
pub mod spgemm;
pub mod subset;
pub(crate) mod triples;
pub mod validate;

pub use csc::CscMatrix;
pub use dense::{spmm_acc, DenseBlock, TiledStripe};
pub use semiring::{BoolOrAnd, MaxMinF64, MinPlusF64, PlusTimesF64, PlusTimesU64, Semiring};
pub use spgemm::{SpGemmWorkspace, WorkStats};
pub use triples::Triples;
pub use validate::{Defect, Sortedness, Validate};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Matrix dimensions incompatible for the requested operation.
    DimensionMismatch {
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// Structural invariant violated (e.g. colptr not monotone).
    InvalidStructure(String),
    /// I/O or parse failure in Matrix Market handling.
    Io(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, SparseError>;

/// The inner-dimension check of every `a · b` kernel: `b` must have
/// `a_ncols` rows. `b_shape` is `(b.nrows(), b.ncols())`.
pub(crate) fn check_mul_dims(a_ncols: usize, b_shape: (usize, usize)) -> Result<()> {
    if a_ncols != b_shape.0 {
        return Err(SparseError::DimensionMismatch {
            expected: (a_ncols, b_shape.1),
            found: b_shape,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_dimension_mismatch_names_the_shape_b_should_have() {
        // 5x7 · 3x9: B needs 7 rows and keeps its own 9 columns.
        let a = CscMatrix::<f64>::zero(5, 7);
        let b = CscMatrix::<f64>::zero(3, 9);
        let err = spgemm::spgemm_spa::<PlusTimesF64>(&a, &b).unwrap_err();
        assert_eq!(err.to_string(), "dimension mismatch: expected 7x9, found 3x9");
        assert!(check_mul_dims(7, (7, 9)).is_ok());
    }
}
