//! K-way merge kernels for Merge-Layer and Merge-Fiber.
//!
//! Merging means adding entries with equal `(row, col)` across a collection
//! of same-shaped matrices (the per-stage partial products in Merge-Layer,
//! the per-layer pieces in Merge-Fiber).
//!
//! * [`heap_merge::merge_heap`] — the previous-generation kernel \[13, 30\]:
//!   k-way merge of sorted columns via a binary heap; requires sorted
//!   inputs, produces sorted output.
//! * [`hash_merge::merge_hash_unsorted`] — **this paper's** sort-free merge:
//!   hash accumulation per column; unsorted inputs and output. An order of
//!   magnitude faster in the paper's measurements (Table VII).
//! * [`hash_merge::merge_hash_sorted`] — same, plus a final per-column sort;
//!   used for the very last Merge-Fiber so the final output is sorted
//!   (Sec. IV-D keeps only this output sorted).

pub(crate) mod hash_merge;
pub(crate) mod heap_merge;

pub use hash_merge::{merge_hash_sorted, merge_hash_unsorted};
pub use heap_merge::merge_heap;

use crate::csc::CscMatrix;
use crate::{Result, SparseError};

/// Validate that all inputs share one shape; returns that shape.
pub(crate) fn common_shape<T: Copy>(parts: &[CscMatrix<T>]) -> Result<(usize, usize)> {
    let first = parts
        .first()
        .ok_or_else(|| SparseError::InvalidStructure("merge of zero matrices".into()))?;
    let shape = (first.nrows(), first.ncols());
    for p in parts.iter().skip(1) {
        if (p.nrows(), p.ncols()) != shape {
            return Err(SparseError::DimensionMismatch {
                expected: shape,
                found: (p.nrows(), p.ncols()),
            });
        }
    }
    Ok(shape)
}
