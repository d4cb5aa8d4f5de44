//! Structural invariant validators for the sparse formats.
//!
//! The paper's sort-free kernels (Sec. IV-D) make "sorted columns" a
//! *per-value contract* rather than a global invariant: Local-Multiply and
//! Merge-Layer outputs under the new pipeline are deliberately unsorted,
//! while everything under the previous generation — and the final
//! Merge-Fiber output under both — must stay strictly sorted. A validator
//! therefore needs to be told which contract applies; [`Sortedness`] is
//! that tag.
//!
//! [`Validate`] is implemented for [`CscMatrix`] and [`Triples`]. Each check reports a precise [`Defect`] naming the column,
//! position and offending index instead of a bare assert, so a corrupted
//! matrix at a kernel boundary produces an actionable diagnostic.
//!
//! The [`debug_validate!`](crate::debug_validate) macro wires these checks into kernel boundaries
//! and SUMMA stage seams: it is a no-op in release builds and panics with
//! the rich diagnostic (prefixed by a caller-supplied matrix name) in debug
//! builds.

use crate::csc::CscMatrix;
use crate::triples::Triples;

/// Which column-order contract a matrix is expected to satisfy.
///
/// `Unsorted` is *not* "anything goes": bounds, colptr monotonicity,
/// duplicate-freedom and flag integrity still apply — only the ascending
/// row order within columns is waived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sortedness {
    /// Every column's row indices must be strictly ascending and the
    /// matrix's `sorted` flag (where the format tracks one) must say so.
    Sorted,
    /// Columns may list rows in any order (the Sec. IV-D sort-free kernel
    /// contract). Duplicate rows within a column are still defects.
    Unsorted,
}

/// A precise structural defect, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// `colptr` has the wrong number of entries.
    ColptrLength { len: usize, expected: usize },
    /// `colptr[0]` is not zero.
    ColptrStart { first: usize },
    /// `colptr` decreases between two adjacent columns.
    ColptrNotMonotone { col: usize, prev: usize, next: usize },
    /// Final `colptr` entry and index/value array lengths disagree.
    NnzInconsistent {
        colptr_last: usize,
        rowidx_len: usize,
        vals_len: usize,
    },
    /// A row index at `pos` (global entry position) is `>= nrows`.
    RowOutOfBounds {
        col: usize,
        pos: usize,
        row: u32,
        nrows: usize,
    },
    /// The same row appears twice within one column.
    DuplicateRow { col: usize, row: u32 },
    /// Under [`Sortedness::Sorted`], adjacent rows in a column are not
    /// strictly ascending.
    UnsortedColumn {
        col: usize,
        pos: usize,
        prev: u32,
        next: u32,
    },
    /// The matrix's `sorted` flag disagrees with its data or with the
    /// expected contract (`claimed` is what the flag says).
    SortedFlagWrong { claimed: bool },
    /// Triples: a column index is `>= ncols`.
    ColOutOfBounds { pos: usize, col: u32, ncols: usize },
}

impl std::fmt::Display for Defect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Defect::ColptrLength { len, expected } => {
                write!(f, "colptr has {len} entries, expected {expected}")
            }
            Defect::ColptrStart { first } => write!(f, "colptr[0] = {first}, expected 0"),
            Defect::ColptrNotMonotone { col, prev, next } => write!(
                f,
                "colptr not monotone at column {col}: colptr[{col}] = {prev} > colptr[{}] = {next}",
                col + 1
            ),
            Defect::NnzInconsistent {
                colptr_last,
                rowidx_len,
                vals_len,
            } => write!(
                f,
                "nnz inconsistent: colptr ends at {colptr_last}, rowidx has {rowidx_len} entries, \
                 vals has {vals_len}"
            ),
            Defect::RowOutOfBounds {
                col,
                pos,
                row,
                nrows,
            } => write!(
                f,
                "row index out of bounds in column {col}: entry {pos} has row {row} \
                 (matrix has {nrows} rows)"
            ),
            Defect::DuplicateRow { col, row } => {
                write!(f, "duplicate row {row} in column {col}")
            }
            Defect::UnsortedColumn {
                col,
                pos,
                prev,
                next,
            } => write!(
                f,
                "column {col} violates the sorted contract: entry {pos} has row {next} \
                 after row {prev}"
            ),
            Defect::SortedFlagWrong { claimed } => {
                if claimed {
                    write!(f, "matrix claims sorted columns but its data is unsorted")
                } else {
                    write!(f, "sorted contract expected but the matrix is flagged unsorted")
                }
            }
            Defect::ColOutOfBounds { pos, col, ncols } => write!(
                f,
                "column index out of bounds: triple {pos} has column {col} \
                 (matrix has {ncols} columns)"
            ),
        }
    }
}

/// A failed validation: the defect plus the matrix's shape context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Rows of the offending matrix.
    pub nrows: usize,
    /// Columns of the offending matrix.
    pub ncols: usize,
    /// Stored entries of the offending matrix.
    pub nnz: usize,
    /// What exactly is wrong.
    pub defect: Defect,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}x{}, nnz={})",
            self.defect, self.nrows, self.ncols, self.nnz
        )
    }
}

impl std::error::Error for ValidationError {}

/// Structural self-check against an expected [`Sortedness`] contract.
pub trait Validate {
    /// Verify every structural invariant, reporting the first defect found
    /// with its location. `expected` selects the column-order contract;
    /// formats without column order (triples) ignore it.
    fn validate(&self, expected: Sortedness) -> Result<(), ValidationError>;
}

/// Validate `m` in debug builds, panicking with a rich diagnostic naming
/// the matrix. Compiles to nothing in release builds.
///
/// ```ignore
/// debug_validate!(c_partial, Sortedness::Unsorted, "Local-Multiply output (stage {s})");
/// ```
#[macro_export]
macro_rules! debug_validate {
    ($m:expr, $expected:expr, $($name:tt)+) => {
        if cfg!(debug_assertions) {
            if let Err(e) = $crate::validate::Validate::validate(&$m, $expected) {
                panic!("invariant violation in {}: {}", format!($($name)+), e);
            }
        }
    };
}

/// Shared column scan: bounds, duplicates, and the order contract.
///
/// `stamps` is a per-row scratch reused across columns (stamped with
/// `col + 1`), giving O(nrows + nnz) duplicate detection without sorting.
/// The order check also fires under [`Sortedness::Unsorted`] when
/// `flag_sorted` is set — a matrix *claiming* sorted columns must honor
/// that claim regardless of the caller's contract.
fn check_column(
    col: usize,
    base: usize,
    rows: &[u32],
    nrows: usize,
    expected: Sortedness,
    flag_sorted: bool,
    stamps: &mut [u32],
) -> Result<(), Defect> {
    let stamp = col as u32 + 1;
    let mut prev: Option<u32> = None;
    for (off, &row) in rows.iter().enumerate() {
        if (row as usize) >= nrows {
            return Err(Defect::RowOutOfBounds {
                col,
                pos: base + off,
                row,
                nrows,
            });
        }
        if stamps[row as usize] == stamp {
            return Err(Defect::DuplicateRow { col, row });
        }
        stamps[row as usize] = stamp;
        if let Some(p) = prev {
            if row <= p && (expected == Sortedness::Sorted || flag_sorted) {
                return Err(Defect::UnsortedColumn {
                    col,
                    pos: base + off,
                    prev: p,
                    next: row,
                });
            }
        }
        prev = Some(row);
    }
    Ok(())
}

impl<T: Copy> Validate for CscMatrix<T> {
    fn validate(&self, expected: Sortedness) -> Result<(), ValidationError> {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        let cp = self.colptr();
        let rowidx = self.rowidx();
        let nnz = rowidx.len();
        let err = |defect| ValidationError {
            nrows,
            ncols,
            nnz,
            defect,
        };
        if cp.len() != ncols + 1 {
            return Err(err(Defect::ColptrLength {
                len: cp.len(),
                expected: ncols + 1,
            }));
        }
        if cp[0] != 0 {
            return Err(err(Defect::ColptrStart { first: cp[0] }));
        }
        for j in 0..ncols {
            if cp[j] > cp[j + 1] {
                return Err(err(Defect::ColptrNotMonotone {
                    col: j,
                    prev: cp[j],
                    next: cp[j + 1],
                }));
            }
        }
        if cp[ncols] != nnz || self.vals().len() != nnz {
            return Err(err(Defect::NnzInconsistent {
                colptr_last: cp[ncols],
                rowidx_len: nnz,
                vals_len: self.vals().len(),
            }));
        }
        if expected == Sortedness::Sorted && !self.is_sorted() {
            return Err(err(Defect::SortedFlagWrong { claimed: false }));
        }
        let mut stamps = vec![0u32; nrows];
        for j in 0..ncols {
            check_column(
                j,
                cp[j],
                &rowidx[cp[j]..cp[j + 1]],
                nrows,
                expected,
                self.is_sorted(),
                &mut stamps,
            )
            .map_err(err)?;
        }
        Ok(())
    }
}

impl<T: Copy> Validate for Triples<T> {
    /// Triples carry no column order, so `expected` is ignored; bounds are
    /// the whole contract.
    fn validate(&self, _expected: Sortedness) -> Result<(), ValidationError> {
        let (nrows, ncols) = (self.nrows(), self.ncols());
        let err = |defect| ValidationError {
            nrows,
            ncols,
            nnz: self.len(),
            defect,
        };
        for (pos, (row, col, _)) in self.iter().enumerate() {
            if (row as usize) >= nrows {
                return Err(err(Defect::RowOutOfBounds {
                    col: col as usize,
                    pos,
                    row,
                    nrows,
                }));
            }
            if (col as usize) >= ncols {
                return Err(err(Defect::ColOutOfBounds { pos, col, ncols }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesU64;
    use crate::spgemm::spgemm_hash_unsorted;

    fn small_sorted() -> CscMatrix<u64> {
        // 3x3: col0 = {0,2}, col1 = {1}, col2 = {0,1,2}
        CscMatrix::from_parts(3, 3, vec![0, 2, 3, 6], vec![0, 2, 1, 0, 1, 2], vec![1; 6])
            .unwrap()
    }

    #[test]
    fn valid_matrix_passes_both_contracts() {
        let m = small_sorted();
        m.validate(Sortedness::Sorted).unwrap();
        m.validate(Sortedness::Unsorted).unwrap();
    }

    #[test]
    fn unsorted_kernel_output_passes_unsorted_contract_only() {
        let m = small_sorted();
        let (c, _, _) = spgemm_hash_unsorted::<PlusTimesU64>(&m, &m, &mut []).unwrap();
        c.validate(Sortedness::Unsorted).unwrap();
        if !c.is_sorted() {
            let e = c.validate(Sortedness::Sorted).unwrap_err();
            assert_eq!(e.defect, Defect::SortedFlagWrong { claimed: false });
        }
    }

    #[test]
    fn colptr_swap_reports_non_monotone() {
        let m = CscMatrix::from_parts_raw(
            3,
            3,
            vec![0, 3, 2, 6],
            vec![0, 2, 1, 0, 1, 2],
            vec![1u64; 6],
            true,
        );
        let e = m.validate(Sortedness::Unsorted).unwrap_err();
        assert_eq!(
            e.defect,
            Defect::ColptrNotMonotone {
                col: 1,
                prev: 3,
                next: 2
            }
        );
        assert!(e.to_string().contains("column 1"));
    }

    #[test]
    fn out_of_bounds_row_is_located() {
        let m = CscMatrix::from_parts_raw(
            3,
            3,
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 7, 2],
            vec![1u64; 6],
            false,
        );
        let e = m.validate(Sortedness::Unsorted).unwrap_err();
        assert_eq!(
            e.defect,
            Defect::RowOutOfBounds {
                col: 2,
                pos: 4,
                row: 7,
                nrows: 3
            }
        );
    }

    #[test]
    fn duplicate_in_sorted_mode_is_a_duplicate_not_an_order_error() {
        let m = CscMatrix::from_parts_raw(
            3,
            3,
            vec![0, 2, 3, 6],
            vec![0, 2, 1, 0, 0, 2],
            vec![1u64; 6],
            true,
        );
        let e = m.validate(Sortedness::Sorted).unwrap_err();
        assert_eq!(e.defect, Defect::DuplicateRow { col: 2, row: 0 });
    }

    #[test]
    fn lying_sorted_flag_is_flagged_even_under_unsorted_contract() {
        let m = CscMatrix::from_parts_raw(
            3,
            3,
            vec![0, 2, 3, 6],
            vec![2, 0, 1, 0, 1, 2],
            vec![1u64; 6],
            true,
        );
        let e = m.validate(Sortedness::Unsorted).unwrap_err();
        assert!(matches!(e.defect, Defect::UnsortedColumn { col: 0, .. }));
    }

    #[test]
    fn triples_bounds_are_checked() {
        let mut t = Triples::with_capacity(3, 3, 2);
        t.push(1, 1, 5u64);
        t.validate(Sortedness::Unsorted).unwrap();
        let bad = Triples::from_parts_unchecked(3, 3, vec![1, 9], vec![1, 0], vec![5u64, 6]);
        let e = bad.validate(Sortedness::Unsorted).unwrap_err();
        assert_eq!(
            e.defect,
            Defect::RowOutOfBounds {
                col: 0,
                pos: 1,
                row: 9,
                nrows: 3
            }
        );
    }

    #[test]
    fn debug_validate_macro_names_the_matrix() {
        let m = small_sorted();
        debug_validate!(m, Sortedness::Sorted, "unit-test matrix {}", 7);
        if cfg!(debug_assertions) {
            let bad = CscMatrix::from_parts_raw(
                2,
                1,
                vec![0, 1],
                vec![5],
                vec![1u64],
                true,
            );
            let r = std::panic::catch_unwind(|| {
                debug_validate!(bad, Sortedness::Sorted, "corrupt {}", "block");
            });
            let msg = *r.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("corrupt block"), "{msg}");
            assert!(msg.contains("row 5"), "{msg}");
        }
    }
}
