//! Proptest corruption harness for the structural validators.
//!
//! Each property generates an arbitrary valid matrix, applies one targeted
//! corruption through the check-free [`CscMatrix::from_parts_raw`]
//! constructor, and asserts that [`Validate`] reports the *precise*
//! [`Defect`] — right variant, right column, right position — rather than
//! merely failing.

use proptest::prelude::*;
use spgemm_sparse::semiring::PlusTimesU64;
use spgemm_sparse::spgemm::spgemm_hash_unsorted;
use spgemm_sparse::{CscMatrix, Defect, Sortedness, Triples, Validate};

fn arb_matrix(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = CscMatrix<u64>> {
    (1..=maxdim, 1..=maxdim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr as u32, 0..nc as u32, 1..9u64), 0..=maxnnz).prop_map(
            move |entries| {
                let mut t = Triples::with_capacity(nr, nc, entries.len());
                for (r, c, v) in entries {
                    t.push(r, c, v);
                }
                t.to_csc_dedup::<PlusTimesU64>()
            },
        )
    })
}

/// Column owning global entry position `pos`.
fn col_of(colptr: &[usize], pos: usize) -> usize {
    (0..colptr.len() - 1)
        .find(|&j| colptr[j] <= pos && pos < colptr[j + 1])
        .expect("position within nnz range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No false positives: every generated matrix satisfies both contracts.
    #[test]
    fn generated_matrices_validate_clean(m in arb_matrix(30, 120)) {
        prop_assert!(m.validate(Sortedness::Sorted).is_ok());
        prop_assert!(m.validate(Sortedness::Unsorted).is_ok());
    }

    /// Sort-free kernel outputs satisfy the unsorted contract they claim.
    #[test]
    fn unsorted_kernel_output_validates(m in arb_matrix(20, 60)) {
        if m.nrows() == m.ncols() {
            let (c, _, _) = spgemm_hash_unsorted::<PlusTimesU64>(&m, &m, &mut []).unwrap();
            prop_assert!(c.validate(Sortedness::Unsorted).is_ok());
        }
    }

    /// Swapping two adjacent colptr entries is reported as exactly
    /// `ColptrNotMonotone` at the swapped column, with both offsets.
    #[test]
    fn colptr_swap_is_caught_as_non_monotone(m in arb_matrix(30, 120)) {
        let (nr, nc, mut cp, ri, vals, sorted) = m.into_parts();
        // An interior strictly-increasing pair; swapping it breaks
        // monotonicity without touching colptr[0].
        if let Some(i) = (1..nc).find(|&i| cp[i] < cp[i + 1]) {
            cp.swap(i, i + 1);
            let (prev, next) = (cp[i], cp[i + 1]);
            let bad = CscMatrix::from_parts_raw(nr, nc, cp, ri, vals, sorted);
            let e = bad.validate(Sortedness::Unsorted).unwrap_err();
            prop_assert_eq!(e.defect.clone(), Defect::ColptrNotMonotone { col: i, prev, next });
            prop_assert!(e.to_string().contains(&format!("column {i}")));
        }
    }

    /// An out-of-bounds row index is located by column and global position.
    #[test]
    fn out_of_bounds_row_is_located(m in arb_matrix(30, 120), which in 0usize..4096) {
        if m.nnz() > 0 {
            let (nr, nc, cp, mut ri, vals, sorted) = m.into_parts();
            let pos = which % ri.len();
            let col = col_of(&cp, pos);
            ri[pos] = nr as u32; // first invalid row id
            let bad = CscMatrix::from_parts_raw(nr, nc, cp, ri, vals, sorted);
            let e = bad.validate(Sortedness::Unsorted).unwrap_err();
            prop_assert_eq!(
                e.defect.clone(),
                Defect::RowOutOfBounds { col, pos, row: nr as u32, nrows: nr }
            );
            prop_assert!(e.to_string().contains(&format!("column {col}")));
            prop_assert!(e.to_string().contains(&format!("entry {pos}")));
        }
    }

    /// A duplicated row inside a sorted column is reported as a duplicate
    /// (not as an ordering error) in sorted mode.
    #[test]
    fn duplicate_in_sorted_mode_is_a_duplicate(m in arb_matrix(30, 120)) {
        let (nr, nc, cp, mut ri, vals, sorted) = m.into_parts();
        let fat_col = (0..nc).find(|&j| cp[j + 1] - cp[j] >= 2);
        if let (Some(j), true) = (fat_col, sorted) {
            let row = ri[cp[j]];
            ri[cp[j] + 1] = row;
            let bad = CscMatrix::from_parts_raw(nr, nc, cp, ri, vals, sorted);
            let e = bad.validate(Sortedness::Sorted).unwrap_err();
            prop_assert_eq!(e.defect.clone(), Defect::DuplicateRow { col: j, row });
            prop_assert!(e.to_string().contains(&format!("column {j}")));
        }
    }

    /// Truncating the value array (length desync) is caught as an nnz
    /// inconsistency naming all three lengths.
    #[test]
    fn value_length_desync_is_caught(m in arb_matrix(30, 120)) {
        if m.nnz() > 0 {
            let (nr, nc, cp, ri, mut vals, sorted) = m.into_parts();
            vals.pop();
            let nnz = ri.len();
            let bad = CscMatrix::from_parts_raw(nr, nc, cp, ri, vals, sorted);
            let e = bad.validate(Sortedness::Unsorted).unwrap_err();
            prop_assert_eq!(
                e.defect.clone(),
                Defect::NnzInconsistent {
                    colptr_last: nnz,
                    rowidx_len: nnz,
                    vals_len: nnz - 1
                }
            );
        }
    }
}
