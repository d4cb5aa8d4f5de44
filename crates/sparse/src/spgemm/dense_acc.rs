//! Dense sparse-accumulator (SPA / Gustavson) SpGEMM.
//!
//! The classic MATLAB-style kernel \[21\]: a dense value array plus a stamp
//! array of size `nrows(A)`, allocated whatever the operands look like.
//! That unconditional O(nrows) per thread is what makes SPA unsuitable for
//! the paper's hypersparse extreme-scale blocks. The paper-kernel does
//! accumulate SPA-style — slot = row — but only in columns dense enough
//! that its table holds `nrows` slots anyway (`2·flops ≥ nrows`, see
//! [`super::accum`]), so its memory stays bounded by what hashing would
//! have asked for. This kernel shares no code with that accumulator and is
//! the simplest correct one, so the test suite uses it as the oracle for
//! the heap, hybrid and hash kernels, the merges and the symbolic sweep.

use super::{WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::{check_mul_dims, Result};

/// Multiply `a · b` with a dense accumulator. Output columns sorted.
pub fn spgemm_spa<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    check_mul_dims(a.ncols(), (b.nrows(), b.ncols()))?;
    let m = a.nrows();
    let n_out = b.ncols();
    let mut dense: Vec<S::T> = vec![S::zero(); m];
    let mut stamp: Vec<u64> = vec![0; m];
    let mut touched: Vec<u32> = Vec::new();
    let mut epoch = 0u64;

    let mut colptr = vec![0usize; n_out + 1];
    let mut rowidx: Vec<u32> = Vec::new();
    let mut vals: Vec<S::T> = Vec::new();
    let mut stats = WorkStats::default();

    for j in 0..n_out {
        epoch += 1;
        touched.clear();
        let (b_rows, b_vals) = b.col(j);
        let mut col_flops = 0u64;
        for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
            let (a_rows, a_vals) = a.col(i as usize);
            col_flops += a_rows.len() as u64;
            for (&r, &av) in a_rows.iter().zip(a_vals.iter()) {
                let ri = r as usize;
                let prod = S::mul(av, bv);
                if stamp[ri] == epoch {
                    dense[ri] = S::add(dense[ri], prod);
                } else {
                    stamp[ri] = epoch;
                    dense[ri] = prod;
                    touched.push(r);
                }
            }
        }
        touched.sort_unstable();
        for &r in &touched {
            rowidx.push(r);
            vals.push(dense[r as usize]);
        }
        stats.flops += col_flops;
        stats.nnz_out += touched.len() as u64;
        stats.work_units += col_flops as f64 * C_HASH_FLOP + touched.len() as f64 * C_DRAIN;
        colptr[j + 1] = rowidx.len();
    }
    let c = CscMatrix::from_parts_unchecked(m, n_out, colptr, rowidx, vals, true);
    crate::debug_validate!(c, crate::Sortedness::Sorted, "SPA SpGEMM output");
    Ok((c, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimesF64;
    use crate::triples::Triples;

    #[test]
    fn identity_times_matrix_is_matrix() {
        let mut t = Triples::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(2, 1, 4.0);
        t.push(1, 2, 6.0);
        let m = t.to_csc();
        let i = CscMatrix::identity(3);
        let (c, stats) = spgemm_spa::<PlusTimesF64>(&i, &m).unwrap();
        assert!(c.eq_modulo_order(&m));
        assert_eq!(stats.flops, 3);
    }

    #[test]
    fn accumulates_across_inner_dimension() {
        // a = [1 1], b = [1; 1] -> c = [2]
        let mut ta = Triples::new(1, 2);
        ta.push(0, 0, 1.0);
        ta.push(0, 1, 1.0);
        let mut tb = Triples::new(2, 1);
        tb.push(0, 0, 1.0);
        tb.push(1, 0, 1.0);
        let (c, stats) = spgemm_spa::<PlusTimesF64>(&ta.to_csc(), &tb.to_csc()).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.col(0).1, &[2.0]);
        assert_eq!(stats.flops, 2);
        assert_eq!(stats.nnz_out, 1);
    }

    #[test]
    fn rectangular_shapes() {
        let a = CscMatrix::<f64>::zero(5, 3);
        let b = CscMatrix::<f64>::zero(3, 7);
        let (c, _) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        assert_eq!((c.nrows(), c.ncols()), (5, 7));
    }
}
