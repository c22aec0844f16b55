//! A minimal dense row-major matrix used for weights, activations and GEMM
//! results throughout the simulator.

use crate::error::SimError;

/// Dense row-major matrix.
///
/// The simulator works on plain integer matrices (`Matrix<i8>` for operands,
/// `Matrix<i32>` for accumulator-precision results).  The type is intentionally
/// small — it is a data carrier, not a linear-algebra library.
///
/// # Example
///
/// ```
/// use accel_sim::Matrix;
///
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as i8);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Creates a matrix of the given size filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SimError> {
        if data.len() != rows * cols {
            return Err(SimError::DimensionMismatch {
                what: "matrix data length",
                left: data.len(),
                right: rows * cols,
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element accessor returning `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            self.data.get(row * self.cols + col)
        } else {
            None
        }
    }

    /// Borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of range ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copy one column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<T> {
        assert!(col < self.cols, "col {col} out of range ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + col])
            .collect()
    }

    /// Returns a new matrix whose rows are permuted: row `i` of the result is
    /// row `order[i]` of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if `order` is not a permutation
    /// of `0..self.rows()`.
    pub fn permute_rows(&self, order: &[usize]) -> Result<Self, SimError> {
        validate_permutation(order.iter().copied(), self.rows)?;
        let mut out = Vec::with_capacity(self.data.len());
        for &r in order {
            out.extend_from_slice(self.row(r));
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: out,
        })
    }

    /// Returns a new matrix whose columns are permuted: column `j` of the
    /// result is column `order[j]` of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if `order` is not a permutation
    /// of `0..self.cols()`.
    pub fn permute_cols(&self, order: &[usize]) -> Result<Self, SimError> {
        validate_permutation(order.iter().copied(), self.cols)?;
        let out = Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, order[c])]);
        Ok(out)
    }

    /// Returns the sub-matrix containing only the listed columns, in order.
    ///
    /// Unlike [`Matrix::permute_cols`], the selection does not need to be a
    /// permutation: it may select a subset, which is how the simulator builds
    /// the per-cluster weight sub-matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if any index is out of range.
    pub fn select_cols(&self, cols: &[usize]) -> Result<Self, SimError> {
        for &c in cols {
            if c >= self.cols {
                return Err(SimError::InvalidSchedule {
                    reason: format!("column {c} out of range ({})", self.cols),
                });
            }
        }
        Ok(Matrix::from_fn(self.rows, cols.len(), |r, j| {
            self[(r, cols[j])]
        }))
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }
}

/// Checks that `order` is a permutation of `0..len`.
pub(crate) fn validate_permutation(
    order: impl ExactSizeIterator<Item = usize>,
    len: usize,
) -> Result<(), SimError> {
    if order.len() != len {
        return Err(SimError::InvalidSchedule {
            reason: format!("permutation length {} != {}", order.len(), len),
        });
    }
    let mut seen = vec![false; len];
    for i in order {
        if i >= len {
            return Err(SimError::InvalidSchedule {
                reason: format!("permutation index {i} out of range ({len})"),
            });
        }
        if seen[i] {
            return Err(SimError::InvalidSchedule {
                reason: format!("permutation index {i} repeated"),
            });
        }
        seen[i] = true;
    }
    Ok(())
}

impl<T: Copy + Default> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of range ({}x{})",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T: Copy + Default> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of range ({}x{})",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl Matrix<i8> {
    /// Exact integer GEMM as a spatial accelerator computes it for a layer:
    /// `out[k][m] = sum_r self[r][k] * rhs[r][m]`, where `self` is the
    /// `R x K` weight matrix and `rhs` the `R x M` activation matrix (both
    /// indexed by the reduction dimension first).
    ///
    /// This is the golden reference the dataflow simulators are checked
    /// against.
    pub fn gemm_reference(&self, rhs: &Matrix<i8>) -> Result<Matrix<i32>, SimError> {
        if self.rows != rhs.rows {
            return Err(SimError::DimensionMismatch {
                what: "reduction length",
                left: self.rows,
                right: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let w = i32::from(self[(r, k)]);
                if w == 0 {
                    continue;
                }
                for m in 0..rhs.cols {
                    out[(k, m)] += w * i32::from(rhs[(r, m)]);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_index() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as i8);
        assert_eq!(m[(0, 0)], 0);
        assert_eq!(m[(2, 1)], 5);
        assert_eq!(m.row(1), &[2, 3]);
        assert_eq!(m.column(1), vec![1, 3, 5]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1i8, 2, 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1i8, 2, 3, 4]).is_ok());
    }

    #[test]
    fn get_out_of_bounds() {
        let m = Matrix::<i8>::zeros(2, 2);
        assert!(m.get(2, 0).is_none());
        assert!(m.get(0, 2).is_none());
        assert_eq!(m.get(1, 1), Some(&0));
    }

    #[test]
    fn permute_rows_roundtrip() {
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as i8);
        let order = vec![3, 1, 0, 2];
        let p = m.permute_rows(&order).unwrap();
        assert_eq!(p.row(0), m.row(3));
        assert_eq!(p.row(1), m.row(1));
        // inverse permutation restores the original
        let mut inv = vec![0; 4];
        for (i, &o) in order.iter().enumerate() {
            inv[o] = i;
        }
        assert_eq!(p.permute_rows(&inv).unwrap(), m);
    }

    #[test]
    fn permute_rejects_bad_permutations() {
        let m = Matrix::<i8>::zeros(3, 3);
        assert!(m.permute_rows(&[0, 1]).is_err());
        assert!(m.permute_rows(&[0, 1, 1]).is_err());
        assert!(m.permute_rows(&[0, 1, 3]).is_err());
        assert!(m.permute_cols(&[2, 2, 0]).is_err());
    }

    #[test]
    fn select_cols_subset() {
        let m = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as i8);
        let s = m.select_cols(&[3, 1]).unwrap();
        assert_eq!(s.cols(), 2);
        assert_eq!(s[(0, 0)], 3);
        assert_eq!(s[(1, 1)], 5);
        assert!(m.select_cols(&[4]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as i8);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn gemm_reference_small() {
        // W: 2x2 (reduction x out-channels), A: 2x1
        let w = Matrix::from_vec(2, 2, vec![1i8, -2, 3, 4]).unwrap();
        let a = Matrix::from_vec(2, 1, vec![5i8, 7]).unwrap();
        let out = w.gemm_reference(&a).unwrap();
        // out[k][m] = sum_r w[r][k] * a[r][m]
        assert_eq!(out[(0, 0)], 5 + 3 * 7);
        assert_eq!(out[(1, 0)], -2 * 5 + 4 * 7);
    }

    #[test]
    fn gemm_reference_dimension_check() {
        let w = Matrix::<i8>::zeros(2, 2);
        let a = Matrix::<i8>::zeros(3, 1);
        assert!(w.gemm_reference(&a).is_err());
    }
}
