//! A minimal row-major f32 matrix.

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use nn::Matrix;
/// let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        let n = rows.len();
        let data = rows.into_iter().flatten().collect();
        Matrix {
            rows: n,
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Builds a matrix from a subset of this matrix's rows.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let b_row = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Product with the second operand transposed: `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    #[allow(clippy::needless_range_loop)] // hot loop, index form is clearest
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column counts must match");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut sum = 0.0;
                let a = self.row(i);
                let b = other.row(j);
                for k in 0..self.cols {
                    sum += a[k] * b[k];
                }
                out.data[i * other.rows + j] = sum;
            }
        }
        out
    }

    /// Product with the first operand transposed: `selfᵀ · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    #[allow(clippy::needless_range_loop)] // hot loop, index form is clearest
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a = self.row(r);
            let b = other.row(r);
            for i in 0..self.cols {
                if a[i] == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &bv) in out_row.iter_mut().zip(b) {
                    *o += a[i] * bv;
                }
            }
        }
        out
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise sum in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_inplace(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Adds a row vector to every row (broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sums each column, producing a row vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(vec![vec![19.0, 22.0], vec![43.0, 50.0]])
        );
    }

    #[test]
    fn transpose_variants_agree_with_matmul() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(vec![vec![7.0, 8.0, 9.0], vec![1.0, 2.0, 3.0]]);
        // a · bᵀ is 2x2.
        let ab_t = a.matmul_transpose_b(&b);
        assert_eq!(ab_t.get(0, 0), 7.0 + 16.0 + 27.0);
        assert_eq!(ab_t.get(1, 1), 4.0 + 10.0 + 18.0);
        // aᵀ · b is 3x3.
        let a_t_b = a.transpose_a_matmul(&b);
        assert_eq!(a_t_b.rows(), 3);
        assert_eq!(a_t_b.get(0, 0), 1.0 * 7.0 + 4.0 * 1.0);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.column_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn map_and_hadamard() {
        let mut m = Matrix::from_rows(vec![vec![-1.0, 2.0]]);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m.row(0), &[0.0, 2.0]);
        let other = Matrix::from_rows(vec![vec![3.0, 0.5]]);
        m.hadamard_inplace(&other);
        assert_eq!(m.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn select_rows_subsets() {
        let m = Matrix::from_rows(vec![vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(vec![vec![1.5, -2.0], vec![0.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
    }
}
