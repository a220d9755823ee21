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

    /// The transpose `selfᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes `selfᵀ` into `out`, reusing its buffer.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.resize(self.data.len(), 0.0);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Mutably borrow the flat row-major buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · other`. A zero element of `self` is
    /// skipped: its products are never formed.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        gemm::<true>(self, false, other)
    }

    /// Matrix product `self · other` with no zero skip: each output is the
    /// serial dot product `0.0 + a₀·b₀ + a₁·b₁ + …` over every `k`. With
    /// `other = Wᵀ` this is the layer product `x · Wᵀ`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_noskip(&self, other: &Matrix) -> Matrix {
        gemm::<false>(self, false, other)
    }

    /// Product with the first operand transposed: `selfᵀ · other`. A zero
    /// element of `self` is skipped, as in [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        gemm::<true>(self, true, other)
    }

    /// Applies a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
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

/// Runs `kernel` compiled for AVX2 when the host supports it, else for
/// the baseline target.
///
/// Only code inlined into the AVX2 instance is compiled for AVX2, so
/// callers pass an `#[inline(always)]` closure over `#[inline(always)]`
/// kernel bodies. This picks the instruction encoding only: the IEEE
/// operation sequence per output is the same on both paths, because
/// lanes run across independent outputs, never across one sum, and Rust
/// forms no FMA contraction.
#[inline(always)]
pub(crate) fn simd<R>(kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        /// # Safety
        ///
        /// The host must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<R>(kernel: impl FnOnce() -> R) -> R {
            kernel()
        }
        // SAFETY: the feature check above guarantees AVX2 is available.
        return unsafe { avx2(kernel) };
    }
    kernel()
}

/// `a · b` (or `aᵀ · b` with `transpose_a`), dispatched through [`simd`].
fn gemm<const SKIP: bool>(a: &Matrix, transpose_a: bool, b: &Matrix) -> Matrix {
    let lhs = Lhs::of(a, transpose_a);
    assert_eq!(lhs.k, b.rows, "inner dimensions must match");
    let mut out = Matrix::zeros(lhs.rows, b.cols);
    simd(
        #[inline(always)]
        || gemm_body::<SKIP>(lhs, &b.data, b.cols, &mut out.data),
    );
    out
}

/// The left operand of a product, `rows × k`, as a strided view: element
/// `(i, k)` is `data[i · row_step + k · k_step]`, so a transposed operand
/// is read in place.
#[derive(Debug, Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    rows: usize,
    k: usize,
    row_step: usize,
    k_step: usize,
}

impl<'a> Lhs<'a> {
    fn of(m: &'a Matrix, transpose: bool) -> Self {
        let (rows, k, row_step, k_step) = if transpose {
            (m.cols, m.rows, 1, m.cols)
        } else {
            (m.rows, m.cols, m.cols, 1)
        };
        Lhs {
            data: &m.data,
            rows,
            k,
            row_step,
            k_step,
        }
    }
}

/// `out = a · b` for `b` row-major `k × n` and a zeroed row-major `out`
/// (`a.rows × n`), in axpy form: each output row is the sum, over the
/// row's terms `(k, a[k])` in ascending `k`, of `a[k] · b[k]`. With
/// `SKIP` a term whose `a[k] == 0.0` is dropped (so `0 · ∞` is never
/// formed); without it every term is kept.
///
/// Every output element is accumulated from `0.0` in term order, exactly
/// as the naive loops do; the register blocks only hold several
/// independent outputs at once.
#[inline(always)]
fn gemm_body<const SKIP: bool>(a: Lhs<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    if a.k == 0 || n == 0 {
        return;
    }
    // Each term is `(offset of b's row k, a[k])`. Terms are compacted
    // without a branch: every element is written, and only a kept one
    // advances the length.
    let mut terms = vec![(0usize, 0.0f32); a.k];
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let mut len = 0;
        for kk in 0..a.k {
            let v = a.data[i * a.row_step + kk * a.k_step];
            terms[len] = (kk * n, v);
            len += usize::from(!SKIP || v != 0.0);
        }
        let terms = &terms[..len];
        let j = column_block::<64>(terms, b, 0, out_row);
        let j = column_block::<32>(terms, b, j, out_row);
        let j = column_block::<16>(terms, b, j, out_row);
        let j = column_block::<8>(terms, b, j, out_row);
        let j = column_block::<4>(terms, b, j, out_row);
        column_block::<1>(terms, b, j, out_row);
    }
}

/// Accumulates output columns `j..` of one row in blocks of `L`, keeping
/// each block's `L` sums in registers across all terms. Returns the first
/// column left over (fewer than `L` remain).
#[inline(always)]
fn column_block<const L: usize>(
    terms: &[(usize, f32)],
    b: &[f32],
    mut j: usize,
    out_row: &mut [f32],
) -> usize {
    while j + L <= out_row.len() {
        let mut acc = [0.0f32; L];
        for &(offset, a) in terms {
            let lanes: &[f32; L] = b[offset + j..][..L].try_into().expect("lane slice");
            for (acc, &bv) in acc.iter_mut().zip(lanes) {
                *acc += a * bv;
            }
        }
        out_row[j..j + L].copy_from_slice(&acc);
        j += L;
    }
    j
}

/// The naive f32 product loops the blocked kernels replaced, kept as the
/// executable specification they are bit-compared against.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // the specification, written plainly
pub(crate) mod reference {
    use super::Matrix;

    /// `a · b`, skipping a zero element of `a`.
    pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let av = a.data[i * a.cols + k];
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// `a · bᵀ` as serial dot products, with no zero skip.
    pub(crate) fn matmul_transpose_b(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                let mut sum = 0.0;
                let (ar, br) = (a.row(i), b.row(j));
                for k in 0..a.cols {
                    sum += ar[k] * br[k];
                }
                out.data[i * b.rows + j] = sum;
            }
        }
        out
    }

    /// `aᵀ · b`, skipping a zero element of `a`.
    pub(crate) fn transpose_a_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            let (ar, br) = (a.row(r), b.row(r));
            for i in 0..a.cols {
                if ar[i] == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(br) {
                    *o += ar[i] * bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let ab_t = a.matmul_noskip(&b.transpose());
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
    /// Bit patterns of `m`, with every NaN mapped to one pattern: Rust
    /// does not pin the payload of a NaN result, so NaNs compare as a
    /// class and every other value, `-0.0` included, by its bits.
    fn bits(m: &Matrix) -> (usize, usize, Vec<u32>) {
        let canon = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        (m.rows, m.cols, m.data.iter().map(|&v| canon(v)).collect())
    }

    /// `a · b` through [`gemm_body`], on the baseline instantiation or,
    /// with `avx2`, through [`simd`] (AVX2 when the host has it).
    fn gemm_on<const SKIP: bool>(a: &Matrix, transpose_a: bool, b: &Matrix, avx2: bool) -> Matrix {
        let lhs = Lhs::of(a, transpose_a);
        let mut out = Matrix::zeros(lhs.rows, b.cols);
        let mut run = || gemm_body::<SKIP>(lhs, &b.data, b.cols, &mut out.data);
        if avx2 {
            simd(run);
        } else {
            run();
        }
        out
    }

    /// Checks all three products against their specifications on both
    /// instantiations: `x` is `rows × k`, `w` is `n × k` (a layer's
    /// weights), `y` is `rows × n` (a layer's output gradient).
    fn check_products(x: &Matrix, w: &Matrix, y: &Matrix) {
        let wt = w.transpose();
        let forward = bits(&reference::matmul_transpose_b(x, w));
        let back = bits(&reference::matmul(y, w));
        let grad = bits(&reference::transpose_a_matmul(y, x));
        for avx2 in [false, true] {
            let forward_on = gemm_on::<false>(x, false, &wt, avx2);
            assert_eq!(bits(&forward_on), forward, "x·Wᵀ, avx2={avx2}");
            let back_on = gemm_on::<true>(y, false, w, avx2);
            assert_eq!(bits(&back_on), back, "δ·W, avx2={avx2}");
            let grad_on = gemm_on::<true>(y, true, x, avx2);
            assert_eq!(bits(&grad_on), grad, "δᵀ·x, avx2={avx2}");
        }
        assert_eq!(bits(&x.matmul_noskip(&wt)), forward);
        assert_eq!(bits(&y.matmul(w)), back);
        assert_eq!(bits(&y.transpose_a_matmul(x)), grad);
    }

    /// A seeded matrix whose values are drawn by `class`: 0 dense finite,
    /// 1 ReLU-sparse (about half exact zeros, some whole zero rows),
    /// 2 signed zeros mixed in, 3 also `±∞` and NaN.
    fn gen_matrix(rows: usize, cols: usize, class: u32, seed: &mut u64) -> Matrix {
        let mut next = || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) as u32
        };
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let zero_row = class >= 1 && next() % 5 == 0;
            for _ in 0..cols {
                let r = next();
                let finite = (r % 4001) as f32 / 1000.0 - 2.0;
                let v = match (class, r % 16) {
                    _ if zero_row => 0.0,
                    (1.., 0..=7) => 0.0,
                    (2.., 8) => -0.0,
                    (3, 9) => f32::INFINITY,
                    (3, 10) => f32::NEG_INFINITY,
                    (3, 11) => f32::NAN,
                    _ => finite,
                };
                data.push(v);
            }
        }
        Matrix::from_flat(rows, cols, data)
    }

    #[test]
    fn odd_tail_shapes_match_reference_bitwise() {
        // Widths straddling every block size (16, 8, 4, 1), with 1-row
        // batches among them.
        let mut seed = 7;
        for rows in [1, 2, 5] {
            for k in [1, 3, 8, 15, 16, 17, 21, 33, 64] {
                for n in [1, 3, 4, 5, 7, 8, 9, 16, 21, 31, 64] {
                    for class in 0..4 {
                        let x = gen_matrix(rows, k, class, &mut seed);
                        let w = gen_matrix(n, k, class, &mut seed);
                        let y = gen_matrix(rows, n, class, &mut seed);
                        check_products(&x, &w, &y);
                    }
                }
            }
        }
    }

    #[test]
    fn each_product_keeps_its_own_zero_skip_rule() {
        // A zero multiplier against an infinite weight: the skipping
        // products never form 0·∞, the forward product does.
        let x = Matrix::from_rows(vec![vec![0.0, 1.0]]);
        let w = Matrix::from_rows(vec![vec![f32::INFINITY, 2.0]]);
        assert!(x.matmul_noskip(&w.transpose()).get(0, 0).is_nan());
        assert_eq!(x.matmul(&w.transpose()).get(0, 0), 2.0);
        let xt = x.transpose();
        assert_eq!(xt.transpose_a_matmul(&w.transpose()).get(0, 0), 2.0);
        // -0.0 is a zero for the skip rule, and a sum starting at 0.0
        // never ends at -0.0.
        let neg = Matrix::from_rows(vec![vec![-0.0, -0.0]]);
        let ones = Matrix::from_rows(vec![vec![1.0], vec![1.0]]);
        assert_eq!(neg.matmul(&ones).get(0, 0).to_bits(), 0.0f32.to_bits());
        assert_eq!(
            neg.matmul_noskip(&ones).get(0, 0).to_bits(),
            0.0f32.to_bits()
        );
    }

    #[test]
    fn transpose_round_trips() {
        let mut seed = 3;
        let m = gen_matrix(5, 7, 0, &mut seed);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (7, 5));
        assert_eq!(t.get(6, 4), m.get(4, 6));
        assert_eq!(t.transpose(), m);
    }

    proptest! {
        /// The blocked products equal the naive specifications bit for
        /// bit, on both instantiations, over random shapes and every
        /// value class.
        #[test]
        fn products_match_reference_bitwise(
            rows in 1usize..7,
            k in 1usize..70,
            n in 1usize..70,
            class in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let mut seed = seed;
            let x = gen_matrix(rows, k, class, &mut seed);
            let w = gen_matrix(n, k, class, &mut seed);
            let y = gen_matrix(rows, n, class, &mut seed);
            check_products(&x, &w, &y);
        }
    }
}
