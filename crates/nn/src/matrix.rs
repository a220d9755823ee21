//! A minimal row-major f32 matrix.

use crate::simd::{Kernel, Tier};

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
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// The transpose `selfᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes `selfᵀ` into `out`, reusing its buffer, by 8 × 8 register
    /// tiles on the host's tier.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        Tier::detected().transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Reshapes to `rows × cols`, reusing the buffer. The contents are
    /// unspecified: every caller overwrites each element.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Writes the rows at `indices` into `out`, reusing its buffer.
    pub(crate) fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (dst, &idx) in out.data.chunks_exact_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(idx));
        }
    }

    /// Mutably borrow the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The flat row-major buffer, for reuse by a later
    /// [`Matrix::from_flat`].
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · other`. A zero element of `self` is
    /// skipped: its products are never formed.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        gemm::<true>(Lhs::of(self, false), other)
    }

    /// Matrix product `self · other` with no zero skip: each output is the
    /// serial dot product `0.0 + a₀·b₀ + a₁·b₁ + …` over every `k`. With
    /// `other = Wᵀ` this is the layer product `x · Wᵀ`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_noskip(&self, other: &Matrix) -> Matrix {
        gemm::<false>(Lhs::of(self, false), other)
    }

    /// Product with the first operand transposed: `selfᵀ · other`. A zero
    /// element of `self` is skipped, as in [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match");
        gemm::<true>(Lhs::of(self, true), other)
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
        let mut sums = Vec::new();
        self.column_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::column_sums`] into `sums`, reusing its buffer.
    pub(crate) fn column_sums_into(&self, sums: &mut Vec<f32>) {
        sums.clear();
        sums.resize(self.cols, 0.0);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
    }
}

/// A freshly allocated `a · b` on the host's tier.
fn gemm<const SKIP: bool>(a: Lhs<'_>, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    gemm_into::<SKIP, _>(a, b, &mut out, Store, &mut GemmScratch::new());
    out
}

/// `out = a · b`, each output passed through `epilogue` as it is written.
/// With `SKIP`, a term whose `a` element is zero is skipped, as in
/// [`Matrix::matmul`]; without it every term is kept, as in
/// [`Matrix::matmul_noskip`]. `out` is reshaped to `a.rows × b.cols`,
/// reusing its buffer, and the product runs on `scratch`'s tier.
///
/// # Panics
///
/// Panics on inner-dimension mismatch.
pub(crate) fn gemm_into<const SKIP: bool, E: Epilogue>(
    a: Lhs<'_>,
    b: &Matrix,
    out: &mut Matrix,
    epilogue: E,
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.k, b.rows, "inner dimensions must match");
    out.resize(a.rows, b.cols);
    let tier = scratch.tier;
    tier.run(Gemm::<SKIP, E> {
        a,
        b: &b.data,
        n: b.cols,
        out: &mut out.data,
        epilogue,
        scratch,
    });
}

/// The left operand of a product, `rows × k`, as a strided view: element
/// `(i, k)` is `data[i · row_step + k · k_step]`, so a transposed operand
/// needs no copy to be described (a skipping product still copies one
/// row-major, see [`mark_nonzero`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lhs<'a> {
    data: &'a [f32],
    rows: usize,
    k: usize,
    row_step: usize,
    k_step: usize,
}

impl<'a> Lhs<'a> {
    /// `m`, or `mᵀ` with `transpose` (then `row_step` is 1 and `k_step`
    /// is `m.cols`, the transpose's row count).
    pub(crate) fn of(m: &'a Matrix, transpose: bool) -> Self {
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

/// What a product does to each output sum as it writes it back, fusing
/// the element-wise step that follows the product in a layer.
pub(crate) trait Epilogue: Copy {
    /// Turns the sums `out` of output row `i`, columns `j..j + out.len()`,
    /// into the layer's values in place, for an output `n` columns wide.
    fn write(self, out: &mut [f32], i: usize, j: usize, n: usize);
}

/// Writes `sum`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Store;

/// Writes `sum + bias[j]`: an output layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bias<'a>(pub(crate) &'a [f32]);

/// Writes `max(sum + bias[j], 0)`: a hidden layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BiasRelu<'a>(pub(crate) &'a [f32]);

/// Writes `sum · (act[i][j] > 0 ? 1 : 0)`: a delta through the ReLU of
/// the activations `act`, shaped like the output. A multiply, not a
/// select, so `∞ · 0` stays NaN.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReluMask<'a>(pub(crate) &'a [f32]);

impl Epilogue for Store {
    #[inline(always)]
    fn write(self, _: &mut [f32], _: usize, _: usize, _: usize) {}
}

impl Epilogue for Bias<'_> {
    #[inline(always)]
    fn write(self, out: &mut [f32], _: usize, j: usize, _: usize) {
        let bias = &self.0[j..j + out.len()];
        for (o, &b) in out.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

impl Epilogue for BiasRelu<'_> {
    #[inline(always)]
    fn write(self, out: &mut [f32], _: usize, j: usize, _: usize) {
        let bias = &self.0[j..j + out.len()];
        for (o, &b) in out.iter_mut().zip(bias) {
            *o = (*o + b).max(0.0);
        }
    }
}

impl Epilogue for ReluMask<'_> {
    #[inline(always)]
    fn write(self, out: &mut [f32], i: usize, j: usize, n: usize) {
        let act = &self.0[i * n + j..i * n + j + out.len()];
        for (o, &a) in out.iter_mut().zip(act) {
            *o *= if a > 0.0 { 1.0 } else { 0.0 };
        }
    }
}

/// The reusable buffers of a product's row blocks, and the tier the
/// products run on.
#[derive(Debug, Clone)]
pub(crate) struct GemmScratch {
    tier: Tier,
    /// Per row of a skipping product's left operand, one bit per `k`
    /// (64 to a word), set where the element is nonzero.
    nonzero: Vec<u64>,
    /// A row-major copy of a transposed left operand.
    row_major: Vec<f32>,
}

impl GemmScratch {
    /// Empty scratch on the host's tier.
    pub(crate) fn new() -> Self {
        Self::on(Tier::detected())
    }

    /// Empty scratch on `tier`.
    pub(crate) fn on(tier: Tier) -> Self {
        GemmScratch {
            tier,
            nonzero: Vec::new(),
            row_major: Vec::new(),
        }
    }

    /// The tier the products run on.
    pub(crate) fn tier(&self) -> Tier {
        self.tier
    }
}

/// One product as a [`Kernel`], so each tier instantiates its body.
struct Gemm<'a, 's, const SKIP: bool, E> {
    a: Lhs<'a>,
    b: &'a [f32],
    n: usize,
    out: &'a mut [f32],
    epilogue: E,
    scratch: &'s mut GemmScratch,
}

impl<const SKIP: bool, E: Epilogue> Kernel for Gemm<'_, '_, SKIP, E> {
    type Output = ();

    /// `out = a · b` for `b` row-major `k × n` and `out` row-major
    /// `a.rows × n`, in axpy form: each output row is the sum, over the
    /// row's terms `(k, a[k])` in ascending `k`, of `a[k] · b[k]`, written
    /// back through the epilogue. Every output element is accumulated
    /// from `+0.0` in term order, exactly as the naive loops do.
    ///
    /// Without `SKIP` every term counts, and rows go in blocks of `ROWS`
    /// (one at a time after the last full block), which share each load
    /// of `b` and keep `ROWS` times the independent accumulator chains.
    /// With `SKIP` a term whose `a[k]` is zero is skipped, so each row
    /// runs alone over exactly its own nonzero terms, found from a bit
    /// mask per row: a block of rows would have to run the union of its
    /// rows' terms, and on ReLU-sparse deltas that union costs more than
    /// the shared loads save.
    #[inline(always)]
    fn run<const ROWS: usize>(self) {
        let Gemm {
            a,
            b,
            n,
            out,
            epilogue,
            scratch,
        } = self;
        if n == 0 {
            return;
        }
        let words = a.k.div_ceil(64);
        let GemmScratch {
            tier,
            nonzero,
            row_major,
        } = scratch;
        let tier = *tier;
        let a = if SKIP {
            mark_nonzero(tier, a, words, nonzero, row_major)
        } else {
            a
        };
        let block = |rows| Block {
            a,
            rows,
            nonzero,
            words,
        };
        if SKIP {
            block(0..a.rows).run::<true, 1, E>(b, n, out, epilogue);
        } else {
            let blocked = a.rows - a.rows % ROWS;
            block(0..blocked).run::<false, ROWS, E>(b, n, out, epilogue);
            block(blocked..a.rows).run::<false, 1, E>(b, n, out, epilogue);
        }
    }
}

/// Sets `nonzero` to `a`'s nonzero pattern, `words` words per row with
/// bit `k % 64` of word `k / 64` set where element `(i, k)` is nonzero,
/// and returns a row-major view of `a`. An `a` stored `k`-major (a
/// transposed operand) is first copied row-major into `row_major`: the
/// kernel then reads each row's terms from a few cache lines instead of
/// one line per term.
#[inline(always)]
fn mark_nonzero<'s>(
    tier: Tier,
    a: Lhs<'s>,
    words: usize,
    nonzero: &mut Vec<u64>,
    row_major: &'s mut Vec<f32>,
) -> Lhs<'s> {
    let a = if a.k_step == 1 {
        a
    } else {
        // `a` is the transpose of the row-major `k × rows` matrix `data`.
        row_major.resize(a.rows * a.k, 0.0);
        tier.transpose(a.data, a.k, a.rows, row_major);
        Lhs {
            data: row_major,
            rows: a.rows,
            k: a.k,
            row_step: a.k,
            k_step: 1,
        }
    };
    nonzero.clear();
    nonzero.resize(a.rows * words, 0);
    for (i, marks) in nonzero.chunks_exact_mut(words.max(1)).enumerate() {
        let row = &a.data[i * a.row_step..i * a.row_step + a.k];
        for (mark, chunk) in marks.iter_mut().zip(row.chunks(64)) {
            *mark = chunk
                .iter()
                .enumerate()
                .fold(0, |m, (bit, &v)| m | u64::from(v != 0.0) << bit);
        }
    }
    a
}

/// A run of output rows of one product, computed `R` rows at a time.
struct Block<'s> {
    a: Lhs<'s>,
    rows: std::ops::Range<usize>,
    /// `a`'s nonzero pattern (see [`mark_nonzero`]); read only with
    /// `SKIP`.
    nonzero: &'s [u64],
    words: usize,
}

impl Block<'_> {
    /// Computes the rows in blocks of `R` (`rows.len()` is a multiple of
    /// `R`) and writes them through `epilogue`. A block's terms are every
    /// `k`, or with `SKIP` (and `R == 1`) the `k` where its row is
    /// nonzero.
    #[inline(always)]
    fn run<const SKIP: bool, const R: usize, E: Epilogue>(
        &self,
        b: &[f32],
        n: usize,
        out: &mut [f32],
        epilogue: E,
    ) {
        for i0 in self.rows.clone().step_by(R) {
            let out = &mut out[i0 * n..(i0 + R) * n];
            let j = self.columns::<SKIP, R, 64, E>(i0, b, 0, n, out, epilogue);
            let j = self.columns::<SKIP, R, 32, E>(i0, b, j, n, out, epilogue);
            let j = self.columns::<SKIP, R, 16, E>(i0, b, j, n, out, epilogue);
            let j = self.columns::<SKIP, R, 8, E>(i0, b, j, n, out, epilogue);
            let j = self.columns::<SKIP, R, 4, E>(i0, b, j, n, out, epilogue);
            self.columns::<SKIP, R, 1, E>(i0, b, j, n, out, epilogue);
        }
    }

    /// Accumulates output columns `j..` of rows `i0..i0 + R` in blocks of
    /// `L`, keeping the `R × L` sums in registers across all terms, and
    /// writes them through `epilogue` into `out` (those rows). Returns the
    /// first column left over (fewer than `L` remain).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn columns<const SKIP: bool, const R: usize, const L: usize, E: Epilogue>(
        &self,
        i0: usize,
        b: &[f32],
        mut j: usize,
        n: usize,
        out: &mut [f32],
        epilogue: E,
    ) -> usize {
        let a = self.a;
        let values = |kk: usize| -> [f32; R] {
            std::array::from_fn(|r| a.data[(i0 + r) * a.row_step + kk * a.k_step])
        };
        while j + L <= n {
            let mut acc = [[0.0f32; L]; R];
            let lanes =
                |kk: usize| -> &[f32; L] { b[kk * n + j..][..L].try_into().expect("lane slice") };
            if SKIP {
                let marks = &self.nonzero[i0 * self.words..(i0 + 1) * self.words];
                for (w, &mark) in marks.iter().enumerate() {
                    let mut kept = mark;
                    while kept != 0 {
                        let kk = w * 64 + kept.trailing_zeros() as usize;
                        kept &= kept - 1;
                        axpy(&mut acc, &values(kk), lanes(kk));
                    }
                }
            } else {
                for kk in 0..a.k {
                    axpy(&mut acc, &values(kk), lanes(kk));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                let row: &mut [f32; L] =
                    (&mut out[r * n + j..][..L]).try_into().expect("row slice");
                *row = *acc;
                epilogue.write(row, i0 + r, j, n);
            }
            j += L;
        }
        j
    }
}

/// `acc[r] += values[r] · lanes` for each row `r`.
#[inline(always)]
fn axpy<const R: usize, const L: usize>(
    acc: &mut [[f32; L]; R],
    values: &[f32; R],
    lanes: &[f32; L],
) {
    for (acc, &a) in acc.iter_mut().zip(values) {
        for (acc, &b) in acc.iter_mut().zip(lanes) {
            *acc += a * b;
        }
    }
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

    /// `a · b` (or `aᵀ · b`) through [`gemm_into`] on `tier`.
    fn gemm_on<const SKIP: bool>(
        a: &Matrix,
        transpose_a: bool,
        b: &Matrix,
        epilogue: impl Epilogue,
        tier: Tier,
    ) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        let mut scratch = GemmScratch::on(tier);
        gemm_into::<SKIP, _>(Lhs::of(a, transpose_a), b, &mut out, epilogue, &mut scratch);
        out
    }

    /// Checks all three products, and the fused write-backs of the two
    /// that carry one in a layer, against their specifications on every
    /// tier the host runs: `x` is `rows × k`, `w` is `n × k` (a layer's
    /// weights), `y` is `rows × n` (a layer's output gradient) and `bias`
    /// has `n` entries. `x` doubles as the activations a delta's ReLU
    /// mask reads.
    fn check_products(x: &Matrix, w: &Matrix, y: &Matrix, bias: &[f32]) {
        let wt = w.transpose();
        let forward = reference::matmul_transpose_b(x, w);
        let back = reference::matmul(y, w);
        let grad = bits(&reference::transpose_a_matmul(y, x));
        let mut biased = forward.clone();
        biased.add_row_broadcast(bias);
        let mut relu = biased.clone();
        relu.map_inplace(|v| v.max(0.0));
        let mut masked = back.clone();
        let mut mask = x.clone();
        mask.map_inplace(|v| if v > 0.0 { 1.0 } else { 0.0 });
        masked.hadamard_inplace(&mask);
        let (forward, back) = (bits(&forward), bits(&back));
        for tier in Tier::supported() {
            let name = tier.name();
            let forward_on = gemm_on::<false>(x, false, &wt, Store, tier);
            assert_eq!(bits(&forward_on), forward, "x·Wᵀ on {name}");
            let biased_on = gemm_on::<false>(x, false, &wt, Bias(bias), tier);
            assert_eq!(bits(&biased_on), bits(&biased), "x·Wᵀ + b on {name}");
            let relu_on = gemm_on::<false>(x, false, &wt, BiasRelu(bias), tier);
            assert_eq!(bits(&relu_on), bits(&relu), "relu(x·Wᵀ + b) on {name}");
            let back_on = gemm_on::<true>(y, false, w, Store, tier);
            assert_eq!(bits(&back_on), back, "δ·W on {name}");
            let act = ReluMask(x.as_slice());
            let masked_on = gemm_on::<true>(y, false, w, act, tier);
            assert_eq!(bits(&masked_on), bits(&masked), "(δ·W) ⊙ relu' on {name}");
            let grad_on = gemm_on::<true>(y, true, x, Store, tier);
            assert_eq!(bits(&grad_on), grad, "δᵀ·x on {name}");
        }
        assert_eq!(bits(&x.matmul_noskip(&wt)), forward);
        assert_eq!(bits(&y.matmul(w)), back);
        assert_eq!(bits(&y.transpose_a_matmul(x)), grad);
    }

    /// [`check_products`] on seeded operands of one shape and value class.
    fn check_shape(rows: usize, k: usize, n: usize, class: u32, seed: &mut u64) {
        let x = gen_matrix(rows, k, class, seed);
        let w = gen_matrix(n, k, class, seed);
        let y = gen_matrix(rows, n, class, seed);
        let bias = gen_matrix(1, n, class, seed);
        check_products(&x, &w, &y, bias.as_slice());
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
        // Widths straddling every column block (64, 32, 16, 8, 4, 1) and
        // row counts straddling every row block, 1-row batches among them.
        let mut seed = 7;
        for rows in [1, 2, 3, 4, 5, 9] {
            for k in [1, 3, 8, 15, 16, 17, 21, 33, 64] {
                for n in [1, 3, 4, 5, 7, 8, 9, 16, 21, 31, 64] {
                    for class in 0..4 {
                        check_shape(rows, k, n, class, &mut seed);
                    }
                }
            }
        }
    }

    #[test]
    fn every_width_to_130_matches_reference_bitwise() {
        // Every output width and inner dimension from 1 to 130, which
        // covers the NAS widths 8–128 and the 21-wide input layer, on
        // ReLU-sparse and on special values.
        let mut seed = 11;
        for width in 1..=130 {
            for class in [1, 3] {
                check_shape(6, 21, width, class, &mut seed);
                check_shape(5, width, 8, class, &mut seed);
            }
        }
    }

    #[test]
    fn training_shapes_match_reference_bitwise() {
        // The fleet model's products at its batch of 64 and its 313-row
        // validation forward.
        let mut seed = 5;
        for (rows, k, n) in [
            (64, 21, 64),
            (64, 64, 64),
            (64, 64, 8),
            (313, 64, 64),
            (313, 64, 8),
        ] {
            for class in 0..4 {
                check_shape(rows, k, n, class, &mut seed);
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
    fn tiled_transpose_matches_the_strided_loop_on_every_tier() {
        let mut seed = 9;
        for rows in 1..=19 {
            for cols in [1, 2, 7, 8, 9, 16, 21, 64] {
                let m = gen_matrix(rows, cols, 3, &mut seed);
                for tier in Tier::supported() {
                    let mut t = vec![0.0; rows * cols];
                    tier.transpose(m.as_slice(), rows, cols, &mut t);
                    for r in 0..rows {
                        for c in 0..cols {
                            let (got, want) = (t[c * rows + r], m.get(r, c));
                            assert_eq!(got.to_bits(), want.to_bits(), "{}", tier.name());
                        }
                    }
                }
            }
        }
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
        /// bit, on every tier, over random shapes and every value class.
        #[test]
        fn products_match_reference_bitwise(
            rows in 1usize..71,
            k in 1usize..131,
            n in 1usize..131,
            class in 0u32..4,
            seed in 0u64..1_000_000,
        ) {
            let mut seed = seed;
            check_shape(rows, k, n, class, &mut seed);
        }
    }
}
