//! Dense, row-major, two-dimensional `f32` tensor.
//!
//! The RRRE models only ever need matrices: parameter tables, batched feature
//! matrices `[batch, features]` and per-timestep slices of sequences. Keeping
//! the storage strictly two-dimensional makes every kernel in this crate
//! simple, cache-friendly and easy to verify; sequences and sets of reviews
//! are handled as `Vec<Tensor>` (or index lists) one level up, in the layers.
//!
//! All shape mismatches are programming errors and panic with a descriptive
//! message, mirroring the convention of mainstream array libraries.

use std::fmt;

/// Rows of the left factor from which [`Tensor::matmul_nt_into`] transposes
/// the right one and runs [`blocked_product`]; below it, each row runs
/// [`transposed_blocks`] on the right factor as it lies. Measured for
/// `g · w_ctxᵀ` (`k = 16, n = 48`; 2-vCPU Xeon, release build, SSE2): 1 row
/// takes ≈ 0.21 µs in row blocks and ≈ 0.61 µs transposed, 3 rows ≈ 0.65
/// and ≈ 0.82 µs, and the two meet at 4–5 rows (at `n = 64` too). Training
/// calls `matmul_nt` with 1 row (a layer on one vector) and with a tower's
/// `d` rows: 1–11 for a user (3.8 on average on the bench dataset), 12 for
/// most items.
const NT_BLOCKED_ROWS: usize = 4;

/// `out[i][j] = Σ_p a(i, p) · b[p][j]` for an `m × n` `out` and a `k × n`
/// row-major `b`: every product but the few-row `a · bᵀ` of
/// [`transposed_blocks`]. A block of outputs of a row — 16 while they last,
/// then 4, then 1 — stays in registers across the whole inner dimension
/// and is written once, so no output is reloaded per product; a rank-1
/// product (`k = 1`) writes each row in one pass. Both kernels keep one
/// contract: each output sums its products from `+0.0` in ascending `p`,
/// skipping a zero `a(i, p)`. The skip is exact for finite `b`: an
/// accumulator that starts at `+0.0` never holds `-0.0`, so adding `±0.0` to
/// it changes nothing.
fn blocked_product(m: usize, k: usize, n: usize, a: impl Fn(usize, usize) -> f32, b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        if k == 1 {
            match a(i, 0) {
                0.0 => out_row.fill(0.0),
                av => out_row.iter_mut().zip(b).for_each(|(o, &bv)| *o = 0.0 + av * bv),
            }
            continue;
        }
        let j = output_blocks::<16>(k, n, 0, |p| a(i, p), b, out_row);
        let j = output_blocks::<4>(k, n, j, |p| a(i, p), b, out_row);
        output_blocks::<1>(k, n, j, |p| a(i, p), b, out_row);
    }
}

/// [`blocked_product`]'s blocks of `B` outputs of one row, from column `j`
/// while a whole block fits; returns the first column left over.
fn output_blocks<const B: usize>(
    k: usize,
    n: usize,
    mut j: usize,
    a: impl Fn(usize) -> f32,
    b: &[f32],
    out_row: &mut [f32],
) -> usize {
    while j + B <= n {
        let mut acc = [0.0f32; B];
        for p in 0..k {
            let av = a(p);
            if av == 0.0 {
                continue;
            }
            let b_block: &[f32; B] = b[p * n + j..p * n + j + B].try_into().expect("a whole block");
            for (acc, &bv) in acc.iter_mut().zip(b_block) {
                *acc += av * bv;
            }
        }
        out_row[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

/// `out_row[j] = Σ_p a_row[p] · b[j][p]` for a row-major `b` of
/// `out_row.len()` rows of `k`, under [`blocked_product`]'s contract:
/// `B` outputs at a time keep their sums in registers across the inner
/// dimension, each reading its own row of `b` as it lies (no transpose).
/// Returns the first output left over, from `j` on.
fn transposed_blocks<const B: usize>(a_row: &[f32], b: &[f32], k: usize, mut j: usize, out_row: &mut [f32]) -> usize {
    while j + B <= out_row.len() {
        let rows: [&[f32]; B] = std::array::from_fn(|t| &b[(j + t) * k..(j + t + 1) * k]);
        let mut acc = [0.0f32; B];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc += av * row[p];
            }
        }
        out_row[j..j + B].copy_from_slice(&acc);
        j += B;
    }
    j
}

/// Logistic sigmoid of one value.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Numerically stable softmax of one contiguous run of logits, in place.
fn softmax_in_place(xs: &mut [f32]) {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut denom = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - m).exp();
        denom += *x;
    }
    for x in xs.iter_mut() {
        *x /= denom;
    }
}

/// A dense row-major matrix of `f32` values.
///
/// A vector is represented as a single-row (`1 × n`) or single-column
/// (`n × 1`) tensor; a scalar as `1 × 1`.
#[derive(Clone, Default, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a zero tensor of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a tensor of ones of the given shape.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `1 × 1` tensor holding `value`.
    pub fn scalar(value: f32) -> Self {
        Self { rows: 1, cols: 1, data: vec![value] }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: buffer of length {} cannot fill a {rows}x{cols} tensor",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a tensor from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "Tensor::from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Tensor::from_rows: row {i} has length {}, expected {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Builds a single-row tensor from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Builds a single-column tensor from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Reshapes `self` into a `rows × cols` tensor of `+0.0`, keeping its
    /// buffer: no allocation once the buffer has held that many elements.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a `rows × cols` tensor of `values`, keeping its buffer.
    fn refill(&mut self, rows: usize, cols: usize, values: impl Iterator<Item = f32>) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.reserve(rows * cols);
        self.data.extend(values);
        debug_assert_eq!(self.data.len(), rows * cols, "Tensor::refill: wrong element count");
    }

    /// Makes `self` a copy of `src`, keeping its buffer.
    pub(crate) fn copy_from(&mut self, src: &Tensor) {
        self.refill(src.rows, src.cols, src.data.iter().copied());
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access.
    ///
    /// # Panics
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols, "Tensor::get({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutation.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols, "Tensor::set({r},{c}) out of bounds for {}x{}", self.rows, self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` into a new single-row tensor.
    pub fn row_tensor(&self, r: usize) -> Tensor {
        Tensor::row_vector(self.row(r))
    }

    /// Column `c` copied into a `Vec`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The single value of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `1 × 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "Tensor::item on a {}x{} tensor", self.rows, self.cols);
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(self.len(), rows * cols, "Tensor::reshape: {}x{} -> {rows}x{cols}", self.rows, self.cols);
        Tensor { rows, cols, data: self.data.clone() }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::default();
        self.map_into(&mut out, f);
        out
    }

    /// [`Tensor::map`] into `out`'s buffer.
    pub(crate) fn map_into(&self, out: &mut Tensor, f: impl Fn(f32) -> f32) {
        out.refill(self.rows, self.cols, self.data.iter().map(|&x| f(x)));
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::default();
        self.zip_map_into(other, &mut out, f);
        out
    }

    /// [`Tensor::zip_map`] into `out`'s buffer.
    pub(crate) fn zip_map_into(&self, other: &Tensor, out: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, "zip_map");
        out.refill(self.rows, self.cols, self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place element-wise addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, "add_assign", |a, b| a + b);
    }

    /// In-place element-wise difference.
    pub fn sub_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, "sub_assign", |a, b| a - b);
    }

    /// In-place element-wise product.
    pub fn mul_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, "mul_assign", |a, b| a * b);
    }

    fn zip_assign(&mut self, other: &Tensor, op: &str, f: impl Fn(f32, f32) -> f32) {
        self.assert_same_shape(other, op);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
    }

    /// In-place `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// Adds `row` (a `1 × cols` tensor) to every row.
    ///
    /// # Panics
    /// Panics if `row` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.add_row_broadcast_into(row, &mut out);
        out
    }

    /// [`Tensor::add_row_broadcast`] into `out`'s buffer.
    pub(crate) fn add_row_broadcast_into(&self, row: &Tensor, out: &mut Tensor) {
        out.copy_from(self);
        out.add_row_broadcast_assign(row);
    }

    /// In-place [`Tensor::add_row_broadcast`].
    pub fn add_row_broadcast_assign(&mut self, row: &Tensor) {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a single row");
        assert_eq!(row.cols, self.cols, "add_row_broadcast: {} vs {} columns", self.cols, row.cols);
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Multiplies every row `r` by the scalar `col[r]`; panics unless `col`
    /// is `rows × 1`.
    pub fn mul_col_broadcast(&self, col: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.mul_col_broadcast_into(col, &mut out);
        out
    }

    /// [`Tensor::mul_col_broadcast`] into `out`'s buffer.
    pub(crate) fn mul_col_broadcast_into(&self, col: &Tensor, out: &mut Tensor) {
        assert_eq!(col.cols, 1, "mul_col_broadcast: rhs must be a column vector");
        assert_eq!(col.rows, self.rows, "mul_col_broadcast: {} rows vs {} weights", self.rows, col.rows);
        out.copy_from(self);
        for r in 0..out.rows {
            let s = col.data[r];
            for x in out.row_mut(r) {
                *x *= s;
            }
        }
    }

    /// `Σ_r weights[r] · self[r, :]` (`1 × cols`, `weights` is `rows × 1`):
    /// attention pooling, the bits of
    /// `self.mul_col_broadcast(weights).sum_rows()` without the intermediate.
    pub fn weighted_row_sum(&self, weights: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.weighted_row_sum_into(weights, &mut out);
        out
    }

    /// [`Tensor::weighted_row_sum`] into `out`'s buffer.
    pub(crate) fn weighted_row_sum_into(&self, weights: &Tensor, out: &mut Tensor) {
        assert_eq!(weights.cols, 1, "weighted_row_sum: weights must be a column vector");
        assert_eq!(weights.rows, self.rows, "weighted_row_sum: {} rows vs {} weights", self.rows, weights.rows);
        out.reset(1, self.cols);
        for r in 0..self.rows {
            let s = weights.data[r];
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x * s;
            }
        }
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.softmax_rows_into(&mut out);
        out
    }

    /// [`Tensor::softmax_rows`] into `out`'s buffer.
    pub(crate) fn softmax_rows_into(&self, out: &mut Tensor) {
        out.copy_from(self);
        for r in 0..out.rows {
            softmax_in_place(out.row_mut(r));
        }
    }

    /// In-place softmax of an `m × 1` score column into attention weights:
    /// the bits of transposing, [`Tensor::softmax_rows`] and transposing
    /// back.
    pub fn softmax_col_assign(&mut self) {
        assert_eq!(self.cols, 1, "softmax_col: {} columns, expected one", self.cols);
        softmax_in_place(&mut self.data);
    }

    /// Matrix product `self · other`, register-blocked: each output summed
    /// from `+0.0` in ascending inner index, skipping a zero left factor.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into `out`'s buffer.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} . {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reset(m, n);
        blocked_product(m, k, n, |i, p| self.data[i * k + p], &other.data, &mut out.data);
    }

    /// `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out, &mut Tensor::default());
        out
    }

    /// [`Tensor::matmul_nt`] into `out`'s buffer: [`transposed_blocks`] per
    /// row for a left factor of fewer than [`NT_BLOCKED_ROWS`] rows, else
    /// [`blocked_product`] over `otherᵀ` written into `other_t`'s buffer.
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor, other_t: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} . ({}x{})^T inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.reset(m, n);
        if m >= NT_BLOCKED_ROWS {
            other.transpose_into(other_t);
            blocked_product(m, k, n, |i, p| self.data[i * k + p], &other_t.data, &mut out.data);
            return;
        }
        for i in 0..m {
            let (a_row, out_row) = (&self.data[i * k..(i + 1) * k], &mut out.data[i * n..(i + 1) * n]);
            let j = transposed_blocks::<8>(a_row, &other.data, k, 0, out_row);
            transposed_blocks::<1>(a_row, &other.data, k, j, out_row);
        }
    }

    /// `selfᵀ · other` without materialising the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] into `out`'s buffer: [`blocked_product`] with
    /// the left factor read down `self`'s columns.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: ({}x{})^T . {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        out.reset(m, n);
        blocked_product(m, k, n, |i, p| self.data[p * m + i], &other.data, &mut out.data);
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into `out`'s buffer.
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        out.reset(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum, producing a `1 × cols` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Tensor::sum_rows`] into `out`'s buffer.
    pub(crate) fn sum_rows_into(&self, out: &mut Tensor) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Row-wise sum, producing a `rows × 1` tensor.
    pub fn sum_cols(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_cols_into(&mut out);
        out
    }

    /// [`Tensor::sum_cols`] into `out`'s buffer.
    pub(crate) fn sum_cols_into(&self, out: &mut Tensor) {
        out.refill(self.rows, 1, (0..self.rows).map(|r| self.row(r).iter().sum()));
    }

    /// `self.mul(other).sum_cols()` into `out`'s buffer, without the
    /// intermediate product: each row's products summed as `sum_cols` sums.
    pub(crate) fn mul_sum_cols_into(&self, other: &Tensor, out: &mut Tensor) {
        self.assert_same_shape(other, "mul_sum_cols");
        let rows = (0..self.rows).map(|r| self.row(r).iter().zip(other.row(r)).map(|(&a, &b)| a * b).sum());
        out.refill(self.rows, 1, rows);
    }

    /// Maximum element (`f32::NEG_INFINITY` if empty).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`f32::INFINITY` if empty).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch {} vs {}", self.len(), other.len());
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }

    /// Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>()
    }

    /// Horizontal concatenation of tensors with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Tensor::concat_cols_into(parts.iter().copied(), &mut out);
        out
    }

    /// [`Tensor::concat_cols`] into `out`'s buffer.
    pub(crate) fn concat_cols_into<'a>(parts: impl Iterator<Item = &'a Tensor> + Clone, out: &mut Tensor) {
        let rows = parts.clone().next().expect("concat_cols: need at least one part").rows;
        for p in parts.clone() {
            assert_eq!(p.rows, rows, "concat_cols: row counts differ ({} vs {rows})", p.rows);
        }
        let cols: usize = parts.clone().map(|p| p.cols).sum();
        out.reset(rows, cols);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts.clone() {
                out.row_mut(r)[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
    }

    /// Vertical concatenation of tensors with equal column counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Tensor::concat_rows_into(parts.iter().copied(), &mut out);
        out
    }

    /// [`Tensor::concat_rows`] into `out`'s buffer.
    pub(crate) fn concat_rows_into<'a>(parts: impl Iterator<Item = &'a Tensor> + Clone, out: &mut Tensor) {
        let cols = parts.clone().next().expect("concat_rows: need at least one part").cols;
        for p in parts.clone() {
            assert_eq!(p.cols, cols, "concat_rows: column counts differ ({} vs {cols})", p.cols);
        }
        let rows: usize = parts.clone().map(|p| p.rows).sum();
        out.refill(rows, cols, parts.flat_map(|p| p.data.iter().copied()));
    }

    /// Copies a contiguous range of columns into a new tensor.
    ///
    /// # Panics
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let mut out = Tensor::default();
        self.slice_cols_into(start, end, &mut out);
        out
    }

    /// [`Tensor::slice_cols`] into `out`'s buffer.
    pub(crate) fn slice_cols_into(&self, start: usize, end: usize, out: &mut Tensor) {
        assert!(start <= end && end <= self.cols, "slice_cols: {start}..{end} out of 0..{}", self.cols);
        out.refill(self.rows, end - start, (0..self.rows).flat_map(|r| self.row(r)[start..end].iter().copied()));
    }

    /// Gathers the listed rows into a new tensor (duplicates allowed).
    ///
    /// # Panics
    /// Panics on any out-of-range index.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Tensor::gather_rows`] into `out`'s buffer.
    pub(crate) fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        out.reset(indices.len(), self.cols);
        for (r, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "gather_rows: index {idx} out of 0..{}", self.rows);
            out.row_mut(r).copy_from_slice(self.row(idx));
        }
    }

    /// Sliding-window unfold turning `[T, d]` into `[T-width+1, width*d]`,
    /// the im2col step of a 1-D convolution over time (`1 ≤ width ≤ T`).
    pub fn im2col(&self, width: usize) -> Tensor {
        let mut out = Tensor::default();
        self.im2col_into(width, &mut out);
        out
    }

    /// [`Tensor::im2col`] into `out`'s buffer.
    pub(crate) fn im2col_into(&self, width: usize, out: &mut Tensor) {
        let (t, d) = self.shape();
        assert!(width >= 1 && width <= t, "im2col: width {width} invalid for {t} timesteps");
        let windows = t + 1 - width;
        out.reset(windows, width * d);
        for w in 0..windows {
            for off in 0..width {
                let dst_start = off * d;
                out.row_mut(w)[dst_start..dst_start + d].copy_from_slice(self.row(w + off));
            }
        }
    }

    /// Max-over-time pooling: the column-wise maximum over the (at least
    /// one) rows, `1 × cols`, and per column the first row attaining it.
    pub fn max_over_rows(&self) -> (Tensor, Vec<usize>) {
        let (mut out, mut argmax) = (Tensor::default(), Vec::new());
        self.max_over_rows_into(&mut out, &mut argmax);
        (out, argmax)
    }

    /// [`Tensor::max_over_rows`] into `out`'s buffer, the argmax rows
    /// appended to `argmax`.
    pub(crate) fn max_over_rows_into(&self, out: &mut Tensor, argmax: &mut Vec<usize>) {
        assert!(self.rows > 0, "max_over_rows: empty input");
        out.reset(1, self.cols);
        out.data.fill(f32::NEG_INFINITY);
        let start = argmax.len();
        argmax.resize(start + self.cols, 0);
        let argmax = &mut argmax[start..];
        for r in 0..self.rows {
            for (c, &x) in self.row(r).iter().enumerate() {
                if x > out.data[c] {
                    out.data[c] = x;
                    argmax[c] = r;
                }
            }
        }
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Whether every pairwise difference is at most `tol` in absolute value.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 10.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:>9.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 5.0, -6.0]);
        let b = Tensor::from_vec(4, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(a.matmul_nt(&b).approx_eq(&a.matmul(&b.transpose()), 1e-5));
        let c = Tensor::from_vec(2, 4, vec![1.0; 8]);
        assert!(a.matmul_tn(&c).approx_eq(&a.transpose().matmul(&c), 1e-5));
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::row_vector(&[10.0, 20.0]);
        assert_eq!(a.add_row_broadcast(&b).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.sum(), 21.0);
        assert!((t.mean() - 3.5).abs() < 1e-6);
        assert_eq!(t.sum_rows().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(t.sum_cols().as_slice(), &[6.0, 15.0]);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 1, vec![9.0, 10.0]);
        let cat = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert!(cat.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(cat.slice_cols(2, 3).approx_eq(&b, 0.0));

        let v = Tensor::concat_rows(&[&a, &a]);
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.row(3), a.row(1));
    }

    #[test]
    fn gather_rows_duplicates() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::ones(2, 2);
        let b = Tensor::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[7.0; 4]);
        assert_eq!(a.scale(0.5).as_slice(), &[3.5; 4]);
    }

    #[test]
    fn norms_and_dot() {
        let a = Tensor::from_vec(1, 3, vec![3.0, 0.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert!((a.norm_sq() - 25.0).abs() < 1e-6);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        assert!((a.dot(&b) - 15.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Tensor::ones(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f32::NAN);
        assert!(a.has_non_finite());
    }
}
