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

use crate::kernel::{self, Lhs, Width, NT_BLOCKED_ROWS};
use std::fmt;
use std::ops::Range;

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

/// The row ranges of consecutive segments of `counts[s]` rows each, which
/// must cover exactly `rows` rows.
pub(crate) fn segments(counts: &[usize], rows: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    assert_eq!(counts.iter().sum::<usize>(), rows, "segments {counts:?} do not cover {rows} rows");
    counts.iter().scan(0, |start, &n| {
        *start += n;
        Some(*start - n..*start)
    })
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

    /// Reshapes `self` into a `rows × cols` tensor whose every element the
    /// caller overwrites, keeping its buffer and skipping the zero fill:
    /// the elements it holds until then are unspecified.
    fn reset_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
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
        self.weighted_row_sum_into(weights, &[self.rows], &mut out);
        out
    }

    /// [`Tensor::weighted_row_sum`] of each segment of rows, one output row
    /// per segment (`counts.len() × cols`): segment `s` is the next
    /// `counts[s]` rows, and an empty one pools to `+0.0`.
    pub(crate) fn weighted_row_sum_into(&self, weights: &Tensor, counts: &[usize], out: &mut Tensor) {
        assert_eq!(weights.cols, 1, "weighted_row_sum: weights must be a column vector");
        assert_eq!(weights.rows, self.rows, "weighted_row_sum: {} rows vs {} weights", self.rows, weights.rows);
        out.reset(counts.len(), self.cols);
        for (s, rows) in segments(counts, self.rows).enumerate() {
            let out_row = &mut out.data[s * self.cols..(s + 1) * self.cols];
            for r in rows {
                let w = weights.data[r];
                for (o, &x) in out_row.iter_mut().zip(self.row(r)) {
                    *o += x * w;
                }
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
        self.softmax_col_segments_assign(&[self.rows]);
    }

    /// [`Tensor::softmax_col_assign`] of each segment of the column on its
    /// own: segment `s` is the next `counts[s]` rows.
    pub(crate) fn softmax_col_segments_assign(&mut self, counts: &[usize]) {
        assert_eq!(self.cols, 1, "softmax_col: {} columns, expected one", self.cols);
        for rows in segments(counts, self.rows) {
            softmax_in_place(&mut self.data[rows]);
        }
    }

    /// `self + b + bias`, `bias` a `1 × cols` row broadcast over the rows,
    /// per segment of rows (segment `s` is the next `counts[s]` rows) and
    /// with the association a one-row context has. `b` holds either one
    /// row per row of `self` or one row per segment. A segment whose
    /// context is one row — one per segment, or the one row of a one-row
    /// segment — adds `self + (b + bias)`, as broadcasting a single context
    /// row over the segment does; a segment with a context row per row adds
    /// `(self + b) + bias`.
    pub(crate) fn add_biased_assign(&mut self, b: &Tensor, bias: &Tensor, counts: &[usize]) {
        let per_row = b.rows == self.rows;
        assert!(per_row || b.rows == counts.len(), "add_biased: {} context rows for {} rows in {} segments", b.rows, self.rows, counts.len());
        assert_eq!((b.cols, bias.rows, bias.cols), (self.cols, 1, self.cols), "add_biased: column counts differ");
        for (s, rows) in segments(counts, self.rows).enumerate() {
            if !per_row || rows.len() == 1 {
                let b_row = if per_row { rows.start } else { s };
                for r in rows {
                    let out = &mut self.data[r * self.cols..(r + 1) * self.cols];
                    for ((o, &bv), &biv) in out.iter_mut().zip(b.row(b_row)).zip(&bias.data) {
                        *o += bv + biv;
                    }
                }
            } else {
                for r in rows {
                    let out = &mut self.data[r * self.cols..(r + 1) * self.cols];
                    for ((o, &bv), &biv) in out.iter_mut().zip(b.row(r)).zip(&bias.data) {
                        *o = (*o + bv) + biv;
                    }
                }
            }
        }
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
        self.matmul_into_on(Width::host(), other, out);
    }

    /// [`Tensor::matmul_into`] on the `width` copy of the kernel.
    pub(crate) fn matmul_into_on(&self, width: Width, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} . {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.reset_for_overwrite(m, n);
        kernel::product(width, m, k, n, Lhs::Rows(&self.data), &other.data, &mut out.data);
    }

    /// `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_nt_into(other, &mut out, &mut Tensor::default());
        out
    }

    /// [`Tensor::matmul_nt`] into `out`'s buffer: per row blocks on `other`
    /// as it lies for a left factor of fewer than [`NT_BLOCKED_ROWS`] rows,
    /// else [`kernel::product`] over `otherᵀ` written into `other_t`'s
    /// buffer.
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor, other_t: &mut Tensor) {
        self.matmul_nt_into_on(Width::host(), other, out, other_t);
    }

    /// [`Tensor::matmul_nt_into`] on the `width` copy of the kernel.
    pub(crate) fn matmul_nt_into_on(&self, width: Width, other: &Tensor, out: &mut Tensor, other_t: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: {}x{} . ({}x{})^T inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        out.reset_for_overwrite(m, n);
        if m >= NT_BLOCKED_ROWS {
            other.transpose_into(other_t);
            kernel::product(width, m, k, n, Lhs::Rows(&self.data), &other_t.data, &mut out.data);
            return;
        }
        for i in 0..m {
            let (a_row, out_row) = (&self.data[i * k..(i + 1) * k], &mut out.data[i * n..(i + 1) * n]);
            let j = kernel::transposed_blocks::<8>(a_row, &other.data, k, 0, out_row);
            kernel::transposed_blocks::<1>(a_row, &other.data, k, j, out_row);
        }
    }

    /// `selfᵀ · other` without materialising the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_tn_rows_into(other, 0..self.rows, &mut out);
        out
    }

    /// `self[rows]ᵀ · other[rows]` into `out`'s buffer: the
    /// [`Tensor::matmul_tn`] of the two factors' rows `rows` (one example's
    /// segment of a stacked batch), with the left factor read down `self`'s
    /// columns.
    pub(crate) fn matmul_tn_rows_into(&self, other: &Tensor, rows: Range<usize>, out: &mut Tensor) {
        self.matmul_tn_rows_into_on(Width::host(), other, rows, out);
    }

    /// [`Tensor::matmul_tn_rows_into`] on the `width` copy of the kernel.
    pub(crate) fn matmul_tn_rows_into_on(&self, width: Width, other: &Tensor, rows: Range<usize>, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: ({}x{})^T . {}x{} inner dimensions disagree",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.cols, other.cols);
        let (a, b) = (&self.data[rows.start * m..rows.end * m], &other.data[rows.start * n..rows.end * n]);
        out.reset_for_overwrite(m, n);
        kernel::product(width, m, rows.len(), n, Lhs::Cols(a), b, &mut out.data);
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] into `out`'s buffer.
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        out.reset_for_overwrite(self.cols, self.rows);
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
        self.sum_rows_into(&[self.rows], &mut out);
        out
    }

    /// [`Tensor::sum_rows`] of each segment of rows into `out`'s buffer, one
    /// output row per segment (`counts.len() × cols`): segment `s` is the
    /// next `counts[s]` rows, and an empty one sums to `+0.0`.
    pub(crate) fn sum_rows_into(&self, counts: &[usize], out: &mut Tensor) {
        out.reset(counts.len(), self.cols);
        for (s, rows) in segments(counts, self.rows).enumerate() {
            self.sum_row_range(rows, &mut out.data[s * self.cols..(s + 1) * self.cols]);
        }
    }

    /// `out[c] += Σ_{r ∈ rows} self[r, c]`, in ascending `r`.
    pub(crate) fn sum_row_range(&self, rows: Range<usize>, out: &mut [f32]) {
        for r in rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
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
        out.reset(self.rows, end - start);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
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
