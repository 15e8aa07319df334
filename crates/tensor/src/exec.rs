//! One forward definition, two executors. Every layer in [`crate::nn`] (and
//! every model built from them) writes its forward once, generic over an
//! [`Executor`]: [`Tape`] records the ops to train, [`Eval`] computes the
//! values to serve, borrowing parameters and recording nothing. Both compute
//! every value with the same [`Tensor`] kernel, so the bits agree by
//! construction. Element-wise ops take their first operand by value, and
//! `Eval` computes into its buffer; an operand needed again is passed by
//! reference or cloned (a handle copy on the tape).
//!
//! A definition may run a batch of examples at once: it stacks their rows
//! and marks them with [`Executor::stacked`], and the per-entity ops take
//! the row counts of their segments (`counts`), one entity's rows each. A
//! single entity is the one-segment case. On a tape the marks let the
//! backward hand each example its own gradients; evaluation ignores them.

use crate::{ParamId, Params, Tape, Tensor, Var};
use std::borrow::Cow;

/// Executes the ops a forward definition is written in; `'p` is the
/// lifetime of the parameter store a pass reads.
pub trait Executor<'p> {
    /// A value handle: a node on a [`Tape`], the value itself in [`Eval`].
    type V: Clone;

    /// The value behind a handle.
    fn value<'a>(&'a self, v: &'a Self::V) -> &'a Tensor;

    /// Shape of the value behind a handle.
    fn shape(&self, v: &Self::V) -> (usize, usize) {
        self.value(v).shape()
    }

    /// A non-trainable input.
    fn constant(&mut self, value: Tensor) -> Self::V;
    /// Parameter `id` of `params`.
    fn param(&mut self, params: &'p Params, id: ParamId) -> Self::V;
    /// Rows `indices` of parameter `id` (duplicates allowed).
    fn param_rows(&mut self, params: &'p Params, id: ParamId, indices: &[usize]) -> Self::V;

    /// `a + b`, element-wise.
    fn add(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `a - b`, element-wise.
    fn sub(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `a ⊙ b`, element-wise.
    fn mul(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `a` plus the `1 × c` `row` on every row.
    fn add_row_broadcast(&mut self, a: Self::V, row: &Self::V) -> Self::V;
    /// `alpha · a`.
    fn scale(&mut self, a: Self::V, alpha: f32) -> Self::V;
    /// `a + alpha` on every element.
    fn add_scalar(&mut self, a: Self::V, alpha: f32) -> Self::V;
    /// Element-wise `tanh`.
    fn tanh(&mut self, a: Self::V) -> Self::V;
    /// Element-wise logistic sigmoid.
    fn sigmoid(&mut self, a: Self::V) -> Self::V;
    /// Element-wise `max(x, 0)`.
    fn relu(&mut self, a: Self::V) -> Self::V;
    /// Element-wise square.
    fn square(&mut self, a: Self::V) -> Self::V;
    /// Softmax of each segment of an `m × 1` column on its own
    /// ([`Tensor::softmax_col_assign`]); segment `s` is the next
    /// `counts[s]` rows.
    fn softmax_col(&mut self, a: Self::V, counts: &[usize]) -> Self::V;
    /// `a + b + bias` per segment of rows, `bias` a `1 × c` row and `b` one
    /// row per row of `a` or one per segment, with the association of a
    /// one-row context (see [`Tape::add_biased`]).
    fn add_biased(&mut self, a: Self::V, b: &Self::V, bias: &Self::V, counts: &[usize]) -> Self::V;

    /// Matrix product `a · b`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `Σ_r weights[r] · x[r, :]` ([`Tensor::weighted_row_sum`]) of each
    /// segment of rows: one output row per segment, `+0.0` for an empty one.
    fn weighted_row_sum(&mut self, x: &Self::V, weights: &Self::V, counts: &[usize]) -> Self::V;
    /// Column-wise sum over each segment of rows: one output row per
    /// segment, `+0.0` for an empty one.
    fn sum_rows(&mut self, a: &Self::V, counts: &[usize]) -> Self::V;
    /// Row-wise sum, `r × 1`.
    fn sum_cols(&mut self, a: &Self::V) -> Self::V;
    /// Horizontal concatenation.
    fn concat_cols(&mut self, parts: &[&Self::V]) -> Self::V;
    /// Vertical concatenation.
    fn concat_rows(&mut self, parts: &[&Self::V]) -> Self::V;
    /// Columns `start..end`.
    fn slice_cols(&mut self, a: &Self::V, start: usize, end: usize) -> Self::V;
    /// The listed rows (duplicates allowed).
    fn gather_rows(&mut self, a: &Self::V, indices: &[usize]) -> Self::V;
    /// 1-D convolution unfold ([`Tensor::im2col`]).
    fn im2col(&mut self, x: &Self::V, width: usize) -> Self::V;
    /// Column-wise maximum over the rows, `1 × c`.
    fn max_over_rows(&mut self, x: &Self::V) -> Self::V;

    /// `v`, its rows marked as stacked over a batch of `counts.len()`
    /// examples: `counts[0]` rows of the first, `counts[1]` of the second,
    /// and so on ([`Tape::stacked`]). Evaluation returns `v` as it is.
    fn stacked(&mut self, v: Self::V, _counts: &[usize]) -> Self::V {
        v
    }

    /// Affine map `x · w + b`, `b` broadcast over the rows.
    fn affine(&mut self, x: &Self::V, w: &Self::V, b: &Self::V) -> Self::V {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, b)
    }
}

/// Writes each listed op as a one-expression method: on [`Tape`] the
/// tape's own recording method of the same name, handed the listed
/// arguments; on [`Eval`] the listed expression.
macro_rules! ops {
    (record; $($op:ident($($arg:ident: $ty:ty),*) => ($($pass:expr),*);)*) => {
        $(fn $op(&mut self, $($arg: $ty),*) -> Var {
            Tape::$op(self, $($pass),*)
        })*
    };
    ($v:ty; $($op:ident($($arg:ident: $ty:ty),*) => $body:expr;)*) => {
        $(fn $op(&mut self, $($arg: $ty),*) -> $v {
            $body
        })*
    };
}

impl<'p> Executor<'p> for Tape<'_> {
    type V = Var;

    fn value<'a>(&'a self, v: &'a Var) -> &'a Tensor {
        Tape::value(self, *v)
    }
    fn concat_cols(&mut self, parts: &[&Var]) -> Var {
        self.concat(parts.iter().map(|&&p| p), false)
    }
    fn concat_rows(&mut self, parts: &[&Var]) -> Var {
        self.concat(parts.iter().map(|&&p| p), true)
    }
    fn stacked(&mut self, v: Var, counts: &[usize]) -> Var {
        Tape::stacked(self, v, counts)
    }
    ops! { record;
        constant(value: Tensor) => (value);
        param(params: &'p Params, id: ParamId) => (params, id);
        param_rows(params: &'p Params, id: ParamId, indices: &[usize]) => (params, id, indices);
        add(a: Var, b: &Var) => (a, *b);
        sub(a: Var, b: &Var) => (a, *b);
        mul(a: Var, b: &Var) => (a, *b);
        add_row_broadcast(a: Var, row: &Var) => (a, *row);
        scale(a: Var, alpha: f32) => (a, alpha);
        add_scalar(a: Var, alpha: f32) => (a, alpha);
        tanh(a: Var) => (a);
        sigmoid(a: Var) => (a);
        relu(a: Var) => (a);
        square(a: Var) => (a);
        softmax_col(a: Var, counts: &[usize]) => (a, counts);
        add_biased(a: Var, b: &Var, bias: &Var, counts: &[usize]) => (a, *b, *bias, counts);
        matmul(a: &Var, b: &Var) => (*a, *b);
        weighted_row_sum(x: &Var, weights: &Var, counts: &[usize]) => (*x, *weights, counts);
        sum_rows(a: &Var, counts: &[usize]) => (*a, counts);
        sum_cols(a: &Var) => (*a);
        slice_cols(a: &Var, start: usize, end: usize) => (*a, start, end);
        gather_rows(a: &Var, indices: &[usize]) => (*a, indices);
        im2col(x: &Var, width: usize) => (*x, width);
        max_over_rows(x: &Var) => (*x);
    }
}

/// The value evaluator: runs a forward definition without recording it.
/// Parameters stay borrowed from their store; every intermediate is an
/// owned [`Tensor`] dropped as soon as the definition stops using it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Eval;

/// A value on [`Eval`]: a borrowed parameter or an owned intermediate.
type Value<'p> = Cow<'p, Tensor>;

/// The tensors behind `parts`.
fn tensors<'a>(parts: &[&'a Value<'_>]) -> Vec<&'a Tensor> {
    parts.iter().map(|p| &***p).collect()
}

/// The tensor `fill` writes into a fresh buffer.
fn owned(fill: impl FnOnce(&mut Tensor)) -> Tensor {
    let mut out = Tensor::default();
    fill(&mut out);
    out
}

/// Applies `f` to `a`'s own buffer, copying a borrowed value first.
fn in_place(a: Value<'_>, f: impl FnOnce(&mut Tensor)) -> Value<'_> {
    let mut out = a.into_owned();
    f(&mut out);
    Cow::Owned(out)
}

impl<'p> Executor<'p> for Eval {
    type V = Value<'p>;

    fn value<'a>(&'a self, v: &'a Self::V) -> &'a Tensor {
        v
    }
    ops! { Value<'p>;
        constant(value: Tensor) => Cow::Owned(value);
        param(params: &'p Params, id: ParamId) => Cow::Borrowed(params.get(id));
        param_rows(params: &'p Params, id: ParamId, indices: &[usize]) => Cow::Owned(params.get(id).gather_rows(indices));
        add(a: Value<'p>, b: &Value<'p>) => in_place(a, |t| t.add_assign(b));
        sub(a: Value<'p>, b: &Value<'p>) => in_place(a, |t| t.sub_assign(b));
        mul(a: Value<'p>, b: &Value<'p>) => in_place(a, |t| t.mul_assign(b));
        add_row_broadcast(a: Value<'p>, row: &Value<'p>) => in_place(a, |t| t.add_row_broadcast_assign(row));
        scale(a: Value<'p>, alpha: f32) => in_place(a, |t| t.map_inplace(|x| alpha * x));
        add_scalar(a: Value<'p>, alpha: f32) => in_place(a, |t| t.map_inplace(|x| x + alpha));
        tanh(a: Value<'p>) => in_place(a, |t| t.map_inplace(f32::tanh));
        sigmoid(a: Value<'p>) => in_place(a, |t| t.map_inplace(crate::tensor::sigmoid));
        relu(a: Value<'p>) => in_place(a, |t| t.map_inplace(|x| x.max(0.0)));
        square(a: Value<'p>) => in_place(a, |t| t.map_inplace(|x| x * x));
        softmax_col(a: Value<'p>, counts: &[usize]) => in_place(a, |t| t.softmax_col_segments_assign(counts));
        add_biased(a: Value<'p>, b: &Value<'p>, bias: &Value<'p>, counts: &[usize]) => in_place(a, |t| t.add_biased_assign(b, bias, counts));
        matmul(a: &Value<'p>, b: &Value<'p>) => Cow::Owned(a.matmul(b));
        weighted_row_sum(x: &Value<'p>, weights: &Value<'p>, counts: &[usize]) => Cow::Owned(owned(|out| x.weighted_row_sum_into(weights, counts, out)));
        sum_rows(a: &Value<'p>, counts: &[usize]) => Cow::Owned(owned(|out| a.sum_rows_into(counts, out)));
        sum_cols(a: &Value<'p>) => Cow::Owned(a.sum_cols());
        concat_cols(parts: &[&Value<'p>]) => Cow::Owned(Tensor::concat_cols(&tensors(parts)));
        concat_rows(parts: &[&Value<'p>]) => Cow::Owned(Tensor::concat_rows(&tensors(parts)));
        slice_cols(a: &Value<'p>, start: usize, end: usize) => Cow::Owned(a.slice_cols(start, end));
        gather_rows(a: &Value<'p>, indices: &[usize]) => Cow::Owned(a.gather_rows(indices));
        im2col(x: &Value<'p>, width: usize) => Cow::Owned(x.im2col(width));
        max_over_rows(x: &Value<'p>) => Cow::Owned(x.max_over_rows().0);
    }
}
