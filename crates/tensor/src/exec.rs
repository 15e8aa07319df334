//! One forward definition, two executors. Every layer in [`crate::nn`] (and
//! every model built from them) writes its forward once, generic over an
//! [`Executor`]: [`Tape`] records the ops to train, [`Eval`] computes the
//! values to serve, borrowing parameters and recording nothing. Both compute
//! every value with the same [`Tensor`] kernel, so the bits agree by
//! construction. Element-wise ops take their first operand by value, and
//! `Eval` computes into its buffer; an operand needed again is passed by
//! reference or cloned (a handle copy on the tape).

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
    /// Softmax of an `m × 1` column ([`Tensor::softmax_col_assign`]).
    fn softmax_col(&mut self, a: Self::V) -> Self::V;

    /// Matrix product `a · b`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `Σ_r weights[r] · x[r, :]` ([`Tensor::weighted_row_sum`]).
    fn weighted_row_sum(&mut self, x: &Self::V, weights: &Self::V) -> Self::V;
    /// Column-wise sum over the rows, `1 × c`.
    fn sum_rows(&mut self, a: &Self::V) -> Self::V;
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

impl<'p> Executor<'p> for Tape {
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
        softmax_col(a: Var) => (a);
        matmul(a: &Var, b: &Var) => (*a, *b);
        weighted_row_sum(x: &Var, weights: &Var) => (*x, *weights);
        sum_rows(a: &Var) => (*a);
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
        softmax_col(a: Value<'p>) => in_place(a, Tensor::softmax_col_assign);
        matmul(a: &Value<'p>, b: &Value<'p>) => Cow::Owned(a.matmul(b));
        weighted_row_sum(x: &Value<'p>, weights: &Value<'p>) => Cow::Owned(x.weighted_row_sum(weights));
        sum_rows(a: &Value<'p>) => Cow::Owned(a.sum_rows());
        sum_cols(a: &Value<'p>) => Cow::Owned(a.sum_cols());
        concat_cols(parts: &[&Value<'p>]) => Cow::Owned(Tensor::concat_cols(&tensors(parts)));
        concat_rows(parts: &[&Value<'p>]) => Cow::Owned(Tensor::concat_rows(&tensors(parts)));
        slice_cols(a: &Value<'p>, start: usize, end: usize) => Cow::Owned(a.slice_cols(start, end));
        gather_rows(a: &Value<'p>, indices: &[usize]) => Cow::Owned(a.gather_rows(indices));
        im2col(x: &Value<'p>, width: usize) => Cow::Owned(x.im2col(width));
        max_over_rows(x: &Value<'p>) => Cow::Owned(x.max_over_rows().0);
    }
}
