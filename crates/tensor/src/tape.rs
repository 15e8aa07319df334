//! Reverse-mode automatic differentiation on a reusable tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node; the
//! resulting computation graph is a DAG ordered by construction, so the
//! backward pass is a single reverse sweep that accumulates adjoints into the
//! parents of each node. Parameters live in a [`Params`] store outside the
//! tape; [`Tape::param`] snapshots a parameter value into the graph,
//! [`Tape::param_rows`] copies only the rows an embedding lookup reads, and
//! [`Tape::backward`] writes the resulting gradients back into the store —
//! a lookup's gradient as the rows it touched, never as a whole table.
//!
//! The backward skips what no parameter needs. A node needs an adjoint
//! only if a parameter is behind it: it is a `param` leaf or a `param_rows`
//! lookup, or one of its parents needs an adjoint. The flag is set when the node is pushed, and
//! the sweep computes no delta for a node without it — a tower's review
//! matrix is a constant, so the `g·w_revᵀ` of its projection is never
//! formed. Every delta on a path from the loss to a parameter is still
//! computed by the same kernel, from the same operands, in the same order,
//! so parameter gradients keep their bits.
//!
//! One tape serves a whole training run: [`Tape::reset`] empties it for the
//! next step but keeps every value and adjoint buffer, and the ops and the
//! backward write into those buffers, so a warmed-up tape records and
//! differentiates a pass of the same shape without allocating. The design
//! stays free of interior mutability and reference cycles.

use crate::{GradSink, ParamId, Params, Tensor};
use std::ops::Range;

/// Handle to a node on a [`Tape`]. Only valid for the tape that created it,
/// until its next [`Tape::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// A run of one of a tape's payload arenas (indices, handles, weights).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// The recorded operation of a node, with its parent handles and any data the
/// backward pass needs; list payloads live in the tape's arenas.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Input constant or parameter snapshot.
    Leaf { param: Option<ParamId> },
    /// Rows `indices` of parameter `param` (duplicates allowed), read
    /// straight from the store.
    ParamRows { param: ParamId, indices: Span },
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise product.
    Mul(Var, Var),
    /// `x + row` where `row` is `1 × c`, broadcast over the rows of `x`.
    AddRowBroadcast(Var, Var),
    /// `x * col` where `col` is `r × 1`, broadcast over the columns of `x`.
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    MatMul(Var, Var),
    Transpose(Var),
    Tanh(Var),
    Sigmoid(Var),
    Relu(Var),
    Square(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Softmax of an `m × 1` column; masked rows hold exactly zero.
    SoftmaxCol(Var),
    /// `Σ_r w[r] · x[r, :]` with `w` an `r × 1` column, producing `1 × c`.
    WeightedRowSum(Var, Var),
    ConcatCols(Span),
    ConcatRows(Span),
    SliceCols(Var, usize, usize),
    /// Gathers rows of node `table` listed in `indices` (duplicates allowed).
    GatherRows { table: Var, indices: Span },
    SumAll(Var),
    MeanAll(Var),
    /// Column-wise sum producing `1 × c`.
    SumRows(Var),
    /// Row-wise sum producing `r × 1`.
    SumCols(Var),
    /// Sliding-window unfold for 1-D convolution: `[T, d] -> [T-w+1, w*d]`.
    Im2Col { x: Var, width: usize },
    /// Max-over-time pooling over rows, with stored argmax per column.
    MaxOverRows { x: Var, argmax: Span },
    /// Fused, numerically stable softmax + cross-entropy mean loss with
    /// optional per-row weights. Produces a `1 × 1` node.
    SoftmaxCrossEntropy { logits: Var, targets: Span, weights: Option<Span> },
}

impl Op {
    /// The parents of an op with at most two, as `(first, second)`; `None`
    /// for leaves and concatenations (whose parents are in the arena).
    fn operands(self) -> Option<(Var, Option<Var>)> {
        use Op::*;
        match self {
            Leaf { .. } | ParamRows { .. } | ConcatCols(_) | ConcatRows(_) => None,
            Add(a, b) | Sub(a, b) | Mul(a, b) | AddRowBroadcast(a, b) | MulColBroadcast(a, b) | MatMul(a, b)
            | WeightedRowSum(a, b) => Some((a, Some(b))),
            Scale(a, _) | AddScalar(a) | Transpose(a) | Tanh(a) | Sigmoid(a) | Relu(a) | Square(a)
            | SoftmaxRows(a) | SoftmaxCol(a) | SliceCols(a, _, _) | SumAll(a) | MeanAll(a) | SumRows(a)
            | SumCols(a) => Some((a, None)),
            GatherRows { table: a, .. } | Im2Col { x: a, .. } | MaxOverRows { x: a, .. } => Some((a, None)),
            SoftmaxCrossEntropy { logits, .. } => Some((logits, None)),
        }
    }
}

/// Computation tape, reusable across passes. See the module docs.
///
/// Node `i`'s op, flag and value sit at index `i` of parallel vectors;
/// `values` and `grads` also keep the spare buffers of an earlier, longer
/// pass past the live nodes.
#[derive(Debug, Default)]
pub struct Tape {
    ops: Vec<Op>,
    /// `needs_grad[i]`: a parameter is behind node `i` (see the module docs).
    needs_grad: Vec<bool>,
    values: Vec<Tensor>,
    /// Adjoint buffers; node `i`'s holds its adjoint iff `reached[i]`.
    grads: Vec<Tensor>,
    reached: Vec<bool>,
    /// Arenas holding the ops' list payloads, addressed by [`Span`].
    pub(crate) indices: Vec<usize>,
    vars: Vec<Var>,
    floats: Vec<f32>,
    /// A delta bound for an adjoint that already holds one.
    scratch: Tensor,
    /// The transposed right factor of a `g · bᵀ` delta.
    transposed: Tensor,
    /// A lookup's backward: its rows in id order, the distinct ids, and one
    /// summed gradient row per id.
    row_order: Vec<usize>,
    row_ids: Vec<usize>,
    row_sums: Tensor,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Empties the tape for the next pass, keeping every value and adjoint
    /// buffer (and the arenas' capacity) for the nodes that pass records.
    /// Handles from before the reset are invalid afterwards.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.needs_grad.clear();
        self.reached.clear();
        self.indices.clear();
        self.vars.clear();
        self.floats.clear();
    }

    /// The buffer the next node's value is written into: the spare one an
    /// earlier pass left at that position, or a fresh empty one.
    pub(crate) fn buffer(&mut self) -> Tensor {
        self.values.get_mut(self.ops.len()).map(std::mem::take).unwrap_or_default()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        let needs_grad = match op {
            Op::Leaf { param } => param.is_some(),
            Op::ParamRows { .. } => true,
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => {
                self.vars[parts.range()].iter().any(|p| self.needs_grad[p.0])
            }
            op => {
                let (a, b) = op.operands().expect("every other op has operands");
                self.needs_grad[a.0] || b.is_some_and(|b| self.needs_grad[b.0])
            }
        };
        let n = self.ops.len();
        match self.values.get_mut(n) {
            Some(slot) => *slot = value,
            None => self.values.push(value),
        }
        self.ops.push(op);
        self.needs_grad.push(needs_grad);
        self.reached.push(false);
        Var(n)
    }

    /// Records a node whose value `fill` writes into the next buffer.
    pub(crate) fn record(&mut self, op: Op, fill: impl FnOnce(&Self, &mut Tensor)) -> Var {
        let mut out = self.buffer();
        fill(self, &mut out);
        self.push(out, op)
    }

    /// Appends `indices` to the index arena.
    pub(crate) fn stash_indices(&mut self, indices: &[usize]) -> Span {
        let start = self.indices.len();
        self.indices.extend_from_slice(indices);
        Span { start, len: indices.len() }
    }

    /// Appends `weights` to the float arena.
    pub(crate) fn stash_floats(&mut self, weights: &[f32]) -> Span {
        let start = self.floats.len();
        self.floats.extend_from_slice(weights);
        Span { start, len: weights.len() }
    }

    /// The run of the index arena from `start` to its end.
    pub(crate) fn stashed_since(&self, start: usize) -> Span {
        Span { start, len: self.indices.len() - start }
    }

    /// The run `span` of the index arena.
    pub(crate) fn indices_of(&self, span: Span) -> &[usize] {
        &self.indices[span.range()]
    }

    /// Records the concatenation of `parts`, by rows or by columns.
    pub(crate) fn concat(&mut self, parts: impl Iterator<Item = Var>, by_rows: bool) -> Var {
        let start = self.vars.len();
        self.vars.extend(parts);
        let span = Span { start, len: self.vars.len() - start };
        let op = if by_rows { Op::ConcatRows(span) } else { Op::ConcatCols(span) };
        self.record(op, |t, out| {
            let parts = t.vars[span.range()].iter().map(|p| &t.values[p.0]);
            if by_rows {
                Tensor::concat_rows_into(parts, out);
            } else {
                Tensor::concat_cols_into(parts, out);
            }
        })
    }

    /// Records a non-trainable input.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Records a `rows × cols` non-trainable input copied from `values`.
    pub(crate) fn constant_from(&mut self, rows: usize, cols: usize, values: &[f32]) -> Var {
        self.record(Op::Leaf { param: None }, |_, out| {
            out.reset(rows, cols);
            out.as_mut_slice().copy_from_slice(values);
        })
    }

    /// Records a `1 × 1` constant.
    pub fn scalar(&mut self, value: f32) -> Var {
        self.constant_from(1, 1, &[value])
    }

    /// Snapshots a parameter from `params` into the graph. Gradients flowing
    /// into this node are accumulated into `params.grad_mut(id)` by
    /// [`Tape::backward`].
    ///
    /// This copies the whole tensor; an embedding lookup uses
    /// [`Tape::param_rows`] instead.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.record(Op::Leaf { param: Some(id) }, |_, out| out.copy_from(params.get(id)))
    }

    /// Gathers rows `indices` of parameter `id` into an `[indices.len(), c]`
    /// node without snapshotting the table (duplicates allowed). The backward
    /// pass hands the sink one summed gradient row per distinct index, through
    /// [`GradSink::accumulate_rows`].
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn param_rows(&mut self, params: &Params, id: ParamId, indices: &[usize]) -> Var {
        let span = self.stash_indices(indices);
        self.record(Op::ParamRows { param: id, indices: span }, |_, out| params.get(id).gather_rows_into(indices, out))
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        debug_assert!(v.0 < self.ops.len(), "Tape::value: handle from before a reset");
        &self.values[v.0]
    }

    /// The adjoint of a node after [`Tape::backward`], if it was reached.
    /// Only a node with a parameter behind it has one: the backward computes
    /// none for constants and what is built from constants alone.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.reached.get(v.0).is_some_and(|&r| r).then(|| &self.grads[v.0])
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    /// Runs the backward pass from `loss` (which must be `1 × 1`), seeding its
    /// adjoint with one, and accumulates parameter gradients into `params`.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: Var, params: &mut Params) {
        self.backward_into(loss, params);
    }

    /// Like [`Tape::backward`], but accumulates parameter gradients into an
    /// arbitrary [`GradSink`] — e.g. a detached [`crate::GradStore`] owned by
    /// one worker of a data-parallel training step. The sweep itself is
    /// identical to `backward`, so for a given tape the deltas written to the
    /// sink are bit-identical regardless of which sink receives them.
    ///
    /// The sweep skips what no parameter needs (see the module docs):
    /// adjoints stay inspectable through [`Tape::grad`] until the next
    /// `backward` or [`Tape::reset`], but only for nodes with a parameter
    /// behind them.
    pub fn backward_into(&mut self, loss: Var, sink: &mut dyn GradSink) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be 1x1, got {:?}", self.shape(loss));
        self.reached.fill(false);
        if !self.needs_grad[loss.0] {
            return;
        }
        if self.grads.len() < self.ops.len() {
            self.grads.resize_with(self.ops.len(), Tensor::default);
        }
        let seed = &mut self.grads[loss.0];
        seed.reset(1, 1);
        seed.set(0, 0, 1.0);
        self.reached[loss.0] = true;
        for idx in (0..=loss.0).rev() {
            if self.reached[idx] {
                self.backward_node(idx, sink);
            }
        }
    }

    /// Propagates the adjoint of node `idx` into its parents that need one.
    fn backward_node(&mut self, idx: usize, sink: &mut dyn GradSink) {
        let Tape {
            ops,
            needs_grad,
            values,
            grads,
            reached,
            indices,
            vars,
            floats,
            scratch,
            transposed,
            row_order,
            row_ids,
            row_sums,
        } = self;
        let (below, rest) = grads.split_at_mut(idx);
        let g = &rest[0];
        let value = |v: Var| &values[v.0];
        let mut adj = Adjoints { grads: below, reached, needs_grad, scratch };
        match ops[idx] {
            Op::Leaf { param } => {
                if let Some(id) = param {
                    sink.accumulate_grad(id, g);
                }
            }
            Op::ParamRows { param, indices: span } => {
                // Each distinct row's gradient is summed from +0.0 in index
                // order — the very additions a dense `[vocab, c]` zero table
                // would see — and only then added into the sink, so the sink
                // receives the dense path's bits on every touched row.
                let ids = &indices[span.range()];
                row_order.clear();
                row_order.extend(0..ids.len());
                row_order.sort_unstable_by_key(|&r| (ids[r], r));
                row_ids.clear();
                for &r in row_order.iter() {
                    if row_ids.last() != Some(&ids[r]) {
                        row_ids.push(ids[r]);
                    }
                }
                row_sums.reset(row_ids.len(), g.cols());
                let mut k = 0;
                for &r in row_order.iter() {
                    if row_ids[k] != ids[r] {
                        k += 1;
                    }
                    for (o, &gv) in row_sums.row_mut(k).iter_mut().zip(g.row(r)) {
                        *o += gv;
                    }
                }
                sink.accumulate_rows(param, row_ids, row_sums);
            }
            Op::Add(a, b) => {
                adj.add(a, |o| o.copy_from(g));
                adj.add(b, |o| o.copy_from(g));
            }
            Op::Sub(a, b) => {
                adj.add(a, |o| o.copy_from(g));
                adj.add(b, |o| g.map_into(o, |x| -x));
            }
            Op::Mul(a, b) => {
                adj.add(a, |o| g.zip_map_into(value(b), o, |x, y| x * y));
                adj.add(b, |o| g.zip_map_into(value(a), o, |x, y| x * y));
            }
            Op::AddRowBroadcast(a, row) => {
                adj.add(a, |o| o.copy_from(g));
                adj.add(row, |o| g.sum_rows_into(o));
            }
            Op::MulColBroadcast(a, col) => {
                // d/da = g * col (broadcast), d/dcol[r] = sum_c g[r,c]*a[r,c]
                adj.add(a, |o| g.mul_col_broadcast_into(value(col), o));
                adj.add(col, |o| g.mul_sum_cols_into(value(a), o));
            }
            Op::WeightedRowSum(x, w) => {
                // The backward of `sum_rows(mul_col_broadcast(x, w))`, run
                // as that chain runs it: `g` on every row, then the product.
                let (xv, wv) = (value(x), value(w));
                adj.add(x, |o| {
                    o.reset(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        let s = wv.get(r, 0);
                        for (o, &gv) in o.row_mut(r).iter_mut().zip(g.row(0)) {
                            *o = gv * s;
                        }
                    }
                });
                adj.add(w, |o| {
                    o.reset(xv.rows(), 1);
                    for r in 0..xv.rows() {
                        o.set(r, 0, g.row(0).iter().zip(xv.row(r)).map(|(&gv, &xv)| gv * xv).sum());
                    }
                });
            }
            Op::Scale(a, alpha) => adj.add(a, |o| g.map_into(o, |x| alpha * x)),
            Op::AddScalar(a) => adj.add(a, |o| o.copy_from(g)),
            Op::MatMul(a, b) => {
                adj.add(a, |o| g.matmul_nt_into(value(b), o, transposed));
                adj.add(b, |o| value(a).matmul_tn_into(g, o));
            }
            Op::Transpose(a) => adj.add(a, |o| g.transpose_into(o)),
            Op::Tanh(a) => {
                // d tanh = 1 - tanh², using the stored output.
                adj.add(a, |o| g.zip_map_into(&values[idx], o, |gv, y| gv * (1.0 - y * y)));
            }
            Op::Sigmoid(a) => adj.add(a, |o| g.zip_map_into(&values[idx], o, |gv, y| gv * y * (1.0 - y))),
            Op::Relu(a) => adj.add(a, |o| g.zip_map_into(value(a), o, |gv, x| if x > 0.0 { gv } else { 0.0 })),
            Op::Square(a) => adj.add(a, |o| g.zip_map_into(value(a), o, |gv, x| gv * 2.0 * x)),
            Op::SoftmaxRows(a) => {
                // For each row: dx = y ⊙ (g − (g·y) 1)
                let y = &values[idx];
                adj.add(a, |o| {
                    o.reset(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(&gv, &yv)| gv * yv).sum();
                        for (o, (&gv, &yv)) in o.row_mut(r).iter_mut().zip(g.row(r).iter().zip(y.row(r))) {
                            *o = yv * (gv - dot);
                        }
                    }
                });
            }
            Op::SoftmaxCol(a) => {
                // As the transpose/softmax_rows/transpose chain computes it:
                // dx = y ⊙ (g − (g·y) 1).
                let y = &values[idx];
                let dot: f32 = g.as_slice().iter().zip(y.as_slice()).map(|(&gv, &yv)| gv * yv).sum();
                adj.add(a, |o| y.zip_map_into(g, o, |yv, gv| yv * (gv - dot)));
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in &vars[parts.range()] {
                    let c = value(p).cols();
                    adj.add(p, |o| g.slice_cols_into(offset, offset + c, o));
                    offset += c;
                }
            }
            Op::ConcatRows(parts) => {
                let mut offset = 0;
                for &p in &vars[parts.range()] {
                    let (r, c) = value(p).shape();
                    adj.add(p, |o| {
                        o.reset(r, c);
                        o.as_mut_slice().copy_from_slice(&g.as_slice()[offset * c..(offset + r) * c]);
                    });
                    offset += r;
                }
            }
            Op::SliceCols(a, start, _end) => {
                let src = value(a);
                adj.add(a, |o| {
                    o.reset(src.rows(), src.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            o.set(r, start + c, g.get(r, c));
                        }
                    }
                });
            }
            Op::GatherRows { table, indices: span } => {
                let src = value(table);
                adj.add(table, |o| {
                    o.reset(src.rows(), src.cols());
                    for (r, &idx) in indices[span.range()].iter().enumerate() {
                        for (o, &gv) in o.row_mut(idx).iter_mut().zip(g.row(r)) {
                            *o += gv;
                        }
                    }
                });
            }
            Op::SumAll(a) => {
                let (r, c) = value(a).shape();
                adj.add(a, |o| {
                    o.reset(r, c);
                    o.as_mut_slice().fill(g.item());
                });
            }
            Op::MeanAll(a) => {
                let (r, c) = value(a).shape();
                let n = (r * c) as f32;
                adj.add(a, |o| {
                    o.reset(r, c);
                    o.as_mut_slice().fill(g.item() / n);
                });
            }
            Op::SumRows(a) => {
                let (r, c) = value(a).shape();
                adj.add(a, |o| {
                    o.reset(r, c);
                    for rr in 0..r {
                        o.row_mut(rr).copy_from_slice(g.row(0));
                    }
                });
            }
            Op::SumCols(a) => {
                let (r, c) = value(a).shape();
                adj.add(a, |o| {
                    o.reset(r, c);
                    for rr in 0..r {
                        o.row_mut(rr).fill(g.get(rr, 0));
                    }
                });
            }
            Op::Im2Col { x, width } => {
                let (t, d) = value(x).shape();
                adj.add(x, |o| {
                    o.reset(t, d);
                    let windows = t + 1 - width;
                    for w in 0..windows {
                        for off in 0..width {
                            for c in 0..d {
                                let gv = g.get(w, off * d + c);
                                let cur = o.get(w + off, c);
                                o.set(w + off, c, cur + gv);
                            }
                        }
                    }
                });
            }
            Op::MaxOverRows { x, argmax } => {
                let src = value(x);
                adj.add(x, |o| {
                    o.reset(src.rows(), src.cols());
                    for (c, &r) in indices[argmax.range()].iter().enumerate() {
                        o.set(r, c, g.get(0, c));
                    }
                });
            }
            Op::SoftmaxCrossEntropy { logits, targets, weights } => {
                let z = value(logits);
                let targets = &indices[targets.range()];
                let weights = weights.map(|w| &floats[w.range()]);
                let n = z.rows() as f32;
                let gscale = g.item();
                adj.add(logits, |o| {
                    o.reset(z.rows(), z.cols());
                    for r in 0..z.rows() {
                        let row = z.row(r);
                        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
                        let w = weights.map_or(1.0, |ws| ws[r]);
                        for (c, o) in o.row_mut(r).iter_mut().enumerate() {
                            let p = (row[c] - m).exp() / denom;
                            let y = if c == targets[r] { 1.0 } else { 0.0 };
                            *o = gscale * w * (p - y) / n;
                        }
                    }
                });
            }
        }
    }
}

/// The adjoints of the nodes below the one being differentiated, with the
/// scratch buffer a delta goes to when its parent already holds one.
struct Adjoints<'t> {
    grads: &'t mut [Tensor],
    reached: &'t mut [bool],
    needs_grad: &'t [bool],
    scratch: &'t mut Tensor,
}

impl Adjoints<'_> {
    /// Adds the delta `fill` writes onto `p`'s adjoint. `fill` overwrites the
    /// whole buffer it is handed, so the delta is computed from `+0.0` as an
    /// owned tensor would be: the first delta lands in the adjoint's own
    /// buffer, a later one in the scratch and is then added on. For a parent
    /// with no parameter behind it `fill` never runs.
    fn add(&mut self, p: Var, fill: impl FnOnce(&mut Tensor)) {
        if !self.needs_grad[p.0] {
            return;
        }
        if self.reached[p.0] {
            fill(self.scratch);
            self.grads[p.0].add_assign(self.scratch);
        } else {
            fill(&mut self.grads[p.0]);
            self.reached[p.0] = true;
        }
    }
}
