//! Reverse-mode automatic differentiation on a reusable tape.
//!
//! A [`Tape`] records every operation of one forward pass as a node; the
//! resulting computation graph is a DAG ordered by construction, so the
//! backward pass is a single reverse sweep that accumulates adjoints into the
//! parents of each node. Parameters live in a [`Params`] store outside the
//! tape. [`Tape::param`] puts a parameter into the graph: it reads the store
//! in place on a tape [bound](Tape::bind) to that store, and snapshots the
//! value otherwise. [`Tape::param_rows`] copies only the rows an embedding
//! lookup reads, and [`Tape::backward`] writes the resulting gradients back
//! into the store — a lookup's gradient as the rows it touched, never as a
//! whole table.
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
//! A pass may run a batch of examples stacked as one computation: a value
//! the forward marks [`stacked`](Tape::stacked) holds, in order, each
//! example's rows, and what is computed row by row from it stays stacked.
//! A parameter, and a value computed from parameters alone (FM's
//! `square(v)`), is *shared*: one value for the batch, one adjoint per
//! example, each accumulated from its consumers in the order the example's
//! own pass would. A product or a broadcast that meets a shared operand
//! reduces that operand's delta over each example's rows on its own, from
//! `+0.0`. The backward hands the sink its gradients tagged by example and
//! replays them example by example, each example's in node order, so the
//! sink receives the additions of the examples' own passes run one after
//! the other, in the same order: every bit is theirs.
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Parameter read in place from the store the tape is bound to.
    Param(ParamId),
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
    /// Softmax of each segment (the arena's row counts) of an `m × 1`
    /// column on its own.
    SoftmaxCol(Var, Span),
    /// Per segment `s`, `Σ_{r ∈ s} w[r] · x[r, :]` with `w` an `r × 1`
    /// column: one output row per segment.
    WeightedRowSum(Var, Var, Span),
    /// `a + b + bias` per segment, with a one-row context's association
    /// ([`Tensor::add_biased_assign`]).
    AddBiased { a: Var, b: Var, bias: Var, counts: Span },
    ConcatCols(Span),
    ConcatRows(Span),
    SliceCols(Var, usize, usize),
    /// Gathers rows of node `table` listed in `indices` (duplicates allowed).
    GatherRows { table: Var, indices: Span },
    SumAll(Var),
    MeanAll(Var),
    /// Column-wise sum of each segment of rows: one output row per segment.
    SumRows(Var, Span),
    /// Row-wise sum producing `r × 1`.
    SumCols(Var),
    /// Sliding-window unfold for 1-D convolution: `[T, d] -> [T-w+1, w*d]`.
    Im2Col { x: Var, width: usize },
    /// Max-over-time pooling over rows, with stored argmax per column.
    MaxOverRows { x: Var, argmax: Span },
    /// Fused, numerically stable softmax + cross-entropy with optional
    /// per-row weights: their mean (`1 × 1`), or with `per_row` each row's
    /// own loss (`n × 1`).
    SoftmaxCrossEntropy { logits: Var, targets: Span, weights: Option<Span>, per_row: bool },
}

impl Op {
    /// The parents of an op with at most two, as `(first, second)`; `None`
    /// for leaves and concatenations (whose parents are in the arena).
    fn operands(self) -> Option<(Var, Option<Var>)> {
        use Op::*;
        match self {
            Leaf { .. } | Param(_) | ParamRows { .. } | ConcatCols(_) | ConcatRows(_) | AddBiased { .. } => None,
            Add(a, b) | Sub(a, b) | Mul(a, b) | AddRowBroadcast(a, b) | MulColBroadcast(a, b) | MatMul(a, b)
            | WeightedRowSum(a, b, _) => Some((a, Some(b))),
            Scale(a, _) | AddScalar(a) | Transpose(a) | Tanh(a) | Sigmoid(a) | Relu(a) | Square(a)
            | SoftmaxRows(a) | SoftmaxCol(a, _) | SliceCols(a, _, _) | SumAll(a) | MeanAll(a) | SumRows(a, _)
            | SumCols(a) => Some((a, None)),
            GatherRows { table: a, .. } | Im2Col { x: a, .. } | MaxOverRows { x: a, .. } => Some((a, None)),
            SoftmaxCrossEntropy { logits, .. } => Some((logits, None)),
        }
    }
}

/// How a node's rows belong to the examples of the pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// An input or a lookup not yet [stacked](Tape::stacked), or a value
    /// built from inputs alone: in a one-example pass all of it is the
    /// example's; in a batch it must be stacked before its rows are
    /// attributed to examples.
    Free,
    /// A parameter, or a value computed from parameters (and inputs) alone:
    /// one value for the batch, one adjoint per example.
    Shared,
    /// Stacked: example `e`'s rows are `bounds[start + e]..bounds[start + e + 1]`.
    Rows(Span),
}

/// Computation tape, reusable across passes. See the module docs.
///
/// Node `i`'s op, flag, layout and value sit at index `i` of parallel
/// vectors; `values` and `grads` also keep the spare buffers of an earlier,
/// longer pass past the live nodes. `'p` is the lifetime of the store a
/// [bound](Tape::bind) tape reads its parameters from.
#[derive(Debug, Default)]
pub struct Tape<'p> {
    /// The store [`Tape::param`] reads in place.
    params: Option<&'p Params>,
    ops: Vec<Op>,
    /// `needs_grad[i]`: a parameter is behind node `i` (see the module docs).
    needs_grad: Vec<bool>,
    layouts: Vec<Layout>,
    values: Vec<Tensor>,
    /// Adjoint buffers of the nodes not shared; node `i`'s holds its
    /// adjoint iff `reached[i]`.
    grads: Vec<Tensor>,
    reached: Vec<bool>,
    /// Examples stacked in the pass by [`Tape::stacked`]; 0 until then
    /// (one example, see [`Tape::batch`]).
    examples: usize,
    /// Row offsets of the stacked layouts, `batch + 1` per layout.
    bounds: Vec<usize>,
    /// The layout of one row per example, once a pass has stashed it.
    unit: Option<Span>,
    /// Per node, its index among the shared nodes (set by the backward).
    slots: Vec<usize>,
    /// Shared node `slot`'s adjoint for example `e` is at `slot · batch + e`,
    /// held iff bit `e` of `shared_reached[slot]` is set.
    shared_grads: Vec<Tensor>,
    shared_reached: Vec<u64>,
    /// `(example, node)` of every gradient the backward hands the sink.
    handoffs: Vec<(usize, usize)>,
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

impl Tape<'static> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<'p> Tape<'p> {
    /// This tape, with its buffers, bound to `params`: [`Tape::param`] of
    /// that store then reads it in place instead of copying it. Resets the
    /// tape.
    pub fn bind<'q>(self, params: &'q Params) -> Tape<'q> {
        self.rebind(Some(params))
    }

    /// This tape, with its buffers, bound to no store. Resets the tape.
    pub fn unbind(self) -> Tape<'static> {
        self.rebind(None)
    }

    fn rebind<'q>(self, params: Option<&'q Params>) -> Tape<'q> {
        let mut tape = Tape {
            params,
            ops: self.ops,
            needs_grad: self.needs_grad,
            layouts: self.layouts,
            values: self.values,
            grads: self.grads,
            reached: self.reached,
            examples: self.examples,
            bounds: self.bounds,
            unit: self.unit,
            slots: self.slots,
            shared_grads: self.shared_grads,
            shared_reached: self.shared_reached,
            handoffs: self.handoffs,
            indices: self.indices,
            vars: self.vars,
            floats: self.floats,
            scratch: self.scratch,
            transposed: self.transposed,
            row_order: self.row_order,
            row_ids: self.row_ids,
            row_sums: self.row_sums,
        };
        tape.reset();
        tape
    }

    /// Examples in the pass: as many as [`Tape::stacked`] named, else one.
    fn batch(&self) -> usize {
        self.examples.max(1)
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
        self.layouts.clear();
        self.reached.clear();
        self.indices.clear();
        self.vars.clear();
        self.floats.clear();
        self.bounds.clear();
        self.unit = None;
        self.examples = 0;
        self.handoffs.clear();
    }

    /// The buffer the next node's value is written into: the spare one an
    /// earlier pass left at that position, or a fresh empty one.
    pub(crate) fn buffer(&mut self) -> Tensor {
        self.values.get_mut(self.ops.len()).map(std::mem::take).unwrap_or_default()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        let n = self.ops.len();
        match self.values.get_mut(n) {
            Some(slot) => *slot = value,
            None => self.values.push(value),
        }
        self.push_op(op)
    }

    /// Appends node `op`, whose value is already in place.
    fn push_op(&mut self, op: Op) -> Var {
        let needs_grad = match op {
            Op::Leaf { param } => param.is_some(),
            Op::Param(_) | Op::ParamRows { .. } => true,
            op => self.operands(op).any(|p| self.needs_grad[p.0]),
        };
        let layout = self.layout_of(op, needs_grad);
        let n = self.ops.len();
        self.ops.push(op);
        self.needs_grad.push(needs_grad);
        self.layouts.push(layout);
        self.reached.push(false);
        Var(n)
    }

    /// The parents of `op`.
    fn operands(&self, op: Op) -> impl Iterator<Item = Var> + '_ {
        let listed: &[Var] = match op {
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => &self.vars[parts.range()],
            _ => &[],
        };
        let (first, second, third) = match op {
            Op::AddBiased { a, b, bias, .. } => (Some(a), Some(b), Some(bias)),
            op => match op.operands() {
                Some((a, b)) => (Some(a), b, None),
                None => (None, None, None),
            },
        };
        listed.iter().copied().chain(first).chain(second).chain(third)
    }

    /// The layout of a new node: a lookup or an input is free until
    /// [`Tape::stacked`]; a node with a stacked parent is stacked like it
    /// (a gather keeps its rows' examples, a per-segment reduction has one
    /// row per example); any other node with a parameter behind it is
    /// shared.
    fn layout_of(&mut self, op: Op, needs_grad: bool) -> Layout {
        let stacked = self.operands(op).map(|p| self.layouts[p.0]).find(|l| matches!(l, Layout::Rows(_)));
        match (op, stacked) {
            (Op::Leaf { param: Some(_) } | Op::Param(_), _) => Layout::Shared,
            (Op::Leaf { param: None } | Op::ParamRows { .. }, _) => Layout::Free,
            (Op::GatherRows { table, indices }, Some(_)) => self.gathered_layout(table, indices),
            (Op::WeightedRowSum(_, _, counts) | Op::SumRows(_, counts), Some(_)) => {
                assert_eq!(counts.len, self.batch(), "Tape: {op:?} must reduce each example's rows on their own");
                Layout::Rows(self.unit_layout())
            }
            (
                Op::Transpose(_)
                | Op::SumAll(_)
                | Op::MeanAll(_)
                | Op::ConcatRows(_)
                | Op::Im2Col { .. }
                | Op::MaxOverRows { .. }
                | Op::SoftmaxRows(_)
                | Op::SoftmaxCrossEntropy { per_row: false, .. },
                Some(_),
            ) => panic!("Tape: {op:?} would mix the rows of a batch's examples"),
            (_, Some(layout)) => layout,
            (_, None) if needs_grad => Layout::Shared,
            (_, None) => Layout::Free,
        }
    }

    /// The layout of `table`'s rows `indices` (stacked): each row stays
    /// with its example, so the examples' rows must come in order.
    fn gathered_layout(&mut self, table: Var, indices: Span) -> Layout {
        let Layout::Rows(from) = self.layouts[table.0] else { unreachable!("a stacked table") };
        let start = self.bounds.len();
        self.bounds.push(0);
        let mut e = 0;
        for (r, &i) in self.indices[indices.range()].iter().enumerate() {
            while i >= self.bounds[from.start + e + 1] {
                e += 1;
                self.bounds.push(r);
            }
            assert!(i >= self.bounds[from.start + e], "Tape::gather_rows: a batch's examples out of order");
        }
        while self.bounds.len() < start + self.batch() + 1 {
            self.bounds.push(indices.len);
        }
        Layout::Rows(Span { start, len: self.batch() + 1 })
    }

    /// The stacked layout of one row per example.
    fn unit_layout(&mut self) -> Span {
        if let Some(unit) = self.unit {
            return unit;
        }
        let start = self.bounds.len();
        self.bounds.extend(0..=self.batch());
        let unit = Span { start, len: self.batch() + 1 };
        self.unit = Some(unit);
        unit
    }

    /// Marks `v` as stacked over a batch of `counts.len()` examples: its
    /// rows are, in order, `counts[0]` rows of the first example,
    /// `counts[1]` of the second, and so on. Mark an input or a lookup
    /// before any op reads it (or, for a value built from shared ones such
    /// as an end-to-end encoder's rows, right after it is made). Every
    /// `stacked` of a pass names the same number of examples; with one the
    /// call changes nothing.
    ///
    /// # Panics
    /// Panics if `counts` does not cover `v`'s rows or names another batch
    /// size than an earlier call of the pass.
    pub fn stacked(&mut self, v: Var, counts: &[usize]) -> Var {
        assert_eq!(counts.iter().sum::<usize>(), self.value(v).rows(), "Tape::stacked: {counts:?} do not cover the rows");
        if self.batch() == 1 && counts.len() == 1 {
            return v;
        }
        assert!(self.batch() == 1 || self.batch() == counts.len(), "Tape::stacked: {} examples in a batch of {}", counts.len(), self.batch());
        assert!(counts.len() <= 64, "Tape::stacked: a batch holds at most 64 examples");
        assert!(!matches!(self.layouts[v.0], Layout::Rows(_)), "Tape::stacked: the value is stacked already");
        self.examples = counts.len();
        let start = self.bounds.len();
        self.bounds.push(0);
        for &n in counts {
            self.bounds.push(self.bounds.last().unwrap() + n);
        }
        self.layouts[v.0] = Layout::Rows(Span { start, len: counts.len() + 1 });
        v
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

    /// The run `span` of the float arena.
    pub(crate) fn floats_of(&self, span: Span) -> &[f32] {
        &self.floats[span.range()]
    }

    /// Records the concatenation of `parts`, by rows or by columns.
    pub(crate) fn concat(&mut self, parts: impl Iterator<Item = Var>, by_rows: bool) -> Var {
        let start = self.vars.len();
        self.vars.extend(parts);
        let span = Span { start, len: self.vars.len() - start };
        let op = if by_rows { Op::ConcatRows(span) } else { Op::ConcatCols(span) };
        self.record(op, |t, out| {
            let parts = t.vars[span.range()].iter().map(|p| t.value(*p));
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

    /// Puts parameter `id` of `params` into the graph. Gradients flowing
    /// into this node are accumulated into `params.grad_mut(id)` by
    /// [`Tape::backward`].
    ///
    /// On a tape [bound](Tape::bind) to `params` the node reads the store
    /// in place; otherwise it copies the whole tensor. An embedding lookup
    /// uses [`Tape::param_rows`] instead.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        if self.params.is_some_and(|bound| std::ptr::eq(bound, params)) {
            if self.values.len() == self.ops.len() {
                self.values.push(Tensor::default());
            }
            return self.push_op(Op::Param(id));
        }
        self.record(Op::Leaf { param: Some(id) }, |_, out| out.copy_from(params.get(id)))
    }

    /// Gathers rows `indices` of parameter `id` into an `[indices.len(), c]`
    /// node without snapshotting the table (duplicates allowed). The backward
    /// pass hands the sink one summed gradient row per distinct index, through
    /// [`GradSink::accumulate_rows`]: per example, when the node is
    /// [`stacked`](Tape::stacked).
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
        match self.ops[v.0] {
            Op::Param(id) => self.params.expect("a parameter read in place has its store").get(id),
            _ => &self.values[v.0],
        }
    }

    /// The adjoint of a node after [`Tape::backward`], if it was reached.
    /// Only a node with a parameter behind it has one: the backward computes
    /// none for constants and what is built from constants alone. A shared
    /// node of a batch has one per example and answers `None`.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        match self.layouts.get(v.0)? {
            Layout::Shared => {
                let slot = *self.slots.get(v.0)?;
                (self.batch() == 1 && self.shared_reached.get(slot)? & 1 == 1).then(|| &self.shared_grads[slot])
            }
            _ => self.reached[v.0].then(|| &self.grads[v.0]),
        }
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.value(v).shape()
    }

    /// Example `e`'s rows of a node of `rows` rows laid out as `layout`.
    fn rows_of(bounds: &[usize], batch: usize, layout: Layout, e: usize, rows: usize) -> Range<usize> {
        match layout {
            Layout::Rows(span) => bounds[span.start + e]..bounds[span.start + e + 1],
            _ => {
                assert_eq!(batch, 1, "Tape: a value of a batch that was never stacked");
                0..rows
            }
        }
    }

    /// Runs the backward pass from `loss` (which must be `1 × 1`), seeding its
    /// adjoint with one, and accumulates parameter gradients into `params`.
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: Var, params: &mut Params) {
        assert_eq!(self.shape(loss), (1, 1), "backward: loss must be 1x1, got {:?}", self.shape(loss));
        self.backward_into(loss, params);
    }

    /// Like [`Tape::backward`], but accumulates parameter gradients into an
    /// arbitrary [`GradSink`] — e.g. a detached [`crate::GradStore`] owned by
    /// one worker of a data-parallel training step — and takes a column of
    /// losses: in a batch one row per example, each seeded with one. The
    /// sweep itself is identical to `backward`, so for a given tape the
    /// deltas written to the sink are bit-identical regardless of which sink
    /// receives them.
    ///
    /// The sweep skips what no parameter needs (see the module docs):
    /// adjoints stay inspectable through [`Tape::grad`] until the next
    /// `backward` or [`Tape::reset`], but only for nodes with a parameter
    /// behind them.
    ///
    /// # Panics
    /// Panics if `loss` is not a column.
    pub fn backward_into(&mut self, loss: Var, sink: &mut dyn GradSink) {
        let (rows, cols) = self.shape(loss);
        assert_eq!(cols, 1, "backward: loss must be a column, got {rows}x{cols}");
        self.reached.fill(false);
        self.handoffs.clear();
        if !self.needs_grad[loss.0] {
            return;
        }
        let n = self.ops.len();
        if self.grads.len() < n {
            self.grads.resize_with(n, Tensor::default);
        }
        self.slots.clear();
        let mut shared = 0;
        for layout in &self.layouts {
            self.slots.push(shared);
            shared += usize::from(*layout == Layout::Shared);
        }
        if self.shared_grads.len() < shared * self.batch() {
            self.shared_grads.resize_with(shared * self.batch(), Tensor::default);
        }
        self.shared_reached.clear();
        self.shared_reached.resize(shared, 0);
        let seed = if self.layouts[loss.0] == Layout::Shared {
            assert_eq!(self.batch(), 1, "backward: a batch's loss must be stacked");
            self.shared_reached[self.slots[loss.0]] = 1;
            &mut self.shared_grads[self.slots[loss.0]]
        } else {
            self.reached[loss.0] = true;
            &mut self.grads[loss.0]
        };
        seed.reset(rows, 1);
        seed.as_mut_slice().fill(1.0);
        for idx in (0..=loss.0).rev() {
            if self.layouts[idx] == Layout::Shared {
                let mut examples = self.shared_reached[self.slots[idx]];
                while examples != 0 {
                    let e = examples.trailing_zeros() as usize;
                    examples &= examples - 1;
                    self.backward_node(idx, Some(e));
                }
            } else if self.reached[idx] {
                self.backward_node(idx, None);
            }
        }
        let handoffs = std::mem::take(&mut self.handoffs);
        for e in 0..self.batch() {
            for &(_, node) in handoffs.iter().filter(|(example, _)| *example == e) {
                self.hand_off(node, e, sink);
            }
        }
        self.handoffs = handoffs;
    }

    /// Hands the sink example `e`'s gradient of parameter node `idx`.
    fn hand_off(&mut self, idx: usize, e: usize, sink: &mut dyn GradSink) {
        match self.ops[idx] {
            Op::Leaf { param: Some(id) } | Op::Param(id) => {
                sink.accumulate_grad(id, &self.shared_grads[self.slots[idx] * self.batch() + e]);
            }
            Op::ParamRows { param, indices: span } => {
                // Each distinct row's gradient is summed from +0.0 in index
                // order — the very additions a dense `[vocab, c]` zero table
                // would see — and only then added into the sink, so the sink
                // receives the dense path's bits on every touched row.
                let g = &self.grads[idx];
                let rows = Self::rows_of(&self.bounds, self.batch(), self.layouts[idx], e, g.rows());
                let ids = &self.indices[span.range()][rows.clone()];
                let (row_order, row_ids, row_sums) = (&mut self.row_order, &mut self.row_ids, &mut self.row_sums);
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
                    for (o, &gv) in row_sums.row_mut(k).iter_mut().zip(g.row(rows.start + r)) {
                        *o += gv;
                    }
                }
                sink.accumulate_rows(param, row_ids, row_sums);
            }
            op => unreachable!("{op:?} hands no gradient to a sink"),
        }
    }

    /// Propagates the adjoint of node `idx` into its parents that need one:
    /// for a shared node example `example`'s adjoint, else the node's own.
    fn backward_node(&mut self, idx: usize, example: Option<usize>) {
        let Tape {
            ops,
            needs_grad,
            layouts,
            values,
            grads,
            reached,
            examples,
            bounds,
            slots,
            shared_grads,
            shared_reached,
            handoffs,
            indices,
            vars,
            floats,
            scratch,
            transposed,
            params,
            ..
        } = self;
        let batch = (*examples).max(1);
        let (below, rest) = grads.split_at_mut(idx);
        let (shared_below, shared_rest) = shared_grads.split_at_mut(match example {
            Some(_) => slots[idx] * batch,
            None => shared_reached.len() * batch,
        });
        let g = match example {
            Some(e) => &shared_rest[e],
            None => &rest[0],
        };
        let value = |v: Var| match ops[v.0] {
            Op::Param(id) => params.expect("a parameter read in place has its store").get(id),
            _ => &values[v.0],
        };
        let layout = layouts[idx];
        let rows_of = |e: usize| Self::rows_of(bounds, batch, layout, e, g.rows());
        let mut adj = Adjoints {
            grads: below,
            reached,
            needs_grad,
            layouts,
            slots,
            shared: shared_below,
            shared_reached,
            batch,
            example,
            scratch,
        };
        match ops[idx] {
            Op::Leaf { param: Some(_) } | Op::Param(_) => handoffs.push((example.unwrap_or(0), idx)),
            Op::Leaf { param: None } => {}
            Op::ParamRows { .. } => {
                for e in 0..batch {
                    if batch == 1 || !rows_of(e).is_empty() {
                        handoffs.push((e, idx));
                    }
                }
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
                adj.per_example(row, g.rows(), rows_of, |rows, o| {
                    o.reset(1, g.cols());
                    g.sum_row_range(rows, o.as_mut_slice());
                });
            }
            Op::MulColBroadcast(a, col) => {
                // d/da = g * col (broadcast), d/dcol[r] = sum_c g[r,c]*a[r,c]
                adj.add(a, |o| g.mul_col_broadcast_into(value(col), o));
                adj.add(col, |o| g.mul_sum_cols_into(value(a), o));
            }
            Op::AddBiased { a, b, bias, counts } => {
                let (bv, counts) = (value(b), &indices[counts.range()]);
                let per_row = bv.rows() == g.rows();
                adj.add(a, |o| o.copy_from(g));
                // A segment with a one-row context passes that row the sum
                // of the segment's deltas, as a broadcast's backward does.
                adj.add(b, |o| {
                    o.reset(bv.rows(), bv.cols());
                    for (s, rows) in crate::tensor::segments(counts, g.rows()).enumerate() {
                        if !per_row || rows.len() == 1 {
                            let b_row = if per_row { rows.start } else { s };
                            g.sum_row_range(rows, o.row_mut(b_row));
                        } else {
                            o.as_mut_slice()[rows.start * g.cols()..rows.end * g.cols()]
                                .copy_from_slice(&g.as_slice()[rows.start * g.cols()..rows.end * g.cols()]);
                        }
                    }
                });
                adj.per_segment(bias, counts, g.rows(), |rows, o| {
                    o.reset(1, g.cols());
                    g.sum_row_range(rows, o.as_mut_slice());
                });
            }
            Op::WeightedRowSum(x, w, counts) => {
                // The backward of `sum_rows(mul_col_broadcast(x, w))`, run
                // as that chain runs it: `g` on every row, then the product.
                let (xv, wv, counts) = (value(x), value(w), &indices[counts.range()]);
                adj.add(x, |o| {
                    o.reset(xv.rows(), xv.cols());
                    for (s, rows) in crate::tensor::segments(counts, xv.rows()).enumerate() {
                        for r in rows {
                            let w = wv.get(r, 0);
                            for (o, &gv) in o.row_mut(r).iter_mut().zip(g.row(s)) {
                                *o = gv * w;
                            }
                        }
                    }
                });
                adj.add(w, |o| {
                    o.reset(xv.rows(), 1);
                    for (s, rows) in crate::tensor::segments(counts, xv.rows()).enumerate() {
                        for r in rows {
                            o.set(r, 0, g.row(s).iter().zip(xv.row(r)).map(|(&gv, &xv)| gv * xv).sum());
                        }
                    }
                });
            }
            Op::Scale(a, alpha) => adj.add(a, |o| g.map_into(o, |x| alpha * x)),
            Op::AddScalar(a) => adj.add(a, |o| o.copy_from(g)),
            Op::MatMul(a, b) => {
                adj.add(a, |o| g.matmul_nt_into(value(b), o, transposed));
                adj.per_example(b, g.rows(), rows_of, |rows, o| value(a).matmul_tn_rows_into(g, rows, o));
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
            Op::SoftmaxCol(a, counts) => {
                // Per segment, as the transpose/softmax_rows/transpose chain
                // computes it: dx = y ⊙ (g − (g·y) 1).
                let (y, counts) = (&values[idx], &indices[counts.range()]);
                adj.add(a, |o| {
                    o.reset(y.rows(), 1);
                    for rows in crate::tensor::segments(counts, y.rows()) {
                        let (gs, ys) = (&g.as_slice()[rows.clone()], &y.as_slice()[rows.clone()]);
                        let dot: f32 = gs.iter().zip(ys).map(|(&gv, &yv)| gv * yv).sum();
                        for (o, (&yv, &gv)) in o.as_mut_slice()[rows].iter_mut().zip(ys.iter().zip(gs)) {
                            *o = yv * (gv - dot);
                        }
                    }
                });
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
                    let fill = |o: &mut Tensor| {
                        o.reset(r, c);
                        o.as_mut_slice().copy_from_slice(&g.as_slice()[offset * c..(offset + r) * c]);
                    };
                    // A shared part of a stacked value (an example's encoded
                    // review) takes its delta as the example's.
                    match (adj.layouts[p.0], layout) {
                        (Layout::Shared, Layout::Rows(_)) if r > 0 => {
                            let e = (0..batch).find(|&e| rows_of(e).contains(&offset)).expect("a part within the rows");
                            assert!(rows_of(e).end >= offset + r, "Tape: a part spans two examples");
                            adj.add_to(p, e, fill);
                        }
                        _ => adj.add(p, fill),
                    }
                    offset += r;
                }
            }
            Op::SliceCols(a, start, end) => {
                let src = value(a);
                adj.add(a, |o| {
                    o.reset(src.rows(), src.cols());
                    for r in 0..g.rows() {
                        o.row_mut(r)[start..end].copy_from_slice(g.row(r));
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
            Op::SumRows(a, counts) => {
                let ((r, c), counts) = (value(a).shape(), &indices[counts.range()]);
                adj.add(a, |o| {
                    o.reset(r, c);
                    for (s, rows) in crate::tensor::segments(counts, r).enumerate() {
                        for rr in rows {
                            o.row_mut(rr).copy_from_slice(g.row(s));
                        }
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
            Op::SoftmaxCrossEntropy { logits, targets, weights, per_row } => {
                let z = value(logits);
                let targets = &indices[targets.range()];
                let weights = weights.map(|w| &floats[w.range()]);
                // The mean's rows share its one adjoint and its `1/n`; a
                // per-row loss is each row's mean over itself.
                let n = if per_row { 1.0 } else { z.rows() as f32 };
                adj.add(logits, |o| {
                    o.reset(z.rows(), z.cols());
                    for r in 0..z.rows() {
                        let gscale = if per_row { g.get(r, 0) } else { g.item() };
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
    layouts: &'t [Layout],
    slots: &'t [usize],
    /// The per-example adjoints of the shared nodes below.
    shared: &'t mut [Tensor],
    shared_reached: &'t mut [u64],
    batch: usize,
    /// The example whose adjoint of a shared node is propagated, if any.
    example: Option<usize>,
    scratch: &'t mut Tensor,
}

impl Adjoints<'_> {
    /// Adds the delta `fill` writes onto `p`'s adjoint — for a shared `p`,
    /// onto the adjoint of the example being propagated (in a one-example
    /// pass, its one example). `fill` overwrites the whole buffer it is
    /// handed, so the delta is computed from `+0.0` as an owned tensor would
    /// be: the first delta lands in the adjoint's own buffer, a later one in
    /// the scratch and is then added on. For a parent with no parameter
    /// behind it `fill` never runs.
    fn add(&mut self, p: Var, fill: impl FnOnce(&mut Tensor)) {
        if !self.needs_grad[p.0] {
            return;
        }
        if self.layouts[p.0] == Layout::Shared {
            let e = self.example.or((self.batch == 1).then_some(0));
            return self.add_to(p, e.expect("Tape: a shared operand of a stacked op takes its delta per example"), fill);
        }
        debug_assert!(self.example.is_none() || self.batch == 1, "Tape: a shared node of a batch feeds a stacked one");
        if self.reached[p.0] {
            fill(self.scratch);
            self.grads[p.0].add_assign(self.scratch);
        } else {
            fill(&mut self.grads[p.0]);
            self.reached[p.0] = true;
        }
    }

    /// [`Adjoints::add`] onto example `e`'s adjoint of the shared node `p`.
    fn add_to(&mut self, p: Var, e: usize, fill: impl FnOnce(&mut Tensor)) {
        let (slot, bit) = (self.slots[p.0], 1u64 << e);
        let adjoint = &mut self.shared[slot * self.batch + e];
        if self.shared_reached[slot] & bit != 0 {
            fill(self.scratch);
            adjoint.add_assign(self.scratch);
        } else {
            fill(adjoint);
            self.shared_reached[slot] |= bit;
        }
    }

    /// The delta of `p` that `fill` writes from rows `rows` of the
    /// consumer's adjoint: a shared `p` of a stacked consumer takes it per
    /// example, over that example's rows (`rows_of(e)`; an example without
    /// rows gives none, as its own pass would not read `p`); otherwise it
    /// takes it over all of them.
    fn per_example(
        &mut self,
        p: Var,
        rows: usize,
        rows_of: impl Fn(usize) -> Range<usize>,
        fill: impl Fn(Range<usize>, &mut Tensor),
    ) {
        if self.layouts[p.0] == Layout::Shared && self.example.is_none() && self.batch > 1 {
            for e in 0..self.batch {
                let rows = rows_of(e);
                if !rows.is_empty() {
                    self.add_to(p, e, |o| fill(rows, o));
                }
            }
        } else {
            self.add(p, |o| fill(0..rows, o));
        }
    }

    /// [`Adjoints::per_example`] over an op's own segments of `rows` rows,
    /// one per example of a batch. Outside a batch every segment's delta is
    /// added in turn.
    fn per_segment(&mut self, p: Var, counts: &[usize], rows: usize, fill: impl Fn(Range<usize>, &mut Tensor)) {
        let shared_in_batch = self.layouts[p.0] == Layout::Shared && self.example.is_none() && self.batch > 1;
        if shared_in_batch {
            assert_eq!(counts.len(), self.batch, "Tape: a batch's segments are its examples");
        }
        for (e, seg) in crate::tensor::segments(counts, rows).enumerate() {
            if shared_in_batch {
                if !seg.is_empty() {
                    self.add_to(p, e, |o| fill(seg, o));
                }
            } else {
                self.add(p, |o| fill(seg, o));
            }
        }
    }
}
