//! Reverse-mode automatic differentiation on an append-only tape.
//!
//! A [`Tape`] records every operation of one forward pass as a [`Node`]; the
//! resulting computation graph is a DAG ordered by construction, so the
//! backward pass is a single reverse sweep that accumulates adjoints into the
//! parents of each node. Parameters live in a [`Params`] store outside the
//! tape; [`Tape::param`] snapshots a parameter value into the graph,
//! [`Tape::param_rows`] copies only the rows an embedding lookup reads, and
//! [`Tape::backward`] writes the resulting gradients back into the store —
//! a lookup's gradient as the rows it touched, never as a whole table.
//!
//! The tape is intended to be rebuilt per training step — construction is a
//! `Vec` push per op — which keeps the design free of interior mutability and
//! reference cycles.

use crate::{GradSink, ParamId, Params, Tensor};

/// Handle to a node on a [`Tape`]. Only valid for the tape that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// The recorded operation of a node, with its parent handles and any data the
/// backward pass needs.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input constant or parameter snapshot.
    Leaf { param: Option<ParamId> },
    /// Rows `indices` of parameter `param` (duplicates allowed), read
    /// straight from the store.
    ParamRows { param: ParamId, indices: Vec<usize> },
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
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    /// Gathers rows of node `table` listed in `indices` (duplicates allowed).
    GatherRows { table: Var, indices: Vec<usize> },
    SumAll(Var),
    MeanAll(Var),
    /// Column-wise sum producing `1 × c`.
    SumRows(Var),
    /// Row-wise sum producing `r × 1`.
    SumCols(Var),
    /// Sliding-window unfold for 1-D convolution: `[T, d] -> [T-w+1, w*d]`.
    Im2Col { x: Var, width: usize },
    /// Max-over-time pooling over rows, with stored argmax per column.
    MaxOverRows { x: Var, argmax: Vec<usize> },
    /// Fused, numerically stable softmax + cross-entropy mean loss with
    /// optional per-row weights. Produces a `1 × 1` node.
    SoftmaxCrossEntropy { logits: Var, targets: Vec<usize>, weights: Option<Vec<f32>> },
}

#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: Op,
}

/// Append-only computation tape. See the module docs.
#[derive(Debug, Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// Adjoints populated by [`Tape::backward`]; indexable for diagnostics.
    grads: Vec<Option<Tensor>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a non-trainable input.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf { param: None })
    }

    /// Records a `1 × 1` constant.
    pub fn scalar(&mut self, value: f32) -> Var {
        self.constant(Tensor::scalar(value))
    }

    /// Snapshots a parameter from `params` into the graph. Gradients flowing
    /// into this node are accumulated into `params.grad_mut(id)` by
    /// [`Tape::backward`].
    ///
    /// This copies the whole tensor; an embedding lookup uses
    /// [`Tape::param_rows`] instead.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.push(params.get(id).clone(), Op::Leaf { param: Some(id) })
    }

    /// Gathers rows `indices` of parameter `id` into an `[indices.len(), c]`
    /// node without snapshotting the table (duplicates allowed). The backward
    /// pass hands the sink one summed gradient row per distinct index, through
    /// [`GradSink::accumulate_rows`].
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn param_rows(&mut self, params: &Params, id: ParamId, indices: &[usize]) -> Var {
        let value = params.get(id).gather_rows(indices);
        self.push(value, Op::ParamRows { param: id, indices: indices.to_vec() })
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The adjoint of a node after [`Tape::backward`], if it was reached.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    fn accumulate(grads: &mut [Option<Tensor>], v: Var, delta: Tensor) {
        match &mut grads[v.0] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Runs the backward pass from `loss` (which must be `1 × 1`), seeding its
    /// adjoint with one, and accumulates parameter gradients into `params`.
    ///
    /// Adjoints of intermediate nodes remain inspectable through
    /// [`Tape::grad`] until the next `backward` call.
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
    pub fn backward_into(&mut self, loss: Var, sink: &mut dyn GradSink) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be 1x1, got {:?}",
            self.nodes[loss.0].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for idx in (0..=loss.0).rev() {
            let Some(grad) = grads[idx].take() else { continue };
            self.backward_node(idx, &grad, &mut grads, sink);
            grads[idx] = Some(grad);
        }
        self.grads = grads;
    }

    /// Propagates the adjoint `g` of node `idx` into its parents.
    fn backward_node(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>], sink: &mut dyn GradSink) {
        let node = &self.nodes[idx];
        match &node.op {
            Op::Leaf { param } => {
                if let Some(id) = param {
                    sink.accumulate_grad(*id, g);
                }
            }
            Op::ParamRows { param, indices } => {
                // Each distinct row's gradient is summed from +0.0 in index
                // order — the very additions a dense `[vocab, c]` zero table
                // would see — and only then added into the sink, so the sink
                // receives the dense path's bits on every touched row.
                let mut order: Vec<usize> = (0..indices.len()).collect();
                order.sort_by_key(|&r| indices[r]);
                let c = g.cols();
                let mut rows: Vec<usize> = Vec::with_capacity(indices.len());
                let mut sums: Vec<f32> = Vec::with_capacity(indices.len() * c);
                for r in order {
                    if rows.last() != Some(&indices[r]) {
                        rows.push(indices[r]);
                        sums.resize(sums.len() + c, 0.0);
                    }
                    let at = sums.len() - c;
                    for (o, &gv) in sums[at..].iter_mut().zip(g.row(r)) {
                        *o += gv;
                    }
                }
                sink.accumulate_rows(*param, &rows, &Tensor::from_vec(rows.len(), c, sums));
            }
            Op::Add(a, b) => {
                Self::accumulate(grads, *a, g.clone());
                Self::accumulate(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                Self::accumulate(grads, *a, g.clone());
                Self::accumulate(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let da = g.mul(&self.nodes[b.0].value);
                let db = g.mul(&self.nodes[a.0].value);
                Self::accumulate(grads, *a, da);
                Self::accumulate(grads, *b, db);
            }
            Op::AddRowBroadcast(a, row) => {
                Self::accumulate(grads, *a, g.clone());
                Self::accumulate(grads, *row, g.sum_rows());
            }
            Op::MulColBroadcast(a, col) => {
                // d/da = g * col (broadcast), d/dcol[r] = sum_c g[r,c]*a[r,c]
                Self::accumulate(grads, *a, g.mul_col_broadcast(&self.nodes[col.0].value));
                Self::accumulate(grads, *col, g.mul(&self.nodes[a.0].value).sum_cols());
            }
            Op::WeightedRowSum(x, w) => {
                // The backward of `sum_rows(mul_col_broadcast(x, w))`, run
                // as that chain runs it: `g` on every row, then the product.
                let (xv, wv) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
                let g_rows = Tensor::concat_rows(&vec![g; xv.rows()]);
                Self::accumulate(grads, *x, g_rows.mul_col_broadcast(wv));
                Self::accumulate(grads, *w, g_rows.mul(xv).sum_cols());
            }
            Op::Scale(a, alpha) => Self::accumulate(grads, *a, g.scale(*alpha)),
            Op::AddScalar(a) => Self::accumulate(grads, *a, g.clone()),
            Op::MatMul(a, b) => {
                let da = g.matmul_nt(&self.nodes[b.0].value);
                let db = self.nodes[a.0].value.matmul_tn(g);
                Self::accumulate(grads, *a, da);
                Self::accumulate(grads, *b, db);
            }
            Op::Transpose(a) => Self::accumulate(grads, *a, g.transpose()),
            Op::Tanh(a) => {
                // d tanh = 1 - tanh², using the stored output.
                let da = g.zip_map(&node.value, |gv, y| gv * (1.0 - y * y));
                Self::accumulate(grads, *a, da);
            }
            Op::Sigmoid(a) => {
                let da = g.zip_map(&node.value, |gv, y| gv * y * (1.0 - y));
                Self::accumulate(grads, *a, da);
            }
            Op::Relu(a) => {
                let da = g.zip_map(&self.nodes[a.0].value, |gv, x| if x > 0.0 { gv } else { 0.0 });
                Self::accumulate(grads, *a, da);
            }
            Op::Square(a) => {
                let da = g.zip_map(&self.nodes[a.0].value, |gv, x| gv * 2.0 * x);
                Self::accumulate(grads, *a, da);
            }
            Op::SoftmaxRows(a) => {
                // For each row: dx = y ⊙ (g − (g·y) 1)
                let y = &node.value;
                let mut da = Tensor::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(&gv, &yv)| gv * yv).sum();
                    for (o, (&gv, &yv)) in da.row_mut(r).iter_mut().zip(g.row(r).iter().zip(y.row(r))) {
                        *o = yv * (gv - dot);
                    }
                }
                Self::accumulate(grads, *a, da);
            }
            Op::SoftmaxCol(a) => {
                // As the transpose/softmax_rows/transpose chain computes it:
                // dx = y ⊙ (g − (g·y) 1).
                let y = &node.value;
                let dot: f32 = g.as_slice().iter().zip(y.as_slice()).map(|(&gv, &yv)| gv * yv).sum();
                Self::accumulate(grads, *a, y.zip_map(g, |yv, gv| yv * (gv - dot)));
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for p in parts {
                    let c = self.nodes[p.0].value.cols();
                    Self::accumulate(grads, *p, g.slice_cols(offset, offset + c));
                    offset += c;
                }
            }
            Op::ConcatRows(parts) => {
                let mut offset = 0;
                for p in parts {
                    let r = self.nodes[p.0].value.rows();
                    let rows: Vec<usize> = (offset..offset + r).collect();
                    Self::accumulate(grads, *p, g.gather_rows(&rows));
                    offset += r;
                }
            }
            Op::SliceCols(a, start, _end) => {
                let src = &self.nodes[a.0].value;
                let mut da = Tensor::zeros(src.rows(), src.cols());
                for r in 0..g.rows() {
                    for c in 0..g.cols() {
                        da.set(r, start + c, g.get(r, c));
                    }
                }
                Self::accumulate(grads, *a, da);
            }
            Op::GatherRows { table, indices } => {
                let src = &self.nodes[table.0].value;
                let mut dt = Tensor::zeros(src.rows(), src.cols());
                for (r, &idx) in indices.iter().enumerate() {
                    for (o, &gv) in dt.row_mut(idx).iter_mut().zip(g.row(r)) {
                        *o += gv;
                    }
                }
                Self::accumulate(grads, *table, dt);
            }
            Op::SumAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                Self::accumulate(grads, *a, Tensor::full(r, c, g.item()));
            }
            Op::MeanAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let n = (r * c) as f32;
                Self::accumulate(grads, *a, Tensor::full(r, c, g.item() / n));
            }
            Op::SumRows(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(r, c);
                for rr in 0..r {
                    da.row_mut(rr).copy_from_slice(g.row(0));
                }
                Self::accumulate(grads, *a, da);
            }
            Op::SumCols(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Tensor::zeros(r, c);
                for rr in 0..r {
                    let gv = g.get(rr, 0);
                    for o in da.row_mut(rr) {
                        *o = gv;
                    }
                }
                Self::accumulate(grads, *a, da);
            }
            Op::Im2Col { x, width } => {
                let src = &self.nodes[x.0].value;
                let (t, d) = src.shape();
                let mut dx = Tensor::zeros(t, d);
                let windows = t + 1 - width;
                for w in 0..windows {
                    for off in 0..*width {
                        for c in 0..d {
                            let gv = g.get(w, off * d + c);
                            let cur = dx.get(w + off, c);
                            dx.set(w + off, c, cur + gv);
                        }
                    }
                }
                Self::accumulate(grads, *x, dx);
            }
            Op::MaxOverRows { x, argmax } => {
                let src = &self.nodes[x.0].value;
                let mut dx = Tensor::zeros(src.rows(), src.cols());
                for (c, &r) in argmax.iter().enumerate() {
                    dx.set(r, c, g.get(0, c));
                }
                Self::accumulate(grads, *x, dx);
            }
            Op::SoftmaxCrossEntropy { logits, targets, weights } => {
                let z = &self.nodes[logits.0].value;
                let n = z.rows() as f32;
                let gscale = g.item();
                let mut dz = Tensor::zeros(z.rows(), z.cols());
                for r in 0..z.rows() {
                    let row = z.row(r);
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
                    let w = weights.as_ref().map_or(1.0, |ws| ws[r]);
                    for (c, o) in dz.row_mut(r).iter_mut().enumerate() {
                        let p = (row[c] - m).exp() / denom;
                        let y = if c == targets[r] { 1.0 } else { 0.0 };
                        *o = gscale * w * (p - y) / n;
                    }
                }
                Self::accumulate(grads, *logits, dz);
            }
        }
    }
}
