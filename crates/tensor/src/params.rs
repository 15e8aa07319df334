//! Trainable-parameter storage shared by all models in the workspace.
//!
//! Parameters live outside the autograd tape, so one [`crate::Tape`] can be
//! reset and reused for every training step (it keeps its buffers, and its
//! backward visits only what a parameter needs) while the long-lived
//! weights and their gradient accumulators stay here.

use crate::Tensor;

/// Opaque handle to a parameter registered in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index, useful for stable serialisation of checkpoints.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A store of named trainable tensors and their gradient accumulators.
#[derive(Debug, Default, Clone)]
pub struct Params {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
    /// `frozen[i]`: parameter `i` is held constant ([`Params::freeze`]).
    frozen: Vec<bool>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tensor as a trainable parameter and returns its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.grads.push(Tensor::zeros(r, c));
        self.values.push(value);
        self.names.push(name.into());
        self.frozen.push(false);
        ParamId(self.values.len() - 1)
    }

    /// Holds parameter `id` constant from now on: [`Params::zero_grads`],
    /// [`Params::apply_l2_grad`], [`Params::clip_grad_norm`] and
    /// [`crate::optim::Adam::step`] skip it, so the step does no work for
    /// it. Its gradient must stay `+0.0` — no backward may write it — and
    /// then skipping is bit-exact: the gradient, both Adam moments and the
    /// update stay zero.
    pub fn freeze(&mut self, id: ParamId) {
        self.frozen[id.0] = true;
    }

    /// Whether [`Params::freeze`] holds `id` constant.
    pub(crate) fn is_frozen(&self, id: ParamId) -> bool {
        self.frozen[id.0]
    }

    /// The values and gradients of the parameters not frozen.
    fn trainable(&mut self) -> impl Iterator<Item = (&mut Tensor, &mut Tensor)> {
        let frozen = &self.frozen;
        self.values.iter_mut().zip(&mut self.grads).enumerate().filter(|(i, _)| !frozen[*i]).map(|(_, vg)| vg)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Immutable access to a parameter value.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimisers and tests).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Immutable access to the accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Mutable access to the accumulated gradient (tape backward writes here).
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.grads[id.0]
    }

    /// The name a parameter was registered under.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// All parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Resets every gradient accumulator not frozen to zero, in place.
    pub fn zero_grads(&mut self) {
        for (_, g) in self.trainable() {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// The value of `id` and its gradient, borrowed together (the optimisers
    /// update one from the other without copying either).
    pub(crate) fn value_mut_and_grad(&mut self, id: ParamId) -> (&mut Tensor, &Tensor) {
        (&mut self.values[id.0], &self.grads[id.0])
    }

    /// Adds `2·gamma·value` to every gradient not frozen, i.e. the gradient
    /// of `gamma · Σ‖ε‖²` over the trained weights. Call once per step
    /// before the optimiser update.
    pub fn apply_l2_grad(&mut self, gamma: f32) {
        for (v, g) in self.trainable() {
            g.axpy(2.0 * gamma, v);
        }
    }

    /// Adds `alpha·value` to the gradient of `id` alone: extra shrinkage on
    /// one parameter, on top of [`Params::apply_l2_grad`].
    pub fn add_value_to_grad(&mut self, id: ParamId, alpha: f32) {
        self.grads[id.0].axpy(alpha, &self.values[id.0]);
    }

    /// Global gradient-norm clipping: if the joint L2 norm of the
    /// gradients not frozen exceeds `max_norm`, rescales them to have
    /// exactly that norm. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = self.trainable().map(|(_, g)| g.norm_sq()).sum::<f32>().sqrt();
        if total > max_norm && total > 0.0 {
            let scale = max_norm / total;
            for (_, g) in self.trainable() {
                g.map_inplace(|x| x * scale);
            }
        }
        total
    }

    /// True if any parameter or gradient contains a NaN/inf.
    pub fn has_non_finite(&self) -> bool {
        self.values.iter().chain(&self.grads).any(Tensor::has_non_finite)
    }

    /// A detached, zeroed gradient accumulator with one slot per registered
    /// parameter. Workers fill their own store while the `Params` values are
    /// only borrowed immutably — the split-borrow that makes data-parallel
    /// backward passes possible.
    pub fn grad_store(&self) -> GradStore {
        GradStore {
            grads: self.values.iter().map(|v| Tensor::zeros(v.rows(), v.cols())).collect(),
            written: self.values.iter().map(|v| Written::new(v.rows())).collect(),
        }
    }

    /// Adds what `store` wrote onto this store's gradients, parameter by
    /// parameter — the single-threaded absorption step after a parallel
    /// reduction. Only the written rows of each slot are visited.
    pub fn absorb(&mut self, store: &GradStore) {
        assert_eq!(self.grads.len(), store.grads.len(), "absorb: parameter count mismatch");
        for ((g, s), w) in self.grads.iter_mut().zip(&store.grads).zip(&store.written) {
            w.add_into(g, s);
        }
    }
}

/// `dst.row(rows[k]) += delta.row(k)` for every `k`.
fn add_rows(dst: &mut Tensor, rows: &[usize], delta: &Tensor) {
    assert_eq!(delta.shape(), (rows.len(), dst.cols()), "accumulate_rows: delta shape mismatch");
    for (k, &r) in rows.iter().enumerate() {
        add_row(dst.row_mut(r), delta.row(k));
    }
}

/// `dst[i] += src[i]`, element by element.
fn add_row(dst: &mut [f32], src: &[f32]) {
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += b;
    }
}

/// Destination for parameter gradients produced by a backward pass.
///
/// [`Params`] is the classic sink (gradients land next to the weights);
/// [`GradStore`] is the detached sink used by data-parallel training, where
/// each worker accumulates into its own store before a deterministic
/// reduction.
pub trait GradSink {
    /// Adds `delta` onto the accumulator for `id`.
    fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor);

    /// Adds row `k` of `delta` onto row `rows[k]` of the accumulator for
    /// `id`; every other row is left alone. `rows` holds distinct indices.
    fn accumulate_rows(&mut self, id: ParamId, rows: &[usize], delta: &Tensor);
}

impl GradSink for Params {
    fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }

    fn accumulate_rows(&mut self, id: ParamId, rows: &[usize], delta: &Tensor) {
        add_rows(&mut self.grads[id.0], rows, delta);
    }
}

/// Which part of one [`GradStore`] slot has been written since the last
/// [`GradStore::zero`]. Every element outside it is `+0.0`.
#[derive(Debug, Clone)]
struct Written {
    /// The whole slot ([`GradSink::accumulate_grad`] wrote it).
    dense: bool,
    /// Rows written through [`GradSink::accumulate_rows`], each listed once.
    rows: Vec<usize>,
    /// `listed[r]` iff `rows` contains `r`.
    listed: Vec<bool>,
}

impl Written {
    fn new(n_rows: usize) -> Self {
        Self { dense: false, rows: Vec::new(), listed: vec![false; n_rows] }
    }

    fn mark_rows(&mut self, rows: &[usize]) {
        if self.dense {
            return;
        }
        for &r in rows {
            if !self.listed[r] {
                self.listed[r] = true;
                self.rows.push(r);
            }
        }
    }

    /// Adds the written part of `src` onto `dst`. Skipping the rest is
    /// exact: it is `+0.0`, and `x + 0.0 == x` for every `x` but `-0.0`,
    /// which an accumulator that starts at `+0.0` and only ever adds never
    /// holds.
    fn add_into(&self, dst: &mut Tensor, src: &Tensor) {
        if self.dense {
            dst.add_assign(src);
        } else {
            for &r in &self.rows {
                add_row(dst.row_mut(r), src.row(r));
            }
        }
    }
}

/// A gradient accumulator detached from its [`Params`] store: one zeroed
/// tensor per parameter, created by [`Params::grad_store`], plus a record of
/// what each slot has been written: nothing, a set of rows (an embedding
/// lookup's [`GradSink::accumulate_rows`]), or the whole slot.
///
/// [`GradStore::zero`], [`GradStore::add_assign`] and [`Params::absorb`]
/// visit only the written rows, so a store's cost follows the rows its
/// examples touched, not the size of the tables. The bits are those of a
/// dense store: every skipped element is `+0.0`. Because each `add_assign`
/// is an element-wise `a[i] += b[i]`, a reduction over stores is
/// bit-determined entirely by the order the stores are combined in — which
/// is what the fixed-order tree reduction in `rrre-core` pins down.
#[derive(Debug, Clone)]
pub struct GradStore {
    grads: Vec<Tensor>,
    written: Vec<Written>,
}

impl GradStore {
    /// Number of parameter slots.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the store has no slots.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Immutable access to the accumulator for `id`.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// The rows of `id`'s accumulator written since the last
    /// [`GradStore::zero`], in first-write order; empty when the slot is
    /// untouched, `None` when it was written whole.
    pub fn written_rows(&self, id: ParamId) -> Option<&[usize]> {
        let w = &self.written[id.0];
        (!w.dense).then_some(w.rows.as_slice())
    }

    /// Resets every written element to zero in place and forgets what was
    /// written (shapes are kept, no reallocation — stores are meant to be
    /// reused across minibatches).
    pub fn zero(&mut self) {
        for (g, w) in self.grads.iter_mut().zip(&mut self.written) {
            if w.dense {
                g.as_mut_slice().fill(0.0);
            }
            for &r in &w.rows {
                g.row_mut(r).fill(0.0);
                w.listed[r] = false;
            }
            w.rows.clear();
            w.dense = false;
        }
    }

    /// Adds what `other` wrote onto this store: the pairwise reduction step.
    /// Panics if the two stores came from differently shaped `Params`.
    pub fn add_assign(&mut self, other: &GradStore) {
        assert_eq!(self.grads.len(), other.grads.len(), "add_assign: parameter count mismatch");
        for (i, o) in other.written.iter().enumerate() {
            o.add_into(&mut self.grads[i], &other.grads[i]);
            if o.dense {
                self.written[i].dense = true;
            } else {
                self.written[i].mark_rows(&o.rows);
            }
        }
    }

    /// Sum of all accumulator entries — a cheap fingerprint for tests.
    pub fn sum(&self) -> f32 {
        self.grads.iter().map(Tensor::sum).sum()
    }
}

impl GradSink for GradStore {
    fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
        self.written[id.0].dense = true;
    }

    fn accumulate_rows(&mut self, id: ParamId, rows: &[usize], delta: &Tensor) {
        add_rows(&mut self.grads[id.0], rows, delta);
        self.written[id.0].mark_rows(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::ones(2, 3));
        let b = p.register("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 9);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.get(b).shape(), (1, 3));
        assert_eq!(p.grad(w).shape(), (2, 3));
    }

    #[test]
    fn zero_grads_resets() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::ones(2, 2));
        p.grad_mut(w).axpy(1.0, &Tensor::ones(2, 2));
        assert_eq!(p.grad(w).sum(), 4.0);
        p.zero_grads();
        assert_eq!(p.grad(w).sum(), 0.0);
    }

    #[test]
    fn l2_regulariser_matches_manual() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        p.apply_l2_grad(0.5);
        // grad = 2*gamma*w = [3, 4]
        assert!(p.grad(w).approx_eq(&Tensor::from_vec(1, 2, vec![3.0, 4.0]), 1e-6));
    }

    #[test]
    fn grad_store_is_detached_and_absorbable() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut s = p.grad_store();
        assert_eq!(s.len(), 1);
        assert_eq!(s.grad(w).shape(), (1, 2));
        s.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![0.5, 0.25]));
        // Filling the store leaves the Params gradients untouched…
        assert_eq!(p.grad(w).sum(), 0.0);
        // …until they are explicitly absorbed.
        p.absorb(&s);
        assert!(p.grad(w).approx_eq(&Tensor::from_vec(1, 2, vec![0.5, 0.25]), 1e-6));
        s.zero();
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn grad_store_add_assign_reduces_pairwise() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(1, 2));
        let mut a = p.grad_store();
        let mut b = p.grad_store();
        a.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        b.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![10.0, 20.0]));
        a.add_assign(&b);
        assert!(a.grad(w).approx_eq(&Tensor::from_vec(1, 2, vec![11.0, 22.0]), 1e-6));
    }

    #[test]
    fn params_grad_sink_matches_grad_mut_add_assign() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(2, 2));
        let delta = Tensor::ones(2, 2);
        p.accumulate_grad(w, &delta);
        p.accumulate_grad(w, &delta);
        assert_eq!(p.grad(w).sum(), 8.0);
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(1, 2));
        *p.grad_mut(w) = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let pre = p.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        assert!((p.grad(w).norm() - 1.0).abs() < 1e-5);
        // Below the threshold nothing changes.
        let pre2 = p.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((p.grad(w).norm() - 1.0).abs() < 1e-5);
    }
}
