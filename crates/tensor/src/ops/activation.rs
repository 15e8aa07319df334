//! Non-linear activations.

use crate::tape::{Op, Tape, Var};

impl Tape<'_> {
    /// Hyperbolic tangent, applied element-wise.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Op::Tanh(a), |t, out| t.value(a).map_into(out, f32::tanh))
    }

    /// Logistic sigmoid, applied element-wise.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(Op::Sigmoid(a), |t, out| t.value(a).map_into(out, crate::tensor::sigmoid))
    }

    /// Rectified linear unit, applied element-wise.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Op::Relu(a), |t, out| t.value(a).map_into(out, |x| x.max(0.0)))
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        self.record(Op::SoftmaxRows(a), |t, out| t.value(a).softmax_rows_into(out))
    }

    /// Softmax of each segment of an `m × 1` score column on its own
    /// ([`crate::Tensor::softmax_col_assign`]): segment `s` is the next
    /// `counts[s]` rows, one entity's attention weights.
    pub fn softmax_col(&mut self, a: Var, counts: &[usize]) -> Var {
        let span = self.stash_indices(counts);
        self.record(Op::SoftmaxCol(a, span), |t, out| {
            out.copy_from(t.value(a));
            out.softmax_col_segments_assign(t.indices_of(span));
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tape, Tensor};

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = tape.softmax_rows(a);
        let v = tape.value(s);
        for r in 0..2 {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(v.get(r, 2) > v.get(r, 1) && v.get(r, 1) > v.get(r, 0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let b = tape.constant(Tensor::from_vec(1, 3, vec![1001.0, 1002.0, 1003.0]));
        let sa = tape.softmax_rows(a);
        let sb = tape.softmax_rows(b);
        let (va, vb) = (tape.value(sa).clone(), tape.value(sb).clone());
        assert!(va.approx_eq(&vb, 1e-5));
    }

    /// The fused softmax of `m` logits is the transpose/softmax_rows/
    /// transpose chain, forward and backward, also when that chain runs over
    /// the column padded with `pad` rows of `-1e9`: each padded row takes
    /// weight `+0.0` and adds only `+0.0` to the sums, so a tower that
    /// drops its padding keeps its bits.
    #[test]
    fn softmax_col_is_the_transpose_softmax_chain_with_or_without_padding() {
        use crate::{init, Executor, Params};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(61);
        for (m, pad) in [(5, 2), (4, 0), (1, 3)] {
            let mut params = Params::new();
            let x_id = params.register("x", init::normal(&mut rng, m, 1, 0.0, 2.0));
            let w = init::normal(&mut rng, m, 1, 0.0, 1.0);
            let grads = |fused: bool, params: &mut Params| {
                params.zero_grads();
                let mut tape = Tape::new();
                let x = tape.param(params, x_id);
                let (y, wv) = if fused {
                    (tape.softmax_col(x, &[m]), tape.constant(w.clone()))
                } else {
                    let penalty = tape.constant(Tensor::full(pad, 1, -1.0e9));
                    let z = Executor::concat_rows(&mut tape, &[&x, &penalty]);
                    let row = tape.transpose(z);
                    let soft = tape.softmax_rows(row);
                    let mut padded_w = w.as_slice().to_vec();
                    padded_w.resize(m + pad, 0.0);
                    (tape.transpose(soft), tape.constant(Tensor::col_vector(&padded_w)))
                };
                let prod = tape.mul(y, wv);
                let loss = tape.sum_all(prod);
                tape.backward(loss, params);
                (tape.value(y).clone(), params.grad(x_id).clone())
            };
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (y_fused, g_fused) = grads(true, &mut params);
            let (y_chain, g_chain) = grads(false, &mut params);
            assert_eq!(bits(y_fused.as_slice()), bits(&y_chain.as_slice()[..m]), "m = {m}, pad = {pad}");
            assert!(y_chain.as_slice()[m..].iter().all(|v| v.to_bits() == 0), "padded rows weigh +0.0");
            assert_eq!(bits(g_fused.as_slice()), bits(g_chain.as_slice()), "m = {m}, pad = {pad}");
        }
    }

    #[test]
    fn softmax_col_gradcheck() {
        use crate::{gradcheck::assert_gradients_ok, init, Params};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(62);
        let mut params = Params::new();
        let x_id = params.register("x", init::normal(&mut rng, 5, 1, 0.0, 1.0));
        let w = init::normal(&mut rng, 5, 1, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let x = tape.param(p, x_id);
            let y = tape.softmax_col(x, &[5]);
            let wv = tape.constant(w.clone());
            let prod = tape.mul(y, wv);
            let sq = tape.square(prod);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn activations_known_values() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 3, vec![-1.0, 0.0, 1.0]));
        let t = tape.tanh(a);
        let s = tape.sigmoid(a);
        let r = tape.relu(a);
        assert!((tape.value(t).get(0, 0) + 0.76159).abs() < 1e-4);
        assert!((tape.value(s).get(0, 1) - 0.5).abs() < 1e-6);
        assert_eq!(tape.value(r).as_slice(), &[0.0, 0.0, 1.0]);
    }
}
