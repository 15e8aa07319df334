//! Gated recurrent unit, the sequence model of the DER baseline.

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// GRU with fused `[update | reset]` gate weights and a separate candidate
/// projection.
#[derive(Debug, Clone)]
pub struct Gru {
    wx_zr: ParamId,
    wh_zr: ParamId,
    b_zr: ParamId,
    wx_n: ParamId,
    wh_n: ParamId,
    b_n: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl Gru {
    /// Registers GRU weights under `name.*`.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, input_dim: usize, hidden_dim: usize) -> Self {
        Self {
            wx_zr: params.register(format!("{name}.wx_zr"), init::xavier_uniform(rng, input_dim, 2 * hidden_dim)),
            wh_zr: params.register(format!("{name}.wh_zr"), init::xavier_uniform(rng, hidden_dim, 2 * hidden_dim)),
            b_zr: params.register(format!("{name}.b_zr"), Tensor::zeros(1, 2 * hidden_dim)),
            wx_n: params.register(format!("{name}.wx_n"), init::xavier_uniform(rng, input_dim, hidden_dim)),
            wh_n: params.register(format!("{name}.wh_n"), init::xavier_uniform(rng, hidden_dim, hidden_dim)),
            b_n: params.register(format!("{name}.b_n"), Tensor::zeros(1, hidden_dim)),
            input_dim,
            hidden_dim,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The cell's weights `[wx_zr, wh_zr, b_zr, wx_n, wh_n, b_n]` as values
    /// of `ex` — created once per sequence, not once per step.
    fn weights<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params) -> [E::V; 6] {
        [self.wx_zr, self.wh_zr, self.b_zr, self.wx_n, self.wh_n, self.b_n].map(|id| ex.param(params, id))
    }

    /// One step: `x_t` is `[n, input]`, `h` is `[n, hidden]`.
    pub fn step<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, x_t: E::V, h: E::V) -> E::V {
        let w = self.weights(ex, params);
        self.cell(ex, &w, &x_t, &h)
    }

    fn cell<'p, E: Executor<'p>>(&self, ex: &mut E, w: &[E::V; 6], x_t: &E::V, h: &E::V) -> E::V {
        let [wx_zr, wh_zr, b_zr, wx_n, wh_n, b_n] = w;
        let hd = self.hidden_dim;
        let xz = ex.matmul(x_t, wx_zr);
        let hz = ex.matmul(h, wh_zr);
        let zr_pre = ex.add(xz, &hz);
        let zr_pre = ex.add_row_broadcast(zr_pre, b_zr);
        let z_pre = ex.slice_cols(&zr_pre, 0, hd);
        let r_pre = ex.slice_cols(&zr_pre, hd, 2 * hd);
        let z = ex.sigmoid(z_pre);
        let r = ex.sigmoid(r_pre);

        let rh = ex.mul(r, h);
        let xn = ex.matmul(x_t, wx_n);
        let hn = ex.matmul(&rh, wh_n);
        let n_pre = ex.add(xn, &hn);
        let n_pre = ex.add_row_broadcast(n_pre, b_n);
        let n = ex.tanh(n_pre);

        // h' = (1 − z) ⊙ n + z ⊙ h
        let zn = ex.mul(z.clone(), &n);
        let n_minus_zn = ex.sub(n, &zn);
        let zh = ex.mul(z, h);
        ex.add(n_minus_zn, &zh)
    }

    /// Runs over a `[T, input]` sequence value, returning the final hidden
    /// state (`[1, hidden]`).
    pub fn forward_final<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: E::V) -> E::V {
        let (t_len, d) = ex.shape(&seq);
        assert!(t_len > 0, "Gru::forward_final: empty sequence");
        assert_eq!(d, self.input_dim, "Gru::forward_final: input dim {d}, expected {}", self.input_dim);
        let w = self.weights(ex, params);
        let mut h = ex.constant(Tensor::zeros(1, self.hidden_dim));
        for t in 0..t_len {
            let x_t = ex.gather_rows(&seq, &[t]);
            h = self.cell(ex, &w, &x_t, &h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use crate::Eval;
    use std::borrow::Cow;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn gru_gradcheck() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut params = Params::new();
        let gru = Gru::new(&mut params, &mut rng, "g", 2, 3);
        let seq = init::normal(&mut rng, 3, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let sv = tape.constant(seq.clone());
            let h = gru.forward_final(tape, p, sv);
            let sq = tape.square(h);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn zero_update_gate_bias_mixes_state() {
        // With a single step from h=0 the output must lie in (-1, 1) strictly.
        let mut rng = StdRng::seed_from_u64(15);
        let mut params = Params::new();
        let gru = Gru::new(&mut params, &mut rng, "g", 2, 2);
        let seq = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        let h = gru.forward_final(&mut Eval, &params, Cow::Owned(seq));
        assert!(h.as_slice().iter().all(|&x| x.abs() < 1.0));
    }
}
