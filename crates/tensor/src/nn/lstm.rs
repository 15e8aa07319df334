//! LSTM and bidirectional LSTM sequence encoders (paper §III-C).

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// Single-direction LSTM with fused gate weights.
///
/// Gate layout along the `4h` axis is `[input | forget | cell | output]`.
/// The forget-gate bias is initialised to one, the standard remedy for
/// vanishing memory early in training.
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    b: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

/// Splits fused gate pre-activations into `(i, f, g, o)` column ranges.
fn gate_ranges(h: usize) -> [(usize, usize); 4] {
    [(0, h), (h, 2 * h), (2 * h, 3 * h), (3 * h, 4 * h)]
}

impl Lstm {
    /// Registers LSTM weights under `name.*`.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, input_dim: usize, hidden_dim: usize) -> Self {
        let wx = params.register(format!("{name}.wx"), init::xavier_uniform(rng, input_dim, 4 * hidden_dim));
        let wh = params.register(format!("{name}.wh"), init::xavier_uniform(rng, hidden_dim, 4 * hidden_dim));
        let mut bias = Tensor::zeros(1, 4 * hidden_dim);
        for c in hidden_dim..2 * hidden_dim {
            bias.set(0, c, 1.0);
        }
        let b = params.register(format!("{name}.b"), bias);
        Self { wx, wh, b, input_dim, hidden_dim }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The handles of this cell's three parameters.
    pub fn param_ids(&self) -> [crate::ParamId; 3] {
        [self.wx, self.wh, self.b]
    }

    /// The cell's weights `[wx, wh, b]` as values of `ex` — created once
    /// per sequence, not once per step.
    fn weights<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params) -> [E::V; 3] {
        [ex.param(params, self.wx), ex.param(params, self.wh), ex.param(params, self.b)]
    }

    /// One step: consumes `x_t` (`[n, input]`) and the previous `(h, c)`
    /// (`[n, hidden]` each), returning the next `(h, c)`.
    pub fn step<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        params: &'p Params,
        x_t: E::V,
        h: E::V,
        c: E::V,
    ) -> (E::V, E::V) {
        let w = self.weights(ex, params);
        self.cell(ex, &w, &x_t, &h, &c)
    }

    fn cell<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        [wx, wh, b]: &[E::V; 3],
        x_t: &E::V,
        h: &E::V,
        c: &E::V,
    ) -> (E::V, E::V) {
        let xw = ex.matmul(x_t, wx);
        let hw = ex.matmul(h, wh);
        let pre = ex.add(xw, &hw);
        let pre = ex.add_row_broadcast(pre, b);
        let [ri, rf, rg, ro] = gate_ranges(self.hidden_dim);
        let i_pre = ex.slice_cols(&pre, ri.0, ri.1);
        let f_pre = ex.slice_cols(&pre, rf.0, rf.1);
        let g_pre = ex.slice_cols(&pre, rg.0, rg.1);
        let o_pre = ex.slice_cols(&pre, ro.0, ro.1);
        let i = ex.sigmoid(i_pre);
        let f = ex.sigmoid(f_pre);
        let g = ex.tanh(g_pre);
        let o = ex.sigmoid(o_pre);
        let fc = ex.mul(f, c);
        let ig = ex.mul(i, &g);
        let c_next = ex.add(fc, &ig);
        let c_act = ex.tanh(c_next.clone());
        let h_next = ex.mul(o, &c_act);
        (h_next, c_next)
    }

    /// Runs the LSTM over the rows of a `[T, input]` sequence, back-to-front
    /// when `reverse`, and returns the final hidden state (`[1, hidden]`).
    fn run<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: &E::V, reverse: bool) -> E::V {
        let (t_len, d) = ex.shape(seq);
        assert!(t_len > 0, "Lstm::forward_final: empty sequence");
        assert_eq!(d, self.input_dim, "Lstm::forward_final: input dim {d}, expected {}", self.input_dim);
        let w = self.weights(ex, params);
        let mut h = ex.constant(Tensor::zeros(1, self.hidden_dim));
        let mut c = ex.constant(Tensor::zeros(1, self.hidden_dim));
        for i in 0..t_len {
            let t = if reverse { t_len - 1 - i } else { i };
            let x_t = ex.gather_rows(seq, &[t]);
            (h, c) = self.cell(ex, &w, &x_t, &h, &c);
        }
        h
    }

    /// Runs the LSTM over a sequence given as one `[T, input]` value and
    /// returns the final hidden state (`[1, hidden]`).
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn forward_final<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: E::V) -> E::V {
        self.run(ex, params, &seq, false)
    }

    /// Like [`Lstm::forward_final`] but reading the sequence back-to-front.
    pub fn forward_final_rev<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: E::V) -> E::V {
        self.run(ex, params, &seq, true)
    }
}

/// Bidirectional LSTM producing `rev = h⁺ ⊕ h⁻` (paper Eq. 4). The output
/// dimension is `2 × hidden`.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
}

impl BiLstm {
    /// Registers both directions under `name.fwd.*` / `name.bwd.*`.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, input_dim: usize, hidden_dim: usize) -> Self {
        Self {
            fwd: Lstm::new(params, rng, &format!("{name}.fwd"), input_dim, hidden_dim),
            bwd: Lstm::new(params, rng, &format!("{name}.bwd"), input_dim, hidden_dim),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.fwd.input_dim()
    }

    /// The handles of all six parameters (both directions).
    pub fn param_ids(&self) -> [crate::ParamId; 6] {
        let ([a, b, c], [d, e, f]) = (self.fwd.param_ids(), self.bwd.param_ids());
        [a, b, c, d, e, f]
    }

    /// Encoding of a `[T, input]` sequence into `[1, 2h]`.
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: E::V) -> E::V {
        let hf = self.fwd.run(ex, params, &seq, false);
        let hb = self.bwd.run(ex, params, &seq, true);
        ex.concat_cols(&[&hf, &hb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use crate::Eval;
    use rand::{rngs::StdRng, SeedableRng};
    use std::borrow::Cow;

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let bi = BiLstm::new(&mut params, &mut rng, "bi", 3, 2);
        let seq = init::normal(&mut rng, 4, 3, 0.0, 1.0);
        let h = bi.forward(&mut Eval, &params, Cow::Borrowed(&seq));
        assert_eq!(h.shape(), (1, 4));
        let hf = bi.fwd.forward_final(&mut Eval, &params, Cow::Borrowed(&seq));
        let hb = bi.bwd.forward_final_rev(&mut Eval, &params, Cow::Borrowed(&seq));
        assert_eq!(h.as_slice(), Tensor::concat_cols(&[&hf, &hb]).as_slice());
    }

    #[test]
    fn order_sensitivity() {
        // An LSTM must distinguish a sequence from its reverse.
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 3);
        let seq = init::normal(&mut rng, 4, 2, 0.0, 1.0);
        let h_fwd = lstm.forward_final(&mut Eval, &params, Cow::Borrowed(&seq));
        let h_rev = lstm.forward_final_rev(&mut Eval, &params, Cow::Borrowed(&seq));
        assert!(!h_fwd.approx_eq(&h_rev, 1e-3));
    }

    #[test]
    fn lstm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 3);
        let seq = init::normal(&mut rng, 3, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let sv = tape.constant(seq.clone());
            let h = lstm.forward_final(tape, p, sv);
            let sq = tape.square(h);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn bilstm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let bi = BiLstm::new(&mut params, &mut rng, "bi", 2, 2);
        let seq = init::normal(&mut rng, 3, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let sv = tape.constant(seq.clone());
            let h = bi.forward(tape, p, sv);
            let sq = tape.square(h);
            tape.sum_all(sq)
        });
    }
}
