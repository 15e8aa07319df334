//! LSTM and bidirectional LSTM sequence encoders (paper §III-C).

use crate::{init, ParamId, Params, Tape, Tensor, Var};
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

    /// One differentiable step: consumes `x_t` (`[n, input]`) and the previous
    /// `(h, c)` (`[n, hidden]` each), returning the next `(h, c)`.
    pub fn step(&self, tape: &mut Tape, params: &Params, x_t: Var, h: Var, c: Var) -> (Var, Var) {
        let wx = tape.param(params, self.wx);
        let wh = tape.param(params, self.wh);
        let b = tape.param(params, self.b);
        let xw = tape.matmul(x_t, wx);
        let hw = tape.matmul(h, wh);
        let pre = tape.add(xw, hw);
        let pre = tape.add_row_broadcast(pre, b);
        let hd = self.hidden_dim;
        let [ri, rf, rg, ro] = gate_ranges(hd);
        let i_pre = tape.slice_cols(pre, ri.0, ri.1);
        let f_pre = tape.slice_cols(pre, rf.0, rf.1);
        let g_pre = tape.slice_cols(pre, rg.0, rg.1);
        let o_pre = tape.slice_cols(pre, ro.0, ro.1);
        let i = tape.sigmoid(i_pre);
        let f = tape.sigmoid(f_pre);
        let g = tape.tanh(g_pre);
        let o = tape.sigmoid(o_pre);
        let fc = tape.mul(f, c);
        let ig = tape.mul(i, g);
        let c_next = tape.add(fc, ig);
        let c_act = tape.tanh(c_next);
        let h_next = tape.mul(o, c_act);
        (h_next, c_next)
    }

    /// Runs the LSTM over a sequence given as one `[T, input]` node and
    /// returns the final hidden state (`[1, hidden]`).
    ///
    /// # Panics
    /// Panics on an empty sequence.
    pub fn forward_final(&self, tape: &mut Tape, params: &Params, seq: Var) -> Var {
        let t_len = tape.value(seq).rows();
        assert!(t_len > 0, "Lstm::forward_final: empty sequence");
        let mut h = tape.constant(Tensor::zeros(1, self.hidden_dim));
        let mut c = tape.constant(Tensor::zeros(1, self.hidden_dim));
        for t in 0..t_len {
            let x_t = tape.gather_rows(seq, &[t]);
            let (h2, c2) = self.step(tape, params, x_t, h, c);
            h = h2;
            c = c2;
        }
        h
    }

    /// Like [`Lstm::forward_final`] but reading the sequence back-to-front.
    pub fn forward_final_rev(&self, tape: &mut Tape, params: &Params, seq: Var) -> Var {
        let t_len = tape.value(seq).rows();
        assert!(t_len > 0, "Lstm::forward_final_rev: empty sequence");
        let mut h = tape.constant(Tensor::zeros(1, self.hidden_dim));
        let mut c = tape.constant(Tensor::zeros(1, self.hidden_dim));
        for t in (0..t_len).rev() {
            let x_t = tape.gather_rows(seq, &[t]);
            let (h2, c2) = self.step(tape, params, x_t, h, c);
            h = h2;
            c = c2;
        }
        h
    }

    /// Tape-free final hidden state for the frozen-encoder fast path.
    /// `reverse` selects reading direction.
    pub fn infer_final(&self, params: &Params, seq: &Tensor, reverse: bool) -> Tensor {
        let (t_len, d) = seq.shape();
        assert_eq!(d, self.input_dim, "Lstm::infer_final: input dim {d}, expected {}", self.input_dim);
        assert!(t_len > 0, "Lstm::infer_final: empty sequence");
        let wx = params.get(self.wx);
        let wh = params.get(self.wh);
        let b = params.get(self.b);
        let hd = self.hidden_dim;
        let mut h = Tensor::zeros(1, hd);
        let mut c = Tensor::zeros(1, hd);
        let order: Vec<usize> = if reverse { (0..t_len).rev().collect() } else { (0..t_len).collect() };
        for t in order {
            let x_t = seq.gather_rows(&[t]);
            let mut pre = x_t.matmul(wx);
            pre.add_assign(&h.matmul(wh));
            pre = pre.add_row_broadcast(b);
            let p = pre.as_slice();
            let mut h_next = Tensor::zeros(1, hd);
            let mut c_next = Tensor::zeros(1, hd);
            for j in 0..hd {
                let i_g = sigmoid(p[j]);
                let f_g = sigmoid(p[hd + j]);
                let g_g = p[2 * hd + j].tanh();
                let o_g = sigmoid(p[3 * hd + j]);
                let cn = f_g * c.get(0, j) + i_g * g_g;
                c_next.set(0, j, cn);
                h_next.set(0, j, o_g * cn.tanh());
            }
            h = h_next;
            c = c_next;
        }
        h
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
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

    /// Output dimension (`2 × hidden`).
    pub fn output_dim(&self) -> usize {
        2 * self.fwd.hidden_dim()
    }

    /// The handles of all six parameters (both directions).
    pub fn param_ids(&self) -> [crate::ParamId; 6] {
        let ([a, b, c], [d, e, f]) = (self.fwd.param_ids(), self.bwd.param_ids());
        [a, b, c, d, e, f]
    }

    /// Differentiable encoding of a `[T, input]` sequence into `[1, 2h]`.
    pub fn forward(&self, tape: &mut Tape, params: &Params, seq: Var) -> Var {
        let hf = self.fwd.forward_final(tape, params, seq);
        let hb = self.bwd.forward_final_rev(tape, params, seq);
        tape.concat_cols(&[hf, hb])
    }

    /// Tape-free encoding for the frozen-encoder fast path.
    pub fn infer(&self, params: &Params, seq: &Tensor) -> Tensor {
        let hf = self.fwd.infer_final(params, seq, false);
        let hb = self.bwd.infer_final(params, seq, true);
        Tensor::concat_cols(&[&hf, &hb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_and_infer_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 3, 4);
        let seq = init::normal(&mut rng, 5, 3, 0.0, 1.0);
        let mut tape = Tape::new();
        let sv = tape.constant(seq.clone());
        let h = lstm.forward_final(&mut tape, &params, sv);
        assert_eq!(tape.shape(h), (1, 4));
        assert!(tape.value(h).approx_eq(&lstm.infer_final(&params, &seq, false), 1e-5));
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let bi = BiLstm::new(&mut params, &mut rng, "bi", 3, 2);
        let seq = init::normal(&mut rng, 4, 3, 0.0, 1.0);
        let mut tape = Tape::new();
        let sv = tape.constant(seq.clone());
        let h = bi.forward(&mut tape, &params, sv);
        assert_eq!(tape.shape(h), (1, 4));
        assert!(tape.value(h).approx_eq(&bi.infer(&params, &seq), 1e-5));
    }

    #[test]
    fn order_sensitivity() {
        // An LSTM must distinguish a sequence from its reverse.
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let lstm = Lstm::new(&mut params, &mut rng, "l", 2, 3);
        let seq = init::normal(&mut rng, 4, 2, 0.0, 1.0);
        let h_fwd = lstm.infer_final(&params, &seq, false);
        let h_rev = lstm.infer_final(&params, &seq, true);
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
