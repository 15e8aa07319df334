//! 1-D convolution over time with max pooling — the text encoder of the
//! DeepCoNN baseline (Kim-style CNN for sentence classification).

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// `filters` convolution kernels of window `width` over a `[T, d]` word
/// sequence, ReLU, then max-over-time pooling to `[1, filters]`.
#[derive(Debug, Clone)]
pub struct Conv1dMaxPool {
    w: ParamId,
    b: ParamId,
    width: usize,
    input_dim: usize,
    filters: usize,
}

impl Conv1dMaxPool {
    /// Registers He-initialised kernels under `name.*`.
    pub fn new(
        params: &mut Params,
        rng: &mut impl Rng,
        name: &str,
        input_dim: usize,
        width: usize,
        filters: usize,
    ) -> Self {
        assert!(width >= 1, "Conv1dMaxPool: window width must be positive");
        let w = params.register(format!("{name}.w"), init::he_normal(rng, width * input_dim, filters));
        let b = params.register(format!("{name}.b"), Tensor::zeros(1, filters));
        Self { w, b, width, input_dim, filters }
    }

    /// Number of output filters.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Convolution window width (in timesteps).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Applies the layer to a `[T, input_dim]` value; `T` must be at least
    /// the window width. Output is `[1, filters]`.
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, seq: E::V) -> E::V {
        let (t, d) = ex.shape(&seq);
        assert_eq!(d, self.input_dim, "Conv1dMaxPool::forward: input dim {d}, expected {}", self.input_dim);
        assert!(t >= self.width, "Conv1dMaxPool::forward: sequence of {t} shorter than window {}", self.width);
        let unfolded = ex.im2col(&seq, self.width);
        let w = ex.param(params, self.w);
        let b = ex.param(params, self.b);
        let conv = ex.affine(&unfolded, &w, &b);
        let act = ex.relu(conv);
        ex.max_over_rows(&act)
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
    fn conv_gradcheck() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut params = Params::new();
        let conv = Conv1dMaxPool::new(&mut params, &mut rng, "c", 2, 2, 3);
        let seq = init::normal(&mut rng, 5, 2, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let sv = tape.constant(seq.clone());
            let out = conv.forward(tape, p, sv);
            let sq = tape.square(out);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn pooling_is_translation_insensitive_for_isolated_peak() {
        // A strong pattern should yield the same pooled value wherever it
        // appears in the (zero) sequence.
        let mut rng = StdRng::seed_from_u64(23);
        let mut params = Params::new();
        let conv = Conv1dMaxPool::new(&mut params, &mut rng, "c", 2, 1, 4);
        let mut a = Tensor::zeros(6, 2);
        a.set(1, 0, 3.0);
        let mut b = Tensor::zeros(6, 2);
        b.set(4, 0, 3.0);
        let pa = conv.forward(&mut Eval, &params, Cow::Owned(a));
        let pb = conv.forward(&mut Eval, &params, Cow::Owned(b));
        assert_eq!(pa.shape(), (1, 4));
        assert!(pa.approx_eq(&pb, 1e-5));
    }
}
