//! Fully connected layer.

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// Dense affine layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialised `in_dim × out_dim` weight and zero bias
    /// under `name.w` / `name.b`.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let w = params.register(format!("{name}.w"), init::xavier_uniform(rng, in_dim, out_dim));
        let b = params.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Handle of the weight matrix.
    pub fn weight(&self) -> ParamId {
        self.w
    }

    /// Handle of the bias row.
    pub fn bias(&self) -> ParamId {
        self.b
    }

    /// Applies the layer to a `[n, in_dim]` value, producing `[n, out_dim]`.
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, x: E::V) -> E::V {
        let in_dim = ex.shape(&x).1;
        assert_eq!(in_dim, self.in_dim, "Linear::forward: input has {in_dim} features, layer expects {}", self.in_dim);
        let w = ex.param(params, self.w);
        let b = ex.param(params, self.b);
        ex.affine(&x, &w, &b)
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
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let layer = Linear::new(&mut params, &mut rng, "fc", 4, 3);
        let x = init::normal(&mut rng, 5, 4, 0.0, 1.0);
        let y = layer.forward(&mut Eval, &params, Cow::Owned(x));
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn gradients_pass_numeric_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let layer = Linear::new(&mut params, &mut rng, "fc", 3, 2);
        let x = init::normal(&mut rng, 4, 3, 0.0, 1.0);
        assert_gradients_ok(&mut params, move |p, tape| {
            let xv = tape.constant(x.clone());
            let y = layer.forward(tape, p, xv);
            let sq = tape.square(y);
            tape.mean_all(sq)
        });
    }
}
