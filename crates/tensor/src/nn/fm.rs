//! Factorization-machine output layer — the `FM(·)` of the paper's Eq. (12),
//! as introduced by Rendle (2010) and used by NARRE/DeepCoNN for the final
//! rating from the concatenated user–item representation.

use crate::{init, Executor, ParamId, Params, Tensor};
use rand::Rng;

/// Second-order factorization machine over an `[n, d]` feature matrix:
///
/// `ŷ = w₀ + x·w + ½ Σ_f [(x·V)_f² − (x²·V²)_f]`
///
/// which equals the pairwise-interaction form `Σ_{i<j} ⟨v_i, v_j⟩ x_i x_j`
/// plus bias and linear terms, computed in `O(n·d·f)`.
#[derive(Debug, Clone)]
pub struct FactorizationMachine {
    w0: ParamId,
    w: ParamId,
    v: ParamId,
    input_dim: usize,
    factors: usize,
}

impl FactorizationMachine {
    /// Registers FM weights under `name.*` with small-normal factor matrix.
    pub fn new(params: &mut Params, rng: &mut impl Rng, name: &str, input_dim: usize, factors: usize) -> Self {
        Self {
            w0: params.register(format!("{name}.w0"), Tensor::zeros(1, 1)),
            w: params.register(format!("{name}.w"), init::normal(rng, input_dim, 1, 0.0, 0.01)),
            v: params.register(format!("{name}.v"), init::normal(rng, input_dim, factors, 0.0, 0.05)),
            input_dim,
            factors,
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of interaction factors.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// Predicts one score per row: `[n, d] -> [n, 1]`.
    pub fn forward<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, x: E::V) -> E::V {
        let d = ex.shape(&x).1;
        assert_eq!(d, self.input_dim, "FactorizationMachine::forward: input dim {d}, expected {}", self.input_dim);
        let w0 = ex.param(params, self.w0);
        let w = ex.param(params, self.w);
        let v = ex.param(params, self.v);

        // Linear part: x·w + w0, with w0 broadcast over the n rows.
        let lin = ex.matmul(&x, &w);
        let lin = ex.add_row_broadcast(lin, &w0);

        // Interaction part: ½ Σ_f [(xV)² − (x²)(V²)]
        let xv = ex.matmul(&x, &v);
        let xv_sq = ex.square(xv);
        let x_sq = ex.square(x);
        let v_sq = ex.square(v);
        let x2v2 = ex.matmul(&x_sq, &v_sq);
        let diff = ex.sub(xv_sq, &x2v2);
        let inter_sum = ex.sum_cols(&diff);
        let inter = ex.scale(inter_sum, 0.5);

        ex.add(lin, &inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_ok;
    use crate::Eval;
    use std::borrow::Cow;
    use rand::{rngs::StdRng, SeedableRng};

    /// Brute-force FM for cross-checking the `O(ndf)` identity.
    fn fm_naive(params: &Params, fm: &FactorizationMachine, x: &Tensor) -> Vec<f32> {
        let w0 = params.get(fm.w0).item();
        let w = params.get(fm.w);
        let v = params.get(fm.v);
        (0..x.rows())
            .map(|r| {
                let row = x.row(r);
                let mut y = w0;
                for (i, &xi) in row.iter().enumerate() {
                    y += w.get(i, 0) * xi;
                }
                for i in 0..row.len() {
                    for j in i + 1..row.len() {
                        let mut dot = 0.0;
                        for f in 0..fm.factors {
                            dot += v.get(i, f) * v.get(j, f);
                        }
                        y += dot * row[i] * row[j];
                    }
                }
                y
            })
            .collect()
    }

    #[test]
    fn fast_identity_matches_naive_pairwise_form() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut params = Params::new();
        let fm = FactorizationMachine::new(&mut params, &mut rng, "fm", 6, 3);
        let x = init::normal(&mut rng, 4, 6, 0.0, 1.0);
        let fast = fm.forward(&mut Eval, &params, Cow::Owned(x.clone()));
        let naive = fm_naive(&params, &fm, &x);
        for (r, &n) in naive.iter().enumerate() {
            assert!((fast.get(r, 0) - n).abs() < 1e-4, "row {r}: {} vs {n}", fast.get(r, 0));
        }
    }

    #[test]
    fn fm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut params = Params::new();
        let fm = FactorizationMachine::new(&mut params, &mut rng, "fm", 4, 2);
        let x = init::normal(&mut rng, 3, 4, 0.0, 1.0);
        let targets = Tensor::col_vector(&[1.0, -0.5, 2.0]);
        assert_gradients_ok(&mut params, move |p, tape| {
            let xv = tape.constant(x.clone());
            let y = fm.forward(tape, p, xv);
            tape.mse(y, &targets)
        });
    }
}
