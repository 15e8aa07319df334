//! Fused loss ops that need custom numerics.

use crate::tape::{Op, Tape, Var};
use crate::Tensor;

impl Tape<'_> {
    /// Numerically stable mean softmax cross-entropy over the rows of
    /// `logits` (`n × C`), against integer class `targets`.
    ///
    /// With `weights = Some(w)`, each row's loss is multiplied by `w[r]`
    /// before the mean — this is exactly how the reliability ground truth
    /// gates the rating loss in the paper's Eq. (14) sibling, and how class
    /// re-balancing is implemented.
    ///
    /// # Panics
    /// Panics if `targets` (or `weights`) length differs from the row count,
    /// or any target is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[usize], weights: Option<&[f32]>) -> Var {
        self.cross_entropy(logits, targets, weights, false)
    }

    /// [`Tape::softmax_cross_entropy`] of each row on its own: an `n × 1`
    /// column holding the (weighted) loss of each row, with the bits of the
    /// mean over that row alone.
    pub fn softmax_cross_entropy_rows(&mut self, logits: Var, targets: &[usize], weights: Option<&[f32]>) -> Var {
        self.cross_entropy(logits, targets, weights, true)
    }

    fn cross_entropy(&mut self, logits: Var, targets: &[usize], weights: Option<&[f32]>, per_row: bool) -> Var {
        let (n, c) = self.value(logits).shape();
        assert_eq!(targets.len(), n, "softmax_cross_entropy: {n} rows vs {} targets", targets.len());
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "softmax_cross_entropy: {n} rows vs {} weights", w.len());
        }
        let targets = self.stash_indices(targets);
        let weights = weights.map(|w| self.stash_floats(w));
        self.record(Op::SoftmaxCrossEntropy { logits, targets, weights, per_row }, |t, out| {
            let (z, targets) = (t.value(logits), t.indices_of(targets));
            let weights = weights.map(|w| t.floats_of(w));
            let nll = |r: usize| {
                let target = targets[r];
                assert!(target < c, "softmax_cross_entropy: target {target} out of {c} classes");
                let row = z.row(r);
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let log_denom = row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
                weights.map_or(1.0, |w| w[r]) * -(row[target] - m - log_denom)
            };
            if per_row {
                out.reset(n, 1);
                for r in 0..n {
                    out.set(r, 0, (0.0 + nll(r)) / 1.0);
                }
            } else {
                let mut total = 0.0;
                for r in 0..n {
                    total += nll(r);
                }
                out.reset(1, 1);
                out.set(0, 0, total / n as f32);
            }
        })
    }

    /// Mean squared error between `pred` (any shape) and a same-shaped
    /// constant `target`, composed from primitive ops.
    pub fn mse(&mut self, pred: Var, target: &Tensor) -> Var {
        let t = self.constant_from(target.rows(), target.cols(), target.as_slice());
        let diff = self.sub(pred, t);
        let sq = self.square(diff);
        self.mean_all(sq)
    }

    /// Reliability-weighted MSE of the paper's Eq. (14):
    /// `1/N · Σ w_i (pred_i − target_i)²` where `w_i` is the reliability
    /// ground truth (or any per-example weight). `pred` must be `n × 1`.
    pub fn weighted_mse(&mut self, pred: Var, target: &[f32], weights: &[f32]) -> Var {
        let n = self.value(pred).rows();
        let weighted = self.weighted_squared_errors(pred, target, weights);
        let s = self.sum_all(weighted);
        self.scale(s, 1.0 / n as f32)
    }

    /// The terms of [`Tape::weighted_mse`], each row's on its own: the
    /// column `w_i (pred_i − target_i)²`, each row with the bits of the
    /// loss of that row alone.
    pub fn weighted_squared_errors(&mut self, pred: Var, target: &[f32], weights: &[f32]) -> Var {
        let n = self.value(pred).rows();
        assert_eq!(self.value(pred).cols(), 1, "weighted_mse: pred must be a column vector");
        assert_eq!(target.len(), n, "weighted_mse: {n} preds vs {} targets", target.len());
        assert_eq!(weights.len(), n, "weighted_mse: {n} preds vs {} weights", weights.len());
        let t = self.constant_from(n, 1, target);
        let w = self.constant_from(n, 1, weights);
        let diff = self.sub(pred, t);
        let sq = self.square(diff);
        self.mul(sq, w)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Params, Tape, Tensor};

    #[test]
    fn cross_entropy_of_perfect_logits_is_small() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::from_vec(2, 2, vec![20.0, -20.0, -20.0, 20.0]));
        let loss = tape.softmax_cross_entropy(logits, &[0, 1], None);
        assert!(tape.value(loss).item() < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_logits_is_log_c() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::zeros(4, 3));
        let loss = tape.softmax_cross_entropy(logits, &[0, 1, 2, 0], None);
        assert!((tape.value(loss).item() - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_weights_zero_out_rows() {
        let mut tape = Tape::new();
        let logits = tape.constant(Tensor::from_vec(2, 2, vec![0.0, 0.0, 5.0, -5.0]));
        // Second row is badly wrong (target 1) but weighted 0.
        let loss = tape.softmax_cross_entropy(logits, &[0, 1], Some(&[2.0, 0.0]));
        let expected = 2.0 * 2.0f32.ln() / 2.0;
        assert!((tape.value(loss).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let mut params = Params::new();
        let z_id = params.register("z", Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let mut tape = Tape::new();
        let z = tape.param(&params, z_id);
        let loss = tape.softmax_cross_entropy(z, &[1], None);
        tape.backward(loss, &mut params);
        let zt = params.get(z_id).clone();
        let m = zt.max();
        let denom: f32 = zt.as_slice().iter().map(|&v| (v - m).exp()).sum();
        let p: Vec<f32> = zt.as_slice().iter().map(|&v| (v - m).exp() / denom).collect();
        let expected = Tensor::from_vec(1, 3, vec![p[0], p[1] - 1.0, p[2]]);
        assert!(params.grad(z_id).approx_eq(&expected, 1e-5));
    }

    #[test]
    fn weighted_mse_ignores_zero_weight_examples() {
        let mut tape = Tape::new();
        let pred = tape.constant(Tensor::col_vector(&[1.0, 100.0]));
        let loss = tape.weighted_mse(pred, &[2.0, 0.0], &[1.0, 0.0]);
        // Only the first example counts: (1-2)^2 / 2
        assert!((tape.value(loss).item() - 0.5).abs() < 1e-5);
    }

    #[test]
    fn mse_matches_manual() {
        let mut tape = Tape::new();
        let pred = tape.constant(Tensor::row_vector(&[1.0, 3.0]));
        let loss = tape.mse(pred, &Tensor::row_vector(&[0.0, 0.0]));
        assert!((tape.value(loss).item() - 5.0).abs() < 1e-5);
    }
}
