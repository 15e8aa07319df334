//! Inverted dropout.

use crate::{Executor, Params, Tensor};
use rand::Rng;

/// Inverted dropout: at train time each element is zeroed with probability
/// `rate` and survivors are scaled by `1/(1-rate)`, so evaluation needs no
/// rescaling and is the identity.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    rate: f32,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0 ≤ rate < 1`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate), "Dropout: rate {rate} outside [0, 1)");
        Self { rate }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Applies dropout. `train = false` (or `rate == 0`) is the identity.
    /// The mask is drawn from `rng` and recorded as a constant, so a tape
    /// stays a pure function of its recorded values.
    pub fn forward<'p, E: Executor<'p>>(
        &self,
        ex: &mut E,
        _params: &'p Params,
        x: E::V,
        rng: &mut impl Rng,
        train: bool,
    ) -> E::V {
        if !train || self.rate == 0.0 {
            return x;
        }
        let (r, c) = ex.shape(&x);
        let keep = 1.0 - self.rate;
        let mut mask = Tensor::zeros(r, c);
        for m in mask.as_mut_slice() {
            if rng.gen::<f32>() >= self.rate {
                *m = 1.0 / keep;
            }
        }
        let mask = ex.constant(mask);
        ex.mul(x, &mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = StdRng::seed_from_u64(31);
        let params = Params::new();
        let drop = Dropout::new(0.5);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(3, 3));
        let y = drop.forward(&mut tape, &params, x, &mut rng, false);
        assert!(tape.value(y).approx_eq(&Tensor::ones(3, 3), 0.0));
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut rng = StdRng::seed_from_u64(32);
        let params = Params::new();
        let drop = Dropout::new(0.3);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(100, 100));
        let y = drop.forward(&mut tape, &params, x, &mut rng, true);
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_rate_panics() {
        let _ = Dropout::new(1.0);
    }
}
