//! The Adam optimiser over a [`Params`] store.

use crate::{ParamId, Params, Tensor};

/// Adam (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabiliser.
    pub eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with the canonical `β₁ = 0.9, β₂ = 0.999`.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates an Adam optimiser with explicit decay rates.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        assert!(lr > 0.0, "Adam: non-positive learning rate {lr}");
        Self { lr, beta1, beta2, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The full optimiser state `(t, m, v)` for checkpointing. `m`/`v` are
    /// empty until the first [`Adam::step`] (they initialise lazily).
    pub fn state(&self) -> (u64, &[Tensor], &[Tensor]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores state captured by [`Adam::state`], so a resumed training
    /// run continues with bit-identical updates. `m` and `v` must have the
    /// same length (one moment pair per parameter, in registration order).
    pub fn restore(&mut self, t: u64, m: Vec<Tensor>, v: Vec<Tensor>) -> Result<(), String> {
        if m.len() != v.len() {
            return Err(format!("Adam state moment count mismatch: {} m vs {} v", m.len(), v.len()));
        }
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one Adam update from the accumulated gradients. A frozen
    /// parameter ([`Params::freeze`]) is skipped; its moments stay zero.
    pub fn step(&mut self, params: &mut Params) {
        if self.m.len() != params.len() {
            let zeros = |p: &Params| {
                p.ids()
                    .map(|id| {
                        let (r, c) = p.get(id).shape();
                        Tensor::zeros(r, c)
                    })
                    .collect::<Vec<_>>()
            };
            self.m = zeros(params);
            self.v = zeros(params);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        let (s1, s2, neg_lr) = (1.0 / bc1, 1.0 / bc2, -self.lr);
        for ((i, m), v) in (0..params.len()).zip(&mut self.m).zip(&mut self.v) {
            if params.is_frozen(ParamId(i)) {
                continue;
            }
            let (value, grad) = params.value_mut_and_grad(ParamId(i));
            assert!(m.shape() == value.shape() && v.shape() == value.shape(), "Adam: moment shape mismatch");
            // One pass, no temporaries. The operation order is part of the
            // checkpoint contract (resumed runs replay these bits): m·β₁ +
            // (1−β₁)·g, v·β₂ + (1−β₂)·g², bias correction, then
            // p + (−lr)·m̂/(√v̂ + ε) — no fused multiply-add, no reordering.
            let moments = m.as_mut_slice().iter_mut().zip(v.as_mut_slice());
            for ((p, &g), (m, v)) in value.as_mut_slice().iter_mut().zip(grad.as_slice()).zip(moments) {
                *m *= b1;
                *m += c1 * g;
                *v *= b2;
                *v += c2 * (g * g);
                let (m_hat, v_hat) = (s1 * *m, s2 * *v);
                *p += neg_lr * (m_hat / (v_hat.sqrt() + eps));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tape, Tensor};

    /// Minimises `(x - 3)²` and checks convergence.
    fn optimise(mut step: impl FnMut(&mut Params), params: &mut Params, iters: usize) -> f32 {
        let id = params.ids().next().unwrap();
        for _ in 0..iters {
            params.zero_grads();
            let mut tape = Tape::new();
            let x = tape.param(params, id);
            let t = tape.constant(Tensor::scalar(3.0));
            let d = tape.sub(x, t);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss, params);
            step(params);
        }
        params.get(id).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = Params::new();
        params.register("x", Tensor::scalar(-5.0));
        let mut opt = Adam::new(0.3);
        let x = optimise(|p| opt.step(p), &mut params, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_step_counter_advances() {
        let mut params = Params::new();
        params.register("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut params);
        opt.step(&mut params);
        assert_eq!(opt.steps(), 2);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        // Two optimisers over identical params: one runs straight through,
        // the other is checkpointed and restored mid-run. Trajectories must
        // match exactly.
        let build = || {
            let mut p = Params::new();
            p.register("x", Tensor::scalar(-5.0));
            p
        };
        let mut pa = build();
        let mut opt_a = Adam::new(0.3);
        let _ = optimise(|p| opt_a.step(p), &mut pa, 10);

        let mut pb = build();
        let mut opt_b = Adam::new(0.3);
        let _ = optimise(|p| opt_b.step(p), &mut pb, 5);
        let (t, m, v) = opt_b.state();
        let (t, m, v) = (t, m.to_vec(), v.to_vec());
        let mut opt_c = Adam::new(0.3);
        opt_c.restore(t, m, v).unwrap();
        let _ = optimise(|p| opt_c.step(p), &mut pb, 5);

        let id = pa.ids().next().unwrap();
        assert_eq!(pa.get(id).item().to_bits(), pb.get(id).item().to_bits());
    }

    /// Freezing a parameter with no gradient of its own is bit-exact
    /// against running it through the whole step and zeroing its weight
    /// decay by hand: same weights, same moments.
    #[test]
    fn a_frozen_parameter_steps_as_one_whose_gradient_is_zeroed() {
        let run = |freeze: bool| {
            let mut p = Params::new();
            let x = p.register("x", Tensor::from_vec(1, 3, vec![-5.0, 0.0, 2.5]));
            let f = p.register("f", Tensor::from_vec(2, 2, vec![0.7, -0.0, 3.0, -1.5]));
            if freeze {
                p.freeze(f);
            }
            let mut opt = Adam::new(0.1);
            for _ in 0..5 {
                p.zero_grads();
                let mut tape = Tape::new();
                let xv = tape.param(&p, x);
                let sq = tape.square(xv);
                let loss = tape.sum_all(sq);
                tape.backward(loss, &mut p);
                p.apply_l2_grad(0.01);
                if !freeze {
                    p.grad_mut(f).as_mut_slice().fill(0.0);
                }
                p.clip_grad_norm(1.0);
                opt.step(&mut p);
            }
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (_, m, v) = opt.state();
            (p.ids().map(|id| bits(p.get(id))).collect::<Vec<_>>(), m.iter().chain(v).map(bits).collect::<Vec<_>>())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn adam_restore_rejects_mismatched_moments() {
        let mut opt = Adam::new(0.1);
        assert!(opt.restore(3, vec![Tensor::zeros(1, 1)], vec![]).is_err());
    }
}
