//! Arithmetic and linear-algebra ops.

use crate::tape::{Op, Tape, Var};

impl Tape<'_> {
    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b), |t, out| t.value(a).zip_map_into(t.value(b), out, |x, y| x + y))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b), |t, out| t.value(a).zip_map_into(t.value(b), out, |x, y| x - y))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a, b), |t, out| t.value(a).zip_map_into(t.value(b), out, |x, y| x * y))
    }

    /// Adds a `1 × c` row vector to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        self.record(Op::AddRowBroadcast(a, row), |t, out| t.value(a).add_row_broadcast_into(t.value(row), out))
    }

    /// Multiplies every row `r` of `a` by the scalar `col[r]` (`col` is `r × 1`).
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        self.record(Op::MulColBroadcast(a, col), |t, out| t.value(a).mul_col_broadcast_into(t.value(col), out))
    }

    /// `Σ_r weights[r] · x[r, :]` (`weights` is `r × 1`) of each segment of
    /// rows (segment `s` is the next `counts[s]` rows), one output row per
    /// segment: [`Tape::mul_col_broadcast`] then [`Tape::sum_rows`] in one
    /// node, with the same bits forward and backward.
    pub fn weighted_row_sum(&mut self, x: Var, weights: Var, counts: &[usize]) -> Var {
        let span = self.stash_indices(counts);
        self.record(Op::WeightedRowSum(x, weights, span), |t, out| {
            t.value(x).weighted_row_sum_into(t.value(weights), t.indices_of(span), out)
        })
    }

    /// `a + b + bias` per segment of rows (segment `s` is the next
    /// `counts[s]` rows), `bias` a `1 × c` row and `b` one row per row of
    /// `a` or one per segment: the attention pre-activation of one or more
    /// entities. A segment whose context is one row — one per segment, or
    /// the one row of a one-row segment — adds `a + (b + bias)`, as
    /// broadcasting a single context row does; any other adds
    /// `(a + b) + bias`.
    pub fn add_biased(&mut self, a: Var, b: Var, bias: Var, counts: &[usize]) -> Var {
        let span = self.stash_indices(counts);
        self.record(Op::AddBiased { a, b, bias, counts: span }, |t, out| {
            out.copy_from(t.value(a));
            out.add_biased_assign(t.value(b), t.value(bias), t.indices_of(span));
        })
    }

    /// Scalar multiple `alpha * a`.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        self.record(Op::Scale(a, alpha), |t, out| t.value(a).map_into(out, |x| alpha * x))
    }

    /// Negation, recorded as a scale by `-1`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Adds a scalar constant to every element.
    pub fn add_scalar(&mut self, a: Var, alpha: f32) -> Var {
        self.record(Op::AddScalar(a), |t, out| t.value(a).map_into(out, |x| x + alpha))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MatMul(a, b), |t, out| t.value(a).matmul_into(t.value(b), out))
    }

    /// Materialised transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        self.record(Op::Transpose(a), |t, out| t.value(a).transpose_into(out))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.record(Op::Square(a), |t, out| t.value(a).map_into(out, |x| x * x))
    }

    /// Affine map `x · w + b` with `b` broadcast over rows — the fundamental
    /// dense-layer primitive.
    pub fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, b)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Params, Tape, Tensor};

    #[test]
    fn add_and_matmul_forward() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.constant(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let s = tape.add(a, b);
        assert_eq!(tape.value(s).as_slice(), &[4.0, 6.0]);

        let w = tape.constant(Tensor::from_vec(2, 1, vec![1.0, -1.0]));
        let p = tape.matmul(s, w);
        assert_eq!(tape.value(p).item(), -2.0);
    }

    #[test]
    fn matmul_gradients_match_formula() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut params = Params::new();
        let a_id = params.register("a", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b_id = params.register("b", Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let mut tape = Tape::new();
        let a = tape.param(&params, a_id);
        let b = tape.param(&params, b_id);
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss, &mut params);
        let ones = Tensor::ones(2, 2);
        assert!(params.grad(a_id).approx_eq(&ones.matmul_nt(params.get(b_id)), 1e-5));
        assert!(params.grad(b_id).approx_eq(&params.get(a_id).matmul_tn(&ones), 1e-5));
    }

    #[test]
    fn mul_col_broadcast_weights_rows() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let w = tape.constant(Tensor::col_vector(&[2.0, 0.5]));
        let out = tape.mul_col_broadcast(a, w);
        assert_eq!(tape.value(out).as_slice(), &[2.0, 4.0, 1.5, 2.0]);
    }

    #[test]
    fn weighted_row_sum_is_the_broadcast_then_sum_chain_forward_and_backward() {
        use crate::init;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(63);
        let mut params = Params::new();
        let x_id = params.register("x", init::normal(&mut rng, 4, 3, 0.0, 1.0));
        let mut keep = init::normal(&mut rng, 4, 1, 0.0, 1.0);
        keep.set(2, 0, 0.0);
        let w_id = params.register("w", keep);
        let t = init::normal(&mut rng, 1, 3, 0.0, 1.0);
        let run = |fused: bool, params: &mut Params| {
            params.zero_grads();
            let mut tape = Tape::new();
            let x = tape.param(params, x_id);
            let w = tape.param(params, w_id);
            let y = if fused {
                tape.weighted_row_sum(x, w, &[4])
            } else {
                let weighted = tape.mul_col_broadcast(x, w);
                tape.sum_rows(weighted, &[4])
            };
            let tv = tape.constant(t.clone());
            let prod = tape.mul(y, tv);
            let loss = tape.sum_all(prod);
            tape.backward(loss, params);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(tape.value(y)), bits(params.grad(x_id)), bits(params.grad(w_id)))
        };
        assert_eq!(run(true, &mut params), run(false, &mut params));
    }

    #[test]
    fn weighted_row_sum_gradcheck() {
        use crate::{gradcheck::assert_gradients_ok, init};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(64);
        let mut params = Params::new();
        let x_id = params.register("x", init::normal(&mut rng, 4, 3, 0.0, 1.0));
        let w_id = params.register("w", init::normal(&mut rng, 4, 1, 0.0, 1.0));
        assert_gradients_ok(&mut params, move |p, tape| {
            let x = tape.param(p, x_id);
            let w = tape.param(p, w_id);
            let y = tape.weighted_row_sum(x, w, &[4]);
            let sq = tape.square(y);
            tape.sum_all(sq)
        });
    }

    #[test]
    fn gradient_accumulates_on_reuse() {
        // loss = sum(x + x) => dx = 2
        let mut params = Params::new();
        let x_id = params.register("x", Tensor::ones(1, 3));
        let mut tape = Tape::new();
        let x = tape.param(&params, x_id);
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut params);
        assert!(params.grad(x_id).approx_eq(&Tensor::full(1, 3, 2.0), 1e-6));
    }
}
