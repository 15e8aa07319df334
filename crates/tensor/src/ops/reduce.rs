//! Reductions.

use crate::tape::{Op, Tape, Var};

impl Tape<'_> {
    /// Sum of all elements, producing a `1 × 1` node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a), |t, out| {
            out.reset(1, 1);
            out.set(0, 0, t.value(a).sum());
        })
    }

    /// Mean of all elements, producing a `1 × 1` node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a), |t, out| {
            out.reset(1, 1);
            out.set(0, 0, t.value(a).mean());
        })
    }

    /// Column-wise sum over each segment of rows (segment `s` is the next
    /// `counts[s]` rows), one output row per segment.
    pub fn sum_rows(&mut self, a: Var, counts: &[usize]) -> Var {
        let span = self.stash_indices(counts);
        self.record(Op::SumRows(a, span), |t, out| t.value(a).sum_rows_into(t.indices_of(span), out))
    }

    /// Row-wise sum over columns, producing `r × 1`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        self.record(Op::SumCols(a), |t, out| t.value(a).sum_cols_into(out))
    }

    /// Mean over rows, producing `1 × c` (sum_rows scaled by `1/r`).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let rows = self.value(a).rows();
        let s = self.sum_rows(a, &[rows]);
        let r = rows.max(1) as f32;
        self.scale(s, 1.0 / r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Params, Tape, Tensor};

    #[test]
    fn reductions_forward() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let s = tape.sum_all(a);
        let m = tape.mean_all(a);
        let sr = tape.sum_rows(a, &[2]);
        let sc = tape.sum_cols(a);
        let mr = tape.mean_rows(a);
        assert_eq!(tape.value(s).item(), 21.0);
        assert!((tape.value(m).item() - 3.5).abs() < 1e-6);
        assert_eq!(tape.value(sr).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(tape.value(sc).as_slice(), &[6.0, 15.0]);
        assert_eq!(tape.value(mr).as_slice(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn mean_all_gradient_is_uniform() {
        let mut params = Params::new();
        let x_id = params.register("x", Tensor::ones(2, 2));
        let mut tape = Tape::new();
        let x = tape.param(&params, x_id);
        let loss = tape.mean_all(x);
        tape.backward(loss, &mut params);
        assert!(params.grad(x_id).approx_eq(&Tensor::full(2, 2, 0.25), 1e-6));
    }

    #[test]
    fn sum_cols_gradient_broadcasts_back() {
        let mut params = Params::new();
        let x_id = params.register("x", Tensor::ones(2, 3));
        let mut tape = Tape::new();
        let x = tape.param(&params, x_id);
        let sc = tape.sum_cols(x);
        let w = tape.constant(Tensor::col_vector(&[1.0, 10.0]));
        let weighted = tape.mul(sc, w);
        let loss = tape.sum_all(weighted);
        tape.backward(loss, &mut params);
        let expected = Tensor::from_rows(&[vec![1.0; 3], vec![10.0; 3]]);
        assert!(params.grad(x_id).approx_eq(&expected, 1e-6));
    }
}
