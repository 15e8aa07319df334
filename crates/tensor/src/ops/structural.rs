//! Shape-manipulating ops: concatenation, slicing, gathering, unfolding.

use crate::tape::{Op, Tape, Var};

impl Tape<'_> {
    /// Horizontal concatenation.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.concat(parts.iter().copied(), false)
    }

    /// Vertical concatenation.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        self.concat(parts.iter().copied(), true)
    }

    /// Copies columns `start..end` into a new node.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        self.record(Op::SliceCols(a, start, end), |t, out| t.value(a).slice_cols_into(start, end, out))
    }

    /// Gathers the listed rows of a node. Duplicate indices accumulate
    /// gradient correctly. The gradient is a full-size table, so an
    /// embedding lookup uses [`Tape::param_rows`] instead.
    pub fn gather_rows(&mut self, table: Var, indices: &[usize]) -> Var {
        let span = self.stash_indices(indices);
        self.record(Op::GatherRows { table, indices: span }, |t, out| t.value(table).gather_rows_into(t.indices_of(span), out))
    }

    /// Sliding-window unfold turning `[T, d]` into `[T-width+1, width*d]`,
    /// the im2col step of a 1-D convolution over time.
    ///
    /// # Panics
    /// Panics if `width` is zero or exceeds the number of rows.
    pub fn im2col(&mut self, x: Var, width: usize) -> Var {
        self.record(Op::Im2Col { x, width }, |t, out| t.value(x).im2col_into(width, out))
    }

    /// Max-over-time pooling: column-wise maximum over rows, `[T, f] -> [1, f]`.
    pub fn max_over_rows(&mut self, x: Var) -> Var {
        let mut out = self.buffer();
        let mut indices = std::mem::take(&mut self.indices);
        let start = indices.len();
        self.value(x).max_over_rows_into(&mut out, &mut indices);
        self.indices = indices;
        let argmax = self.stashed_since(start);
        self.push(out, Op::MaxOverRows { x, argmax })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Params, Tape, Tensor};

    #[test]
    fn concat_slice_roundtrip_grad() {
        let mut params = Params::new();
        let a_id = params.register("a", Tensor::ones(1, 2));
        let b_id = params.register("b", Tensor::ones(1, 3));
        let mut tape = Tape::new();
        let a = tape.param(&params, a_id);
        let b = tape.param(&params, b_id);
        let cat = tape.concat_cols(&[a, b]);
        assert_eq!(tape.shape(cat), (1, 5));
        let right = tape.slice_cols(cat, 2, 5);
        let loss = tape.sum_all(right);
        tape.backward(loss, &mut params);
        assert!(params.grad(a_id).approx_eq(&Tensor::zeros(1, 2), 1e-6));
        assert!(params.grad(b_id).approx_eq(&Tensor::ones(1, 3), 1e-6));
    }

    #[test]
    fn gather_rows_accumulates_duplicates() {
        let mut params = Params::new();
        let t_id = params.register("table", Tensor::ones(3, 2));
        let mut tape = Tape::new();
        let t = tape.param(&params, t_id);
        let g = tape.gather_rows(t, &[1, 1, 2]);
        let loss = tape.sum_all(g);
        tape.backward(loss, &mut params);
        let expected = Tensor::from_vec(3, 2, vec![0.0, 0.0, 2.0, 2.0, 1.0, 1.0]);
        assert!(params.grad(t_id).approx_eq(&expected, 1e-6));
    }

    #[test]
    fn im2col_layout() {
        let mut tape = Tape::new();
        // 3 timesteps of dim 2: [[1,2],[3,4],[5,6]], width 2
        let x = tape.constant(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let u = tape.im2col(x, 2);
        assert_eq!(tape.shape(u), (2, 4));
        assert_eq!(tape.value(u).row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(tape.value(u).row(1), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn max_over_rows_routes_gradient_to_argmax() {
        let mut params = Params::new();
        let x_id = params.register("x", Tensor::from_vec(3, 2, vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let x = tape.param(&params, x_id);
        let m = tape.max_over_rows(x);
        assert_eq!(tape.value(m).as_slice(), &[5.0, 9.0]);
        let loss = tape.sum_all(m);
        tape.backward(loss, &mut params);
        let expected = Tensor::from_vec(3, 2, vec![0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        assert!(params.grad(x_id).approx_eq(&expected, 1e-6));
    }
}
