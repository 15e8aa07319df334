//! The per-segment ops a batch of entities runs through — `softmax_col`,
//! `weighted_row_sum`, `sum_rows` and `add_biased` — over segments that
//! include an empty one and a one-row one:
//!
//! - their gradients pass a finite-difference check on both executors: the
//!   tape's analytic gradient against central differences of the loss run
//!   on the tape and again on [`Eval`];
//! - both executors compute the same bits;
//! - every segment's rows carry the bits of the op run on that segment
//!   alone, the one-segment case.

use rand::{rngs::StdRng, SeedableRng};
use rrre_tensor::gradcheck::{assert_gradients_ok, GradCheck};
use rrre_tensor::{init, Eval, Executor, ParamId, Params, Tape, Tensor};
use std::ops::Range;

/// Segments of the 7 stacked rows: an empty one and a one-row one among them.
const COUNTS: [usize; 4] = [3, 0, 1, 3];

/// One op under test, written once over [`Executor`].
trait Case {
    /// The op's output over `COUNTS[segments]`, the parameters' rows
    /// `rows` (a slice of each stacked parameter).
    fn output<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, segments: Range<usize>, rows: Range<usize>) -> E::V;
}

/// The stacked parameters' rows `rows`, as a value of `ex`.
fn rows_of<'p, E: Executor<'p>>(ex: &mut E, params: &'p Params, id: ParamId, rows: Range<usize>) -> E::V {
    let all = ex.param(params, id);
    let indices: Vec<usize> = rows.collect();
    ex.gather_rows(&all, &indices)
}

/// `Σ (output ⊙ t)²` for a fixed `t`: a scalar every output element moves.
fn loss<'p, E: Executor<'p>>(case: &impl Case, ex: &mut E, params: &'p Params) -> E::V {
    let out = case.output(ex, params, 0..COUNTS.len(), 0..7);
    let (r, c) = ex.shape(&out);
    let t = ex.constant(Tensor::from_vec(r, c, (0..r * c).map(|i| 0.3 + 0.17 * i as f32).collect()));
    let weighted = ex.mul(out, &t);
    let sq = ex.square(weighted);
    let col = ex.sum_rows(&sq, &[r]);
    ex.sum_cols(&col)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The three checks of the module docs for one op.
fn check(case: impl Case, mut params: Params) {
    assert_gradients_ok(&mut params, |p, tape| loss(&case, tape, p));

    // Central differences of the loss on `Eval` against the tape's gradient.
    params.zero_grads();
    let mut tape = Tape::new();
    let l = loss(&case, &mut tape, &params);
    tape.backward(l, &mut params);
    let cfg = GradCheck::default();
    for id in params.ids().collect::<Vec<_>>() {
        for i in 0..params.get(id).len() {
            let orig = params.get(id).as_slice()[i];
            params.get_mut(id).as_mut_slice()[i] = orig + cfg.epsilon;
            let plus = loss(&case, &mut Eval, &params).item();
            params.get_mut(id).as_mut_slice()[i] = orig - cfg.epsilon;
            let minus = loss(&case, &mut Eval, &params).item();
            params.get_mut(id).as_mut_slice()[i] = orig;
            let (analytic, numeric) = (params.grad(id).as_slice()[i], (plus - minus) / (2.0 * cfg.epsilon));
            let tol = cfg.atol + cfg.rtol * analytic.abs().max(numeric.abs());
            assert!((analytic - numeric).abs() <= tol, "{}[{i}]: tape {analytic} vs Eval differences {numeric}", params.name(id));
        }
    }

    // The same bits on both executors, and per segment those of the
    // segment alone.
    let mut tape = Tape::new();
    let on_tape = case.output(&mut tape, &params, 0..COUNTS.len(), 0..7);
    let on_tape = tape.value(on_tape).clone();
    let on_eval = case.output(&mut Eval, &params, 0..COUNTS.len(), 0..7).into_owned();
    assert_eq!(bits(&on_tape), bits(&on_eval), "tape and Eval");
    let per_row = on_eval.rows() == 7;
    let mut start = 0;
    for (s, &n) in COUNTS.iter().enumerate() {
        let alone = case.output(&mut Eval, &params, s..s + 1, start..start + n).into_owned();
        let rows = if per_row { start..start + n } else { s..s + 1 };
        let stacked = Tensor::from_vec(rows.len(), on_eval.cols(), on_eval.as_slice()[rows.start * on_eval.cols()..rows.end * on_eval.cols()].to_vec());
        assert_eq!(bits(&stacked), bits(&alone), "segment {s} of {COUNTS:?}");
        start += n;
    }
}

fn param(params: &mut Params, rng: &mut StdRng, name: &str, rows: usize, cols: usize) -> ParamId {
    params.register(name, init::normal(rng, rows, cols, 0.0, 1.0))
}

struct SoftmaxCol(ParamId);

impl Case for SoftmaxCol {
    fn output<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, segments: Range<usize>, rows: Range<usize>) -> E::V {
        let counts = &COUNTS[segments];
        let x = rows_of(ex, params, self.0, rows);
        ex.softmax_col(x, counts)
    }
}

#[test]
fn segmented_softmax_col_passes_gradcheck_on_both_executors() {
    let (mut params, mut rng) = (Params::new(), StdRng::seed_from_u64(71));
    let x = param(&mut params, &mut rng, "x", 7, 1);
    check(SoftmaxCol(x), params);
}

struct WeightedRowSum(ParamId, ParamId);

impl Case for WeightedRowSum {
    fn output<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, segments: Range<usize>, rows: Range<usize>) -> E::V {
        let counts = &COUNTS[segments];
        let x = rows_of(ex, params, self.0, rows.clone());
        let w = rows_of(ex, params, self.1, rows);
        ex.weighted_row_sum(&x, &w, counts)
    }
}

#[test]
fn segmented_weighted_row_sum_passes_gradcheck_on_both_executors() {
    let (mut params, mut rng) = (Params::new(), StdRng::seed_from_u64(72));
    let x = param(&mut params, &mut rng, "x", 7, 3);
    let w = param(&mut params, &mut rng, "w", 7, 1);
    check(WeightedRowSum(x, w), params);
}

struct SumRows(ParamId);

impl Case for SumRows {
    fn output<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, segments: Range<usize>, rows: Range<usize>) -> E::V {
        let counts = &COUNTS[segments];
        let x = rows_of(ex, params, self.0, rows);
        ex.sum_rows(&x, counts)
    }
}

#[test]
fn segmented_sum_rows_passes_gradcheck_on_both_executors() {
    let (mut params, mut rng) = (Params::new(), StdRng::seed_from_u64(73));
    let x = param(&mut params, &mut rng, "x", 7, 3);
    check(SumRows(x), params);
}

/// `tanh(a + b + bias)` with a context `b` per row, or per segment.
struct AddBiased {
    a: ParamId,
    b: ParamId,
    bias: ParamId,
    per_row: bool,
}

impl Case for AddBiased {
    fn output<'p, E: Executor<'p>>(&self, ex: &mut E, params: &'p Params, segments: Range<usize>, rows: Range<usize>) -> E::V {
        let counts = &COUNTS[segments.clone()];
        let a = rows_of(ex, params, self.a, rows.clone());
        // A context row per row, or the segments' own context rows.
        let b = rows_of(ex, params, self.b, if self.per_row { rows } else { segments });
        let bias = ex.param(params, self.bias);
        let pre = ex.add_biased(a, &b, &bias, counts);
        ex.tanh(pre)
    }
}

#[test]
fn add_biased_passes_gradcheck_on_both_executors_with_a_context_per_row() {
    let (mut params, mut rng) = (Params::new(), StdRng::seed_from_u64(74));
    let a = param(&mut params, &mut rng, "a", 7, 3);
    let b = param(&mut params, &mut rng, "b", 7, 3);
    let bias = param(&mut params, &mut rng, "bias", 1, 3);
    check(AddBiased { a, b, bias, per_row: true }, params);
}

#[test]
fn add_biased_passes_gradcheck_on_both_executors_with_a_context_per_segment() {
    let (mut params, mut rng) = (Params::new(), StdRng::seed_from_u64(75));
    let a = param(&mut params, &mut rng, "a", 7, 3);
    let b = param(&mut params, &mut rng, "b", 4, 3);
    let bias = param(&mut params, &mut rng, "bias", 1, 3);
    check(AddBiased { a, b, bias, per_row: false }, params);
}

/// A one-row segment adds its context as a broadcast one-row context does:
/// `a + (b + bias)`, not `(a + b) + bias` — the association the
/// single-entity attention has always had for an entity of one review.
#[test]
fn a_one_row_segment_adds_its_context_first() {
    let a = Tensor::from_vec(3, 1, vec![1.0e8, 1.0e8, 1.0e8]);
    let b = Tensor::from_vec(3, 1, vec![-1.0e8, -1.0e8, -1.0e8]);
    let bias = Tensor::from_vec(1, 1, vec![1.0]);
    let out = Eval.add_biased(std::borrow::Cow::Owned(a), &std::borrow::Cow::Owned(b), &std::borrow::Cow::Owned(bias), &[1, 2]);
    // Row 0 (its own segment): 1e8 + (-1e8 + 1) = 0 in f32; rows 1–2:
    // (1e8 - 1e8) + 1 = 1.
    assert_eq!(out.as_slice(), &[0.0, 1.0, 1.0]);
}
