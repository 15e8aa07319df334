//! The exactness argument of the pruned training backward, as a property.
//!
//! **Pruning moves no bit.** The backward computes no adjoint for a node
//! without a parameter behind it. Random small graphs built from the `nn`
//! layers (`AttentionPool` over a constant review matrix, `Embedding`
//! lookups for its context, `Linear`, `FactorizationMachine` over a constant
//! side input) run twice: as written, and with every constant input
//! registered as a parameter, so that nothing is pruned. The original
//! parameters' gradients must carry the same bits. The pruned run goes on a
//! tape reset after an unrelated pass, so stale buffers are covered too.
//!
//! That the blocked product kernels are the naive triple loop, on both of
//! their compiled copies, is tested next to them (`src/kernel.rs`).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rrre_tensor::nn::{AttentionPool, Embedding, FactorizationMachine, Linear};
use rrre_tensor::{init, Executor, ParamId, Params, Tape, Tensor, Var};

/// A value whose bits make the association observable: exact zeros of both
/// signs, O(1) values and magnitudes that swallow them.
fn draw(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..20) {
        0..=3 => 0.0,
        4 => -0.0,
        5..=7 => rng.gen_range(-1.0e6f32..1.0e6),
        _ => rng.gen_range(-3.0f32..3.0),
    }
}

/// A `rows × cols` draw with about one row in four all zero.
fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| draw(rng)).collect());
    for r in 0..rows {
        if rng.gen_range(0..4) == 0 {
            t.row_mut(r).fill(0.0);
        }
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One random graph: its layers, its constant inputs and the shape choices.
struct Graph {
    emb: Embedding,
    attn: AttentionPool,
    linear: Linear,
    fm: FactorizationMachine,
    items: Tensor,
    side: Tensor,
    ids: Vec<usize>,
    shared_context: bool,
    side_first: bool,
}

impl Graph {
    fn new(rng: &mut StdRng, params: &mut Params) -> Self {
        let (m, k, d) = (rng.gen_range(1..7), rng.gen_range(1..20), rng.gen_range(1..6));
        let (attn_dim, out, side) = (rng.gen_range(1..18), rng.gen_range(1..5), rng.gen_range(1..4));
        let (vocab, factors) = (rng.gen_range(1..5), rng.gen_range(1..4));
        let emb = Embedding::new(params, rng, "emb", vocab, d);
        let attn = AttentionPool::new(params, rng, "attn", k, d, attn_dim);
        let linear = Linear::new(params, rng, "linear", k, out);
        let fm = FactorizationMachine::new(params, rng, "fm", out + side, factors);
        let items = random_tensor(rng, m, k);
        Self {
            emb,
            attn,
            linear,
            fm,
            items,
            side: init::normal(rng, 1, side, 0.0, 1.0),
            ids: (0..m).map(|_| rng.gen_range(0..vocab)).collect(),
            shared_context: rng.gen_bool(0.3),
            side_first: rng.gen_bool(0.5),
        }
    }

    /// The loss of one pass on `tape`. With `as_params`, the constant inputs
    /// are the parameters listed there instead.
    fn loss(&self, tape: &mut Tape, params: &Params, as_params: Option<[ParamId; 2]>) -> Var {
        let (items, side) = match as_params {
            Some([items, side]) => (tape.param(params, items), tape.param(params, side)),
            None => (tape.constant(self.items.clone()), tape.constant(self.side.clone())),
        };
        let ids = if self.shared_context { &self.ids[..1] } else { &self.ids[..] };
        let context = self.emb.forward(tape, params, ids);
        let pooled = self.attn.forward(tape, params, items, context);
        let hidden = self.linear.forward(tape, params, pooled);
        let hidden = Executor::tanh(tape, hidden);
        let joint = if self.side_first { [side, hidden] } else { [hidden, side] };
        let joint = tape.concat_cols(&joint);
        let score = self.fm.forward(tape, params, joint);
        let sq = tape.square(score);
        tape.sum_all(sq)
    }
}

/// Gradient bits of the original parameters after one backward.
fn grads(params: &mut Params, graph: &Graph, tape: &mut Tape, as_params: Option<[ParamId; 2]>, n: usize) -> Vec<Vec<u32>> {
    params.zero_grads();
    tape.reset();
    let loss = graph.loss(tape, params, as_params);
    tape.backward(loss, params);
    params.ids().take(n).map(|id| bits(params.grad(id))).collect()
}

fn pruning_moves_no_bit(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = Params::new();
    let graph = Graph::new(&mut rng, &mut params);
    let n = params.len();

    // Warm a tape on an unrelated graph first: the pruned pass then runs on
    // buffers of other shapes and contents.
    let mut other_params = Params::new();
    let other = Graph::new(&mut rng, &mut other_params);
    let mut tape = Tape::new();
    let _ = grads(&mut other_params, &other, &mut tape, None, 0);
    let pruned = grads(&mut params, &graph, &mut tape, None, n);

    let items = params.register("items", graph.items.clone());
    let side = params.register("side", graph.side.clone());
    let full = grads(&mut params, &graph, &mut Tape::new(), Some([items, side]), n);
    for (id, (p, f)) in params.ids().zip(pruned.iter().zip(&full)) {
        prop_assert_eq!(p, f, "gradient of {} (seed {})", params.name(id), seed);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pruned_backward_gives_the_unpruned_parameter_gradients(seed in 0u64..1_000_000) {
        pruning_moves_no_bit(seed)?;
    }
}

#[test]
fn constants_get_no_adjoint_and_parameters_keep_theirs() {
    let mut params = Params::new();
    let w = params.register("w", Tensor::from_vec(2, 1, vec![0.5, -1.0]));
    let mut tape = Tape::new();
    let x = tape.constant(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
    let wv = tape.param(&params, w);
    let y = tape.matmul(x, wv);
    let loss = tape.sum_all(y);
    tape.backward(loss, &mut params);
    assert!(tape.grad(x).is_none(), "a constant has no parameter behind it");
    assert_eq!(tape.grad(wv).map(bits), Some(bits(&Tensor::from_vec(2, 1, vec![3.0, 4.0]))));
    assert_eq!(bits(params.grad(w)), bits(&Tensor::from_vec(2, 1, vec![3.0, 4.0])));

    // A loss built from constants alone has nothing to differentiate.
    tape.reset();
    let c = tape.constant(Tensor::scalar(2.0));
    let loss = tape.square(c);
    tape.backward(loss, &mut params);
    assert!(tape.grad(loss).is_none() && tape.grad(c).is_none());
}
