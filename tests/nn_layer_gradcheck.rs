//! Finite-difference audit of every nn layer RRRE is assembled from, each
//! on its own fixed seed. `model_gradcheck.rs` checks the composed
//! architectures; this file pins each building block in isolation so a
//! broken layer is named directly by the failing test instead of surfacing
//! as a composite-loss mismatch.

use rand::{rngs::StdRng, SeedableRng};
use rrre::core::parallel::{shard_count, shard_range, tree_reduce, GradShard};
use rrre::tensor::gradcheck::{assert_gradients_ok, GradCheck};
use rrre::tensor::nn::{AttentionPool, BiLstm, Embedding, FactorizationMachine, Linear, Lstm};
use rrre::tensor::{init, Params, Tape, Tensor};

#[test]
fn embedding_layer_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xE3B);
    let mut params = Params::new();
    let emb = Embedding::new(&mut params, &mut rng, "emb", 7, 4);
    assert_gradients_ok(&mut params, move |p, tape| {
        // Repeated ids: gradients must accumulate across duplicate rows.
        let e = emb.forward(tape, p, &[0, 3, 3, 6, 1]);
        let sq = tape.square(e);
        tape.mean_all(sq)
    });
}

#[test]
fn linear_layer_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x11E);
    let mut params = Params::new();
    let lin = Linear::new(&mut params, &mut rng, "lin", 5, 3);
    let x = init::normal(&mut rng, 4, 5, 0.0, 1.0);
    assert_gradients_ok(&mut params, move |p, tape| {
        let xv = tape.constant(x.clone());
        let y = lin.forward(tape, p, xv);
        let act = tape.tanh(y);
        let sq = tape.square(act);
        tape.mean_all(sq)
    });
}

#[test]
fn lstm_cell_step_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x157);
    let mut params = Params::new();
    let (in_dim, hidden) = (4usize, 3usize);
    let cell = Lstm::new(&mut params, &mut rng, "cell", in_dim, hidden);
    let x0 = init::normal(&mut rng, 1, in_dim, 0.0, 1.0);
    let x1 = init::normal(&mut rng, 1, in_dim, 0.0, 1.0);
    assert_gradients_ok(&mut params, move |p, tape| {
        // Two chained steps so gradients flow through both the gate maths
        // and the recurrent h/c carry.
        let h0 = tape.constant(Tensor::zeros(1, hidden));
        let c0 = tape.constant(Tensor::zeros(1, hidden));
        let x0v = tape.constant(x0.clone());
        let (h1, c1) = cell.step(tape, p, x0v, h0, c0);
        let x1v = tape.constant(x1.clone());
        let (h2, _c2) = cell.step(tape, p, x1v, h1, c1);
        let sq = tape.square(h2);
        tape.mean_all(sq)
    });
}

#[test]
fn lstm_directional_passes_over_sequences_pass_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x5E9);
    let mut params = Params::new();
    let lstm = Lstm::new(&mut params, &mut rng, "dir", 3, 4);
    let seq = init::normal(&mut rng, 5, 3, 0.0, 1.0);
    let seq_rev = seq.clone();
    let lstm_rev = lstm.clone();
    assert_gradients_ok(&mut params, move |p, tape| {
        let s = tape.constant(seq.clone());
        let h = lstm.forward_final(tape, p, s);
        let sq = tape.square(h);
        tape.mean_all(sq)
    });
    assert_gradients_ok(&mut params, move |p, tape| {
        let s = tape.constant(seq_rev.clone());
        let h = lstm_rev.forward_final_rev(tape, p, s);
        let sq = tape.square(h);
        tape.mean_all(sq)
    });
}

#[test]
fn bilstm_encoder_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xB15);
    let mut params = Params::new();
    let bilstm = BiLstm::new(&mut params, &mut rng, "bi", 3, 2);
    let seq = init::normal(&mut rng, 6, 3, 0.0, 1.0);
    assert_gradients_ok(&mut params, move |p, tape| {
        let s = tape.constant(seq.clone());
        let h = bilstm.forward(tape, p, s);
        let sq = tape.square(h);
        tape.mean_all(sq)
    });
}

#[test]
fn fraud_attention_pool_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xF9A);
    let mut params = Params::new();
    let (k, ctx_dim, attn_dim) = (4usize, 3usize, 5usize);
    let attn = AttentionPool::new(&mut params, &mut rng, "attn", k, ctx_dim, attn_dim);
    let items = init::normal(&mut rng, 5, k, 0.0, 1.0);
    let shared_ctx = init::normal(&mut rng, 1, ctx_dim, 0.0, 1.0);
    let per_row_ctx = init::normal(&mut rng, 5, ctx_dim, 0.0, 1.0);

    // Shared `[1, ctx]` context: softmax over per-review scores.
    let attn2 = attn.clone();
    let (items_a, ctx_a) = (items.clone(), shared_ctx);
    assert_gradients_ok(&mut params, move |p, tape| {
        let it = tape.constant(items_a.clone());
        let ctx = tape.constant(ctx_a.clone());
        let pooled = attn.forward(tape, p, it, ctx);
        let sq = tape.square(pooled);
        tape.mean_all(sq)
    });

    // Per-row `[m, ctx]` context (the RRRE and NARRE configuration).
    assert_gradients_ok(&mut params, move |p, tape| {
        let it = tape.constant(items.clone());
        let ctx = tape.constant(per_row_ctx.clone());
        let pooled = attn2.forward(tape, p, it, ctx);
        let sq = tape.square(pooled);
        tape.mean_all(sq)
    });
}

/// The data-parallel backward — per-example tapes accumulating into
/// positional `GradShard`s, combined by the fixed-order tree reduction —
/// audited directly against central finite differences of the *total*
/// minibatch loss. This closes the loop `tests/parallel_parity.rs` leaves
/// open: parity proves parallel ≡ serial, this proves the shared path is
/// the true gradient.
#[test]
fn parallel_backward_matches_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0x9A7);
    let mut params = Params::new();
    let lin1 = Linear::new(&mut params, &mut rng, "lin1", 4, 3);
    let lin2 = Linear::new(&mut params, &mut rng, "lin2", 3, 1);
    // 8 fixed "examples" — enough for two full shards plus the tree.
    let examples: Vec<Tensor> = (0..8).map(|_| init::normal(&mut rng, 1, 4, 0.0, 1.0)).collect();
    let n = examples.len();

    // One example's loss node: mean contribution of a tiny two-layer MLP.
    let example_loss = |p: &Params, tape: &mut Tape, x: &Tensor| {
        let xv = tape.constant(x.clone());
        let h = lin1.forward(tape, p, xv);
        let a = tape.tanh(h);
        let y = lin2.forward(tape, p, a);
        let sq = tape.square(y);
        let l = tape.mean_all(sq);
        tape.scale(l, 1.0 / n as f32)
    };

    // Analytic gradient via the parallel machinery: positional shards,
    // per-example `backward_into`, fixed-order tree reduction.
    let mut shards: Vec<GradShard> =
        (0..shard_count(n)).map(|_| GradShard::new(&params)).collect();
    for (s, shard) in shards.iter_mut().enumerate() {
        for e in shard_range(s, n) {
            let mut tape = Tape::new();
            let loss = example_loss(&params, &mut tape, &examples[e]);
            tape.backward_into(loss, &mut shard.grads);
        }
    }
    tree_reduce(&mut shards);
    let analytic: Vec<Vec<f32>> =
        params.ids().map(|id| shards[0].grads.grad(id).as_slice().to_vec()).collect();

    // Central finite differences of the total loss, per scalar.
    let total_loss = |p: &Params| -> f32 {
        examples
            .iter()
            .map(|x| {
                let mut tape = Tape::new();
                let l = example_loss(p, &mut tape, x);
                tape.value(l).item()
            })
            .sum()
    };
    let cfg = GradCheck::default();
    let ids: Vec<_> = params.ids().collect();
    for (id, grad) in ids.iter().zip(&analytic) {
        for (i, &a) in grad.iter().enumerate() {
            let orig = params.get(*id).as_slice()[i];
            params.get_mut(*id).as_mut_slice()[i] = orig + cfg.epsilon;
            let f_plus = total_loss(&params);
            params.get_mut(*id).as_mut_slice()[i] = orig - cfg.epsilon;
            let f_minus = total_loss(&params);
            params.get_mut(*id).as_mut_slice()[i] = orig;

            let numeric = (f_plus - f_minus) / (2.0 * cfg.epsilon);
            let tol = cfg.atol + cfg.rtol * a.abs().max(numeric.abs());
            assert!(
                (a - numeric).abs() <= tol,
                "parallel backward off at {}[{i}]: analytic {a:.6} vs numeric {numeric:.6}",
                params.name(*id)
            );
        }
    }
}

#[test]
fn fm_head_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xF91);
    let mut params = Params::new();
    let fm = FactorizationMachine::new(&mut params, &mut rng, "fm", 6, 3);
    let x = init::normal(&mut rng, 4, 6, 0.0, 1.0);
    assert_gradients_ok(&mut params, move |p, tape| {
        let xv = tape.constant(x.clone());
        let y = fm.forward(tape, p, xv);
        let sq = tape.square(y);
        tape.mean_all(sq)
    });
}
