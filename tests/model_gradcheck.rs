//! Numerical gradient check of complete model forward passes — not just the
//! individual layers (those are checked inside `rrre-tensor`), but the whole
//! assembled architectures: the RRRE joint loss through both towers and the
//! BiLSTM encoder, and the NARRE-style attention + FM composition.

use rand::{rngs::StdRng, SeedableRng};
use rrre::core::ReviewEncoder;
use rrre::core::{Pooling, Tower};
use rrre::tensor::gradcheck::assert_gradients_ok;
use rrre::tensor::nn::{Embedding, FactorizationMachine, Linear};
use rrre::tensor::{init, Params, Tensor};

/// Builds a miniature RRRE-shaped graph by hand and checks every gradient:
/// two towers over their entities' review matrices (2 and 3 reviews) with
/// per-review contexts, the
/// concatenated reliability head with cross-entropy, the FM rating head
/// with a reliability-weighted MSE, and the λ-combined joint loss.
#[test]
fn full_rrre_shaped_joint_loss_passes_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    let mut params = Params::new();
    let (k, id_dim, attn_dim) = (6usize, 4usize, 5usize);
    let ctx_dim = 3 * id_dim;

    let user_emb = Embedding::new(&mut params, &mut rng, "u_emb", 3, id_dim);
    let item_emb = Embedding::new(&mut params, &mut rng, "i_emb", 4, id_dim);
    let user_tower = Tower::new(&mut params, &mut rng, "u_tower", k, ctx_dim, attn_dim, id_dim);
    let item_tower = Tower::new(&mut params, &mut rng, "i_tower", k, ctx_dim, attn_dim, id_dim);
    let rel_head = Linear::new(&mut params, &mut rng, "rel", 2 * id_dim, 2);
    let w_h = Linear::new(&mut params, &mut rng, "w_h", id_dim, id_dim);
    let w_e = Linear::new(&mut params, &mut rng, "w_e", id_dim, id_dim);
    let fm = FactorizationMachine::new(&mut params, &mut rng, "fm", 2 * id_dim, 3);

    let u_reviews = init::normal(&mut rng, 2, k, 0.0, 1.0);
    let i_reviews = init::normal(&mut rng, 3, k, 0.0, 1.0);

    assert_gradients_ok(&mut params, move |p, tape| {
        let e_u = user_emb.forward(tape, p, &[1]);
        let e_i = item_emb.forward(tape, p, &[2]);

        // Per-review contexts: target pair + counterpart ids.
        let dup2 = vec![0usize; 2];
        let dup3 = vec![0usize; 3];
        let u_rows_u = tape.gather_rows(e_u, &dup2);
        let u_rows_i = tape.gather_rows(e_i, &dup2);
        let u_cp = item_emb.forward(tape, p, &[0, 3]);
        let u_ctx = tape.concat_cols(&[u_rows_u, u_rows_i, u_cp]);
        let i_rows_u = tape.gather_rows(e_u, &dup3);
        let i_rows_i = tape.gather_rows(e_i, &dup3);
        let i_cp = user_emb.forward(tape, p, &[0, 2, 1]);
        let i_ctx = tape.concat_cols(&[i_rows_u, i_rows_i, i_cp]);

        let u_matrix = tape.constant(u_reviews.clone());
        let i_matrix = tape.constant(i_reviews.clone());
        let x_u = user_tower.forward(tape, p, u_matrix, u_ctx, Pooling::FraudAttention);
        let y_i = item_tower.forward(tape, p, i_matrix, i_ctx, Pooling::FraudAttention);

        let joint_repr = tape.concat_cols(&[x_u, y_i]);
        let logits = rel_head.forward(tape, p, joint_repr);
        let loss1 = tape.softmax_cross_entropy(logits, &[1], None);

        let xh = w_h.forward(tape, p, x_u);
        let ye = w_e.forward(tape, p, y_i);
        let a = tape.add(e_u, xh);
        let b = tape.add(e_i, ye);
        let fused = tape.concat_cols(&[a, b]);
        let rating = fm.forward(tape, p, fused);
        let loss2 = tape.weighted_mse(rating, &[4.0], &[1.0]);

        let l1 = tape.scale(loss1, 0.6);
        let l2 = tape.scale(loss2, 0.4);
        tape.add(l1, l2)
    });
}

/// Gradient-checks the encoder path end-to-end: word matrix → BiLSTM →
/// attention pooling → dense head, i.e. the `EncoderMode::EndToEnd` route.
#[test]
fn bilstm_through_attention_passes_gradcheck() {
    use rrre::data::synth::{generate, SynthConfig};
    use rrre::data::{CorpusConfig, EncodedCorpus};
    use rrre::text::word2vec::Word2VecConfig;

    let ds = generate(&SynthConfig::yelp_chi().scaled(0.02));
    let corpus = EncodedCorpus::build(
        &ds,
        &CorpusConfig {
            max_len: 6,
            word2vec: Word2VecConfig { dim: 4, epochs: 1, ..Default::default() },
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xB22);
    let mut params = Params::new();
    let encoder = ReviewEncoder::new(&mut params, &mut rng, 4, 6);
    let head = Linear::new(&mut params, &mut rng, "head", 6, 1);
    let target = Tensor::scalar(3.5);

    assert_gradients_ok(&mut params, move |p, tape| {
        // Encode two reviews, average, regress.
        let r0 = encoder.forward_review(tape, p, &corpus, 0);
        let r1 = encoder.forward_review(tape, p, &corpus, 1);
        let both = tape.concat_rows(&[r0, r1]);
        let pooled = tape.mean_rows(both);
        let pred = head.forward(tape, p, pooled);
        tape.mse(pred, &target)
    });
}
