//! Row-sparse gradients are the dense gradients, bit for bit.
//!
//! An embedding lookup through [`Tape::param_rows`] hands its gradient to
//! the sink as the rows it touched, and a [`GradStore`] zeroes, merges and
//! is absorbed over those rows only. The reference here is the dense path
//! that came before it: the whole table snapshotted with [`Tape::param`],
//! looked up with [`Tape::gather_rows`], and a full-size zero-padded
//! gradient added element by element into full-size accumulators. Random
//! sequences of lookups (with duplicate ids), dense writes, store reuse
//! after `zero`, tree-order merges and absorption must leave every element
//! with the same bits on both sides.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rrre_tensor::{GradSink, GradStore, ParamId, Params, Tape, Tensor};

/// The dense accumulator: one full-size tensor per parameter, written only
/// through [`GradSink::accumulate_grad`].
#[derive(Clone)]
struct DenseStore(Vec<Tensor>);

impl DenseStore {
    fn new(params: &Params) -> Self {
        Self(params.ids().map(|id| Tensor::zeros(params.get(id).rows(), params.get(id).cols())).collect())
    }

    fn zero(&mut self) {
        for g in &mut self.0 {
            *g = Tensor::zeros(g.rows(), g.cols());
        }
    }

    fn add_assign(&mut self, other: &DenseStore) {
        for (g, o) in self.0.iter_mut().zip(&other.0) {
            g.add_assign(o);
        }
    }
}

impl GradSink for DenseStore {
    fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.0[id.index()].add_assign(delta);
    }

    fn accumulate_rows(&mut self, _: ParamId, _: &[usize], _: &Tensor) {
        unreachable!("the dense reference looks rows up through a table snapshot")
    }
}

/// A value whose bits make the association observable: exact zeros of both
/// signs, O(1) values and magnitudes that swallow them.
fn draw(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..20) {
        0..=3 => 0.0,
        4 => -0.0,
        5..=8 => rng.gen_range(-1.0e7f32..1.0e7),
        _ => rng.gen_range(-3.0f32..3.0),
    }
}

fn random_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| draw(rng)).collect())
}

/// One lookup of `ids` in table `id` whose output receives the adjoint `g`
/// (`loss = Σ x ⊙ g`), backward into `sink`. Returns the forward value.
fn lookup(params: &Params, id: ParamId, ids: &[usize], g: &Tensor, sparse: bool, sink: &mut dyn GradSink) -> Tensor {
    let mut tape = Tape::new();
    let x = if sparse {
        tape.param_rows(params, id, ids)
    } else {
        let table = tape.param(params, id);
        tape.gather_rows(table, ids)
    };
    let w = tape.constant(g.clone());
    let y = tape.mul(x, w);
    let loss = tape.sum_all(y);
    tape.backward_into(loss, sink);
    tape.value(x).clone()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn same_store(params: &Params, sparse: &GradStore, dense: &DenseStore, what: &str) -> Result<(), TestCaseError> {
    for id in params.ids() {
        prop_assert_eq!(bits(sparse.grad(id)), bits(&dense.0[id.index()]), "{} slot {}", what, params.name(id));
    }
    Ok(())
}

/// `tree_reduce`'s order: `(0,1) (2,3) …`, then `(0,2) (4,6) …`, doubling.
fn tree_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            pairs.push((i, i + stride));
            i += 2 * stride;
        }
        stride *= 2;
    }
    pairs
}

fn row_sparse_matches_dense(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = Params::new();
    let tables = [
        params.register("users", random_tensor(&mut rng, 9, 3)),
        params.register("items", random_tensor(&mut rng, 5, 2)),
    ];
    let w = params.register("w", random_tensor(&mut rng, 2, 3));
    let ids: Vec<ParamId> = params.ids().collect();
    let mut sparse_params = params.clone();
    let mut dense_params = params.clone();

    let (mut sparse, mut dense): (Vec<GradStore>, Vec<DenseStore>) = (Vec::new(), Vec::new());
    for round in 0..4 {
        // Minibatch: reuse the stores allocated so far, reset like a shard.
        let n = rng.gen_range(1..=7usize);
        while sparse.len() < n {
            sparse.push(params.grad_store());
            dense.push(DenseStore::new(&params));
        }
        for (s, d) in sparse[..n].iter_mut().zip(&mut dense[..n]) {
            s.zero();
            d.zero();
            same_store(&params, s, d, "after zero")?;
        }
        for s in 0..n {
            for _ in 0..rng.gen_range(0..5) {
                if rng.gen_range(0..4) == 0 {
                    // A dense write, now and then onto a table slot too.
                    let id = if rng.gen_bool(0.7) { w } else { tables[rng.gen_range(0..2)] };
                    let (r, c) = params.get(id).shape();
                    let delta = random_tensor(&mut rng, r, c);
                    sparse[s].accumulate_grad(id, &delta);
                    dense[s].accumulate_grad(id, &delta);
                } else {
                    let table = tables[rng.gen_range(0..2)];
                    let (vocab, dim) = params.get(table).shape();
                    let rows: Vec<usize> = (0..rng.gen_range(1..9)).map(|_| rng.gen_range(0..vocab)).collect();
                    let g = random_tensor(&mut rng, rows.len(), dim);
                    let xs = lookup(&params, table, &rows, &g, true, &mut sparse[s]);
                    let xd = lookup(&params, table, &rows, &g, false, &mut dense[s]);
                    prop_assert_eq!(bits(&xs), bits(&xd), "lookup values");
                }
            }
            same_store(&params, &sparse[s], &dense[s], &format!("round {round} shard {s}"))?;
        }
        for (a, b) in tree_pairs(n) {
            let (left, right) = sparse.split_at_mut(b);
            left[a].add_assign(&right[0]);
            let (left, right) = dense.split_at_mut(b);
            left[a].add_assign(&right[0]);
            same_store(&params, &sparse[a], &dense[a], &format!("round {round} merge ({a},{b})"))?;
        }
        sparse_params.absorb(&sparse[0]);
        for id in &ids {
            dense_params.grad_mut(*id).add_assign(&dense[0].0[id.index()]);
        }
        for id in &ids {
            prop_assert_eq!(bits(sparse_params.grad(*id)), bits(dense_params.grad(*id)), "absorbed {}", params.name(*id));
        }
        if rng.gen_bool(0.5) {
            sparse_params.zero_grads();
            dense_params.zero_grads();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_sparse_gradients_are_the_dense_bits(seed in 0u64..1_000_000) {
        row_sparse_matches_dense(seed)?;
    }
}

#[test]
fn a_lookup_writes_only_its_rows_and_zero_forgets_them() {
    let mut params = Params::new();
    let table = params.register("t", Tensor::ones(6, 2));
    let w = params.register("w", Tensor::ones(1, 2));
    let mut store = params.grad_store();
    let g = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    lookup(&params, table, &[4, 1, 4], &g, true, &mut store);
    assert_eq!(store.written_rows(table), Some(&[1, 4][..]));
    assert_eq!(store.grad(table).row(4), &[6.0, 8.0]);
    assert_eq!(store.written_rows(w), Some(&[][..]), "an unread parameter stays untouched");
    store.accumulate_grad(w, &Tensor::ones(1, 2));
    assert_eq!(store.written_rows(w), None, "a dense write covers the slot");

    store.zero();
    assert_eq!(store.written_rows(table), Some(&[][..]));
    assert_eq!(store.written_rows(w), Some(&[][..]));
    assert!(store.grad(table).as_slice().iter().chain(store.grad(w).as_slice()).all(|v| v.to_bits() == 0));
}
