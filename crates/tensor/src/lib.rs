//! # rrre-tensor
//!
//! The deep-learning substrate of the RRRE reproduction: dense `f32`
//! matrices, reverse-mode automatic differentiation on an append-only tape,
//! the neural layers the paper's models are assembled from (Linear,
//! Embedding, LSTM/BiLSTM, GRU, 1-D CNN, additive attention, factorization
//! machine, dropout), losses, and the Adam optimiser.
//!
//! Everything is implemented from scratch on `std` + `rand`; correctness of
//! every differentiable op and layer is enforced by numerical gradient
//! checking (see [`gradcheck`]).
//!
//! Every layer's forward is written once, generic over an [`Executor`]:
//! [`Tape`] runs it to train, [`Eval`] to serve, with the same [`Tensor`]
//! kernels — the served model is the trained one, bit for bit.
//!
//! Embedding gradients are row-sparse. A lookup ([`nn::Embedding::forward`],
//! i.e. [`Tape::param_rows`]) copies only the rows it reads instead of
//! snapshotting the table, its backward pass writes only those rows
//! ([`GradSink::accumulate_rows`]), and a [`GradStore`] zeroes, merges and is
//! absorbed over the rows it was written — bit for bit what a dense table
//! gradient would give.
//!
//! ## Quick example
//!
//! ```
//! use rrre_tensor::{nn::Linear, optim::Adam, Params, Tape, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let layer = Linear::new(&mut params, &mut rng, "fc", 2, 1);
//! let mut opt = Adam::new(0.05);
//!
//! // Learn y = x0 + x1.
//! let x = Tensor::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5], vec![0.0, 3.0]]);
//! let y = Tensor::col_vector(&[3.0, -0.5, 3.0]);
//! for _ in 0..400 {
//!     params.zero_grads();
//!     let mut tape = Tape::new();
//!     let xv = tape.constant(x.clone());
//!     let pred = layer.forward(&mut tape, &params, xv);
//!     let loss = tape.mse(pred, &y);
//!     tape.backward(loss, &mut params);
//!     opt.step(&mut params);
//! }
//! let mut tape = Tape::new();
//! let xv = tape.constant(x.clone());
//! let pred = layer.forward(&mut tape, &params, xv);
//! assert!(tape.value(pred).approx_eq(&y, 0.05));
//! ```

#![warn(missing_docs)]

mod exec;
pub mod gradcheck;
pub mod init;
mod kernel;
pub mod nn;
pub mod optim;
mod ops;
mod params;
pub mod serialize;
mod tape;
mod tensor;

pub use exec::{Eval, Executor};
pub use params::{GradSink, GradStore, ParamId, Params};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
