//! Neural-network layers.
//!
//! Layers register their weights in a shared [`crate::Params`] store at
//! construction and are stateless afterwards. Each layer's `forward` is
//! written once, generic over an [`crate::Executor`]: on a [`crate::Tape`]
//! it records the ops for training, on [`crate::Eval`] it computes the same
//! values for serving.

mod attention;
mod conv;
mod embedding;
mod fm;
mod gru;
mod linear;
mod lstm;

pub use attention::AttentionPool;
pub use conv::Conv1dMaxPool;
pub use embedding::Embedding;
pub use fm::FactorizationMachine;
pub use gru::Gru;
pub use linear::Linear;
pub use lstm::{BiLstm, Lstm};
