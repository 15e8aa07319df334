//! # rrre-text
//!
//! Text substrate for the RRRE reproduction: tokenizer, min-count-filtered
//! vocabulary, from-scratch skip-gram word2vec (the paper's "pretrained"
//! review vectors), fixed-length document encoding and similarity utilities.

#![warn(missing_docs)]

mod encode;
pub mod similarity;
mod tokenize;
mod vocab;
pub mod word2vec;

pub use encode::{encode_document, EncodedDoc};
pub use tokenize::{token_count, tokenize};
pub use vocab::{Vocab, PAD, UNK};
pub use word2vec::{train_word2vec, Word2VecConfig, WordVectors};
