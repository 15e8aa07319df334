//! # rrre-data
//!
//! Review dataset model for the RRRE reproduction: labelled review types, a
//! time-sorted user/item index, the paper's train/test protocol, dataset
//! statistics (Table II), JSON persistence, and a synthetic generator with
//! five presets shaped like the paper's YelpChi / YelpNYC / YelpZip / Musics
//! / CDs datasets (see DESIGN.md for the substitution rationale).

#![warn(missing_docs)]

pub mod corpus;
mod dataset;
pub mod io;
pub mod repr;
pub mod split;
pub mod stats;
pub mod synth;
mod types;

pub use corpus::{CorpusConfig, EncodedCorpus};
pub use dataset::{Dataset, DatasetIndex};
pub use split::{train_test_split, Split};
pub use stats::{dataset_stats, DatasetStats};
pub use types::{ItemId, Label, Review, UserId};
