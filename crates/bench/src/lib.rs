//! # rrre-bench
//!
//! Experiment harness reproducing every table and figure of the RRRE paper
//! on the synthetic datasets, plus the ablations of DESIGN.md §4. The
//! `repro` binary drives it; tests run smoke-scale slices of each
//! experiment. Kernel, serving and training costs are measured by the
//! separate `benchmark/` crate, not here.

#![warn(missing_docs)]

pub mod ablations;
pub mod case_study;
pub mod cells;
pub mod context;
pub mod figures;
pub mod methods;
pub mod ndcg;
pub mod report;
pub mod scale;
pub mod significance;
pub mod tables;

pub use cells::{Cell, CellCache};
pub use context::DatasetRun;
pub use scale::Scale;
