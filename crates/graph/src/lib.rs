//! # rrre-graph
//!
//! Graph substrate for the RRRE reproduction's network-based baselines: a
//! bipartite user–item review graph, loopy belief propagation over binary
//! pairwise MRFs (SpEagle+/FraudEagle), and a generic damped fixed-point
//! driver (REV2).

#![warn(missing_docs)]

pub mod bipartite;
pub mod bp;
pub mod iterate;

pub use bipartite::{Edge, ReviewGraph};
pub use bp::{BpEdge, BpNetwork, BpResult};
pub use iterate::{fixed_point, linf, FixedPointConfig, FixedPointResult};
