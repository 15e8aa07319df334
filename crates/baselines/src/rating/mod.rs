//! Rating-prediction baselines of the paper's Table III.

mod deepconn;
mod naive;
mod der;
mod narre;
mod neural;
mod pmf;

pub use deepconn::{DeepConn, DeepConnConfig, DeepConnNet};
pub use naive::{MeanKind, MeanPredictor};
pub use der::{Der, DerConfig, DerNet};
pub use narre::{Narre, NarreConfig, NarreNet};
pub use neural::{Fitted, PairNet};
pub use pmf::{Pmf, PmfConfig};
