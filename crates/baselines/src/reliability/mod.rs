//! Reliability-score baselines of the paper's Table IV.

mod icwsm13;
mod rev2;
mod speagle;

pub use icwsm13::Icwsm13;
pub use rev2::{Rev2, Rev2Config};
pub use speagle::{SpEagle, SpEagleConfig};
