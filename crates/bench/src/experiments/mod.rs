//! The paper's 21 experiments (§VIII: Tabs. III–XXI, Figs. 5–15) as plain
//! functions.  Each takes the dataset scale factor and **returns** the
//! tables and figures it regenerates, so a caller can inspect them;
//! `src/bin/experiments.rs` names, runs and emits them.

mod accuracy;
mod efficiency;
mod weights;

pub use accuracy::*;
pub use efficiency::*;
pub use weights::*;
