//! # grads-perf — component performance modeling
//!
//! Reproduces §3.2 of the paper: architecture-independent performance
//! models for workflow components, built from
//!
//! 1. **operation counts** collected on several small problem sizes and
//!    extrapolated by least-squares curve fitting ([`opcount`]), and
//! 2. **memory reuse distance (MRD) histograms** whose per-bin populations
//!    are modelled as functions of problem size, letting cache miss counts
//!    be predicted for any problem size and cache configuration ([`mrd`]).
//!
//! [`cost`] combines the two into `ecost` (expected execution time on a
//! resource), adds `dcost` (data-movement time from NWS forecasts) through
//! the paper's weighted rank function, and collates the performance matrix
//! consumed by the scheduling heuristics.

pub mod commfit;
pub mod cost;
pub mod linalg;
pub mod mrd;
pub mod opcount;
pub mod prefix;

pub use commfit::{fit_comm_model, fit_piecewise, CommModel, PiecewiseCommModel};
pub use cost::{
    rank, ComponentModel, FittedModel, PerfMatrix, RankWeights, ResourceInfo, DEFAULT_CACHE_BLOCK,
    DEFAULT_MISS_PENALTY,
};
pub use mrd::{reuse_distances, simulate_lru, MrdHistogram, MrdModel};
pub use opcount::{FitError, OpCountModel};
pub use prefix::{FlatPrefix, PrefixAgg, PrefixPredictor, TreeBcastPrefix};
