//! # grads-mpi — simulated MPI over the grid emulator
//!
//! The message-passing substrate the paper's applications (ScaLAPACK QR,
//! the N-body solver) are written against:
//!
//! * [`comm`] — communicators with eager/rendezvous point-to-point
//!   semantics, non-overtaking delivery, and binomial-tree collectives;
//! * [`world`] — `mpirun`-style launching plus the per-rank profiling
//!   counters the contract monitor's sensors read;
//! * [`dist`] — block-cyclic distributions and the N→M redistribution
//!   plans SRS uses at restart;
//! * [`swap`] — the §4.2 process-swapping architecture: active/inactive
//!   sets, logical-rank communication hijacking, swap points, and state
//!   handoff.

pub mod collectives_ext;
pub mod comm;
pub mod dist;
pub mod swap;
pub mod world;

pub use comm::{Comm, Mapping, DEFAULT_EAGER_THRESHOLD, INTERNAL_TAG_BASE};
pub use dist::{BlockCyclic, RedistEntry};
pub use swap::{launch_swap_world, run_swappable, SwapError, SwapWorld};
pub use world::{host_labels, launch, launch_from, RankStats, World};
