//! # grads-reschedule — migration and swap rescheduling
//!
//! The two §4 rescheduling approaches:
//!
//! * [`migrate`] — stop/migrate/restart decisions: remaining-time
//!   prediction on current vs. candidate resources against migration
//!   overhead, with the paper's worst-case-overhead policy (which produces
//!   the documented wrong decision at N = 8000), forced modes for
//!   comparison runs, migration-on-request, and opportunistic rescheduling;
//! * [`swap_policy`] — process-swapping policies (greedy / worst-first /
//!   never) and the periodic in-simulation swap rescheduler.
//!
//! Both deciders take a `grads-obs` handle that streams decision events
//! and `reschedule.*`/`swap.*` counters without changing behavior, so the
//! §3 monitor → rescheduler path can be profiled end-to-end.

#![warn(missing_docs)]

pub mod migrate;
pub mod swap_policy;

pub use migrate::{
    opportunistic_check, MigrationDecision, MigrationRescheduler, OverheadPolicy, Reschedulable,
    ReschedulerMode,
};
pub use swap_policy::{plan_pack, plan_swaps, run_swap_rescheduler, PlannedSwap, SwapPolicy};
