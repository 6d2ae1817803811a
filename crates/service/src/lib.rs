//! # grads-service — a multi-tenant grid service in front of the scheduler
//!
//! The GrADS drivers run *one* application per emulated grid. This crate
//! turns the same machinery into a **service**: a continuous, seeded
//! stream of job submissions (QR / N-body / EMAN / workflow shapes, each
//! with a size, a deadline, and a budget — [`workload`]), a
//! deadline-aware admission and queueing layer in front of the fast
//! mapper ([`service`]), and per-tenant accounting surfaced through
//! `grads-obs` counters ([`accounting`]).
//!
//! The admission policy follows the economic-scheduling line of work the
//! paper points to for resource allocation (Buyya's deadline-and-budget
//! constrained cost-time optimisation; Wolski's G-commerce markets):
//!
//! * **deadline-aware**: a job is admitted only if a
//!   `ForecastSnapshot`-based completion estimate lands inside its
//!   deadline; jobs whose deadline can no longer be met are rejected
//!   rather than left to fail late;
//! * **budget-constrained**: a commodities market
//!   ([`grads_sched::CommodityMarket`]) prices slot-seconds each
//!   dispatch round from real supply (free slots) and demand (the
//!   queue); a job is deferred while the market price makes it
//!   unaffordable, and under scarcity the last free slots are sold by
//!   second-price auction ([`grads_sched::auction_allocate`]);
//! * **fair across tenants**: accounting tracks admitted / rejected /
//!   completed / SLO-missed jobs, consumed host-seconds and spend per
//!   tenant, with Jain's index over host-seconds as the fairness signal.
//!
//! Everything runs inside `grads-sim` virtual time and is bit-for-bit
//! deterministic: the same seed produces the same admitted set, the same
//! accounts, and the same metrics across reruns and at any sweep worker
//! count (pinned by the root `service_determinism` suite). Decisions go
//! through one incremental path (delta capture, a repaired
//! [`grads_sched::SnapshotIndex`] and a [`plan::MappingPlan`]); debug
//! builds check each round and each decision against a rebuild from
//! scratch.

pub mod accounting;
pub mod plan;
pub mod service;
pub mod spans;
pub mod workload;

pub use accounting::{Accounting, TenantAccount};
pub use plan::MappingPlan;
pub use service::{percentile, run_service_experiment, service_grid, ServiceConfig, ServiceResult};
pub use spans::{JobPhase, JobSpan, SpanLog, MARKET_TENANT};
pub use workload::{generate_workload, AppKind, Job, WorkloadConfig};
