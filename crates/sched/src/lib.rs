//! # grads-sched — workflow and MPI-application scheduling
//!
//! Reproduces §3 of the paper:
//!
//! * [`dag`] — workflow DAGs with per-component performance models;
//! * [`heuristics`] — min-min, max-min, sufferage batch mapping;
//! * [`workflow`] — the GrADS workflow scheduler (rank matrix per
//!   dependence level, three heuristics, keep the best makespan) plus
//!   random / round-robin / greedy baselines and HEFT;
//! * [`mpi_sched`] — processor-set selection for tightly-coupled MPI
//!   applications (the §4.1 QR experiment's initial schedule);
//! * [`walk`] + [`epoch`] — the production decision path: forecast
//!   snapshots, zero-materialization candidate walks scored by
//!   incremental prefix predictors, and a first-wins argmin. It is
//!   bit-identical to the [`select_mpi_resources`] reference loop, which
//!   stays only as the test oracle.

pub mod bounds;
pub mod dag;
pub mod economy;
pub mod epoch;
pub mod heuristics;
pub mod mpi_sched;
pub mod walk;
pub mod workflow;

pub use bounds::{area_bound, best_ecosts, critical_path_bound, makespan_lower_bound};
pub use dag::{DagError, WfComponent, WfEdge, Workflow};
pub use epoch::{ClusterOrder, HostBitset, RepairReport, SnapshotIndex};

pub use economy::{
    auction_allocate, demand_at, jain_fairness, price_volatility, AuctionOutcome, CommodityMarket,
    Consumer, Equilibrium, Producer, AUCTION_EPS,
};
pub use heuristics::{makespan, map_tasks, Heuristic, Placement};
pub use mpi_sched::{candidate_sets, select_mpi_resources, MpiPredictor, ResourceChoice};
pub use walk::{select_mpi_resources_fast, CandidateWalk, ClusterPrefixes, WalkScratch};
pub use workflow::{
    evaluate_placement, schedule_greedy_ecost, schedule_heft, schedule_random,
    schedule_round_robin, Schedule, WorkflowScheduler,
};
