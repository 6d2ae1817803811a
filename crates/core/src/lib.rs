//! # grads-core — the GrADS framework facade
//!
//! One crate that re-exports the whole reproduction of *"New Grid
//! Scheduling and Rescheduling Methods in the GrADS Project"* (IPPS 2004):
//!
//! | Layer | Crate | Paper § |
//! |---|---|---|
//! | Grid emulator (MicroGrid analog) | [`sim`] | §1, §4.2 |
//! | Network Weather Service analog | [`nws`] | §3.1, §4.1 |
//! | Performance models (op counts, MRD) | [`perf`] | §3.2 |
//! | Simulated MPI + process swapping | [`mpi`] | §2, §4.2 |
//! | SRS checkpointing + IBP + RSS | [`srs`] | §4.1.1 |
//! | Performance contracts + fuzzy monitor | [`contract`] | §1, §4 |
//! | Workflow + MPI scheduling | [`sched`] | §3 |
//! | Migration + swap rescheduling | [`reschedule`] | §4 |
//! | GIS + binder + application manager | [`binder`] | §2 |
//! | QR, N-body, EMAN applications | [`apps`] | §3.3, §4.1–4.2 |
//! | Decision-loop observability | [`obs`] | §3 (profiling substrate) |
//!
//! The [`prelude`] pulls in the names most programs need. See the
//! repository `examples/` for runnable end-to-end scenarios and
//! `crates/bench` for the harnesses that regenerate the paper's figures.

pub use grads_apps as apps;
pub use grads_binder as binder;
pub use grads_contract as contract;
pub use grads_mpi as mpi;
pub use grads_nws as nws;
pub use grads_obs as obs;
pub use grads_perf as perf;
pub use grads_reschedule as reschedule;
pub use grads_sched as sched;
pub use grads_service as service;
pub use grads_sim as sim;
pub use grads_srs as srs;

/// The names most GrADS programs need.
pub mod prelude {
    pub use grads_apps::{
        eman_grid, eman_workflow, run_ft_experiment, run_nbody_experiment, run_qr_experiment,
        EmanConfig, FtExperimentConfig, JacobiConfig, LuConfig, NbodyConfig, NbodyExperimentConfig,
        PsaConfig, QrConfig, QrExperimentConfig, QrExperimentResult, SnapshotUse,
    };
    pub use grads_binder::{prepare_and_bind, Breakdown, Cop, Gis, ManagerCosts};
    pub use grads_contract::{
        render_timeline, ActuatorBus, Contract, ContractMonitor, Outcome, Violation,
    };
    pub use grads_mpi::{launch, BlockCyclic, Comm, RankStats, SwapWorld};
    pub use grads_nws::{Ensemble, ForecastSnapshot, ForecastSource, NwsService};
    pub use grads_obs::{
        DecisionAction, DecisionEvent, DecisionKind, MetricsSnapshot, Obs, RankBreakdown,
        RankState, Recorder, Timeline,
    };
    pub use grads_perf::{
        ComponentModel, FittedModel, MrdModel, OpCountModel, PerfMatrix, PrefixPredictor,
        RankWeights, ResourceInfo, TreeBcastPrefix,
    };
    pub use grads_reschedule::{
        MigrationRescheduler, OverheadPolicy, Reschedulable, ReschedulerMode, SwapPolicy,
    };
    pub use grads_sched::{
        makespan_lower_bound, select_mpi_resources, select_mpi_resources_fast, CandidateWalk,
        CommodityMarket, Consumer, Heuristic, Producer, Schedule, Workflow, WorkflowScheduler,
    };
    pub use grads_service::{
        run_service_experiment, service_grid, Accounting, ServiceConfig, ServiceResult,
        TenantAccount, WorkloadConfig,
    };
    pub use grads_sim::dml::parse_dml;
    pub use grads_sim::prelude::*;
    pub use grads_srs::{IbpStorage, Rss, Srs};
}
