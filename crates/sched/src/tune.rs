//! Decision-path tuning knobs, mirroring the kernel's `EngineTune`.
//!
//! The scheduler has two implementations of MPI resource selection that
//! are proven bit-identical (unit, property, and end-to-end levels — see
//! `tests/prop_candidates.rs` and the root `sched_path_determinism`
//! suite): the seed reference path and the snapshot/incremental/parallel
//! fast path. [`SchedTune`] selects between them the same way
//! `EngineTune` selects kernel substrates, so experiments can A/B the
//! decision path without touching application code.

/// Which resource-selection implementation the scheduler uses.
///
/// Both paths enumerate the same candidates in the same order and apply
/// the same first-wins argmin over `(predicted, cluster, prefix length)`,
/// so the chosen [`crate::ResourceChoice`] is bit-identical across modes
/// at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionPath {
    /// The seed path: materialize every candidate prefix and re-run the
    /// forecast ensemble inside sort comparators and predictor calls.
    /// Kept as the benchmark baseline.
    Reference,
    /// Forecast snapshot + zero-materialization prefix walk + parallel
    /// deterministic argmin. The default.
    #[default]
    Fast,
}

/// Decision-path tuning bundled for experiment drivers, the analog of
/// `EngineTune` for the scheduler/rescheduler half of the decision loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedTune {
    /// Which selection implementation to run.
    pub path: DecisionPath,
    /// Worker threads for the fast path's cluster-sharded scorer
    /// (`1` = score on the calling thread). Ignored by the reference
    /// path. The argmin is bit-identical at any value.
    pub workers: usize,
    /// Critical-path attribution feedback strength, in thousandths
    /// (`0` = off, the default; `250` = α 0.25). Stored as an integer so
    /// the tune stays `Eq`/hashable. When on, drivers that keep a
    /// flight-recorder timeline inflate a candidate prefix's predicted
    /// time by `1 + α · w̄`, where `w̄` is the mean measured
    /// critical-path share of the prefix's hosts from the previous
    /// incarnation (`grads_perf::AttrPrefix`) — hosts that carried the
    /// last incarnation's critical path are penalized in the next
    /// mapping. Off ⇒ the scoring arithmetic is untouched and decisions
    /// are bit-identical to a build without the knob.
    pub attr_alpha_milli: u32,
    /// Incremental decision epochs (default on — the production path).
    /// Service drivers maintain the round's scheduling state
    /// incrementally — delta forecast capture
    /// ([`grads_nws::ForecastSnapshot::capture_delta`]), a persistent
    /// [`crate::SnapshotIndex`] repaired from the snapshot delta instead
    /// of re-sorted per job, and a reusable mapping plan with per-cluster
    /// free-host bitsets and a within-round placement memo. Every
    /// decision, ledger, and bench byte is bit-identical to the
    /// rebuilt-per-job path, which survives as the identity tests' oracle
    /// ([`SchedTune::reference`], or any tune `with_epoch(false)`); only
    /// the cost of reaching them changes. The service's epoch path maps
    /// through its own plan, so there `path` and `workers` select only
    /// the rebuild path; drivers without epoch state ignore this field.
    pub epoch: bool,
}

/// The production tune: fast path, scored on the calling thread,
/// attribution feedback off, incremental decision epochs on.
impl Default for SchedTune {
    fn default() -> Self {
        SchedTune {
            path: DecisionPath::default(),
            workers: 1,
            attr_alpha_milli: 0,
            epoch: true,
        }
    }
}

impl SchedTune {
    /// The seed reference path, rebuilt per job (epochs off): the oracle
    /// the identity tests compare the production tune against.
    pub fn reference() -> Self {
        SchedTune {
            path: DecisionPath::Reference,
            epoch: false,
            ..Self::default()
        }
    }

    /// The fast path, scored on the calling thread (the production tune).
    pub fn fast() -> Self {
        SchedTune {
            path: DecisionPath::Fast,
            ..Self::default()
        }
    }

    /// The fast path with a cluster-sharded parallel scorer.
    pub fn fast_parallel(workers: usize) -> Self {
        SchedTune {
            path: DecisionPath::Fast,
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// This tune with incremental decision epochs switched `on`.
    pub fn with_epoch(mut self, on: bool) -> Self {
        self.epoch = on;
        self
    }

    /// This tune with attribution feedback at strength
    /// `alpha_milli / 1000`.
    pub fn with_attr_alpha_milli(mut self, alpha_milli: u32) -> Self {
        self.attr_alpha_milli = alpha_milli;
        self
    }

    /// The feedback strength as a float (`0.0` = off). Derived from the
    /// integer field, so equal tunes always yield bitwise-equal alphas.
    pub fn attr_alpha(&self) -> f64 {
        self.attr_alpha_milli as f64 * 1e-3
    }
}
