//! # grads-obs — decision-loop observability
//!
//! A lightweight, always-on utilisation/decision observability layer for
//! the emulated GrADS stack, in the spirit of Lazarević & Sacks'
//! *"Measuring and Monitoring Grid Resource Utilisation"*: effective
//! scheduling decisions need a monitoring substrate that is cheap enough
//! to leave enabled and structured enough to answer *"why did this
//! reschedule happen, and how long did it take?"* in **virtual** time.
//!
//! Two facilities, both reached through a cheaply-clonable [`Obs`] handle:
//!
//! * a [`metrics`] registry — named counters, gauges and fixed-bucket
//!   histograms with a deterministic [`MetricsSnapshot`] and JSON export,
//!   so benches can diff two runs textually;
//! * [`span`]-style decision tracing — every contract evaluation,
//!   violation, rescheduling decision (migrate vs. swap vs. ignore) and
//!   actuation becomes a typed [`DecisionEvent`] carrying its virtual
//!   timestamp, from which [`decision_chains`] reconstructs the
//!   monitor → detect → decide → actuate latency breakdown end-to-end.
//!
//! Every JSON export (the metrics snapshot, the flight recorder's
//! [`Timeline`] and the service's job spans) goes through one writer:
//! one string escaper, one number formatter and the [`ChromeTrace`]
//! framing.
//!
//! ## Determinism contract
//!
//! Recording **must not perturb the simulation**: no sleeps, no virtual
//! time reads of its own (timestamps are supplied by the caller from
//! `ctx.now()`), no influence on event ordering. All aggregation keys are
//! `BTreeMap`-ordered and histograms bucket on *virtual* quantities, so
//! two identical runs produce bit-identical snapshots, and an
//! obs-enabled run is bit-identical (on `end_time` and trace) to a
//! disabled one — `tests/obs_determinism.rs` holds the stack to both.
//!
//! A disabled handle ([`Obs::disabled`], the default) holds no allocation
//! and every recording call is a single `Option` test; instrumented hot
//! paths stay effectively free when observability is off.

#![warn(missing_docs)]

mod json;
pub mod metrics;
pub mod span;
pub mod timeline;

pub use json::ChromeTrace;
pub use metrics::{Histogram, MetricsSnapshot, Registry, HISTOGRAM_LE};
pub use span::{
    chain_table_header, chain_table_row, decision_chains, DecisionAction, DecisionChain,
    DecisionEvent, DecisionKind,
};
pub use timeline::{
    CommMatrix, MsgKind, MsgRecord, PathSegment, RankBreakdown, RankState, Recorder, SegKind,
    Timeline, TrackId, WorldTag,
};

use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Default)]
struct ObsInner {
    metrics: Mutex<Registry>,
    events: Mutex<Vec<DecisionEvent>>,
}

/// Handle to one observability sink: a metrics registry plus a decision
/// event log. Cloning shares the sink (`Arc` inside); the default handle
/// is disabled and records nothing.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Obs {
    /// A recording handle with an empty registry and event log.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner::default())),
        }
    }

    /// A no-op handle: every recording call returns after one `Option`
    /// test. This is the `Default`.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Whether this handle records anything. Callers building expensive
    /// event payloads should gate on this (or use [`Obs::event_with`]).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().counter_add(name, delta);
        }
    }

    /// Set the named gauge to `v` (last write wins).
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().gauge_set(name, v);
        }
    }

    /// Record one observation `v` into the named histogram. `v` must be a
    /// virtual-time quantity (a duration in virtual seconds, a dirty-set
    /// size, …) — never a wall-clock reading, which would break run
    /// reproducibility.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(i) = &self.inner {
            i.metrics.lock().observe(name, v);
        }
    }

    /// Append a decision event stamped with virtual time `t`.
    #[inline]
    pub fn event(&self, t: f64, kind: DecisionKind) {
        if let Some(i) = &self.inner {
            i.events.lock().push(DecisionEvent { t, kind });
        }
    }

    /// Append a decision event, building the payload only when enabled —
    /// use this where constructing the [`DecisionKind`] allocates.
    #[inline]
    pub fn event_with(&self, t: f64, f: impl FnOnce() -> DecisionKind) {
        if let Some(i) = &self.inner {
            i.events.lock().push(DecisionEvent { t, kind: f() });
        }
    }

    /// Deterministic snapshot of the metrics registry (sorted by name).
    /// Disabled handles return an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.metrics.lock().snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Copy of the decision event log, in record order (which equals
    /// virtual-time order: the kernel serializes all recorders).
    pub fn events(&self) -> Vec<DecisionEvent> {
        match &self.inner {
            Some(i) => i.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Reconstructed monitor → detect → decide → actuate chains from the
    /// event log. See [`decision_chains`].
    pub fn chains(&self) -> Vec<DecisionChain> {
        decision_chains(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let o = Obs::disabled();
        o.counter_add("c", 3);
        o.gauge_set("g", 1.0);
        o.observe("h", 0.5);
        o.event(1.0, DecisionKind::MonitorPoll { reports: 1 });
        assert!(!o.is_enabled());
        assert_eq!(o.snapshot(), MetricsSnapshot::default());
        assert!(o.events().is_empty());
        assert!(o.chains().is_empty());
    }

    #[test]
    fn clones_share_the_sink() {
        let a = Obs::enabled();
        let b = a.clone();
        a.counter_add("x", 1);
        b.counter_add("x", 2);
        assert_eq!(a.snapshot().counter("x"), Some(3));
        b.event(2.0, DecisionKind::MonitorPoll { reports: 0 });
        assert_eq!(a.events().len(), 1);
    }

    #[test]
    fn event_with_skips_payload_when_disabled() {
        let o = Obs::disabled();
        let mut built = false;
        o.event_with(0.0, || {
            built = true;
            DecisionKind::MonitorPoll { reports: 0 }
        });
        assert!(!built, "payload must not be built on a disabled handle");
    }

    #[test]
    fn snapshots_of_identical_recordings_are_equal() {
        let mk = || {
            let o = Obs::enabled();
            o.counter_add("a", 1);
            o.counter_add("b", 2);
            o.gauge_set("g", 0.25);
            for v in [0.001, 0.5, 7.0, 2000.0] {
                o.observe("lat", v);
            }
            o
        };
        let (x, y) = (mk(), mk());
        assert_eq!(x.snapshot(), y.snapshot());
        assert_eq!(x.snapshot().to_json(), y.snapshot().to_json());
    }
}
