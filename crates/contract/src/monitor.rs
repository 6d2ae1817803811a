//! The in-simulation contract-monitor process.
//!
//! Binder-inserted sensors report phase durations into each rank's
//! [`RankStats`]; this monitor polls those sensor channels periodically
//! (the real GrADS monitor took periodic data from Autopilot sensors),
//! feeds them to the [`ContractMonitor`] state machine, and invokes a
//! rescheduler callback on violations.

use crate::contract::{ContractMonitor, Outcome, Violation};
use grads_mpi::RankStats;
use grads_obs::{DecisionAction, DecisionKind, Obs};
use grads_sim::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

/// What the rescheduler did about a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// Not profitable: the monitor relaxes its tolerance limits
    /// (the paper's "adjusts its tolerance limits to new values").
    Declined,
    /// Stop/restart migration initiated: this monitor instance ends (a new
    /// one is launched with the restarted application).
    Migrated,
    /// Process swap initiated: monitoring continues with history cleared.
    Swapped,
}

/// Rescheduler hook invoked on each violation.
pub type ViolationHandler = Arc<dyn Fn(&mut Ctx, &Violation) -> Response + Send + Sync>;

/// Predicate that tells the monitor the application has finished.
pub type DonePredicate = Arc<dyn Fn() -> bool + Send + Sync>;

/// Run the contract monitor loop inside a simulated process.
///
/// Every `period` virtual seconds it drains new sensor reports from all
/// ranks' `phase_times`, updates the contract state machine, and reacts:
/// violations go to `on_violation`; renegotiations and violations are also
/// emitted on the trace (`"contract_violation"` / `"contract_renegotiated"`
/// labels) for the figure harnesses.
///
/// An enabled `obs` also records a typed decision-event stream
/// (`MonitorPoll`, `ContractEval`, `Renegotiated`, `ViolationDetected`,
/// `Decision`) stamped with `ctx.now()` virtual times, and `contract.*`
/// counters. Recording never sleeps, never reads time on its own, and
/// never branches the control flow, so an obs-enabled run is
/// bit-identical to one under [`Obs::disabled`] (see
/// `tests/obs_determinism.rs`).
#[allow(clippy::too_many_arguments)]
pub fn run_contract_monitor(
    ctx: &mut Ctx,
    stats: &[Arc<Mutex<RankStats>>],
    monitor: &mut ContractMonitor,
    period: f64,
    done: DonePredicate,
    on_violation: ViolationHandler,
    obs: &Obs,
) {
    let mut cursors = vec![0usize; stats.len()];
    while !done() {
        ctx.sleep(period);
        let mut reports: Vec<(String, f64)> = Vec::new();
        for (r, s) in stats.iter().enumerate() {
            let st = s.lock();
            for entry in &st.phase_times[cursors[r]..] {
                reports.push(entry.clone());
            }
            cursors[r] = st.phase_times.len();
        }
        obs.counter_add("contract.polls", 1);
        obs.counter_add("contract.reports", reports.len() as u64);
        obs.event_with(ctx.now(), || DecisionKind::MonitorPoll {
            reports: reports.len(),
        });
        for (phase, dt) in reports {
            obs.event_with(ctx.now(), || {
                let predicted = monitor.contract.predicted.get(&phase).copied();
                DecisionKind::ContractEval {
                    phase: phase.clone(),
                    ratio: predicted.map_or(f64::NAN, |p| dt / p),
                }
            });
            match monitor.observe(&phase, dt) {
                Outcome::Ok => {}
                Outcome::Renegotiated { new_upper, .. } => {
                    ctx.trace("contract_renegotiated", new_upper);
                    obs.counter_add("contract.renegotiations", 1);
                    obs.event(ctx.now(), DecisionKind::Renegotiated { new_upper });
                }
                Outcome::Violation(v) => {
                    ctx.trace("contract_violation", v.avg_ratio);
                    obs.counter_add("contract.violations", 1);
                    obs.event_with(ctx.now(), || DecisionKind::ViolationDetected {
                        phase: v.phase.clone(),
                        avg_ratio: v.avg_ratio,
                        score: v.score,
                    });
                    let resp = on_violation(ctx, &v);
                    let action = match resp {
                        Response::Declined => DecisionAction::Ignore,
                        Response::Migrated => DecisionAction::Migrate,
                        Response::Swapped => DecisionAction::Swap,
                    };
                    obs.counter_add(
                        match action {
                            DecisionAction::Migrate => "contract.decisions_migrate",
                            DecisionAction::Swap => "contract.decisions_swap",
                            DecisionAction::Ignore => "contract.decisions_ignore",
                        },
                        1,
                    );
                    obs.event(ctx.now(), DecisionKind::Decision { action });
                    match resp {
                        Response::Declined => monitor.relax(),
                        Response::Migrated => return,
                        Response::Swapped => {
                            let c = monitor.contract.clone();
                            monitor.renew(c);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Contract;
    use grads_sim::topology::{GridBuilder, HostSpec};

    #[test]
    fn monitor_detects_load_induced_violation() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
        let mut eng = Engine::new(b.build().unwrap());
        let stats = Arc::new(Mutex::new(RankStats::default()));
        // Application: 40 iterations of 0.1 s predicted work; host gets
        // loaded at t = 1.0 so iterations take 0.2 s after that.
        let app_stats = stats.clone();
        let app_done = Arc::new(Mutex::new(false));
        let app_done2 = app_done.clone();
        eng.spawn("app", hs[0], move |ctx| {
            for _ in 0..40 {
                let t0 = ctx.now();
                ctx.compute(1e8);
                let dt = ctx.now() - t0;
                app_stats.lock().record_phase("iter", dt);
            }
            *app_done2.lock() = true;
        });
        eng.add_load_window(hs[0], 1.0, None, 1.0);
        // Monitor on the other host.
        let violated = Arc::new(Mutex::new(Vec::<f64>::new()));
        let violated2 = violated.clone();
        let mstats = vec![stats];
        let done: DonePredicate = Arc::new(move || *app_done.lock());
        eng.spawn("monitor", hs[1], move |ctx| {
            let mut mon = ContractMonitor::new(Contract::single_phase("iter", 0.1, 1.5, 0.5, 3));
            let handler: ViolationHandler = Arc::new(move |_ctx, v| {
                violated2.lock().push(v.avg_ratio);
                Response::Declined
            });
            run_contract_monitor(
                ctx,
                &mstats,
                &mut mon,
                0.25,
                done,
                handler,
                &Obs::disabled(),
            );
        });
        let r = eng.run();
        let vs = violated.lock();
        assert!(!vs.is_empty(), "violation expected under load");
        assert!(vs[0] > 1.5);
        assert!(!r.trace.series("contract_violation").is_empty());
        // After Declined + relax, violations should not repeat forever:
        // far fewer violations than iterations.
        assert!(
            vs.len() < 10,
            "relaxation should damp repeats: {}",
            vs.len()
        );
    }

    #[test]
    fn monitor_exits_when_app_done() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(1e9));
        let mut eng = Engine::new(b.build().unwrap());
        let done = Arc::new(Mutex::new(false));
        let done2 = done.clone();
        eng.spawn("app", hs[0], move |ctx| {
            ctx.sleep(1.0);
            *done2.lock() = true;
        });
        eng.spawn("monitor", hs[0], move |ctx| {
            let mut mon = ContractMonitor::new(Contract::single_phase("iter", 1.0, 1.5, 0.5, 3));
            let pred: DonePredicate = Arc::new(move || *done.lock());
            let handler: ViolationHandler = Arc::new(|_, _| Response::Declined);
            run_contract_monitor(ctx, &[], &mut mon, 0.5, pred, handler, &Obs::disabled());
        });
        let r = eng.run();
        assert_eq!(r.completed.len(), 2);
        assert!(r.unfinished.is_empty());
    }

    #[test]
    fn migration_response_stops_monitor() {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        let hs = b.add_hosts(c, 1, &HostSpec::with_speed(1e9));
        let mut eng = Engine::new(b.build().unwrap());
        let stats = Arc::new(Mutex::new(RankStats::default()));
        let app_stats = stats.clone();
        eng.spawn("app", hs[0], move |ctx| {
            for _ in 0..20 {
                ctx.sleep(0.1);
                app_stats.lock().record_phase("iter", 0.5); // way over
            }
        });
        eng.spawn("monitor", hs[0], move |ctx| {
            let mut mon = ContractMonitor::new(Contract::single_phase("iter", 0.1, 1.5, 0.5, 2));
            let pred: DonePredicate = Arc::new(|| false); // never "done"
            let handler: ViolationHandler = Arc::new(|_, _| Response::Migrated);
            run_contract_monitor(
                ctx,
                &[stats],
                &mut mon,
                0.3,
                pred,
                handler,
                &Obs::disabled(),
            );
            let t = ctx.now();
            ctx.trace("monitor_exit", t);
        });
        let r = eng.run();
        // Monitor exited long before the app's 2.0 s end despite the
        // never-done predicate, because the handler reported migration.
        assert!(r.trace.last_value("monitor_exit").unwrap() < 1.0);
    }
}
