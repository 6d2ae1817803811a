//! Determinism regression for the kernel substrate on the full fig3
//! QR-migration scenario — middleware, contract monitor, rescheduler,
//! migration and all.
//!
//! The substrate contract (see DESIGN.md) is that the kernel's production
//! shortcuts — dirty-set scoped rate solves, coalesced to one per virtual
//! instant, and the batched process handoff — are pure performance
//! substitutions: the hidden reference oracles that switch all three off
//! must reproduce the production run report bit for bit (end time, trace
//! with bitwise `f64` timestamps, per-host flops, per-link bytes).
//! `crates/sim/tests/closed_form.rs` checks the kernel itself against
//! analytic answers, independent of any oracle.

use grads_core::apps::qr_driver::run_qr_experiment_with;
use grads_core::prelude::*;
use grads_core::sim::topology::macrogrid_qr;

/// The fig3 QR-migration scenario at harness scale — same shape as
/// `tests/obs_determinism.rs`.
fn fig3_cfg() -> QrExperimentConfig {
    let mut cfg = QrExperimentConfig::paper(20000);
    cfg.qr.n_real = 48;
    cfg.qr.block = 4;
    cfg.qr.poll_every = 4;
    cfg.load_at = 60.0;
    cfg.monitor_period = 10.0;
    cfg.t_max = 50_000.0;
    cfg
}

/// The reference substrate — every kernel test oracle at once: a full
/// recompute on each solve, one solve per churn, and one blocking round
/// trip per `Ctx` call — agrees bitwise with the production path. The
/// strongest statement: every production shortcut dropped at once changes
/// nothing. One oracle per property is pinned on a smaller scenario in
/// `crates/sim/tests/determinism.rs`.
#[test]
fn seed_substrate_matches_fast_substrate_on_fig3() {
    let fast = run_qr_experiment(macrogrid_qr(), fig3_cfg());
    let seed = run_qr_experiment_with(macrogrid_qr(), fig3_cfg(), |eng| {
        eng.set_full_recompute_oracle(true);
        eng.set_eager_recompute_oracle(true);
        eng.set_unbatched_oracle(true);
    });
    assert!(fast.migrated && seed.migrated, "scenario must migrate");
    assert_eq!(
        fast.report.end_time.to_bits(),
        seed.report.end_time.to_bits(),
        "end_time must be bit-identical to the oracles: {} vs {}",
        fast.report.end_time,
        seed.report.end_time
    );
    assert_eq!(fast.report.trace, seed.report.trace, "trace");
    assert_eq!(fast.report, seed.report, "full run report");
    assert_eq!(fast.breakdown, seed.breakdown, "phase breakdown");
    assert_eq!(fast.incarnations, seed.incarnations);
    assert_eq!(fast.final_hosts, seed.final_hosts);
}
