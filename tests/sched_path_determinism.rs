//! Determinism regression for the scheduler decision-path fast path.
//!
//! The decision-path contract (the scheduler analog of the substrate
//! contract in `substrate_determinism.rs`) is that the fast path —
//! forecast snapshot per decision epoch, zero-materialization candidate
//! walk, incremental prefix predictor, serial first-wins argmin —
//! is a pure performance substitution: on the full fig3 QR-migration
//! scenario (initial mapping, contract monitor, rescheduling decision,
//! migration and all) every `SchedTune` mode must produce a bit-identical
//! run report.

use grads_core::prelude::*;
use grads_core::sim::topology::macrogrid_qr;

/// The fig3 QR-migration scenario at harness scale with an explicit
/// decision-path tune — same shape as `tests/substrate_determinism.rs`.
fn fig3_cfg(sched: SchedTune) -> QrExperimentConfig {
    let mut cfg = QrExperimentConfig::paper(20000);
    cfg.qr.n_real = 48;
    cfg.qr.block = 4;
    cfg.qr.poll_every = 4;
    cfg.load_at = 60.0;
    cfg.monitor_period = 10.0;
    cfg.t_max = 50_000.0;
    cfg.sched = sched;
    cfg
}

#[test]
fn fast_decision_path_matches_reference_on_fig3() {
    let fast = run_qr_experiment(macrogrid_qr(), fig3_cfg(SchedTune::fast()));
    let reference = run_qr_experiment(macrogrid_qr(), fig3_cfg(SchedTune::reference()));
    assert!(fast.migrated && reference.migrated, "scenario must migrate");
    assert_eq!(
        fast.report.end_time.to_bits(),
        reference.report.end_time.to_bits(),
        "end_time must be bit-identical across decision paths: {} vs {}",
        fast.report.end_time,
        reference.report.end_time
    );
    assert_eq!(fast.report.trace, reference.report.trace, "trace");
    assert_eq!(fast.report, reference.report, "full run report");
    assert_eq!(fast.incarnations, reference.incarnations);
    assert_eq!(fast.final_hosts, reference.final_hosts);
}
