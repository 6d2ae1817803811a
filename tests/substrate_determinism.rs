//! Determinism regression for the kernel substrate fast paths.
//!
//! The substrate contract (see DESIGN.md) is that the direct
//! process-handoff transport and the indexed event queue are pure
//! performance substitutions: on the full fig3 QR-migration scenario —
//! middleware, contract monitor, rescheduler, migration and all — every
//! transport × queue combination must produce a bit-identical run report
//! (end time, trace with bitwise `f64` timestamps, per-host flops,
//! per-link bytes).

use grads_core::apps::qr_driver::run_qr_experiment_with;
use grads_core::prelude::*;
use grads_core::sim::topology::macrogrid_qr;

/// Run fig3 on the eager-recompute test oracle (one rate solve per churn
/// event, the pre-coalescing kernel timing).
fn run_fig3_eager(cfg: QrExperimentConfig) -> QrExperimentResult {
    run_qr_experiment_with(macrogrid_qr(), cfg, |eng| {
        eng.set_eager_recompute_oracle(true)
    })
}

/// The fig3 QR-migration scenario at harness scale with an explicit
/// substrate tune — same shape as `tests/obs_determinism.rs`.
fn fig3_cfg(tune: EngineTune) -> QrExperimentConfig {
    let mut cfg = QrExperimentConfig::paper(20000);
    cfg.qr.n_real = 48;
    cfg.qr.block = 4;
    cfg.qr.poll_every = 4;
    cfg.load_at = 60.0;
    cfg.monitor_period = 10.0;
    cfg.t_max = 50_000.0;
    cfg.tune = tune;
    cfg
}

#[test]
fn direct_handoff_matches_channel_on_fig3() {
    let direct = run_qr_experiment(
        macrogrid_qr(),
        fig3_cfg(EngineTune {
            handoff: HandoffMode::Direct,
            ..Default::default()
        }),
    );
    let channel = run_qr_experiment(
        macrogrid_qr(),
        fig3_cfg(EngineTune {
            handoff: HandoffMode::Channel,
            ..Default::default()
        }),
    );
    assert!(direct.migrated && channel.migrated, "scenario must migrate");
    assert_eq!(
        direct.report.end_time.to_bits(),
        channel.report.end_time.to_bits(),
        "end_time must be bit-identical across transports: {} vs {}",
        direct.report.end_time,
        channel.report.end_time
    );
    assert_eq!(direct.report.trace, channel.report.trace, "trace");
    assert_eq!(direct.report, channel.report, "full run report");
    assert_eq!(direct.incarnations, channel.incarnations);
    assert_eq!(direct.final_hosts, channel.final_hosts);
}

#[test]
fn indexed_queue_matches_stale_mark_on_fig3() {
    let indexed = run_qr_experiment(
        macrogrid_qr(),
        fig3_cfg(EngineTune {
            queue: EventQueueMode::Indexed,
            ..Default::default()
        }),
    );
    let stale = run_qr_experiment(
        macrogrid_qr(),
        fig3_cfg(EngineTune {
            queue: EventQueueMode::StaleMark,
            ..Default::default()
        }),
    );
    assert!(indexed.migrated && stale.migrated, "scenario must migrate");
    assert_eq!(
        indexed.report.end_time.to_bits(),
        stale.report.end_time.to_bits(),
        "end_time must be bit-identical across event queues"
    );
    assert_eq!(indexed.report, stale.report, "full run report");
}

/// The seed configuration (channel transport + stale-mark queue + eager
/// recompute) agrees bitwise with the production default (direct +
/// indexed + coalesced) — the strongest statement: every substrate layer
/// swapped at once changes nothing.
#[test]
fn seed_substrate_matches_fast_substrate_on_fig3() {
    let fast = run_qr_experiment(macrogrid_qr(), fig3_cfg(EngineTune::default()));
    let seed = run_fig3_eager(fig3_cfg(EngineTune {
        handoff: HandoffMode::Channel,
        queue: EventQueueMode::StaleMark,
        ..Default::default()
    }));
    assert!(fast.migrated && seed.migrated, "scenario must migrate");
    assert_eq!(fast.report, seed.report, "full run report");
    assert_eq!(fast.breakdown, seed.breakdown, "phase breakdown");
}

/// Coalesced rate recomputation on the full fig3 QR-migration scenario:
/// deferring the solve to the end of each virtual instant must be
/// unobservable end to end — middleware, contract monitor, rescheduler and
/// migration included. This is the end-to-end level of the coalescing
/// determinism pin (unit: `engine::tests`, property:
/// `crates/sim/tests/prop_coalesced.rs`).
#[test]
fn coalesced_recompute_matches_eager_on_fig3() {
    let eager = run_fig3_eager(fig3_cfg(EngineTune::default()));
    let coalesced = run_qr_experiment(macrogrid_qr(), fig3_cfg(EngineTune::default()));
    assert!(
        eager.migrated && coalesced.migrated,
        "scenario must migrate"
    );
    assert_eq!(
        eager.report.end_time.to_bits(),
        coalesced.report.end_time.to_bits(),
        "end_time must be bit-identical across recompute timing"
    );
    assert_eq!(eager.report, coalesced.report, "full run report");
    assert_eq!(eager.incarnations, coalesced.incarnations);
    assert_eq!(eager.final_hosts, coalesced.final_hosts);
}

/// The windowed (conservative parallel) kernel on the full fig3
/// QR-migration scenario: the multi-cluster MacroGrid gives real WAN
/// lookahead, and the run report must be bit-identical to the serial
/// kernel at every worker count — the end-to-end level of the
/// determinism pin (unit: `engine::tests`, property:
/// `crates/sim/tests/prop_windowed.rs`).
#[test]
fn windowed_kernel_matches_serial_on_fig3() {
    let serial = run_qr_experiment(macrogrid_qr(), fig3_cfg(EngineTune::default()));
    assert!(serial.migrated, "scenario must migrate");
    for workers in [1, 4] {
        let windowed = run_qr_experiment(
            macrogrid_qr(),
            fig3_cfg(EngineTune {
                kernel: KernelMode::Windowed { workers },
                ..Default::default()
            }),
        );
        assert!(windowed.migrated, "windowed run must migrate too");
        assert_eq!(
            serial.report.end_time.to_bits(),
            windowed.report.end_time.to_bits(),
            "end_time must be bit-identical at {workers} workers"
        );
        assert_eq!(
            serial.report, windowed.report,
            "full run report at {workers} workers"
        );
        assert_eq!(serial.incarnations, windowed.incarnations);
        assert_eq!(serial.final_hosts, windowed.final_hosts);
    }
}
