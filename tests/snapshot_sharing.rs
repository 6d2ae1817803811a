//! Regression: one `ForecastSnapshot` per violation decision.
//!
//! The decision path captures a forecast snapshot in the violation
//! handler (migrate-or-not) and used to capture *another* inside the
//! mapper when the migration re-prepared — so the two halves of a single
//! decision could read divergent forecasts within one monitor poll. The
//! handler now pins its snapshot into the cop's `SharedSnapshot` cell and
//! the mapper takes it, recording provenance in `snapshot_trace`. This
//! test runs the migrating fig3 scenario and asserts the mapper and the
//! rescheduler saw the *identical* forecasts (same content fingerprint).

use grads_core::prelude::*;
use grads_core::sim::topology::macrogrid_qr;

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

#[test]
fn mapper_and_rescheduler_share_one_snapshot_per_migration() {
    let r = run_qr_experiment(macrogrid_qr(), fig3_cfg());
    assert!(r.migrated, "scenario must migrate");
    let trace = &r.snapshot_trace;
    assert!(
        !trace.is_empty(),
        "the decision path must record snapshot use"
    );

    // The initial map has no preceding decision: it captures fresh.
    assert_eq!(
        trace[0].0,
        SnapshotUse::MapCaptured,
        "first map captures its own snapshot: {trace:?}"
    );

    // Every subsequent map is a post-migration landing map and must reuse
    // the snapshot of the rescheduling decision immediately before it.
    let mut shared_maps = 0usize;
    for (i, &(use_, fp)) in trace.iter().enumerate().skip(1) {
        match use_ {
            SnapshotUse::MapCaptured => {
                panic!("post-decision map must not re-capture: {trace:?}")
            }
            SnapshotUse::MapShared => {
                shared_maps += 1;
                let (prev_use, prev_fp) = trace[i - 1];
                assert_eq!(
                    prev_use,
                    SnapshotUse::ReschedCaptured,
                    "shared map must follow the migrate decision: {trace:?}"
                );
                assert_eq!(
                    fp, prev_fp,
                    "mapper and rescheduler must read identical forecasts \
                     (fingerprint mismatch at trace[{i}]): {trace:?}"
                );
            }
            SnapshotUse::ReschedCaptured => {}
        }
    }
    assert!(
        shared_maps >= 1,
        "a migration must produce a shared landing map: {trace:?}"
    );
    assert_eq!(
        shared_maps,
        r.incarnations - 1,
        "one shared landing map per migration: {trace:?}"
    );
}
