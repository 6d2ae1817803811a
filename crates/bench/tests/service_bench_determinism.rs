//! Sweep-worker determinism for the grid-service bench: the JSON body
//! the `grid_service` bin assembles must be byte-identical whether the
//! sweep points run serially or fan out over worker threads, because
//! every metric is virtual-time-derived and `run_sweep` collects by
//! scenario index. This is the in-process pin behind the checked-in
//! `BENCH_service.json`'s rerun stability. The production tune
//! (incremental decision epochs) is also pinned against the per-job
//! rebuild oracle at the same points.

use grads_bench::sweep::{json_num, run_sweep};
use grads_core::prelude::*;

fn service_sweep(workers: usize, sched: SchedTune) -> Vec<String> {
    let points: Vec<(u64, f64)> = vec![(1, 2.0), (2, 1.0), (3, 0.5)];
    run_sweep(&points, workers, |i, &(seed, ia)| {
        let cfg = ServiceConfig {
            workload: WorkloadConfig {
                seed,
                n_jobs: 200,
                n_tenants: 4,
                mean_interarrival_s: ia,
                ..WorkloadConfig::default()
            },
            hosts: 64,
            clusters: 4,
            cores_per_host: 2,
            sched,
            ..ServiceConfig::default()
        };
        let r = run_service_experiment(cfg);
        format!(
            "[{i}] admitted={} rejected={} slo={} wait={} p95={} price={} vol={} fair={} inflight={} hs={}",
            r.totals.admitted,
            r.totals.rejected,
            json_num(r.slo_miss_rate),
            json_num(r.mean_wait_s),
            json_num(r.p95_wait_s),
            json_num(r.price_mean),
            json_num(r.price_volatility),
            json_num(r.fairness),
            r.max_in_flight,
            json_num(r.totals.host_seconds),
        )
    })
}

#[test]
fn service_sweep_is_byte_identical_across_worker_counts() {
    let serial = service_sweep(1, SchedTune::fast());
    let par = service_sweep(4, SchedTune::fast());
    assert_eq!(serial.len(), par.len());
    for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
        assert_eq!(
            a, b,
            "sweep point {i}: parallel output diverged from serial"
        );
    }
}

#[test]
fn service_sweep_epoch_path_matches_the_rebuild_oracle() {
    let oracle = service_sweep(1, SchedTune::fast().with_epoch(false));
    let epoch = service_sweep(1, SchedTune::fast().with_epoch(true));
    assert_eq!(
        oracle, epoch,
        "epoch path diverged from the per-job rebuild"
    );
}
