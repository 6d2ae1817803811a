//! Fault-tolerant execution — the paper's §5 future-work direction
//! ("...as well as new capabilities, such as fault tolerance"), built from
//! the pieces the paper already has: SRS checkpoints (taken periodically
//! instead of on demand), IBP stable storage, NWS sensor heartbeats for
//! failure suspicion, and restart-style rescheduling onto surviving hosts.
//!
//! The scenario: a QR factorization runs with periodic checkpoints to a
//! stable depot; a host fails permanently mid-run; the surviving ranks
//! block in their collectives (as real MPI jobs do); the application
//! manager notices the host's sensor heartbeat going stale, declares a
//! failure, and relaunches the application on the surviving hosts from the
//! last periodic checkpoint.

use crate::qr::{restore, write_checkpoint, QrConfig, QrLocal};
use crate::qr_driver::qr_step;
use grads_mpi::launch_from;
use grads_nws::{CpuSensor, NwsService};
use grads_obs::Recorder;
use grads_sim::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

/// Configuration of the failover experiment.
#[derive(Clone)]
pub struct FtExperimentConfig {
    /// Application configuration.
    pub qr: QrConfig,
    /// Index (into the grid host list) of the host that fails.
    pub fail_host: usize,
    /// When it fails, virtual seconds.
    pub fail_at: f64,
    /// Periodic checkpoint cadence, in poll-chunks.
    pub ckpt_every_chunks: usize,
    /// Sensor heartbeat period, seconds.
    pub heartbeat_period: f64,
    /// A host is suspected failed when its heartbeat is older than this.
    pub suspect_after: f64,
    /// Rank-slot bounds for (re)launches.
    pub min_procs: usize,
    /// Rank-slot bounds for (re)launches.
    pub max_procs: usize,
    /// Virtual-time cap.
    pub t_max: f64,
}

impl Default for FtExperimentConfig {
    fn default() -> Self {
        FtExperimentConfig {
            qr: QrConfig {
                n_nominal: 8000,
                n_real: 64,
                block: 1,
                poll_every: 2,
                seed: 3,
                efficiency: 0.4,
            },
            fail_host: 0,
            fail_at: 120.0,
            ckpt_every_chunks: 4,
            heartbeat_period: 10.0,
            suspect_after: 35.0,
            min_procs: 2,
            max_procs: 8,
            t_max: 50_000.0,
        }
    }
}

/// Result of the failover experiment.
#[derive(Debug, Clone)]
pub struct FtExperimentResult {
    /// Did the factorization complete despite the failure?
    pub completed: bool,
    /// Number of failure recoveries (relaunches).
    pub recoveries: usize,
    /// Total virtual time.
    pub total_time: f64,
    /// Elimination steps recomputed because they post-dated the last
    /// checkpoint.
    pub lost_steps: usize,
    /// Hosts of the final incarnation.
    pub final_hosts: Vec<HostId>,
    /// Names of processes that died with the failed host.
    pub died: Vec<String>,
}

/// Per-core rank slots from a live host set, fastest first.
fn slots_from(
    grid: &Grid,
    nws: &NwsService,
    live: &[HostId],
    exclude: HostId,
    max: usize,
) -> Vec<HostId> {
    let mut slots: Vec<HostId> = Vec::new();
    for &h in live {
        if h == exclude {
            continue;
        }
        for _ in 0..grid.host(h).cores {
            slots.push(h);
        }
    }
    slots.sort_by(|&a, &b| {
        nws.effective_speed(grid, b)
            .total_cmp(&nws.effective_speed(grid, a))
            .then(a.cmp(&b))
    });
    slots.truncate(max);
    slots
}

/// Run the failover experiment on a grid. `depot_host` should be a host
/// that does not fail (stable storage).
pub fn run_ft_experiment(
    grid: Grid,
    worker_hosts: &[HostId],
    depot_host: HostId,
    ecfg: FtExperimentConfig,
) -> FtExperimentResult {
    let mut eng = Engine::new(grid.clone());
    let nws = Arc::new(Mutex::new(NwsService::new()));
    let srs = grads_srs::Srs::new(
        "qr-ft",
        grads_srs::Rss::new(),
        grads_srs::IbpStorage::default(),
    )
    .with_stable_depot(depot_host);

    let done = Arc::new(Mutex::new(false));
    let progress: Arc<Mutex<(f64, usize)>> = Arc::new(Mutex::new((0.0, 0)));
    let lost: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));

    // Sensors (heartbeats) on every worker host and the depot.
    let mut sensor_hosts = worker_hosts.to_vec();
    if !sensor_hosts.contains(&depot_host) {
        sensor_hosts.push(depot_host);
    }
    for &h in &sensor_hosts {
        let nws2 = nws.clone();
        let done2 = done.clone();
        let speed = grid.host(h).speed;
        let period = ecfg.heartbeat_period;
        let sensor = CpuSensor::new(nws2, h, speed, 1e6, period, move || *done2.lock());
        eng.spawn_daemon(&format!("nws-sensor-{h}"), h, sensor);
    }

    // The failure.
    eng.fail_host_at(worker_hosts[ecfg.fail_host], ecfg.fail_at);

    // The application manager runs on the depot host (stable).
    let grid2 = grid.clone();
    let workers = worker_hosts.to_vec();
    let out: Arc<Mutex<Option<FtExperimentResult>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let (done_m, progress_m, lost_m) = (done.clone(), progress.clone(), lost.clone());
    eng.spawn("ft-manager", depot_host, move |ctx| {
        let t_begin = ctx.now();
        // Give sensors one round so liveness is known.
        ctx.sleep(ecfg.heartbeat_period * 1.5);
        let mut recoveries = 0usize;
        let mut epoch = 0u64;
        let mut final_hosts = Vec::new();
        loop {
            // Choose slots among hosts with fresh heartbeats.
            let hosts = {
                let n = nws.lock();
                let now = ctx.now();
                let live = n.live_hosts(now, ecfg.suspect_after);
                let live_workers: Vec<HostId> = workers
                    .iter()
                    .copied()
                    .filter(|h| live.contains(h))
                    .collect();
                slots_from(&grid2, &n, &live_workers, HostId(u32::MAX), ecfg.max_procs)
            };
            if hosts.len() < ecfg.min_procs {
                break; // not enough survivors
            }
            final_hosts = hosts.clone();
            // Launch (or relaunch) the world.
            let cfgw = ecfg.qr.clone();
            let srsw = srs.clone();
            let done_w = done_m.clone();
            let progress_w = progress_m.clone();
            let lost_w = lost_m.clone();
            let ckpt_every = ecfg.ckpt_every_chunks.max(1);
            launch_from(
                ctx,
                &Recorder::disabled(),
                &format!("qr-ft-e{epoch}"),
                &hosts,
                &[],
                epoch,
                move |rctx, comm| {
                    let restored = if srsw.has_checkpoint("A") {
                        restore(rctx, comm, &cfgw, &srsw)
                    } else {
                        None
                    };
                    let (mut local, start) = match restored {
                        Some((l, s)) => (l, s),
                        None => (QrLocal::generate(&cfgw, comm.rank(), comm.size()), 0),
                    };
                    if comm.rank() == 0 {
                        // Work past the last checkpoint was lost.
                        let cur = progress_w.lock().1;
                        if cur > start {
                            *lost_w.lock() += cur - start;
                        }
                    }
                    let last = cfgw.n_real.saturating_sub(1);
                    let mut step = start;
                    let mut chunk_idx = 0usize;
                    while step < last {
                        let end = (step + cfgw.poll_every.max(1)).min(last);
                        for k in step..end {
                            qr_step(rctx, comm, &cfgw, &mut local, k);
                        }
                        step = end;
                        chunk_idx += 1;
                        if comm.rank() == 0 {
                            let t = rctx.now();
                            *progress_w.lock() = (t, step);
                        }
                        if chunk_idx.is_multiple_of(ckpt_every) && step < last {
                            write_checkpoint(rctx, comm, &cfgw, &local, &srsw, step);
                        }
                    }
                    if comm.rank() == 0 {
                        *done_w.lock() = true;
                    }
                },
            );
            // Watch for completion or failure suspicion on the app hosts.
            let failed = loop {
                ctx.sleep(ecfg.heartbeat_period);
                if *done_m.lock() {
                    break false;
                }
                if ctx.now() > ecfg.t_max {
                    break false;
                }
                let now = ctx.now();
                let n = nws.lock();
                let stale = hosts.iter().any(|&h| {
                    n.last_heartbeat(h)
                        .map(|t| now - t > ecfg.suspect_after)
                        .unwrap_or(true)
                });
                if stale {
                    break true;
                }
            };
            if !failed {
                break;
            }
            recoveries += 1;
            epoch += 1;
            ctx.trace("recovery", recoveries as f64);
            // The dead world's survivors stay blocked in their collectives
            // (as a real MPI job would); the new epoch uses fresh mailbox
            // keys, so no cross-talk.
        }
        *out2.lock() = Some(FtExperimentResult {
            completed: *done_m.lock(),
            recoveries,
            total_time: ctx.now() - t_begin,
            lost_steps: *lost_m.lock(),
            final_hosts,
            died: Vec::new(),
        });
    });

    let report = eng.run_until(ecfg.t_max * 1.2);
    let mut r = out.lock().take().expect("manager finished");
    r.died = report.died;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::macrogrid_qr;

    fn setup() -> (Grid, Vec<HostId>, HostId) {
        let grid = macrogrid_qr();
        let workers = grid.hosts_of("UTK");
        let depot = grid.hosts_of("UIUC")[0];
        (grid, workers, depot)
    }

    #[test]
    fn survives_a_host_failure() {
        let (grid, workers, depot) = setup();
        let cfg = FtExperimentConfig::default();
        let r = run_ft_experiment(grid, &workers, depot, cfg);
        assert!(r.completed, "factorization must finish: {r:?}");
        assert_eq!(r.recoveries, 1, "{r:?}");
        // The failed host is gone from the final incarnation.
        assert!(!r.final_hosts.contains(&HostId(0)), "{:?}", r.final_hosts);
        // The failed host's rank processes (and its sensor) died.
        assert!(!r.died.is_empty());
        assert!(r.died.iter().any(|n| n.starts_with("qr-ft-e0")));
    }

    #[test]
    fn no_failure_means_no_recovery() {
        let (grid, workers, depot) = setup();
        let cfg = FtExperimentConfig {
            fail_at: 1e9, // never
            ..Default::default()
        };
        let r = run_ft_experiment(grid, &workers, depot, cfg);
        assert!(r.completed);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.lost_steps, 0);
        assert!(r.died.is_empty());
    }

    #[test]
    fn tighter_checkpoint_cadence_loses_less_work() {
        let (grid, workers, depot) = setup();
        let run = |every: usize| {
            let cfg = FtExperimentConfig {
                ckpt_every_chunks: every,
                ..Default::default()
            };
            run_ft_experiment(grid.clone(), &workers, depot, cfg)
        };
        let tight = run(1);
        let loose = run(12);
        assert!(tight.completed && loose.completed);
        assert!(
            tight.lost_steps <= loose.lost_steps,
            "tight {} vs loose {}",
            tight.lost_steps,
            loose.lost_steps
        );
    }

    #[test]
    fn deterministic() {
        let (grid, workers, depot) = setup();
        let r1 = run_ft_experiment(grid.clone(), &workers, depot, FtExperimentConfig::default());
        let r2 = run_ft_experiment(grid, &workers, depot, FtExperimentConfig::default());
        assert_eq!(r1.total_time, r2.total_time);
        assert_eq!(r1.lost_steps, r2.lost_steps);
    }
}
