//! Opportunistic rescheduling, end to end (§4.1.1).
//!
//! *"Additionally, the rescheduler periodically checks for a GrADS
//! application that has recently completed. If it finds one, the
//! rescheduler determines if another application can obtain performance
//! benefits if it is migrated to the newly freed resources. This is called
//! opportunistic rescheduling."*
//!
//! Scenario: application B occupies the fast cluster, so application A is
//! scheduled onto the slow one. No contract is violated — A runs exactly
//! as predicted — so migration-on-request never fires. When B finishes and
//! frees the fast cluster, the periodic opportunistic rescheduler notices,
//! evaluates A on the freed resources, and migrates it.

use crate::qr::{restore, QrConfig, QrLocal};
use crate::qr_driver::{qr_step, QrCop, QrRunning};
use grads_mpi::launch_from;
use grads_nws::{CpuSensor, ForecastSnapshot, NwsService};
use grads_reschedule::{opportunistic_check, MigrationRescheduler, Reschedulable};
use grads_sim::prelude::*;
use grads_srs::{IbpStorage, Rss, Srs};
use parking_lot::Mutex;
use std::sync::Arc;

/// Configuration of the opportunistic-rescheduling experiment.
#[derive(Clone)]
pub struct OppExperimentConfig {
    /// Application A (the long-running beneficiary).
    pub qr: QrConfig,
    /// Virtual time at which application B releases the fast cluster.
    pub b_finishes_at: f64,
    /// Opportunistic rescheduler poll period.
    pub poll_period: f64,
    /// Minimum predicted benefit to migrate, seconds.
    pub min_benefit: f64,
    /// Virtual-time cap.
    pub t_max: f64,
}

impl Default for OppExperimentConfig {
    fn default() -> Self {
        OppExperimentConfig {
            qr: QrConfig {
                n_nominal: 12_000,
                n_real: 64,
                block: 1,
                poll_every: 2,
                seed: 9,
                efficiency: 0.4,
            },
            b_finishes_at: 200.0,
            poll_period: 30.0,
            min_benefit: 0.0,
            t_max: 100_000.0,
        }
    }
}

/// Result of the experiment.
#[derive(Debug, Clone)]
pub struct OppExperimentResult {
    /// Did the opportunistic rescheduler migrate A?
    pub migrated: bool,
    /// When the migration was initiated, if it was.
    pub migrated_at: Option<f64>,
    /// Total time of application A.
    pub total_time: f64,
    /// Final hosts of A.
    pub final_hosts: Vec<HostId>,
}

/// Run the experiment. `slow_hosts` is where A starts (B "occupies" the
/// fast cluster until `b_finishes_at`, modelled as the fast hosts being
/// unavailable to A's mapper before then).
pub fn run_opportunistic_experiment(
    grid: Grid,
    slow_hosts: &[HostId],
    fast_hosts: &[HostId],
    ecfg: OppExperimentConfig,
) -> OppExperimentResult {
    let mut eng = Engine::new(grid.clone());
    let nws = Arc::new(Mutex::new(NwsService::new()));
    let srs = Srs::new("qr-opp", Rss::new(), IbpStorage::default());
    let done = Arc::new(Mutex::new(false));
    let history: Arc<Mutex<Vec<(f64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let migrated_at: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));

    // Slots: one rank per core.
    let slots = |hosts: &[HostId]| -> Vec<HostId> {
        let mut v = Vec::new();
        for &h in hosts {
            for _ in 0..grid.host(h).cores {
                v.push(h);
            }
        }
        v
    };
    let slow_slots = slots(slow_hosts);
    let fast_slots = slots(fast_hosts);

    // Application B: occupies the fast cluster (pure load) until it
    // "recently completed".
    for &h in fast_hosts {
        eng.add_load_window(h, 0.0, Some(ecfg.b_finishes_at), grid.host(h).cores as f64);
    }

    // The manager: launch A on the slow cluster, run the opportunistic
    // rescheduler loop, migrate when it says so.
    let grid2 = grid.clone();
    let out: Arc<Mutex<Option<OppExperimentResult>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let mgr_host = slow_hosts[0];
    let (done_m, history_m, migrated_m, nws_m) = (
        done.clone(),
        history.clone(),
        migrated_at.clone(),
        nws.clone(),
    );
    let b_end = ecfg.b_finishes_at;
    eng.spawn("opp-manager", mgr_host, move |ctx| {
        let t_begin = ctx.now();
        let cop = QrCop {
            cfg: ecfg.qr.clone(),
            min_procs: 2,
            max_procs: 8,
            shared_snap: grads_nws::SharedSnapshot::new(),
            snap_trace: Arc::new(Mutex::new(Vec::new())),
        };
        let mut hosts = slow_slots.clone();
        let mut epoch = 0u64;
        loop {
            history_m.lock().clear();
            let cfgw = ecfg.qr.clone();
            let srsw = srs.clone();
            let done_w = done_m.clone();
            let history_w = history_m.clone();
            launch_from(
                ctx,
                &format!("qr-opp-e{epoch}"),
                &hosts,
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
                        let t = rctx.now();
                        history_w.lock().push((t, start));
                    }
                    let last = cfgw.n_real.saturating_sub(1);
                    let mut step = start;
                    while step < last {
                        let end = (step + cfgw.poll_every.max(1)).min(last);
                        // Collective stop check at the chunk boundary.
                        let stop = if comm.size() > 1 {
                            comm.bcast_t(
                                rctx,
                                0,
                                16.0,
                                (comm.rank() == 0).then(|| srsw.should_stop() && step > start),
                            )
                        } else {
                            srsw.should_stop() && step > start
                        };
                        if stop {
                            crate::qr::checkpoint(rctx, comm, &cfgw, &local, &srsw, step);
                            return;
                        }
                        for k in step..end {
                            qr_step(rctx, comm, &cfgw, &mut local, k);
                        }
                        step = end;
                        if comm.rank() == 0 {
                            let t = rctx.now();
                            history_w.lock().push((t, step));
                        }
                    }
                    if comm.rank() == 0 {
                        *done_w.lock() = true;
                    }
                },
            );

            // Opportunistic polling loop: watch for freed resources.
            let migrate_to: Option<Vec<HostId>> = loop {
                ctx.sleep(ecfg.poll_period);
                if *done_m.lock() {
                    break None;
                }
                if ctx.now() > ecfg.t_max {
                    *done_m.lock() = true;
                    break None;
                }
                // "Recently completed": B's release time has passed and we
                // have not migrated yet.
                if ctx.now() < b_end || migrated_m.lock().is_some() {
                    continue;
                }
                let running = QrRunning {
                    cop: cop.clone(),
                    history: history_m.clone(),
                    hosts: hosts.clone(),
                    restart_fixed_s: 30.0,
                };
                let rescheduler = MigrationRescheduler {
                    min_benefit: ecfg.min_benefit,
                    ..Default::default()
                };
                let n = nws_m.lock();
                // One snapshot per opportunistic poll: every decision
                // term reads the same frozen forecasts (bit-identical to
                // querying the live service at this instant).
                let snap = ForecastSnapshot::capture(&grid2, &n);
                let apps: Vec<&dyn Reschedulable> = vec![&running];
                if let Some((_, d)) =
                    opportunistic_check(&rescheduler, &apps, &fast_slots, &grid2, &snap)
                {
                    if d.migrate {
                        drop(n);
                        let t = ctx.now();
                        *migrated_m.lock() = Some(t);
                        srs.rss.request_stop();
                        // Wait for all ranks to checkpoint.
                        loop {
                            ctx.sleep(5.0);
                            if srs.rss.stop_acks() >= hosts.len() || *done_m.lock() {
                                break;
                            }
                        }
                        break Some(d.candidate_hosts.clone());
                    }
                }
            };
            match migrate_to {
                Some(new_hosts) if !*done_m.lock() => {
                    srs.rss.begin_restart();
                    epoch += 1;
                    hosts = new_hosts;
                }
                _ => break,
            }
        }
        let migrated_time = *migrated_m.lock();
        *out2.lock() = Some(OppExperimentResult {
            migrated: migrated_time.is_some(),
            migrated_at: migrated_time,
            total_time: ctx.now() - t_begin,
            final_hosts: hosts,
        });
    });

    // NWS sensors everywhere (the rescheduler needs availability of the
    // freed hosts).
    let all: Vec<HostId> = (0..grid.hosts().len() as u32).map(HostId).collect();
    for &h in &all {
        let nws2 = nws.clone();
        let done2 = done.clone();
        let speed = grid.host(h).speed;
        let sensor = CpuSensor::new(nws2, h, speed, 1e6, 10.0, move || *done2.lock());
        eng.spawn_daemon(&format!("nws-sensor-{h}"), h, sensor);
    }

    eng.run_until(ecfg.t_max * 1.2);
    let r = out.lock().take().expect("manager finished");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};

    /// Slow cluster (A's initial home) + fast cluster (B's, freed later).
    fn setup() -> (Grid, Vec<HostId>, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let slow = b.cluster("SLOW");
        b.local_link(slow, 1e8, 1e-4);
        let s = b.add_hosts(slow, 4, &HostSpec::with_speed(4e8));
        let fast = b.cluster("FAST");
        b.local_link(fast, 1e8, 1e-4);
        let f = b.add_hosts(fast, 4, &HostSpec::with_speed(2e9));
        b.connect(slow, fast, 1e7, 0.01);
        (b.build().unwrap(), s, f)
    }

    #[test]
    fn migrates_to_freed_fast_cluster() {
        let (grid, slow, fast) = setup();
        let r = run_opportunistic_experiment(grid, &slow, &fast, OppExperimentConfig::default());
        assert!(r.migrated, "{r:?}");
        let t = r.migrated_at.unwrap();
        assert!(t >= 200.0, "migration after B finished: {t}");
        // Final hosts are in the fast cluster.
        assert!(
            r.final_hosts.iter().all(|h| fast.contains(h)),
            "{:?}",
            r.final_hosts
        );
    }

    #[test]
    fn no_migration_when_b_never_finishes() {
        let (grid, slow, fast) = setup();
        let cfg = OppExperimentConfig {
            b_finishes_at: 1e9,
            t_max: 30_000.0,
            ..Default::default()
        };
        let r = run_opportunistic_experiment(grid, &slow, &fast, cfg);
        assert!(!r.migrated, "{r:?}");
        assert!(r.final_hosts.iter().all(|h| slow.contains(h)));
    }

    #[test]
    fn opportunistic_migration_pays() {
        let (grid, slow, fast) = setup();
        let with = run_opportunistic_experiment(
            grid.clone(),
            &slow,
            &fast,
            OppExperimentConfig::default(),
        );
        let never = OppExperimentConfig {
            b_finishes_at: 1e9,
            t_max: 60_000.0,
            ..Default::default()
        };
        let without = run_opportunistic_experiment(grid, &slow, &fast, never);
        assert!(
            with.total_time < without.total_time * 0.8,
            "opportunistic {} vs stay {}",
            with.total_time,
            without.total_time
        );
    }
}
