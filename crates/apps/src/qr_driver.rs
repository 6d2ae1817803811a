//! The §4.1.2 stop/restart rescheduling experiment, end to end.
//!
//! Reproduces the Figure 3 methodology: a QR factorization is scheduled on
//! the faster UTK cluster (one rank per core — the UTK nodes are
//! dual-processor); five minutes in, artificial load lands on one UTK
//! node; the contract monitor detects the violation and the rescheduler
//! decides whether migrating to the slower-but-unloaded UIUC cluster pays
//! off. Forced modes measure both branches of every decision, and every
//! phase lands in the Figure 3 breakdown (resource selection, performance
//! modeling, grid overhead, application start, checkpoint write/read,
//! application duration).
//!
//! Two modelling choices worth knowing about:
//!
//! * **Progress-based remaining time.** NWS CPU sensors on a busy node
//!   observe the application's own load, so `remaining_current` from NWS
//!   forecasts would be wildly pessimistic. The rescheduler instead uses
//!   the measured progress rate (sensor data + remaining-work estimate,
//!   exactly what §4 describes).
//! * **Normalized phase sensors.** QR's work is front-loaded (the
//!   trailing matrix shrinks cubically), so raw per-batch times cannot be
//!   compared against a flat prediction. Each sensor report is normalized
//!   by the batch's expected fraction of total work, making every report
//!   an estimate of the whole run's duration.

use crate::qr::{apply_reflector, householder_reflector, restore, QrConfig, QrLocal};
use grads_binder::{
    prepare_and_bind, Breakdown, CompilationPackage, Cop, Gis, ManagerCosts, LOCAL_BINDER,
};
use grads_contract::{
    run_contract_monitor, Contract, ContractMonitor, DonePredicate, Response, ViolationHandler,
};
use grads_mpi::{host_labels, launch_from};
use grads_nws::{CpuSensor, ForecastSnapshot, ForecastSource, NwsService, SharedSnapshot};
use grads_obs::{DecisionAction, DecisionKind, Obs, Recorder, WorldTag};
use grads_perf::{ceil_log2, PrefixAgg, PrefixPredictor, TreeBcastPrefix};
use grads_reschedule::{
    MigrationDecision, MigrationRescheduler, OverheadPolicy, Reschedulable, ReschedulerMode,
};
use grads_sim::prelude::*;
use grads_srs::{IbpStorage, Rss, Srs, DEFAULT_DISK_BW};
use parking_lot::Mutex;
use std::sync::Arc;

/// Which half of the decision path produced or consumed a forecast
/// snapshot — the instrumentation record behind the snapshot-sharing
/// regression test (`tests/snapshot_sharing.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotUse {
    /// `map()` captured a fresh snapshot (initial schedule, or a pin was
    /// not available).
    MapCaptured,
    /// `map()` consumed the snapshot pinned by the violation handler —
    /// the landing choice read the *same* forecasts as the migrate
    /// decision.
    MapShared,
    /// The violation handler captured the decision epoch's snapshot.
    ReschedCaptured,
}

/// The QR configurable object program: code (the `qr` module), a mapper
/// (per-cluster core-slot prefixes) and an executable performance model.
#[derive(Clone)]
pub struct QrCop {
    /// The application configuration.
    pub cfg: QrConfig,
    /// Minimum ranks the mapper may select.
    pub min_procs: usize,
    /// Maximum ranks the mapper may select.
    pub max_procs: usize,
    /// One snapshot per violation, shared across both halves of the
    /// decision: the violation handler pins the snapshot it decided
    /// against, and the next `map()` consumes it instead of capturing a
    /// second one — so the migrate decision and the landing choice can
    /// never read divergent forecasts. Clones share the cell.
    pub shared_snap: SharedSnapshot,
    /// Snapshot provenance trace: `(use, fingerprint)` per capture or
    /// hand-off, in virtual-time order. Cheap (a few entries per run);
    /// read by the snapshot-sharing regression test.
    pub snap_trace: Arc<Mutex<Vec<(SnapshotUse, u64)>>>,
}

impl QrCop {
    /// Predicted full execution time on an ordered rank-slot list (hosts
    /// may repeat: one rank per core).
    pub fn model<S: ForecastSource + ?Sized>(&self, slots: &[HostId], grid: &Grid, src: &S) -> f64 {
        let (c, m) = self.model_parts(slots, grid, src);
        c + m
    }

    /// `(compute, communication)` components of the prediction. The
    /// communication term models the binomial broadcast's critical path:
    /// the root serializes ⌈log₂ p⌉ copies through its uplink and the
    /// deepest leaf adds one more leg, each copy moving the full 4N²-byte
    /// reflector volume over the run.
    pub fn model_parts<S: ForecastSource + ?Sized>(
        &self,
        slots: &[HostId],
        grid: &Grid,
        src: &S,
    ) -> (f64, f64) {
        let n = self.cfg.n_nominal as f64;
        let t_comp = self.cfg.charged_flops() / aggregate_rate(slots, grid, src);
        let t_comm = match slots.iter().find(|&&h| h != slots[0]) {
            Some(&other) if slots.len() > 1 => {
                let legs = ceil_log2(slots.len()) as f64 + 1.0;
                legs * src.transfer_time(grid, slots[0], other, 4.0 * n * n)
            }
            _ => 0.0,
        };
        (t_comp, t_comm)
    }

    /// Candidate rank-slot sets: one per cluster — every eligible core
    /// slot of the cluster (host repeated `cores` times), fastest first,
    /// clamped to `max_procs`. Whole-cluster candidates reproduce the
    /// paper's binary UTK-vs-UIUC rescheduling choice.
    pub fn candidates<S: ForecastSource + ?Sized>(
        &self,
        grid: &Grid,
        src: &S,
        eligible: &[HostId],
    ) -> Vec<Vec<HostId>> {
        let mut out = Vec::new();
        for cluster in grid.clusters() {
            let mut slots: Vec<HostId> = Vec::new();
            for &h in &cluster.hosts {
                if eligible.contains(&h) {
                    for _ in 0..grid.host(h).cores {
                        slots.push(h);
                    }
                }
            }
            if slots.len() < self.min_procs {
                continue;
            }
            slots.sort_by(|&a, &b| {
                src.effective_speed(grid, b)
                    .total_cmp(&src.effective_speed(grid, a))
                    .then(a.cmp(&b))
            });
            slots.truncate(self.max_procs);
            out.push(slots);
        }
        out
    }

    /// The mapper: candidates are sorted against the snapshot's cached
    /// speeds and each is scored by driving the incremental
    /// [`TreeBcastPrefix`] model along its slot list — bit-identical to
    /// ranking [`QrCop::candidates`] by [`QrCop::model`] against the live
    /// service (same model arithmetic, same first-wins tie-break), with
    /// the ensemble battery run once per host at capture instead of once
    /// per comparator call.
    pub fn map_fast(
        &self,
        grid: &Grid,
        snap: &ForecastSnapshot,
        eligible: &[HostId],
    ) -> Option<Vec<HostId>> {
        let n = self.cfg.n_nominal as f64;
        let mut best: Option<(f64, Vec<HostId>)> = None;
        for slots in self.candidates(grid, snap, eligible) {
            let t = if slots.is_empty() {
                // `aggregate_rate` of an empty set clamps to 1.0.
                self.cfg.charged_flops()
            } else {
                let tree = TreeBcastPrefix::new(grid, snap, self.cfg.charged_flops(), 4.0 * n * n);
                score_full_prefix(tree, grid, snap, &slots)
            };
            match &best {
                Some((bt, _)) if *bt <= t => {}
                _ => best = Some((t, slots)),
            }
        }
        best.map(|(_, slots)| slots)
    }
}

/// Drive `pred` along the full slot list the way the candidate walk does
/// and return the prediction at the full prefix length.
fn score_full_prefix<P: PrefixPredictor>(
    mut pred: P,
    grid: &Grid,
    snap: &ForecastSnapshot,
    slots: &[HostId],
) -> f64 {
    pred.begin_cluster(grid.host(slots[0]).cluster, slots);
    let (mut sum, mut min) = (0.0f64, f64::INFINITY);
    let mut t = f64::INFINITY;
    for (i, &h) in slots.iter().enumerate() {
        let s = snap.speed(h);
        sum += s;
        min = min.min(s);
        let agg = PrefixAgg {
            k: i + 1,
            host: h,
            speed: s,
            sum_speed: sum,
            min_speed: min,
        };
        pred.push(&agg);
        if i + 1 == slots.len() {
            t = pred.predict(&agg);
        }
    }
    t
}

/// Aggregate rate of a bulk-synchronous code over rank slots: the work is
/// split evenly, so the slowest slot sets the pace — `p × min(speed)`.
fn aggregate_rate<S: ForecastSource + ?Sized>(slots: &[HostId], grid: &Grid, src: &S) -> f64 {
    let min_speed = slots
        .iter()
        .map(|&h| src.effective_speed(grid, h))
        .fold(f64::INFINITY, f64::min);
    (slots.len() as f64 * min_speed).max(1.0)
}

impl Cop for QrCop {
    fn name(&self) -> &str {
        "scalapack-qr"
    }
    fn required_libs(&self) -> Vec<String> {
        vec!["scalapack".to_string(), "srs".to_string()]
    }
    fn package(&self) -> CompilationPackage {
        CompilationPackage::new("scalapack-qr", &["scalapack", "srs"])
    }
    fn map(&self, grid: &Grid, nws: &NwsService, eligible: &[HostId]) -> Option<Vec<HostId>> {
        // Prefer the snapshot the violation handler pinned: the landing
        // choice then reads exactly the forecasts the migrate decision was
        // taken against. Capture fresh only when no decision preceded this
        // map (initial schedule).
        let (snap, used) = match self.shared_snap.take() {
            Some(s) => (s, SnapshotUse::MapShared),
            None => (
                Arc::new(ForecastSnapshot::capture(grid, nws)),
                SnapshotUse::MapCaptured,
            ),
        };
        self.snap_trace.lock().push((used, snap.fingerprint()));
        self.map_fast(grid, &snap, eligible)
    }
    fn predict(&self, hosts: &[HostId], grid: &Grid, nws: &NwsService) -> f64 {
        self.model(hosts, grid, nws)
    }
}

/// Live progress + placement of a running QR app, for the rescheduler.
pub struct QrRunning {
    /// The COP.
    pub cop: QrCop,
    /// `(virtual time, real step)` progress samples from rank 0.
    pub history: Arc<Mutex<Vec<(f64, usize)>>>,
    /// Rank slots of the current incarnation.
    pub hosts: Vec<HostId>,
    /// Fixed restart machinery cost (rebind + relaunch), seconds.
    pub restart_fixed_s: f64,
}

impl QrRunning {
    /// Charged flops completed through real step `k`.
    fn flops_done(&self, k: usize) -> f64 {
        let n = self.cop.cfg.n_real as f64;
        let k = (k as f64).min(n);
        self.cop.cfg.charged_flops() * (1.0 - ((n - k) / n).powi(3))
    }

    fn remaining_flops(&self) -> f64 {
        let k = self.history.lock().last().map(|&(_, k)| k).unwrap_or(0);
        self.cop.cfg.charged_flops() - self.flops_done(k)
    }

    /// Achieved flop rate over the most recent progress interval, if
    /// measurable. Only the last interval is used so a fresh slowdown is
    /// reflected immediately (older samples would dilute it).
    fn measured_rate(&self) -> Option<f64> {
        let h = self.history.lock();
        if h.len() < 2 {
            return None;
        }
        let (t0, k0) = h[h.len() - 2];
        let (t1, k1) = h[h.len() - 1];
        if t1 <= t0 || k1 <= k0 {
            return None;
        }
        Some((self.flops_done(k1) - self.flops_done(k0)) / (t1 - t0))
    }
}

impl Reschedulable for QrRunning {
    fn remaining_current(&self, grid: &Grid, src: &dyn ForecastSource) -> f64 {
        match self.measured_rate() {
            Some(rate) => self.remaining_flops() / rate.max(1.0),
            None => self.remaining_flops() / aggregate_rate(&self.hosts, grid, src),
        }
    }
    fn remaining_on(&self, hosts: &[HostId], grid: &Grid, src: &dyn ForecastSource) -> f64 {
        self.remaining_flops() / aggregate_rate(hosts, grid, src)
    }
    fn migration_overhead(&self, hosts: &[HostId], grid: &Grid, src: &dyn ForecastSource) -> f64 {
        let bytes = self.cop.cfg.checkpoint_bytes();
        // Write: local depots at disk bandwidth, parallel across ranks.
        let write = bytes / (DEFAULT_DISK_BW * self.hosts.len() as f64);
        // Read: the checkpoint crosses the network from old to new hosts
        // (the shared WAN path dominates), plus depot disk time.
        let read =
            src.transfer_time(grid, self.hosts[0], hosts[0], bytes) + bytes / DEFAULT_DISK_BW;
        write + read + self.restart_fixed_s
    }
    fn current_hosts(&self) -> Vec<HostId> {
        self.hosts.clone()
    }
}

/// Configuration of one experiment run.
#[derive(Clone)]
pub struct QrExperimentConfig {
    /// Application configuration.
    pub qr: QrConfig,
    /// Index (into the grid host list) of the host that receives load.
    pub load_host: usize,
    /// When the artificial load starts, seconds (paper: 300).
    pub load_at: f64,
    /// Competing load units.
    pub load_amount: f64,
    /// Rescheduler operating mode.
    pub mode: ReschedulerMode,
    /// Overhead estimation policy.
    pub overhead: OverheadPolicy,
    /// Contract monitor poll period, seconds.
    pub monitor_period: f64,
    /// Manager phase costs.
    pub costs: ManagerCosts,
    /// Rank-slot bounds.
    pub min_procs: usize,
    /// Rank-slot bounds.
    pub max_procs: usize,
    /// Hard cap on virtual time.
    pub t_max: f64,
    /// Observability sink threaded through the kernel, the contract
    /// monitor, and the rescheduler. Disabled by default; attach
    /// [`Obs::enabled`] to collect metrics and decision events without
    /// changing the run (see `tests/obs_determinism.rs`).
    pub obs: Obs,
    /// Per-rank flight recorder. Disabled by default; attach
    /// [`Recorder::enabled`] to capture state timelines, matched messages
    /// and incarnation bridges for wait-state / critical-path analysis
    /// (same determinism contract as `obs`).
    pub recorder: Recorder,
}

impl QrExperimentConfig {
    /// Paper-shaped defaults for a given nominal size (real size scaled
    /// down for harness speed).
    pub fn paper(n_nominal: usize) -> Self {
        QrExperimentConfig {
            qr: QrConfig {
                n_nominal,
                n_real: 96,
                // Single-column blocks keep the scaled-down run's
                // block-granularity imbalance under ~10% (a real-size run
                // would use ScaLAPACK-style blocks of 32-64).
                block: 1,
                poll_every: 2,
                seed: 7,
                efficiency: 0.4,
            },
            load_host: 0,
            load_at: 300.0,
            load_amount: 6.0,
            mode: ReschedulerMode::Default,
            overhead: OverheadPolicy::Modeled,
            monitor_period: 20.0,
            costs: ManagerCosts::default(),
            min_procs: 4,
            max_procs: 8,
            t_max: 100_000.0,
            obs: Obs::disabled(),
            recorder: Recorder::disabled(),
        }
    }
}

/// Result of one experiment run.
#[derive(Debug, Clone)]
pub struct QrExperimentResult {
    /// Total virtual time from manager start to completion.
    pub total_time: f64,
    /// Merged phase breakdown across incarnations.
    pub breakdown: Breakdown,
    /// Whether a migration happened.
    pub migrated: bool,
    /// The rescheduler's (last) decision, if a violation occurred.
    pub decision: Option<MigrationDecision>,
    /// Number of incarnations (1 = no migration).
    pub incarnations: usize,
    /// Rank slots of the final incarnation.
    pub final_hosts: Vec<HostId>,
    /// The kernel's run report (end time, trace, per-host accounting) —
    /// what the obs determinism regression compares bit-for-bit.
    pub report: RunReport,
    /// Forecast snapshot provenance, in event order: every
    /// capture/hand-off with the snapshot's content fingerprint. A
    /// migration shows as `ReschedCaptured(f)` followed by `MapShared(f)`
    /// with the same `f` — the landing map read the decision's forecasts.
    pub snapshot_trace: Vec<(SnapshotUse, u64)>,
}

fn sorted(hs: &[HostId]) -> Vec<HostId> {
    let mut v = hs.to_vec();
    v.sort();
    v
}

/// Run the experiment on the given grid (typically
/// [`grads_sim::topology::macrogrid_qr`]).
pub fn run_qr_experiment(grid: Grid, ecfg: QrExperimentConfig) -> QrExperimentResult {
    run_qr_experiment_with(grid, ecfg, |_| {})
}

/// [`run_qr_experiment`] with `prepare` applied to the engine before
/// anything spawns — the way end-to-end identity tests reach the kernel
/// mode and the kernel's test oracles.
#[doc(hidden)]
pub fn run_qr_experiment_with(
    grid: Grid,
    ecfg: QrExperimentConfig,
    prepare: impl FnOnce(&mut Engine),
) -> QrExperimentResult {
    let mut eng = Engine::new(grid.clone());
    prepare(&mut eng);
    eng.set_obs(ecfg.obs.clone());
    eng.set_recorder(ecfg.recorder.clone());
    let all_hosts: Vec<HostId> = (0..grid.hosts().len() as u32).map(HostId).collect();

    // Middleware: GIS with software everywhere, shared NWS, SRS fabric.
    let gis = Gis::new();
    gis.register_all(&all_hosts, LOCAL_BINDER, "1", "/grads/bin");
    gis.register_all(&all_hosts, "scalapack", "1.7", "/opt/scalapack");
    gis.register_all(&all_hosts, "srs", "1.0", "/opt/srs");
    let nws = Arc::new(Mutex::new(NwsService::new()));
    let srs = Srs::new("qr-exp", Rss::new(), IbpStorage::default());

    let history: Arc<Mutex<Vec<(f64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(Mutex::new(false));
    let decision_cell: Arc<Mutex<Option<MigrationDecision>>> = Arc::new(Mutex::new(None));
    let final_decision: Arc<Mutex<Option<MigrationDecision>>> = Arc::new(Mutex::new(None));
    let breakdown_cell = Arc::new(Mutex::new(Breakdown::default()));

    // NWS CPU sensors on every host.
    for &h in &all_hosts {
        let nws2 = nws.clone();
        let done2 = done.clone();
        let speed = grid.host(h).speed;
        let sensor = CpuSensor::new(nws2, h, speed, 1e6, 10.0, move || *done2.lock());
        eng.spawn_daemon(&format!("nws-sensor-{h}"), h, sensor);
    }

    // The artificial load (paper: five minutes in, on one UTK node).
    eng.add_load_window(
        all_hosts[ecfg.load_host],
        ecfg.load_at,
        None,
        ecfg.load_amount,
    );

    // The application manager.
    let mgr_host = all_hosts[0];
    let grid2 = grid.clone();
    let out: Arc<Mutex<Option<QrExperimentResult>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let (history_m, done_m, decision_m, final_m, breakdown_m) = (
        history.clone(),
        done.clone(),
        decision_cell.clone(),
        final_decision.clone(),
        breakdown_cell.clone(),
    );
    eng.spawn("app-manager", mgr_host, move |ctx| {
        let cop = QrCop {
            cfg: ecfg.qr.clone(),
            min_procs: ecfg.min_procs,
            max_procs: ecfg.max_procs,
            shared_snap: SharedSnapshot::new(),
            snap_trace: Arc::new(Mutex::new(Vec::new())),
        };
        let t_begin = ctx.now();
        let mut incarnations = 0usize;
        let mut hosts: Vec<HostId>;
        let mut final_hosts;
        let mut migrated = false;
        // Flight-recorder continuity across incarnations: when a migration
        // stops epoch N and launches epoch N+1, a bridge links rank 0 of
        // the old world (at stop time) to every rank of the new one.
        let mut prev_wtag = WorldTag::NONE;
        let mut t_stop = 0.0;
        loop {
            // -------- prepare: discover, map, model, bind, start --------
            let (chosen, _bound, bd) = prepare_and_bind(ctx, &cop, &gis, &grid2, &nws, &ecfg.costs)
                .expect("preparation succeeds");
            {
                let mut b = breakdown_m.lock();
                *b = b.merged(&bd);
            }
            hosts = chosen;
            final_hosts = hosts.clone();
            incarnations += 1;
            let epoch = srs.rss.epoch();
            history_m.lock().clear();

            // -------- launch the world --------
            let comm_weight = {
                let n = nws.lock();
                let (c, m) = cop.model_parts(&hosts, &grid2, &*n);
                m / (c + m).max(1e-9)
            };
            let cfgw = ecfg.qr.clone();
            let srsw = srs.clone();
            let history_w = history_m.clone();
            let done_w = done_m.clone();
            let bd_w = breakdown_m.clone();
            let world = launch_from(
                ctx,
                &ecfg.recorder,
                &format!("qr-e{epoch}"),
                &hosts,
                &host_labels(&grid2, &hosts),
                epoch,
                move |rctx, comm| {
                    let t0 = rctx.now();
                    let restored = if srsw.has_checkpoint("A") {
                        restore(rctx, comm, &cfgw, &srsw)
                    } else {
                        None
                    };
                    let (mut local, start) = match restored {
                        Some((l, s)) => {
                            let dt = rctx.now() - t0;
                            if comm.rank() == 0 {
                                bd_w.lock().checkpoint_read += dt;
                            }
                            (l, s)
                        }
                        None => (QrLocal::generate(&cfgw, comm.rank(), comm.size()), 0),
                    };
                    if comm.rank() == 0 {
                        // Progress baseline so the rescheduler can measure
                        // the achieved rate from the very first chunk.
                        let t = rctx.now();
                        history_w.lock().push((t, start));
                    }
                    let mut step = start;
                    let last = cfgw.n_real.saturating_sub(1);
                    loop {
                        let chunk_end = (step + cfgw.poll_every.max(1)).min(last);
                        match run_chunk(
                            rctx,
                            comm,
                            &cfgw,
                            &mut local,
                            Some(&srsw),
                            step,
                            chunk_end,
                            comm_weight,
                        ) {
                            ChunkOutcome::Progressed(next) => {
                                step = next;
                                if comm.rank() == 0 {
                                    let t = rctx.now();
                                    history_w.lock().push((t, step));
                                }
                                if step >= last {
                                    if comm.rank() == 0 {
                                        *done_w.lock() = true;
                                    }
                                    return;
                                }
                            }
                            ChunkOutcome::Stopped { step: s, write_s } => {
                                if comm.rank() == 0 {
                                    bd_w.lock().checkpoint_write += write_s;
                                }
                                let _ = s;
                                return;
                            }
                        }
                    }
                },
            );
            if incarnations > 1 {
                // The restarted world is up: the migration actuation that
                // began at the stop request is complete.
                ecfg.recorder.bridge(prev_wtag, 0, t_stop, world.tag);
                ecfg.obs.event(
                    ctx.now(),
                    DecisionKind::ActuationComplete {
                        action: DecisionAction::Migrate,
                    },
                );
            }
            prev_wtag = world.tag;

            // -------- contract + monitor --------
            let predicted_total = {
                let n = nws.lock();
                cop.predict(&hosts, &grid2, &n)
            };
            // Sensors report normalized whole-run estimates (see module
            // docs), so the contract predicts the total directly.
            let contract = Contract::single_phase("qr_total_est", predicted_total, 1.4, 0.5, 3);
            let running = Arc::new(QrRunning {
                cop: cop.clone(),
                history: history_m.clone(),
                hosts: hosts.clone(),
                restart_fixed_s: ecfg.costs.launch_sync_s + 30.0,
            });
            let rescheduler = MigrationRescheduler {
                overhead: ecfg.overhead,
                mode: ecfg.mode,
                min_benefit: 0.0,
            };
            let handler: ViolationHandler = {
                let grid3 = grid2.clone();
                let nws3 = nws.clone();
                let decision3 = decision_m.clone();
                let final3 = final_m.clone();
                let srs3 = srs.clone();
                let running3 = running.clone();
                let cop3 = cop.clone();
                let all3 = all_hosts.clone();
                let obs3 = ecfg.obs.clone();
                Arc::new(move |mctx, _v| {
                    if srs3.rss.stop_requested() {
                        // A migration is already in motion; let the
                        // monitor retire.
                        return Response::Migrated;
                    }
                    let n = nws3.lock();
                    // One snapshot per monitor poll: candidate enumeration
                    // and every candidate's decision terms read the same
                    // frozen forecasts instead of re-running the ensemble
                    // per host visit. The snapshot is kept so that, if the
                    // decision is to migrate, the landing map reads the
                    // very same forecasts (see `Cop::map`).
                    let snap = Arc::new(ForecastSnapshot::capture(&grid3, &n));
                    cop3.snap_trace
                        .lock()
                        .push((SnapshotUse::ReschedCaptured, snap.fingerprint()));
                    let cands = cop3.candidates(&grid3, snap.as_ref(), &all3);
                    let mut d = rescheduler
                        .decide_best(running3.as_ref(), &cands, &grid3, snap.as_ref(), &obs3)
                        .expect("candidates exist");
                    // Moving onto the very machines the app already holds
                    // is not a migration, whatever the (forecast-polluted)
                    // model says about them.
                    d.migrate = d.migrate && sorted(&d.candidate_hosts) != sorted(&running3.hosts);
                    *decision3.lock() = Some(d.clone());
                    // Report the decisive decision: the one that triggered
                    // a migration, or the last one taken if none did.
                    {
                        let mut f = final3.lock();
                        let already_migrating = matches!(&*f, Some(prev) if prev.migrate);
                        if !already_migrating {
                            *f = Some(d.clone());
                        }
                    }
                    if d.migrate {
                        // Hand the decision's snapshot to the mapper: the
                        // re-prepare after the stop lands on the forecasts
                        // this migrate verdict was computed from.
                        cop3.shared_snap.pin(snap);
                        srs3.rss.request_stop();
                        obs3.event(
                            mctx.now(),
                            DecisionKind::ActuationStarted {
                                action: DecisionAction::Migrate,
                            },
                        );
                        Response::Migrated
                    } else {
                        Response::Declined
                    }
                })
            };
            let mon_done: DonePredicate = {
                let d = done_m.clone();
                Arc::new(move || *d.lock())
            };
            let stats = world.stats.clone();
            let period = ecfg.monitor_period;
            let mon_contract = contract.clone();
            let mon_handler = handler.clone();
            let mon_obs = ecfg.obs.clone();
            ctx.spawn(
                &format!("contract-monitor-e{epoch}"),
                mgr_host,
                move |mctx| {
                    let mut mon = ContractMonitor::new(mon_contract);
                    run_contract_monitor(
                        mctx,
                        &stats,
                        &mut mon,
                        period,
                        mon_done,
                        mon_handler,
                        &mon_obs,
                    );
                },
            );

            // -------- wait for completion or stop --------
            loop {
                ctx.sleep(5.0);
                if *done_m.lock() {
                    break;
                }
                if srs.rss.stop_requested() && srs.rss.stop_acks() >= hosts.len() {
                    break;
                }
                if ctx.now() > ecfg.t_max {
                    *done_m.lock() = true;
                    break;
                }
            }
            if *done_m.lock() {
                break;
            }
            // Migration: open the next epoch and loop back to re-prepare.
            migrated = true;
            t_stop = ctx.now();
            srs.rss.begin_restart();
            *decision_m.lock() = None;
        }
        let total_time = ctx.now() - t_begin;
        let mut bd = *breakdown_m.lock();
        bd.app_duration = (total_time - (bd.total() - bd.app_duration)).max(0.0);
        *out2.lock() = Some(QrExperimentResult {
            total_time,
            breakdown: bd,
            migrated,
            decision: final_m.lock().clone(),
            incarnations,
            final_hosts,
            report: RunReport::default(),
            snapshot_trace: cop.snap_trace.lock().clone(),
        });
    });

    let tmax = ecfg.t_max * 1.2;
    let report = eng.run_until(tmax);
    let mut r = out.lock().take().expect("experiment completed");
    r.report = report;
    r
}

/// Outcome of one poll-sized chunk of elimination steps.
enum ChunkOutcome {
    /// Ran to `next` (exclusive); continue.
    Progressed(usize),
    /// Honoured a stop request after checkpointing.
    Stopped { step: usize, write_s: f64 },
}

/// Run `[start, end)` elimination steps, honouring stop requests at the
/// chunk boundary and emitting a normalized whole-run-estimate sensor
/// report.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    ctx: &mut Ctx,
    comm: &mut grads_mpi::Comm,
    cfg: &QrConfig,
    local: &mut QrLocal,
    srs: Option<&Srs>,
    start: usize,
    end: usize,
    comm_weight: f64,
) -> ChunkOutcome {
    if let Some(srs) = srs {
        // The stop decision must be collective: the flag may flip between
        // two ranks' boundary checks, and a unilateral exit would deadlock
        // the step broadcasts. Rank 0 reads the flag; everyone follows its
        // verdict.
        let stop = if comm.size() > 1 {
            comm.bcast_t(
                ctx,
                0,
                16.0,
                (comm.rank() == 0).then(|| srs.should_stop() && start > 0),
            )
        } else {
            srs.should_stop() && start > 0
        };
        if stop {
            let t0 = ctx.now();
            crate::qr::checkpoint(ctx, comm, cfg, local, srs, start);
            let dt = ctx.now() - t0;
            return ChunkOutcome::Stopped {
                step: start,
                write_s: dt,
            };
        }
    }
    let t0 = ctx.now();
    for k in start..end.min(cfg.n_real.saturating_sub(1)) {
        qr_step(ctx, comm, cfg, local, k);
    }
    let dt = ctx.now() - t0;
    // Expected fraction of total *time* in this chunk: compute follows
    // the cubic trailing-matrix profile, communication the quadratic
    // reflector-volume profile, mixed by the predicted comm share.
    let n = cfg.n_real as f64;
    let flops_frac = ((n - start as f64) / n).powi(3) - ((n - end as f64) / n).powi(3);
    let bytes_frac = ((n - start as f64) / n).powi(2) - ((n - end as f64) / n).powi(2);
    let frac = ((1.0 - comm_weight) * flops_frac + comm_weight * bytes_frac).max(1e-9);
    // Sensor on rank 0 only: its report lands at the same virtual instant
    // as its progress-history push, so the rescheduler always sees a
    // measurable rate when a violation arrives.
    if comm.rank() == 0 {
        comm.record_phase("qr_total_est", dt / frac);
    }
    ChunkOutcome::Progressed(end)
}

/// One elimination step of the chunked driver: the owner's reflector,
/// its broadcast, and the trailing update.
pub(crate) fn qr_step(
    ctx: &mut Ctx,
    comm: &mut grads_mpi::Comm,
    cfg: &QrConfig,
    local: &mut QrLocal,
    k: usize,
) {
    let owner = local.dist.owner(k);
    let reflector = (comm.rank() == owner).then(|| householder_reflector(ctx, comm, cfg, local, k));
    let bytes = 8.0 * ((cfg.n_real - k) as f64 + 2.0) * cfg.byte_scale();
    let (w, tau) = if comm.size() > 1 {
        comm.bcast_t(ctx, owner, bytes, reflector)
    } else {
        reflector.expect("a single rank owns every column")
    };
    apply_reflector(ctx, comm, cfg, local, k, &w, tau);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::macrogrid_qr;

    fn small_exp(n_nominal: usize, mode: ReschedulerMode) -> QrExperimentResult {
        let mut cfg = QrExperimentConfig::paper(n_nominal);
        cfg.qr.n_real = 48;
        cfg.qr.block = 4;
        cfg.qr.poll_every = 4;
        cfg.load_at = 60.0;
        cfg.monitor_period = 10.0;
        cfg.mode = mode;
        cfg.t_max = 50_000.0;
        run_qr_experiment(macrogrid_qr(), cfg)
    }

    #[test]
    fn initial_schedule_prefers_utk() {
        // Without load, UTK (4×933 MHz dual-processor = 8 slots) beats
        // UIUC (8×450 MHz) for compute-heavy sizes.
        let mut cfg = QrExperimentConfig::paper(8000);
        cfg.qr.n_real = 32;
        cfg.qr.block = 4;
        cfg.load_at = 1e9; // never
        cfg.t_max = 50_000.0;
        let r = run_qr_experiment(macrogrid_qr(), cfg);
        assert!(!r.migrated);
        assert!(r.final_hosts.iter().all(|h| h.0 < 4), "{:?}", r.final_hosts);
        assert_eq!(r.incarnations, 1);
    }

    #[test]
    fn small_problem_stays_put() {
        // Small problem: migration cost dwarfs the remaining work.
        let r = small_exp(3000, ReschedulerMode::Default);
        assert!(!r.migrated, "decision: {:?}", r.decision);
        assert_eq!(r.incarnations, 1);
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn large_problem_migrates_and_finishes() {
        let r = small_exp(20000, ReschedulerMode::Default);
        assert!(r.migrated, "decision: {:?}", r.decision);
        assert_eq!(r.incarnations, 2);
        // Migration crossed to the UIUC cluster (hosts 4..12).
        assert!(
            r.final_hosts.iter().all(|h| h.0 >= 4),
            "{:?}",
            r.final_hosts
        );
        assert!(r.breakdown.checkpoint_read > 0.0);
        assert!(r.breakdown.checkpoint_write > 0.0);
        // Checkpoint read (WAN) dominates write (local disk) — the
        // paper's key observation.
        assert!(
            r.breakdown.checkpoint_read > r.breakdown.checkpoint_write,
            "read {} vs write {}",
            r.breakdown.checkpoint_read,
            r.breakdown.checkpoint_write
        );
    }

    /// The mapper's oracle: rank [`QrCop::candidates`] by [`QrCop::model`]
    /// against the live service, first minimum wins.
    fn map_oracle(
        cop: &QrCop,
        grid: &Grid,
        nws: &NwsService,
        eligible: &[HostId],
    ) -> Option<Vec<HostId>> {
        cop.candidates(grid, nws, eligible)
            .into_iter()
            .min_by(|a, b| cop.model(a, grid, nws).total_cmp(&cop.model(b, grid, nws)))
    }

    #[test]
    fn map_fast_matches_the_live_model_oracle() {
        // Two identical dual-core clusters ahead of a slower one: on an
        // idle grid their candidates tie bitwise, so the first-wins rule
        // is exercised, not just the argmin.
        use grads_sim::topology::{GridBuilder, HostSpec};
        let mut b = GridBuilder::new();
        let mut dual = HostSpec::with_speed(933e6);
        dual.cores = 2;
        let twins = [b.cluster("A"), b.cluster("B")];
        for &c in &twins {
            b.local_link(c, 12.5e6, 100e-6);
            b.add_hosts(c, 4, &dual);
        }
        let slow = b.cluster("C");
        b.local_link(slow, 160e6, 20e-6);
        b.add_hosts(slow, 8, &HostSpec::with_speed(450e6));
        b.connect(twins[0], twins[1], 4e6, 0.03);
        b.connect(twins[0], slow, 4e6, 0.03);
        b.connect(twins[1], slow, 4e6, 0.03);
        let grid = b.build().unwrap();
        let n_hosts = grid.hosts().len() as u32;
        let all: Vec<HostId> = (0..n_hosts).map(HostId).collect();
        let cop = QrCop {
            cfg: QrExperimentConfig::paper(8000).qr,
            min_procs: 4,
            max_procs: 8,
            shared_snap: SharedSnapshot::new(),
            snap_trace: Arc::new(Mutex::new(Vec::new())),
        };
        let idle = NwsService::new();
        let mut host0_loaded = NwsService::new();
        for _ in 0..20 {
            host0_loaded.observe_cpu(HostId(0), 0.1);
        }
        let mut mixed = NwsService::new();
        for i in 0..n_hosts {
            for j in 0..12 {
                mixed.observe_cpu(HostId(i), 0.3 + 0.05 * ((i * 7 + j) % 13) as f64);
            }
        }
        let mut picked = Vec::new();
        for (label, nws) in [
            ("idle", &idle),
            ("host 0 loaded", &host0_loaded),
            ("mixed", &mixed),
        ] {
            let snap = ForecastSnapshot::capture(&grid, nws);
            for eligible in [&all[..], &all[1..]] {
                let fast = cop.map_fast(&grid, &snap, eligible);
                assert_eq!(fast, map_oracle(&cop, &grid, nws, eligible), "{label}");
                picked.push(fast.expect("candidates exist"));
            }
        }
        // The tie goes to the first twin; loading host 0 moves the map
        // to the second.
        assert!(picked[0].iter().all(|h| h.0 < 4), "idle: {:?}", picked[0]);
        assert!(
            picked[2].iter().all(|h| (4..8).contains(&h.0)),
            "loaded: {:?}",
            picked[2]
        );
    }

    #[test]
    fn forced_modes_produce_both_branches() {
        let stay = small_exp(20000, ReschedulerMode::ForceStay);
        let go = small_exp(20000, ReschedulerMode::ForceMigrate);
        assert!(!stay.migrated);
        assert!(go.migrated, "decision: {:?}", go.decision);
        // For a large problem, migrating beats staying on loaded nodes.
        assert!(
            go.total_time < stay.total_time,
            "migrate {} vs stay {}",
            go.total_time,
            stay.total_time
        );
    }
}
