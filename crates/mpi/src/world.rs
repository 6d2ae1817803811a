//! World launch and per-rank profiling statistics.
//!
//! A *world* is a set of simulated processes, one per rank, running the
//! same application closure — the emulation analog of `mpirun`. Each rank
//! gets a [`Comm`] wired to the world's rank→host map
//! and a shared [`RankStats`] that the communication layer fills in through
//! the "MPI profiling interface" (the paper's automatically-inserted
//! sensors read these, §5).

use crate::comm::{Comm, Mapping, DEFAULT_EAGER_THRESHOLD};
use grads_obs::{Recorder, WorldTag};
use grads_sim::prelude::*;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_WORLD: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh globally-unique world id.
pub fn next_world_id() -> u64 {
    NEXT_WORLD.fetch_add(1, Ordering::Relaxed)
}

/// Per-rank profiling counters, maintained by the communication layer and
/// by explicit phase sensors. This is what the contract monitor's sensors
/// read: *"simple computation and communication performance metrics,
/// captured via PAPI and the MPI profiling interface with automatically-
/// inserted sensors"* (§5).
#[derive(Debug, Default, Clone)]
pub struct RankStats {
    /// Virtual seconds spent in `Comm::compute`.
    pub compute_s: f64,
    /// Virtual seconds spent blocked in communication calls.
    pub comm_s: f64,
    /// Point-to-point sends issued.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Total bytes sent.
    pub bytes_sent: f64,
    /// `(phase name, duration)` records reported by phase sensors, in
    /// order of completion.
    pub phase_times: Vec<(String, f64)>,
}

impl RankStats {
    /// Record a named phase duration (an Autopilot-style sensor report).
    pub fn record_phase(&mut self, name: &str, dt: f64) {
        self.phase_times.push((name.to_string(), dt));
    }

    /// Durations of all phases with the given name.
    pub fn phase_series(&self, name: &str) -> Vec<f64> {
        self.phase_times
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .collect()
    }
}

/// Handle to a launched world.
pub struct World {
    /// World id (part of every mailbox key).
    pub id: u64,
    /// Name prefix of the rank processes.
    pub name: String,
    /// Host of each rank.
    pub hosts: Vec<HostId>,
    /// Shared per-rank statistics, index = rank.
    pub stats: Vec<Arc<Mutex<RankStats>>>,
    /// Process ids of the ranks.
    pub procs: Vec<ProcId>,
    /// Flight-recorder tag of the world's tracks ([`WorldTag::NONE`]
    /// under a disabled recorder).
    pub tag: WorldTag,
}

/// Shared stats cells plus per-rank `(communicator, entry point)` pairs.
type RankParts<F> = (Vec<Arc<Mutex<RankStats>>>, Vec<(Comm, Arc<F>)>);

/// Human-readable host labels for a rank→host assignment — what the
/// flight recorder shows on each track (`Recorder::register_world`).
pub fn host_labels(grid: &Grid, hosts: &[HostId]) -> Vec<String> {
    hosts.iter().map(|&h| grid.host(h).name.clone()).collect()
}

#[allow(clippy::needless_range_loop)] // rank-indexed construction
fn build_rank_closures<F>(
    id: u64,
    epoch: u64,
    hosts: &[HostId],
    f: Arc<F>,
    rec: &Recorder,
    wtag: WorldTag,
) -> RankParts<F>
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let harc = Arc::new(hosts.to_vec());
    let n = hosts.len();
    let stats: Vec<Arc<Mutex<RankStats>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(RankStats::default())))
        .collect();
    let mut parts = Vec::with_capacity(n);
    for rank in 0..n {
        let mut comm = Comm::new(
            id,
            epoch,
            rank,
            n,
            Mapping::Static(harc.clone()),
            DEFAULT_EAGER_THRESHOLD,
            true,
            stats[rank].clone(),
        );
        comm.set_recorder(rec.clone(), wtag, rank);
        parts.push((comm, f.clone()));
    }
    (stats, parts)
}

/// Launch a world from outside the simulation (before `Engine::run`),
/// starting at virtual time 0, wired into the engine's flight recorder:
/// one track per rank, labelled with its host, and rank pids bound so
/// the kernel stamps lifecycle edges. Under the engine's default
/// disabled recorder nothing is recorded and the tag is
/// [`WorldTag::NONE`].
pub fn launch<F>(eng: &mut Engine, name: &str, hosts: &[HostId], f: F) -> World
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let rec = eng.recorder().clone();
    let tag = rec.register_world(name, &host_labels(eng.grid(), hosts));
    let id = next_world_id();
    let (stats, parts) = build_rank_closures(id, 0, hosts, Arc::new(f), &rec, tag);
    let mut procs = Vec::with_capacity(hosts.len());
    for (rank, (mut comm, f)) in parts.into_iter().enumerate() {
        let pid = eng.spawn(&format!("{name}-{rank}"), hosts[rank], move |ctx| {
            f(ctx, &mut comm)
        });
        rec.bind_pid(pid.0, tag, rank);
        procs.push(pid);
    }
    World {
        id,
        name: name.to_string(),
        hosts: hosts.to_vec(),
        stats,
        procs,
        tag,
    }
}

/// Launch a world from inside the simulation (e.g. the application manager
/// or a restart after migration). `epoch` distinguishes message keys of
/// successive incarnations of a migrated application. In-simulation
/// spawners have no engine access, so the caller passes the flight
/// recorder and the per-rank host labels (`labels[r]` serves rank `r`;
/// see [`host_labels`]); a disabled recorder takes empty labels.
pub fn launch_from<F>(
    ctx: &mut Ctx,
    rec: &Recorder,
    name: &str,
    hosts: &[HostId],
    labels: &[String],
    epoch: u64,
    f: F,
) -> World
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let tag = rec.register_world(name, labels);
    let id = next_world_id();
    let (stats, parts) = build_rank_closures(id, epoch, hosts, Arc::new(f), rec, tag);
    let mut procs = Vec::with_capacity(hosts.len());
    for (rank, (mut comm, f)) in parts.into_iter().enumerate() {
        let pid = ctx.spawn(&format!("{name}-{rank}"), hosts[rank], move |cctx| {
            f(cctx, &mut comm)
        });
        rec.bind_pid(pid.0, tag, rank);
        procs.push(pid);
    }
    World {
        id,
        name: name.to_string(),
        hosts: hosts.to_vec(),
        stats,
        procs,
        tag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn grid(n: usize) -> (Grid, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e8, 1e-4);
        let hs = b.add_hosts(c, n, &HostSpec::with_speed(1e9));
        (b.build().unwrap(), hs)
    }

    #[test]
    fn world_ranks_all_run() {
        let (g, hs) = grid(4);
        let mut eng = Engine::new(g);
        launch(&mut eng, "app", &hs, |ctx, comm| {
            let r = comm.rank() as f64;
            ctx.trace("rank", r);
        });
        let r = eng.run();
        assert_eq!(r.completed.len(), 4);
        let mut ranks: Vec<f64> = r.trace.series("rank").iter().map(|&(_, v)| v).collect();
        ranks.sort_by(f64::total_cmp);
        assert_eq!(ranks, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn stats_capture_compute_time() {
        let (g, hs) = grid(2);
        let mut eng = Engine::new(g);
        let w = launch(&mut eng, "app", &hs, |ctx, comm| {
            comm.compute(ctx, 2e9); // 2 s at 1 Gflop/s
        });
        eng.run();
        for s in &w.stats {
            assert!((s.lock().compute_s - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_sensor_records() {
        let mut s = RankStats::default();
        s.record_phase("iter", 1.5);
        s.record_phase("iter", 2.5);
        s.record_phase("io", 0.5);
        assert_eq!(s.phase_series("iter"), vec![1.5, 2.5]);
        assert_eq!(s.phase_series("nope"), Vec::<f64>::new());
    }

    #[test]
    fn world_ids_unique() {
        let (g, hs) = grid(1);
        let mut eng = Engine::new(g);
        let w1 = launch(&mut eng, "a", &hs, |_, _| {});
        let w2 = launch(&mut eng, "b", &hs, |_, _| {});
        assert_ne!(w1.id, w2.id);
        eng.run();
    }
}
