//! N-body simulation — the iterative application of the §4.2
//! process-swapping experiment.
//!
//! Direct-sum gravitational dynamics with a leapfrog-style integrator.
//! Bodies are partitioned contiguously over the active logical ranks; each
//! iteration every rank computes forces on its slice against a replicated
//! position array (real arithmetic, plus nominal flop charging), integrates,
//! and exchanges updated slices with iteration-tagged messages (swap-world
//! communicators are unordered, so tags carry the ordering).
//!
//! The rank state — positions, its slice's velocities, the iteration
//! counter — is exactly what travels on a process swap.

use grads_mpi::swap::SwapWorld;
use grads_mpi::{launch_swap_world, Comm};
use grads_nws::{CpuSensor, NwsService};
use grads_obs::Obs;
use grads_reschedule::{run_swap_rescheduler, SwapPolicy};
use grads_sim::prelude::*;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::select_unpredictable;
use std::sync::Arc;

/// N-body application configuration.
#[derive(Debug, Clone)]
pub struct NbodyConfig {
    /// Number of bodies.
    pub n_bodies: usize,
    /// Iterations to run.
    pub iters: u64,
    /// Integrator time step.
    pub dt: f64,
    /// Gravitational softening length.
    pub softening: f64,
    /// Virtual flop charge per body-body interaction.
    pub flops_per_pair: f64,
    /// Seed for initial conditions.
    pub seed: u64,
}

impl Default for NbodyConfig {
    fn default() -> Self {
        NbodyConfig {
            n_bodies: 256,
            iters: 100,
            dt: 1e-3,
            softening: 1e-2,
            flops_per_pair: 20.0,
            seed: 11,
        }
    }
}

/// Per-logical-rank state; this is what a swap transfers.
#[derive(Clone)]
pub struct NbodyState {
    /// Current iteration.
    pub iter: u64,
    /// Body range `[lo, hi)` this rank owns.
    pub range: (usize, usize),
    /// All body positions (replicated).
    pub pos: Vec<[f64; 3]>,
    /// Velocities of the owned slice.
    pub vel: Vec<[f64; 3]>,
    /// All body masses (replicated, constant).
    pub mass: Vec<f64>,
}

/// Contiguous partition of `n` bodies over `p` ranks.
pub fn slice_of(n: usize, p: usize, rank: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let lo = rank * base + rank.min(extra);
    let hi = lo + base + usize::from(rank < extra);
    (lo, hi)
}

/// Deterministic initial conditions: a cold uniform cube of unit-mass
/// bodies.
pub fn initial_state(cfg: &NbodyConfig, p: usize, rank: usize) -> NbodyState {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pos = Vec::with_capacity(cfg.n_bodies);
    for _ in 0..cfg.n_bodies {
        pos.push([
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ]);
    }
    let mass = vec![1.0 / cfg.n_bodies as f64; cfg.n_bodies];
    let range = slice_of(cfg.n_bodies, p, rank);
    NbodyState {
        iter: 0,
        range,
        pos,
        vel: vec![[0.0; 3]; range.1 - range.0],
        mass,
    }
}

/// Target bodies per pass of the force kernel over the bodies.
const LANES: usize = 4;

/// Accelerations on bodies `[lo, hi)` from all bodies (softened direct
/// sum).
///
/// Lane-blocked: each pass over the bodies accumulates `LANES` target
/// bodies at once, so the lane loops compile to packed arithmetic. Every
/// lane runs the scalar sequence over the same `j` order, and Rust never
/// contracts to FMA, so each acceleration is bitwise that of the plain
/// per-body loop (DESIGN.md, "lane-blocked force kernel"). A slice whose
/// length is not a multiple of `LANES` pads its last block with the last
/// body and stores only the real lanes.
pub fn accelerations(
    pos: &[[f64; 3]],
    mass: &[f64],
    lo: usize,
    hi: usize,
    softening: f64,
) -> Vec<[f64; 3]> {
    let eps2 = softening * softening;
    let n = pos.len();
    let mut acc = vec![[0.0f64; 3]; hi - lo];
    for (b, out) in acc.chunks_mut(LANES).enumerate() {
        let i0 = lo + b * LANES;
        let idx: [usize; LANES] = std::array::from_fn(|k| (i0 + k).min(hi - 1));
        let mut blk = LaneBlock {
            idx,
            p: [0, 1, 2].map(|d| idx.map(|i| pos[i][d])),
            a: [[0.0; LANES]; 3],
        };
        // Every lane's own body lies in `i0..end`; only that stretch
        // needs the diagonal select.
        let end = (i0 + LANES).min(n);
        blk.pass::<false>(pos, mass, 0..i0, eps2);
        blk.pass::<true>(pos, mass, i0..end, eps2);
        blk.pass::<false>(pos, mass, end..n, eps2);
        for (k, a) in out.iter_mut().enumerate() {
            *a = blk.a.map(|ad| ad[k]);
        }
    }
    acc
}

/// `LANES` target bodies of the force kernel: their indices, positions
/// and acceleration accumulators, one `[f64; LANES]` per axis.
struct LaneBlock {
    idx: [usize; LANES],
    p: [[f64; LANES]; 3],
    a: [[f64; LANES]; 3],
}

impl LaneBlock {
    /// Accumulate the pull of bodies `js`, in order. With `DIAGONAL`, a
    /// lane's own body (`j == idx[k]`) keeps its accumulator through a
    /// select, not a 0/1 mask: with zero softening that term is
    /// `inf · 0 = NaN`. The select is `select_unpredictable`, because a
    /// branch would sink each lane's arithmetic into a block of its own
    /// and unpack the lanes.
    #[inline(always)]
    fn pass<const DIAGONAL: bool>(
        &mut self,
        pos: &[[f64; 3]],
        mass: &[f64],
        js: std::ops::Range<usize>,
        eps2: f64,
    ) {
        let [px, py, pz] = &self.p;
        let [ax, ay, az] = &mut self.a;
        for j in js {
            let [xj, yj, zj] = pos[j];
            let mj = mass[j];
            for k in 0..LANES {
                let dx = xj - px[k];
                let dy = yj - py[k];
                let dz = zj - pz[k];
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let inv_r3 = 1.0 / (r2 * r2.sqrt());
                let f = mj * inv_r3;
                if DIAGONAL {
                    let own = j == self.idx[k];
                    ax[k] = select_unpredictable(own, ax[k], ax[k] + f * dx);
                    ay[k] = select_unpredictable(own, ay[k], ay[k] + f * dy);
                    az[k] = select_unpredictable(own, az[k], az[k] + f * dz);
                } else {
                    ax[k] += f * dx;
                    ay[k] += f * dy;
                    az[k] += f * dz;
                }
            }
        }
    }
}

/// Total energy (kinetic + potential) of a full state snapshot. For tests:
/// requires all velocities, so it is evaluated in single-rank runs.
pub fn total_energy(pos: &[[f64; 3]], vel: &[[f64; 3]], mass: &[f64], softening: f64) -> f64 {
    let eps2 = softening * softening;
    let mut e = 0.0;
    for (i, v) in vel.iter().enumerate() {
        e += 0.5 * mass[i] * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    }
    for i in 0..pos.len() {
        for j in i + 1..pos.len() {
            let dx = pos[j][0] - pos[i][0];
            let dy = pos[j][1] - pos[i][1];
            let dz = pos[j][2] - pos[i][2];
            let r = (dx * dx + dy * dy + dz * dz + eps2).sqrt();
            e -= mass[i] * mass[j] / r;
        }
    }
    e
}

const TAG_SLICE_NS: u64 = 1 << 30;

/// One iteration: force computation on the owned slice, integration, and
/// slice exchange among the active ranks. Returns `true` when the
/// configured iteration count is reached. Rank 0 traces `("iteration",
/// iter)` — the Figure 4 progress series.
pub fn nbody_step(ctx: &mut Ctx, comm: &mut Comm, cfg: &NbodyConfig, st: &mut NbodyState) -> bool {
    let (lo, hi) = st.range;
    // Real physics.
    let acc = accelerations(&st.pos, &st.mass, lo, hi, cfg.softening);
    for i in lo..hi {
        let a = acc[i - lo];
        let v = &mut st.vel[i - lo];
        v[0] += a[0] * cfg.dt;
        v[1] += a[1] * cfg.dt;
        v[2] += a[2] * cfg.dt;
    }
    let mut my_slice = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        let v = st.vel[i - lo];
        let p = &mut st.pos[i];
        p[0] += v[0] * cfg.dt;
        p[1] += v[1] * cfg.dt;
        p[2] += v[2] * cfg.dt;
        my_slice.push(*p);
    }
    // Virtual cost: every owned body interacts with every other body.
    let pairs = (hi - lo) as f64 * (cfg.n_bodies - 1) as f64;
    comm.compute(ctx, pairs * cfg.flops_per_pair);
    // Slice exchange, iteration-tagged (unordered communicator).
    let p = comm.size();
    if p > 1 {
        let tag = TAG_SLICE_NS + st.iter;
        let bytes = 24.0 * (hi - lo) as f64;
        for r in 0..p {
            if r != comm.rank() {
                comm.isend(
                    ctx,
                    r,
                    tag,
                    bytes,
                    Box::new((comm.rank(), my_slice.clone())),
                );
            }
        }
        // Receive from every peer; source order is fixed for determinism
        // (recv blocks per-source).
        for r in 0..p {
            if r == comm.rank() {
                continue;
            }
            let (src, slice): (usize, Vec<[f64; 3]>) = comm.recv_t(ctx, r, tag);
            debug_assert_eq!(src, r);
            let (rlo, rhi) = slice_of(cfg.n_bodies, p, r);
            debug_assert_eq!(rhi - rlo, slice.len());
            st.pos[rlo..rhi].copy_from_slice(&slice);
        }
    }
    if comm.rank() == 0 {
        ctx.trace("iteration", st.iter as f64);
    }
    st.iter += 1;
    st.iter >= cfg.iters
}

/// Configuration of the Figure 4 experiment.
#[derive(Clone)]
pub struct NbodyExperimentConfig {
    /// Application configuration.
    pub app: NbodyConfig,
    /// Active-set size (paper: 3, on UTK).
    pub n_active: usize,
    /// When competing load arrives, virtual seconds (paper: 80).
    pub load_at: f64,
    /// Competing processes added (paper: 2).
    pub load_amount: f64,
    /// Index into the worker host list of the loaded host.
    pub load_host: usize,
    /// Swap policy for the rescheduler.
    pub policy: SwapPolicy,
    /// NWS sensor period, seconds.
    pub sensor_period: f64,
    /// Swap rescheduler decision period, seconds.
    pub resched_period: f64,
    /// Per-rank swap-state size on the wire, bytes.
    pub state_bytes: f64,
    /// Virtual-time cap.
    pub t_max: f64,
}

impl Default for NbodyExperimentConfig {
    fn default() -> Self {
        NbodyExperimentConfig {
            app: NbodyConfig::default(),
            n_active: 3,
            load_at: 80.0,
            load_amount: 2.0,
            load_host: 0,
            policy: SwapPolicy::Greedy { factor: 2.0 },
            sensor_period: 5.0,
            resched_period: 10.0,
            state_bytes: 1e6,
            t_max: 10_000.0,
        }
    }
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct NbodyExperimentResult {
    /// `(virtual time, iteration)` — the Figure 4 series.
    pub progress: Vec<(f64, f64)>,
    /// Swap actuations `(time, logical rank)`.
    pub swaps: Vec<(f64, f64)>,
    /// Completion time of the application.
    pub end_time: f64,
    /// Kernel events processed over the whole run — a cheap fingerprint of
    /// the emulation's work (scaling sweeps track events per simulated
    /// second across topology sizes).
    pub events_processed: u64,
}

/// Run the §4.2.2 process-swapping experiment: the N-body application on
/// `worker_hosts` (first `n_active` active, rest inactive), a monitor host
/// running the NWS-fed swap rescheduler, competing load injected per the
/// configuration.
pub fn run_nbody_experiment(
    grid: Grid,
    worker_hosts: &[HostId],
    monitor_host: HostId,
    ecfg: NbodyExperimentConfig,
) -> NbodyExperimentResult {
    assert!(ecfg.n_active <= worker_hosts.len());
    let mut eng = Engine::new(grid.clone());
    let done = Arc::new(Mutex::new(false));
    let nws = Arc::new(Mutex::new(NwsService::new()));

    // The swap-enabled world.
    let appcfg = ecfg.app.clone();
    let n_active = ecfg.n_active;
    let done_w = done.clone();
    let sw: SwapWorld = launch_swap_world(
        &mut eng,
        "nbody",
        worker_hosts,
        n_active,
        ecfg.state_bytes,
        move |logical| initial_state(&appcfg, n_active, logical),
        {
            let appcfg = ecfg.app.clone();
            move |ctx, comm, st| {
                let fin = nbody_step(ctx, comm, &appcfg, st);
                if fin && comm.rank() == 0 {
                    *done_w.lock() = true;
                }
                fin
            }
        },
    );

    // NWS sensors on every worker host.
    for &h in worker_hosts {
        let nws2 = nws.clone();
        let done2 = done.clone();
        let speed = grid.host(h).speed;
        let period = ecfg.sensor_period;
        let sensor = CpuSensor::new(nws2, h, speed, 1e6, period, move || *done2.lock());
        eng.spawn_daemon(&format!("nws-sensor-{h}"), h, sensor);
    }

    // The swap rescheduler (the §4.2 contract-monitor/rescheduler pair).
    {
        let sw2 = sw.clone();
        let nws2 = nws.clone();
        let done2 = done.clone();
        let grid2 = grid.clone();
        let policy = ecfg.policy;
        let period = ecfg.resched_period;
        eng.spawn("swap-rescheduler", monitor_host, move |ctx| {
            run_swap_rescheduler(
                ctx,
                &sw2,
                &grid2,
                &nws2,
                policy,
                period,
                &move || *done2.lock(),
                &Obs::disabled(),
            );
        });
    }

    // Competing load.
    eng.add_load_window(
        worker_hosts[ecfg.load_host],
        ecfg.load_at,
        None,
        ecfg.load_amount,
    );

    let report = eng.run_until(ecfg.t_max);
    let progress = report.trace.series("iteration");
    let swaps = report.trace.series("swap");
    let end_time = progress.last().map(|&(t, _)| t).unwrap_or(report.end_time);
    NbodyExperimentResult {
        progress,
        swaps,
        end_time,
        events_processed: report.events_processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_mpi::launch;
    use grads_sim::topology::{microgrid_nbody, GridBuilder, HostSpec};

    fn grid(speeds: &[f64]) -> (Grid, Vec<HostId>) {
        let mut b = GridBuilder::new();
        let c = b.cluster("X");
        b.local_link(c, 1e8, 1e-4);
        let hs: Vec<HostId> = speeds
            .iter()
            .map(|&s| b.add_host(c, &HostSpec::with_speed(s)))
            .collect();
        (b.build().unwrap(), hs)
    }

    #[test]
    fn slices_partition_bodies() {
        for (n, p) in [(10, 3), (9, 3), (7, 4), (1, 1)] {
            let mut covered = 0;
            for r in 0..p {
                let (lo, hi) = slice_of(n, p, r);
                assert!(hi >= lo);
                covered += hi - lo;
                if r > 0 {
                    assert_eq!(lo, slice_of(n, p, r - 1).1);
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn energy_approximately_conserved() {
        let cfg = NbodyConfig {
            n_bodies: 48,
            iters: 200,
            dt: 1e-3,
            ..Default::default()
        };
        let (g, hs) = grid(&[1e12]);
        let mut eng = Engine::new(g);
        let out = Arc::new(Mutex::new((0.0f64, 0.0f64)));
        let out2 = out.clone();
        let cfg2 = cfg.clone();
        launch(&mut eng, "nb", &hs, move |ctx, comm| {
            let mut st = initial_state(&cfg2, 1, 0);
            let e0 = total_energy(&st.pos, &st.vel, &st.mass, cfg2.softening);
            while !nbody_step(ctx, comm, &cfg2, &mut st) {}
            let e1 = total_energy(&st.pos, &st.vel, &st.mass, cfg2.softening);
            *out2.lock() = (e0, e1);
        });
        eng.run();
        let (e0, e1) = *out.lock();
        let drift = (e1 - e0).abs() / e0.abs();
        assert!(drift < 0.05, "energy drift {drift} (e0={e0}, e1={e1})");
    }

    #[test]
    fn parallel_matches_serial_trajectory() {
        let cfg = NbodyConfig {
            n_bodies: 30,
            iters: 20,
            ..Default::default()
        };
        let run = |p: usize| {
            let (g, hs) = grid(&vec![1e12; p]);
            let mut eng = Engine::new(g);
            let out = Arc::new(Mutex::new(Vec::new()));
            let out2 = out.clone();
            let cfg2 = cfg.clone();
            launch(&mut eng, "nb", &hs, move |ctx, comm| {
                let mut st = initial_state(&cfg2, comm.size(), comm.rank());
                while !nbody_step(ctx, comm, &cfg2, &mut st) {}
                if comm.rank() == 0 {
                    *out2.lock() = st.pos.clone();
                }
            });
            eng.run();
            let v = out.lock().clone();
            v
        };
        let p1 = run(1);
        for p in [2, 3, 4, 5, 7] {
            let pp = run(p);
            assert_eq!(p1.len(), pp.len());
            for (a, b) in p1.iter().zip(&pp) {
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "trajectory divergence at p = {p}: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// The per-body loop the lane-blocked kernel replaced: its bitwise
    /// oracle.
    fn accelerations_scalar(
        pos: &[[f64; 3]],
        mass: &[f64],
        lo: usize,
        hi: usize,
        softening: f64,
    ) -> Vec<[f64; 3]> {
        let eps2 = softening * softening;
        let mut acc = vec![[0.0f64; 3]; hi - lo];
        for i in lo..hi {
            let pi = pos[i];
            let mut a = [0.0f64; 3];
            for (j, pj) in pos.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dx = pj[0] - pi[0];
                let dy = pj[1] - pi[1];
                let dz = pj[2] - pi[2];
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let inv_r3 = 1.0 / (r2 * r2.sqrt());
                let f = mass[j] * inv_r3;
                a[0] += f * dx;
                a[1] += f * dy;
                a[2] += f * dz;
            }
            acc[i - lo] = a;
        }
        acc
    }

    /// Compare the lane kernel with the oracle on every slice of every
    /// partition over 1..=8 ranks (tails of 0–3 bodies). A target in
    /// `nan_targets` must read NaN on both sides (NaN payloads are not
    /// pinned, so their bits are not compared); every other target must
    /// match bitwise.
    fn assert_lanes_match_scalar(
        pos: &[[f64; 3]],
        mass: &[f64],
        softening: f64,
        nan_targets: &[usize],
    ) {
        let n = pos.len();
        for p in 1..=8 {
            for r in 0..p {
                let (lo, hi) = slice_of(n, p, r);
                let lanes = accelerations(pos, mass, lo, hi, softening);
                let scalar = accelerations_scalar(pos, mass, lo, hi, softening);
                assert_eq!(lanes.len(), scalar.len());
                for (i, (a, b)) in (lo..hi).zip(lanes.iter().zip(&scalar)) {
                    let at = format!("n {n}, eps {softening}, slice {lo}..{hi}, body {i}");
                    if nan_targets.contains(&i) {
                        assert!(
                            a.iter().chain(b).all(|v| v.is_nan()),
                            "{at}: {a:?} vs {b:?}"
                        );
                    } else {
                        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_loop_bitwise() {
        for n in [1, 5, 30, 96] {
            let cfg = NbodyConfig {
                n_bodies: n,
                ..Default::default()
            };
            let st = initial_state(&cfg, 1, 0);
            for softening in [1e-2, 0.0] {
                assert_lanes_match_scalar(&st.pos, &st.mass, softening, &[]);
            }
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_loop_with_coincident_bodies() {
        let cfg = NbodyConfig {
            n_bodies: 30,
            ..Default::default()
        };
        let mut st = initial_state(&cfg, 1, 0);
        // Bodies 3 and 4 straddle a lane block of the full slice; 29
        // sits on 0 from the far end.
        st.pos[4] = st.pos[3];
        st.pos[29] = st.pos[0];
        // Softened, a coincident pair pulls with exactly zero.
        assert_lanes_match_scalar(&st.pos, &st.mass, 1e-2, &[]);
        // Unsoftened, the pair's own term is `inf · 0 = NaN` on both
        // sides, while every body's diagonal is skipped bitwise.
        assert_lanes_match_scalar(&st.pos, &st.mass, 0.0, &[0, 3, 4, 29]);
    }

    #[test]
    fn fig4_shape_load_slows_swap_recovers() {
        let grid = microgrid_nbody();
        // Workers: 3 UTK (active) + 3 UIUC (inactive); monitor on UCSD.
        let mut workers = grid.hosts_of("UTK");
        workers.extend(grid.hosts_of("UIUC"));
        let monitor = grid.hosts_of("UCSD")[0];
        let mut ecfg = NbodyExperimentConfig {
            app: NbodyConfig {
                n_bodies: 96,
                iters: 300,
                // 32 bodies/rank × 95 partners × 2e5 flops ≈ 1.1 s/iter on
                // a 550 MHz host.
                flops_per_pair: 2e5,
                ..Default::default()
            },
            ..Default::default()
        };
        ecfg.t_max = 2000.0;
        let r = run_nbody_experiment(grid, &workers, monitor, ecfg.clone());
        assert!(!r.swaps.is_empty(), "a swap must happen");
        let swap_t = r.swaps[0].0;
        assert!(swap_t > ecfg.load_at, "swap follows the load");
        // Compare progress slopes: pre-load, loaded, post-swap.
        let slope = |t0: f64, t1: f64| {
            let pts: Vec<&(f64, f64)> = r
                .progress
                .iter()
                .filter(|&&(t, _)| t >= t0 && t <= t1)
                .collect();
            if pts.len() < 2 {
                return 0.0;
            }
            let (ta, ia) = *pts[0];
            let (tb, ib) = *pts[pts.len() - 1];
            (ib - ia) / (tb - ta)
        };
        let pre = slope(0.0, ecfg.load_at);
        let during = slope(ecfg.load_at + 5.0, swap_t);
        let after = slope(swap_t + 20.0, r.end_time);
        assert!(
            during < pre * 0.6,
            "load should slow progress: pre {pre}, during {during}"
        );
        assert!(
            after > during * 1.5,
            "swap should restore progress: during {during}, after {after}"
        );
    }

    #[test]
    fn never_policy_is_slower_than_greedy() {
        let grid = microgrid_nbody();
        let mut workers = grid.hosts_of("UTK");
        workers.extend(grid.hosts_of("UIUC"));
        let monitor = grid.hosts_of("UCSD")[0];
        let base = NbodyExperimentConfig {
            app: NbodyConfig {
                n_bodies: 64,
                iters: 400, // ~0.5 s/iter on a 550 MHz host: load at t=80
                // hits mid-run with plenty of work left.
                flops_per_pair: 2e5,
                ..Default::default()
            },
            t_max: 4000.0,
            ..Default::default()
        };
        let mut never = base.clone();
        never.policy = SwapPolicy::Never;
        let r_greedy = run_nbody_experiment(grid.clone(), &workers, monitor, base);
        let r_never = run_nbody_experiment(grid, &workers, monitor, never);
        assert!(!r_greedy.swaps.is_empty());
        assert!(r_never.swaps.is_empty());
        assert!(
            r_greedy.end_time < r_never.end_time * 0.85,
            "greedy {} vs never {}",
            r_greedy.end_time,
            r_never.end_time
        );
    }
}
