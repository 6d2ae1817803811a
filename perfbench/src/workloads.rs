//! The four workloads. Each builds its inputs from the seed, runs passes
//! of timed calls into the program's public entry points, and checks
//! every result it gets back.

use crate::harness::{Digest, Harness};
use grads_core::apps::{run_nbody_experiment, run_qr_experiment, NbodyConfig};
use grads_core::apps::{NbodyExperimentConfig, QrExperimentConfig, QrExperimentResult};
use grads_core::obs::{MetricsSnapshot, Obs};
use grads_core::reschedule::{OverheadPolicy, ReschedulerMode, SwapPolicy};
use grads_core::service::{
    generate_workload, run_service_experiment, service_grid, Job, ServiceConfig, WorkloadConfig,
};
use grads_core::sim::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paper_cycle",
    "kernel_alltoall",
    "service_mapheavy",
    "service_churn",
];

/// Program-reported counts of one pass, summed over its calls.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one pass produced.
pub struct PassOut {
    /// Digest of the pass's virtual-time results.
    pub digest: Digest,
    /// Every check that failed, in words.
    pub problems: Vec<String>,
    /// Work units defined by the input (see [`Workload::work_unit`]).
    pub work: f64,
    /// Program counts; filled only on traced passes.
    pub counts: Counts,
}

impl PassOut {
    fn new() -> PassOut {
        PassOut {
            digest: Digest::new(),
            problems: Vec::new(),
            work: 0.0,
            counts: Counts::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Every process completed; none failed, died or was left blocked.
    fn check_report(&mut self, label: &str, r: &RunReport) {
        self.check(
            r.failed.is_empty() && r.died.is_empty() && r.unfinished.is_empty(),
            || {
                format!(
                    "{label}: failed {:?}, died {:?}, unfinished {:?}",
                    r.failed, r.died, r.unfinished
                )
            },
        );
    }

    fn digest_report(&mut self, r: &RunReport) {
        self.digest.f64(r.end_time);
        self.digest.f64s(&r.link_bytes);
        self.digest.f64s(&r.host_flops);
        self.digest.u64(r.completed.len() as u64);
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Fold a run's kernel report and metrics snapshot into the counts.
    fn count_run(&mut self, r: &RunReport, snap: &MetricsSnapshot) {
        self.count("mpi.link_bytes", r.link_bytes.iter().sum());
        self.count("mpi.host_flops", r.host_flops.iter().sum());
        for name in [
            "sim.events_applied",
            "sim.events_stale_discarded",
            "sim.recomputes",
            "sim.recompute.solves",
            "sched.selections",
            "sched.candidate_sets",
            "contract.polls",
            "contract.violations",
            "contract.decisions_migrate",
            "svc.rounds",
            "svc.epoch.memo_hits",
            "svc.epoch.memo_misses",
        ] {
            if let Some(v) = snap.counter(name) {
                self.count(name, v as f64);
            }
        }
        if let Some(h) = snap.histogram("svc.round.decisions") {
            self.count("svc.decisions", h.sum);
        }
    }
}

/// Inputs the per-layer measurements take from a workload: its grid
/// and a job mix of its shape.
pub struct LayerInput {
    pub grid: Grid,
    pub jobs: Vec<Job>,
}

pub trait Workload {
    /// One set-up of the workload's inputs; returns its host seconds.
    fn setup(&mut self) -> f64;
    /// Set-ups per run before the warm-up; `setup_s` is taken from them.
    fn setup_reps(&self) -> usize {
        31
    }
    /// One pass of timed calls.
    fn pass(&mut self, h: &mut Harness) -> PassOut;
    /// What `work_per_s` counts.
    fn work_unit(&self) -> &'static str;
    fn layer_input(&self) -> LayerInput;
}

pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_cycle" => Box::new(PaperCycle::new(seed)),
        "kernel_alltoall" => Box::new(KernelAllToAll::new(seed)),
        "service_mapheavy" => Box::new(Service::new(seed, ServiceShape::MapHeavy)),
        "service_churn" => Box::new(Service::new(seed, ServiceShape::Churn)),
        _ => return None,
    })
}

/// SplitMix64 step: the benchmark's only source of seeded variation.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn obs_for(h: &Harness) -> Obs {
    if h.traced() {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

// ---------------------------------------------------------------------
// paper_cycle: Figure 3 and Figure 4, one experiment at a time.

/// The paper's N sweep (EXPERIMENTS.md, Figure 3).
const QR_SIZES: [usize; 7] = [6000, 8000, 10000, 11000, 12000, 14000, 16000];
/// The size at which the 900 s worst-case overhead refuses a migration
/// that pays: the emulated testbed's counterpart of the paper's N = 8000.
const WRONG_DECISION_N: usize = 11000;
const QR_MODES: [(ReschedulerMode, OverheadPolicy); 4] = [
    (ReschedulerMode::ForceStay, OverheadPolicy::Modeled),
    (ReschedulerMode::ForceMigrate, OverheadPolicy::Modeled),
    (ReschedulerMode::Default, OverheadPolicy::Modeled),
    (ReschedulerMode::Default, OverheadPolicy::WorstCase(900.0)),
];

pub struct PaperCycle {
    seed: u64,
    inputs: Option<PaperInputs>,
}

/// The grids and experiment configurations of one pass.
struct PaperInputs {
    qr_grid: Grid,
    nb_grid: Grid,
    qr: Vec<QrExperimentConfig>,
    nb: Vec<NbodyExperimentConfig>,
}

impl PaperInputs {
    fn build(seed: u64) -> PaperInputs {
        let mut qr = Vec::new();
        for &n in &QR_SIZES {
            for &(mode, overhead) in &QR_MODES {
                let mut cfg = QrExperimentConfig::paper(n);
                cfg.qr.n_real = 64;
                cfg.qr.seed = seed;
                cfg.mode = mode;
                cfg.overhead = overhead;
                qr.push(cfg);
            }
        }
        let nb = [SwapPolicy::PackCluster { factor: 1.5 }, SwapPolicy::Never]
            .into_iter()
            .map(|policy| NbodyExperimentConfig {
                app: NbodyConfig {
                    n_bodies: 96,
                    iters: 300,
                    flops_per_pair: 2e5,
                    seed,
                    ..Default::default()
                },
                t_max: 4000.0,
                policy,
                ..Default::default()
            })
            .collect();
        PaperInputs {
            qr_grid: macrogrid_qr(),
            nb_grid: microgrid_nbody(),
            qr,
            nb,
        }
    }
}

impl PaperCycle {
    fn new(seed: u64) -> PaperCycle {
        PaperCycle { seed, inputs: None }
    }

    /// Figure 3's shape: checkpoint reading dominates migration cost,
    /// the benefit of migrating grows with N, and the worst-case policy
    /// makes exactly one wrong decision, at [`WRONG_DECISION_N`].
    fn check_fig3(out: &mut PassOut, rs: &[QrExperimentResult]) {
        let mut wrong = Vec::new();
        let mut benefit = Vec::new();
        for (i, &n) in QR_SIZES.iter().enumerate() {
            let [stay, go, dflt, worst] =
                [&rs[4 * i], &rs[4 * i + 1], &rs[4 * i + 2], &rs[4 * i + 3]];
            out.check(!stay.migrated, || format!("N={n}: ForceStay migrated"));
            let pays = go.total_time < 0.98 * stay.total_time;
            benefit.push(stay.total_time - go.total_time);
            if go.migrated {
                let b = &go.breakdown;
                out.check(b.checkpoint_read > 10.0 * b.checkpoint_write, || {
                    format!(
                        "N={n}: checkpoint read {} does not dominate write {}",
                        b.checkpoint_read, b.checkpoint_write
                    )
                });
            }
            if pays {
                out.check(dflt.migrated, || {
                    format!("N={n}: modeled overhead stays where migrating pays")
                });
            }
            if pays && !worst.migrated {
                wrong.push(n);
                let d = worst.decision.as_ref();
                out.check(
                    d.is_some_and(|d| d.overhead_used == 900.0 && d.overhead_modeled < 900.0),
                    || format!("N={n}: worst-case refusal without the 900 s assumption: {d:?}"),
                );
            }
        }
        out.check(wrong == [WRONG_DECISION_N], || {
            format!("worst-case wrong decisions at N = {wrong:?}, expected [{WRONG_DECISION_N}]")
        });
        let last = benefit.len() - 1;
        out.check(
            benefit[last] > benefit[last - 2] && benefit[last - 2] > 0.0,
            || format!("migration benefit does not grow with N: {benefit:?}"),
        );
    }
}

impl Workload for PaperCycle {
    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let inputs = PaperInputs::build(self.seed);
        let dt = t0.elapsed().as_secs_f64();
        self.inputs = Some(inputs);
        dt
    }

    fn pass(&mut self, h: &mut Harness) -> PassOut {
        let mut out = PassOut::new();
        let inp = self.inputs.as_ref().expect("set up");
        let mut rs = Vec::with_capacity(inp.qr.len());
        for base in &inp.qr {
            let mut cfg = base.clone();
            cfg.obs = obs_for(h);
            let obs = cfg.obs.clone();
            let grid = inp.qr_grid.clone();
            let r = h.time("apps.run_qr_experiment", || run_qr_experiment(grid, cfg));
            let label = format!("qr N={} {:?}", base.qr.n_nominal, base.mode);
            out.check_report(&label, &r.report);
            out.check(r.total_time > 0.0 && r.incarnations >= 1, || {
                format!("{label}: empty run")
            });
            out.digest_report(&r.report);
            out.digest.f64(r.total_time);
            let b = &r.breakdown;
            for x in [
                b.resource_selection,
                b.perf_modeling,
                b.grid_overhead,
                b.app_start,
                b.checkpoint_write,
                b.checkpoint_read,
                b.app_duration,
            ] {
                out.digest.f64(x);
            }
            out.digest.u64(r.migrated as u64);
            out.digest.u64(r.incarnations as u64);
            out.work += r.total_time;
            if h.traced() {
                out.count_run(&r.report, &obs.snapshot());
                out.count("qr.incarnations", r.incarnations as f64);
            }
            rs.push(r);
        }
        Self::check_fig3(&mut out, &rs);

        let nb_grid = &inp.nb_grid;
        let mut workers = nb_grid.hosts_of("UTK");
        workers.extend(nb_grid.hosts_of("UIUC"));
        let monitor = nb_grid.hosts_of("UCSD")[0];
        let mut ends = Vec::new();
        for cfg in &inp.nb {
            let (grid, cfg) = (nb_grid.clone(), cfg.clone());
            let swapping = !matches!(cfg.policy, SwapPolicy::Never);
            let r = h.time("apps.run_nbody_experiment", || {
                run_nbody_experiment(grid, &workers, monitor, cfg)
            });
            out.check(swapping != r.swaps.is_empty(), || {
                format!("fig4 swapping={swapping}: swaps {:?}", r.swaps)
            });
            out.digest.f64(r.end_time);
            for &(t, i) in &r.progress {
                out.digest.f64(t);
                out.digest.f64(i);
            }
            for &(t, l) in &r.swaps {
                out.digest.f64(t);
                out.digest.f64(l);
            }
            out.work += r.end_time;
            if h.traced() {
                out.count("sim.events_applied", r.events_processed as f64);
            }
            ends.push(r.end_time);
        }
        out.check(ends[0] < ends[1], || {
            format!(
                "fig4: swapping ({}) does not beat staying ({})",
                ends[0], ends[1]
            )
        });
        out
    }

    fn work_unit(&self) -> &'static str {
        "simulated virtual seconds"
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput {
            grid: self.inputs.as_ref().expect("set up").qr_grid.clone(),
            jobs: small_jobs(self.seed),
        }
    }
}

/// A job mix for the decision-layer measurements of workloads that run
/// no service.
fn small_jobs(seed: u64) -> Vec<Job> {
    generate_workload(&WorkloadConfig {
        seed,
        n_jobs: 64,
        ..WorkloadConfig::default()
    })
}

// ---------------------------------------------------------------------
// kernel_alltoall: the DES kernel under synchronized all-to-all rounds.

const CLUSTERS: usize = 4;
const HOSTS_PER_CLUSTER: usize = 16;
pub const NPROC: usize = CLUSTERS * HOSTS_PER_CLUSTER;

/// 4 clusters × 16 dual-core hosts, full WAN mesh with heterogeneous
/// bandwidth and latency per pair (the shape of `kernel_scale`).
pub fn alltoall_grid() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..CLUSTERS {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec {
            speed: 1.0e9,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(id, HOSTS_PER_CLUSTER, &spec));
        cl.push(id);
    }
    let mut k = 0u32;
    for i in 0..CLUSTERS {
        for j in (i + 1)..CLUSTERS {
            b.connect(
                cl[i],
                cl[j],
                5.0e7 + 1.0e7 * k as f64,
                5e-3 + 3e-3 * k as f64,
            );
            k += 1;
        }
    }
    (b.build().expect("valid all-to-all grid"), hosts)
}

pub struct KernelAllToAll {
    /// Uniform payload of every message, bytes.
    payload: f64,
    /// Compute phase that opens the round, flops.
    flops: f64,
    grid: Option<Grid>,
}

impl KernelAllToAll {
    fn new(seed: u64) -> KernelAllToAll {
        let mut s = seed;
        KernelAllToAll {
            payload: 1.0e5 * (0.9 + 0.2 * unit(&mut s)),
            flops: 1.0e6 * (0.9 + 0.2 * unit(&mut s)),
            grid: None,
        }
    }

    /// Build the grid and an engine with one all-to-all round spawned.
    fn build_engine(&mut self) -> Engine {
        let (grid, hosts) = alltoall_grid();
        let mut eng = Engine::new(grid.clone());
        for i in 0..NPROC {
            let peers = hosts.clone();
            let (payload, flops) = (self.payload, self.flops);
            eng.spawn(&format!("p{i}"), hosts[i], move |ctx| {
                ctx.compute(flops);
                for (j, &peer) in peers.iter().enumerate() {
                    if j != i {
                        ctx.isend(mail_key(&[i as u64, j as u64]), peer, payload, Box::new(()));
                    }
                }
                for j in 0..NPROC {
                    if j != i {
                        let _ = ctx.recv(mail_key(&[j as u64, i as u64]));
                        ctx.compute(0.25 * flops);
                    }
                }
            });
        }
        self.grid = Some(grid);
        eng
    }
}

impl Workload for KernelAllToAll {
    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let eng = self.build_engine();
        let dt = t0.elapsed().as_secs_f64();
        // Untimed: every spawned process thread waits for its start
        // grant, and running the engine lets them end.
        let _ = eng.run();
        dt
    }

    /// Each set-up's engine is run to let its 64 threads end, which
    /// costs about a pass.
    fn setup_reps(&self) -> usize {
        7
    }

    fn pass(&mut self, h: &mut Harness) -> PassOut {
        let mut out = PassOut::new();
        let mut eng = self.build_engine();
        let obs = obs_for(h);
        eng.set_obs(obs.clone());
        let r = h.time("sim.Engine::run", || eng.run());
        out.check_report("alltoall", &r);
        out.check(r.completed.len() == NPROC, || {
            format!(
                "alltoall: {} of {NPROC} processes completed",
                r.completed.len()
            )
        });
        // Every byte crosses at least its source's local link.
        let sent = (NPROC * (NPROC - 1)) as f64 * self.payload;
        let carried: f64 = r.link_bytes.iter().sum();
        out.check(carried >= sent * (1.0 - 1e-9), || {
            format!("alltoall: links carried {carried} B of {sent} B sent")
        });
        out.digest_report(&r);
        out.work += (NPROC * (NPROC - 1)) as f64;
        if h.traced() {
            out.count_run(&r, &obs.snapshot());
        }
        out
    }

    fn work_unit(&self) -> &'static str {
        "messages delivered"
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput {
            grid: self.grid.clone().expect("set up"),
            jobs: small_jobs(self.payload.to_bits()),
        }
    }
}

// ---------------------------------------------------------------------
// service_mapheavy / service_churn: the multi-tenant grid service.

#[derive(Clone, Copy, PartialEq)]
pub enum ServiceShape {
    /// Standing queue: the reserve price sits above most budget rates
    /// and admissions per round are unbounded, so every round re-decides
    /// the whole queue against an almost unchanged grid.
    MapHeavy,
    /// Saturated arrivals under the default admission cap: every round
    /// retires and admits many jobs.
    Churn,
}

/// Service runs per pass, each on its own stream drawn from the seed.
/// A stream's cost follows its drain time, which varies by about a sixth
/// from stream to stream; sixteen of them hold a pass's cost steady
/// across seeds.
const STREAMS: usize = 16;

pub struct Service {
    cfgs: Vec<ServiceConfig>,
    grid: Option<Grid>,
    jobs: Vec<Vec<Job>>,
}

impl Service {
    fn new(seed: u64, shape: ServiceShape) -> Service {
        let mut s = seed;
        let cfgs = (0..STREAMS)
            .map(|_| {
                let stream = splitmix(&mut s);
                match shape {
                    ServiceShape::MapHeavy => ServiceConfig {
                        workload: WorkloadConfig {
                            seed: stream,
                            n_jobs: 100,
                            mean_interarrival_s: 0.1,
                            ..WorkloadConfig::default()
                        },
                        hosts: 256,
                        clusters: 8,
                        cores_per_host: 2,
                        round_s: 30.0,
                        reserve_price: 6.0,
                        max_admissions_per_round: usize::MAX,
                        ..ServiceConfig::default()
                    },
                    ServiceShape::Churn => ServiceConfig {
                        workload: WorkloadConfig {
                            seed: stream,
                            n_jobs: 200,
                            mean_interarrival_s: 0.1,
                            ..WorkloadConfig::default()
                        },
                        hosts: 128,
                        clusters: 4,
                        cores_per_host: 2,
                        ..ServiceConfig::default()
                    },
                }
            })
            .collect();
        Service {
            cfgs,
            grid: None,
            jobs: Vec::new(),
        }
    }
}

impl Workload for Service {
    fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        let c = &self.cfgs[0];
        let grid = service_grid(c.hosts, c.clusters, c.cores_per_host);
        let jobs: Vec<Vec<Job>> = self
            .cfgs
            .iter()
            .map(|c| generate_workload(&c.workload))
            .collect();
        let dt = t0.elapsed().as_secs_f64();
        self.grid = Some(grid);
        self.jobs = jobs;
        dt
    }

    fn pass(&mut self, h: &mut Harness) -> PassOut {
        let mut out = PassOut::new();
        for (k, base) in self.cfgs.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.obs = obs_for(h);
            let obs = cfg.obs.clone();
            let r = h.time("service.run_service_experiment", || {
                run_service_experiment(cfg)
            });
            let t = &r.totals;
            let label = format!("service stream {k}");
            out.check_report(&label, &r.report);
            out.check(t.submitted == self.jobs[k].len() as u64, || {
                format!(
                    "{label}: submitted {} of {} jobs",
                    t.submitted,
                    self.jobs[k].len()
                )
            });
            out.check(t.admitted + t.rejected == t.submitted, || {
                format!(
                    "{label}: admitted {} + rejected {} != submitted {}",
                    t.admitted, t.rejected, t.submitted
                )
            });
            out.check(t.completed == t.admitted, || {
                format!(
                    "{label}: completed {} != admitted {}",
                    t.completed, t.admitted
                )
            });
            out.check(r.admitted_ids.len() as u64 == t.admitted, || {
                format!(
                    "{label}: {} admitted ids for {} admissions",
                    r.admitted_ids.len(),
                    t.admitted
                )
            });
            out.digest_report(&r.report);
            out.digest.f64(r.end_time);
            for &id in &r.admitted_ids {
                out.digest.u64(id as u64);
            }
            for a in r.accounts.iter().chain(std::iter::once(t)) {
                for c in [
                    a.submitted,
                    a.admitted,
                    a.rejected,
                    a.completed,
                    a.slo_misses,
                ] {
                    out.digest.u64(c);
                }
                out.digest.f64(a.host_seconds);
                out.digest.f64(a.spend);
            }
            out.digest.u64(r.rounds);
            out.digest.f64(r.price_mean);
            out.digest.f64(r.mean_wait_s);
            out.work += t.submitted as f64;
            if h.traced() {
                out.count_run(&r.report, &obs.snapshot());
            }
        }
        out
    }

    fn work_unit(&self) -> &'static str {
        "jobs submitted"
    }

    fn layer_input(&self) -> LayerInput {
        LayerInput {
            grid: self.grid.clone().expect("set up"),
            jobs: self.jobs[0].clone(),
        }
    }
}
