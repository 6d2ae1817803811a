//! Per-layer cost measurements: each calls one layer's public entry point
//! on an input of the workload's shape and times every call. Combined
//! with the call counts the program reports, they give the `computed`
//! layer times of the traced run.

use crate::harness::Tracer;
use crate::workloads::{alltoall_grid, LayerInput, NPROC};
use grads_core::nws::{ForecastSnapshot, NwsService};
use grads_core::perf::TreeBcastPrefix;
use grads_core::sched::{
    select_mpi_resources_fast, CommodityMarket, Consumer, Producer, SnapshotIndex,
};
use grads_core::service::{MappingPlan, WorkloadConfig};
use grads_core::sim::prelude::*;
use grads_core::sim::sharing::FairScratch;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-call times of one layer entry point.
pub struct Sample {
    pub name: &'static str,
    pub unit: &'static str,
    pub values: Vec<f64>,
}

fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = black_box(f());
    (r, t0.elapsed().as_secs_f64() * 1e6)
}

/// Deterministic availability in `[0.35, 0.95)` for host `i` at step `j`.
fn availability(i: usize, j: u64) -> f64 {
    let h = (i.wrapping_mul(2_654_435_761) ^ (j as usize).wrapping_mul(40_503)) % 1000;
    0.35 + 0.6 * h as f64 / 1000.0
}

fn seeded_nws(grid: &Grid, delta: bool) -> NwsService {
    let mut nws = NwsService::new();
    if delta {
        nws.enable_delta_tracking();
    }
    for i in 0..grid.hosts().len() {
        for j in 0..6 {
            nws.observe_cpu(HostId(i as u32), availability(i, j));
        }
    }
    nws
}

/// Round trip of one `ctx.now()` request through the process/kernel
/// handoff, ns, over batches of round trips.
fn handoff_ns() -> Vec<f64> {
    const BATCHES: usize = 40;
    const PER_BATCH: usize = 500;
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let host = b.add_hosts(c, 1, &HostSpec::with_speed(1e9))[0];
    let mut eng = Engine::new(b.build().expect("valid one-host grid"));
    let samples = Arc::new(Mutex::new(Vec::with_capacity(BATCHES)));
    let out = samples.clone();
    eng.spawn("clock", host, move |ctx| {
        let mut v = Vec::with_capacity(BATCHES);
        let mut acc = 0.0;
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..PER_BATCH {
                acc += ctx.now();
            }
            v.push(t0.elapsed().as_secs_f64() * 1e9 / PER_BATCH as f64);
        }
        black_box(acc);
        *out.lock().expect("sample sink") = v;
    });
    let r = eng.run();
    assert_eq!(r.completed.len(), 1, "handoff ping-pong completed");
    let v = samples.lock().expect("sample sink").clone();
    v
}

/// One max-min solve over the all-to-all flow set: every ordered host
/// pair of the 4×16 grid, grouped into route classes.
fn solve_us() -> Vec<f64> {
    let (grid, hosts) = alltoall_grid();
    let mut classes: Vec<(Vec<u32>, u32)> = Vec::new();
    let mut route = Vec::new();
    for i in 0..NPROC {
        for j in 0..NPROC {
            if i == j {
                continue;
            }
            route.clear();
            grid.route_links_into(hosts[i], hosts[j], &mut route);
            match classes.iter_mut().find(|(r, _)| *r == route) {
                Some((_, m)) => *m += 1,
                None => classes.push((route.clone(), 1)),
            }
        }
    }
    let mut used: Vec<u32> = classes
        .iter()
        .flat_map(|(r, _)| r.iter().copied())
        .collect();
    used.sort_unstable();
    used.dedup();
    let local = |l: u32| used.binary_search(&l).expect("used link") as u32;
    let caps: Vec<f64> = used
        .iter()
        .map(|&l| grid.link(LinkId(l)).bandwidth)
        .collect();
    let mut offsets = Vec::new();
    let mut flat = Vec::new();
    let mut mult = Vec::new();
    for (r, m) in &classes {
        offsets.push((flat.len() as u32, r.len() as u32));
        flat.extend(r.iter().map(|&l| local(l)));
        mult.push(*m);
    }
    let mut scratch = FairScratch::default();
    let mut rates = Vec::new();
    (0..200)
        .map(|_| time_us(|| scratch.solve_classes(&offsets, &flat, &caps, &mult, &mut rates)).1)
        .collect()
}

/// Measure every layer on the workload's input, inside spans.
pub fn measure(input: &LayerInput, tracer: &mut Tracer) -> Vec<Sample> {
    let grid = &input.grid;
    let n_hosts = grid.hosts().len();
    let mut out = Vec::new();
    let mut push = |name, unit, values| out.push(Sample { name, unit, values });

    push(
        "sim.handoff_ns",
        "ns",
        tracer.span("layer.sim.handoff", handoff_ns),
    );
    push(
        "sim.solve_us",
        "us",
        tracer.span("layer.sim.solve_classes", solve_us),
    );

    // One CPU observation into a seeded service: the per-host, per-round
    // write a service round makes before it captures.
    let mut onws = seeded_nws(grid, false);
    let observe = tracer.span("layer.nws.observe", || {
        (0..30u64)
            .map(|round| {
                let t0 = Instant::now();
                for i in 0..n_hosts {
                    onws.observe_cpu(HostId(i as u32), availability(i, 300 + round));
                }
                t0.elapsed().as_secs_f64() * 1e6 / n_hosts as f64
            })
            .collect()
    });
    push("nws.observe_us", "us", observe);

    // Forecast capture, full and incremental. Each incremental sample
    // follows one observation per host, as a service round makes.
    let nws = seeded_nws(grid, false);
    let capture = tracer.span("layer.nws.capture", || {
        (0..30)
            .map(|_| time_us(|| ForecastSnapshot::capture(grid, &nws)).1)
            .collect()
    });
    push("nws.capture_us", "us", capture);
    let mut dnws = seeded_nws(grid, true);
    let mut prev = ForecastSnapshot::capture_sync(grid, &mut dnws);
    let delta = tracer.span("layer.nws.capture_delta", || {
        (0..30u64)
            .map(|round| {
                for i in 0..n_hosts {
                    dnws.observe_cpu(HostId(i as u32), availability(i, 100 + round));
                }
                let (snap, us) =
                    time_us(|| ForecastSnapshot::capture_delta(grid, &mut dnws, &prev));
                prev = snap;
                us
            })
            .collect()
    });
    push("nws.capture_delta_us", "us", delta);

    // Resource selection for each job of the mix, on every host.
    let snap = ForecastSnapshot::capture(grid, &nws);
    let eligible: Vec<HostId> = (0..n_hosts as u32).map(HostId).collect();
    let select = tracer.span("layer.sched.select", || {
        input
            .jobs
            .iter()
            .map(|job| {
                let procs = job.procs.min(n_hosts);
                time_us(|| {
                    select_mpi_resources_fast(
                        grid,
                        &snap,
                        &eligible,
                        procs,
                        procs,
                        || TreeBcastPrefix::new(grid, &snap, job.flops, job.bcast_bytes),
                        1,
                    )
                })
                .1
            })
            .collect()
    });
    push("sched.select_us", "us", select);

    let build = tracer.span("layer.sched.index_build", || {
        (0..20)
            .map(|_| time_us(|| SnapshotIndex::build(grid, &snap)).1)
            .collect()
    });
    push("sched.index_build_us", "us", build);
    // Repair after a round in which one host in sixteen changed.
    let mut rnws = seeded_nws(grid, true);
    let mut rprev = ForecastSnapshot::capture_sync(grid, &mut rnws);
    let mut index = SnapshotIndex::build(grid, &rprev);
    let repair = tracer.span("layer.sched.index_repair", || {
        (0..20u64)
            .map(|round| {
                for i in (round as usize % 16..n_hosts).step_by(16) {
                    rnws.observe_cpu(HostId(i as u32), availability(i, 200 + round));
                }
                let dirty = rnws.dirty_hosts();
                let next = ForecastSnapshot::capture_delta(grid, &mut rnws, &rprev);
                let us = time_us(|| index.repair(grid, &next, &dirty)).1;
                rprev = next;
                us
            })
            .collect()
    });
    push("sched.index_repair_us", "us", repair);

    // Market clearing over the job mix as the queue.
    let reference_speed = WorkloadConfig::default().reference_speed;
    let consumers: Vec<Consumer> = input
        .jobs
        .iter()
        .map(|j| Consumer {
            budget: j.budget / j.nominal_s(reference_speed).max(1e-9),
            max_demand: j.procs as f64,
        })
        .collect();
    let slots: f64 = grid.hosts().iter().map(|h| h.cores as f64).sum();
    let clear = tracer.span("layer.sched.market_clear", || {
        (0..50)
            .map(|_| {
                let mut market = CommodityMarket::default();
                let producers = [Producer {
                    capacity: 0.5 * slots,
                }];
                time_us(|| market.clear(&producers, &consumers, 20, 0.05)).1
            })
            .collect()
    });
    push("sched.market_clear_us", "us", clear);

    // Mapping-plan lookups with the memo invalidated: the miss path.
    let free: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
    let mut plan = MappingPlan::new(grid, &free);
    let index = SnapshotIndex::build(grid, &snap);
    let map = tracer.span("layer.svc.plan_map", || {
        input
            .jobs
            .iter()
            .map(|job| {
                plan.on_weather(&[], true);
                time_us(|| plan.map(job, &index, grid, &snap)).1
            })
            .collect()
    });
    push("svc.plan.map_us", "us", map);
    out
}
