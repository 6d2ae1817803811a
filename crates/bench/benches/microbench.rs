//! Criterion microbenchmarks of the substrate (B-MICRO in DESIGN.md):
//! emulator event throughput, scheduling heuristics, reuse-distance
//! analysis, forecasting, a round of tracked NWS CPU observations,
//! block-cyclic redistribution, the grid-economy market and auction, and
//! a complete small QR factorization through the simulated MPI stack.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use grads_core::mpi::launch;
use grads_core::nws::Ensemble;
use grads_core::perf::mrd::traces;
use grads_core::perf::{reuse_distances, ResourceInfo};
use grads_core::prelude::*;
use grads_core::sched::{map_tasks, Heuristic};
use grads_core::sim::topology::GridBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_engine_throughput(c: &mut Criterion) {
    c.bench_function("sim_engine_1000_compute_events", |b| {
        b.iter_batched(
            || {
                let mut gb = GridBuilder::new();
                let cl = gb.cluster("X");
                let hs = gb.add_hosts(cl, 4, &HostSpec::with_speed(1e9));
                let mut eng = Engine::new(gb.build().unwrap());
                for (i, &h) in hs.iter().enumerate() {
                    eng.spawn(&format!("w{i}"), h, |ctx| {
                        for _ in 0..250 {
                            ctx.compute(1e6);
                        }
                    });
                }
                eng
            },
            |eng| eng.run(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_messaging(c: &mut Criterion) {
    c.bench_function("sim_mpi_pingpong_200", |b| {
        b.iter_batched(
            || {
                let mut gb = GridBuilder::new();
                let cl = gb.cluster("X");
                gb.local_link(cl, 1e8, 1e-4);
                let hs = gb.add_hosts(cl, 2, &HostSpec::with_speed(1e9));
                let mut eng = Engine::new(gb.build().unwrap());
                launch(&mut eng, "pp", &hs, |ctx, comm| {
                    for i in 0..200u64 {
                        if comm.rank() == 0 {
                            comm.send_t(ctx, 1, i, 1024.0, i);
                            let _: u64 = comm.recv_t(ctx, 1, i);
                        } else {
                            let v: u64 = comm.recv_t(ctx, 0, i);
                            comm.send_t(ctx, 0, i, 1024.0, v);
                        }
                    }
                });
                eng
            },
            |eng| eng.run(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_heuristics(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let nt = 64;
    let nm = 24;
    let cost: Vec<Vec<f64>> = (0..nt)
        .map(|_| (0..nm).map(|_| rng.gen_range(1.0..100.0)).collect())
        .collect();
    let arrival = vec![vec![0.0; nm]; nt];
    for h in Heuristic::all() {
        c.bench_function(&format!("map_tasks_{}_64x24", h.name()), |b| {
            b.iter(|| {
                let mut ready = vec![0.0; nm];
                map_tasks(h, &cost, &arrival, &mut ready)
            })
        });
    }
}

fn bench_mrd(c: &mut Criterion) {
    let trace = traces::dense_factor(24);
    c.bench_function("reuse_distances_dense24", |b| {
        b.iter(|| reuse_distances(&trace))
    });
}

fn bench_forecasting(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let vals: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..1.0)).collect();
    c.bench_function("nws_ensemble_500_updates", |b| {
        b.iter(|| {
            let mut e = Ensemble::standard();
            for &v in &vals {
                e.update(v);
            }
            e.forecast()
        })
    });
}

/// Hosts per round of the NWS observation rows.
const HOSTS: usize = 256;

/// A service's CPU observations: a table of 1024 rounds of [`HOSTS`]
/// availabilities, and a tracked service whose series are warmed past
/// the longest (51-sample) window by the table's first 64 rounds.
fn warmed_cpu_table() -> (Vec<f64>, NwsService) {
    const ROUNDS: usize = 1024;
    let mut rng = StdRng::seed_from_u64(11);
    let table: Vec<f64> = (0..HOSTS * ROUNDS)
        .map(|_| rng.gen_range(0.35..0.95))
        .collect();
    let mut nws = NwsService::new();
    nws.enable_delta_tracking();
    for round in table.chunks(HOSTS).take(64) {
        nws.observe_cpu_all(round);
    }
    (table, nws)
}

/// One service round of tracked CPU observations: 256 warmed hosts,
/// delta tracking on as the grid service runs it. One iteration observes
/// every host once, so the cost per observation is the reported time
/// divided by 256. `nws_observe_cpu_tracked_256` observes host by host
/// (the sensors' path); `nws_observe_cpu_all_256` observes the same
/// rounds through the batch call (the service's path).
fn bench_observe_cpu_tracked(c: &mut Criterion) {
    let (table, mut nws) = warmed_cpu_table();
    let mut rounds = table.chunks(HOSTS).cycle();
    c.bench_function("nws_observe_cpu_tracked_256", |b| {
        b.iter(|| {
            let round = rounds.next().expect("cycle is endless");
            for (h, &v) in round.iter().enumerate() {
                nws.observe_cpu(HostId(h as u32), v);
            }
        })
    });
    let (table, mut nws) = warmed_cpu_table();
    let mut rounds = table.chunks(HOSTS).cycle();
    c.bench_function("nws_observe_cpu_all_256", |b| {
        b.iter(|| nws.observe_cpu_all(rounds.next().expect("cycle is endless")))
    });
}

fn bench_redistribution(c: &mut Criterion) {
    let from = BlockCyclic::new(100_000, 64, 8);
    let to = BlockCyclic::new(100_000, 32, 12);
    c.bench_function("blockcyclic_redistribute_100k", |b| {
        b.iter(|| from.redistribute_plan(&to))
    });
}

fn bench_qr_end_to_end(c: &mut Criterion) {
    c.bench_function("qr_n48_p4_full_stack", |b| {
        b.iter_batched(
            || {
                let mut gb = GridBuilder::new();
                let cl = gb.cluster("X");
                gb.local_link(cl, 1e8, 1e-4);
                let hs = gb.add_hosts(cl, 4, &HostSpec::with_speed(1e9));
                let mut eng = Engine::new(gb.build().unwrap());
                let cfg = grads_core::apps::QrConfig::full(48, 4);
                launch(&mut eng, "qr", &hs, move |ctx, comm| {
                    let mut local =
                        grads_core::apps::QrLocal::generate(&cfg, comm.rank(), comm.size());
                    grads_core::apps::run_qr_rank(ctx, comm, &cfg, &mut local, None, 0);
                });
                eng
            },
            |eng| eng.run(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_workflow_schedule(c: &mut Criterion) {
    let grid = grads_core::apps::eman_grid();
    let nws = NwsService::new();
    let resources: Vec<ResourceInfo> = (0..grid.hosts().len() as u32)
        .map(|i| ResourceInfo::from_grid(&grid, &nws, HostId(i)))
        .collect();
    let (wf, _) = grads_core::apps::eman_workflow(&grads_core::apps::EmanConfig::default());
    c.bench_function("eman_schedule_three_heuristics", |b| {
        b.iter(|| WorkflowScheduler::default().schedule(&wf, &grid, &nws, &resources))
    });
}

fn bench_lu_end_to_end(c: &mut Criterion) {
    c.bench_function("lu_n48_p4_full_stack", |b| {
        b.iter_batched(
            || {
                let mut gb = GridBuilder::new();
                let cl = gb.cluster("X");
                gb.local_link(cl, 1e8, 1e-4);
                let hs = gb.add_hosts(cl, 4, &HostSpec::with_speed(1e9));
                let mut eng = Engine::new(gb.build().unwrap());
                let cfg = grads_core::apps::LuConfig::full(48, 4);
                launch(&mut eng, "lu", &hs, move |ctx, comm| {
                    let mut local =
                        grads_core::apps::LuLocal::generate(&cfg, comm.rank(), comm.size());
                    grads_core::apps::run_lu_rank(ctx, comm, &cfg, &mut local, None, 0);
                });
                eng
            },
            |eng| eng.run(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_psa_schedule(c: &mut Criterion) {
    use grads_core::apps::psa::{generate, schedule_psa, PsaConfig, PsaStrategy};
    let mut gb = GridBuilder::new();
    let st = gb.cluster("S");
    let storage = gb.add_host(st, &HostSpec::with_speed(1e9));
    let f = gb.cluster("F");
    let mut hosts = gb.add_hosts(f, 8, &HostSpec::with_speed(2e9));
    gb.connect(st, f, 1e7, 0.02);
    let grid = gb.build().unwrap();
    hosts.truncate(8);
    let nws = NwsService::new();
    let wl = generate(&PsaConfig {
        n_tasks: 100,
        ..Default::default()
    });
    c.bench_function("psa_xsufferage_100_tasks", |b| {
        b.iter(|| schedule_psa(&wl, &grid, &nws, &hosts, storage, PsaStrategy::XSufferage))
    });
}

fn bench_dml_parse(c: &mut Criterion) {
    let src = r#"
cluster UTK {
    hosts 4
    speed 933e6
    cores 2
    link 12.5e6 100e-6
}
cluster UIUC {
    hosts 8
    speed 450e6
    link 160e6 20e-6
}
connect UTK UIUC 4e6 0.030
"#;
    c.bench_function("dml_parse_qr_testbed", |b| {
        b.iter(|| grads_core::sim::parse_dml(src).unwrap())
    });
}

fn bench_economy(c: &mut Criterion) {
    use grads_core::sched::{auction_allocate, CommodityMarket, Consumer, Producer};
    let producers: Vec<Producer> = (0..16)
        .map(|i| Producer {
            capacity: 10.0 + i as f64,
        })
        .collect();
    let consumers: Vec<Consumer> = (0..64)
        .map(|i| Consumer {
            budget: 10.0 + (i % 13) as f64 * 5.0,
            max_demand: 8.0,
        })
        .collect();
    c.bench_function("economy_market_clear_64_consumers", |b| {
        b.iter(|| {
            let mut m = CommodityMarket::default();
            m.clear(&producers, &consumers, 500, 0.01)
        })
    });
    // The service's scarcity gate: its 128-job queue head bids for the
    // last free slots, and repeated budgets exercise the index tie-break.
    let slots = [Producer { capacity: 64.0 }];
    let bidders: Vec<Consumer> = (0..128)
        .map(|i| Consumer {
            budget: 10.0 + (i % 13) as f64 * 5.0,
            max_demand: (1 + i % 4) as f64,
        })
        .collect();
    c.bench_function("economy_auction_128_bidders_64_slots", |b| {
        b.iter(|| auction_allocate(&slots, &bidders))
    });
}

fn bench_commfit(c: &mut Criterion) {
    use grads_core::perf::fit_piecewise;
    let samples: Vec<(f64, f64)> = (1..40)
        .map(|i| {
            let bytes = (i as f64) * 5e4;
            let lat = if bytes < 6.4e4 { 0.001 } else { 0.02 };
            (bytes, lat + bytes / 1e8)
        })
        .collect();
    c.bench_function("commfit_piecewise_40_samples", |b| {
        b.iter(|| fit_piecewise(&samples))
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_engine_throughput, bench_messaging, bench_heuristics, bench_mrd,
              bench_forecasting, bench_observe_cpu_tracked, bench_redistribution,
              bench_qr_end_to_end, bench_workflow_schedule, bench_lu_end_to_end,
              bench_psa_schedule, bench_dml_parse, bench_economy, bench_commfit
}
criterion_main!(benches);
