//! **GRID-SERVICE**: the multi-tenant service layer at grid scale.
//!
//! A seeded stream of QR / N-body / EMAN / workflow jobs (each with a
//! size, deadline, and budget) is served by the deadline-aware,
//! market-priced admission layer in front of the fast mapper
//! (`grads-service`). The sweep holds the grid fixed and raises the
//! arrival intensity from under-subscribed to heavily saturated, plus
//! one grid-scale point at 4096 hosts — producing throughput, queue
//! latency, and SLO-miss curves as the offered load crosses capacity.
//!
//! Every metric in the `grid_service` section is **virtual-time-derived**
//! (no wall clock), so that section is byte-identical across reruns and
//! at any `GRADS_SWEEP_WORKERS` count — pinned by
//! `tests/service_bench_determinism.rs` and the root
//! `service_determinism` suite. The wall-clock cost of a mapping-heavy
//! service run is measured by perfbench's `service_mapheavy` workload.
//!
//! Usage:
//!   cargo run --release -p grads-bench --bin grid_service          # full sweep
//!   cargo run --release -p grads-bench --bin grid_service smoke    # CI smoke
//!
//! Writes the `grid_service` (or `grid_service_smoke`) section of
//! `BENCH_service.json` at the repository root.

use grads_bench::sweep::{default_workers, json_num, json_obj, merge_bench_section_in, run_sweep};
use grads_core::prelude::*;

/// One sweep point: a grid shape plus an arrival intensity.
struct Point {
    tag: &'static str,
    hosts: usize,
    clusters: usize,
    cores: u32,
    n_jobs: usize,
    mean_interarrival_s: f64,
}

const FULL: &[Point] = &[
    Point {
        tag: "h1024_light",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 2000,
        mean_interarrival_s: 0.8,
    },
    Point {
        tag: "h1024_moderate",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 4000,
        mean_interarrival_s: 0.3,
    },
    Point {
        tag: "h1024_saturated",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 8000,
        mean_interarrival_s: 0.1,
    },
    Point {
        tag: "h1024_overload",
        hosts: 1024,
        clusters: 16,
        cores: 8,
        n_jobs: 10000,
        mean_interarrival_s: 0.05,
    },
    Point {
        tag: "h4096_saturated",
        hosts: 4096,
        clusters: 32,
        cores: 2,
        n_jobs: 8000,
        mean_interarrival_s: 0.1,
    },
];

const SMOKE: &[Point] = &[
    Point {
        tag: "h128_light",
        hosts: 128,
        clusters: 8,
        cores: 2,
        n_jobs: 300,
        mean_interarrival_s: 2.0,
    },
    Point {
        tag: "h128_saturated",
        hosts: 128,
        clusters: 8,
        cores: 2,
        n_jobs: 900,
        mean_interarrival_s: 0.4,
    },
];

fn run_point(p: &Point) -> ServiceResult {
    let cfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: p.n_jobs,
            n_tenants: 8,
            mean_interarrival_s: p.mean_interarrival_s,
            ..WorkloadConfig::default()
        },
        hosts: p.hosts,
        clusters: p.clusters,
        cores_per_host: p.cores,
        ..ServiceConfig::default()
    };
    run_service_experiment(cfg)
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke")
        || std::env::var("GRADS_SERVICE_SMOKE").is_ok();
    let workers = default_workers();
    let points = if smoke { SMOKE } else { FULL };

    println!(
        "GRID-SERVICE — multi-tenant job-stream service [{} sweep, {workers} workers]\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>16} {:>6} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9} {:>8} {:>9} {:>8}",
        "point",
        "hosts",
        "jobs",
        "admit",
        "reject",
        "slo%",
        "jobs/h",
        "wait_s",
        "p95_s",
        "inflight",
        "price"
    );

    let results = run_sweep(points, workers, |_i, p| run_point(p));

    let mut fields: Vec<(&str, String)> = vec![
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("n_tenants", "8".into()),
        ("seed", format!("{}", WorkloadConfig::default().seed)),
    ];
    let mut keyed: Vec<(String, String)> = Vec::new();
    for (p, r) in points.iter().zip(&results) {
        let t = &r.totals;
        assert_eq!(
            t.admitted + t.rejected,
            t.submitted,
            "{}: every job is admitted or rejected",
            p.tag
        );
        assert_eq!(t.completed, t.admitted, "{}: the run drained", p.tag);
        println!(
            "{:>16} {:>6} {:>6} {:>7} {:>7} {:>6.1}% {:>9.0} {:>9.1} {:>8.1} {:>9} {:>8.2}",
            p.tag,
            p.hosts,
            t.submitted,
            t.admitted,
            t.rejected,
            r.slo_miss_rate * 100.0,
            r.throughput_per_hour,
            r.mean_wait_s,
            r.p95_wait_s,
            r.max_in_flight,
            r.price_mean,
        );
        for (k, v) in [
            ("submitted", json_num(t.submitted as f64)),
            ("admitted", json_num(t.admitted as f64)),
            ("rejected", json_num(t.rejected as f64)),
            ("completed", json_num(t.completed as f64)),
            ("slo_misses", json_num(t.slo_misses as f64)),
            ("slo_miss_rate", json_num(r.slo_miss_rate)),
            ("throughput_per_hour", json_num(r.throughput_per_hour)),
            ("mean_wait_s", json_num(r.mean_wait_s)),
            ("p95_wait_s", json_num(r.p95_wait_s)),
            ("mean_turnaround_s", json_num(r.mean_turnaround_s)),
            ("max_in_flight", json_num(r.max_in_flight as f64)),
            ("mean_in_flight", json_num(r.mean_in_flight)),
            ("high_water_rounds", json_num(r.high_water_rounds as f64)),
            ("peak_queue", json_num(r.peak_queue as f64)),
            ("host_seconds", json_num(t.host_seconds)),
            ("spend", json_num(t.spend)),
            ("price_mean", json_num(r.price_mean)),
            ("price_volatility", json_num(r.price_volatility)),
            ("fairness", json_num(r.fairness)),
            ("rounds", json_num(r.rounds as f64)),
            ("auction_rounds", json_num(r.auction_rounds as f64)),
            ("end_time_s", json_num(r.end_time)),
        ] {
            keyed.push((format!("{}_{k}", p.tag), v));
        }
    }

    if !smoke {
        let sat = &results[2];
        assert!(
            points[2].hosts >= 1024,
            "the saturated point runs on a grid-scale host count"
        );
        assert!(
            sat.max_in_flight >= 2000,
            "the saturated 1024-host point must sustain >= 2000 concurrent \
             jobs (got {})",
            sat.max_in_flight
        );
        assert!(
            sat.high_water_rounds >= 60,
            "concurrency must be sustained, not a transient: >= 2000 jobs \
             in flight for >= 60 rounds (got {} rounds)",
            sat.high_water_rounds
        );
        println!(
            "\nsaturated point: {} jobs peak in flight on {} hosts, >= 2000 \
             in flight for {} rounds ({:.0} virtual seconds)",
            sat.max_in_flight,
            points[2].hosts,
            sat.high_water_rounds,
            sat.high_water_rounds as f64 * 5.0,
        );
    }

    for (k, v) in &keyed {
        fields.push((k.as_str(), v.clone()));
    }
    let section = if smoke {
        "grid_service_smoke"
    } else {
        "grid_service"
    };
    merge_bench_section_in("BENCH_service.json", section, &json_obj(&fields));
    println!("wrote {section} section of BENCH_service.json");
}
