//! **SCHED-SCALE**: scheduler decision-path throughput at grid scale.
//!
//! The §3/§4.1 decision path — enumerate per-cluster prefixes of the
//! fastest-available hosts, score each with the application model, keep
//! the argmin — is exercised A/B on synthetic grids from campus size
//! (64 hosts) to grid scale (4096 hosts):
//!
//! * `reference` — the seed path: `select_mpi_resources` with a
//!   whole-prefix closure model. Every sort comparison and every
//!   candidate re-runs the NWS forecast battery, and every candidate
//!   prefix re-scans its hosts.
//! * `fast` — the tuned path: one `ForecastSnapshot` per decision epoch,
//!   a zero-materialization `CandidateWalk`, and the incremental
//!   `TreeBcastPrefix` predictor scoring prefix k from k-1 in O(1).
//!
//! Every sweep point asserts the two paths pick the **bit-identical**
//! `ResourceChoice` (hosts, cluster, and `predicted.to_bits()`) before
//! any throughput number is printed; the full sweep additionally asserts
//! the fast path is >= 5x reference at 1024 hosts x 16 clusters.
//!
//! Usage:
//!   cargo run --release -p grads-bench --bin sched_scale          # full sweep
//!   cargo run --release -p grads-bench --bin sched_scale smoke    # CI smoke
//!
//! Writes the `sched_scale` (or `sched_scale_smoke`) section of
//! `BENCH_sched.json` at the repository root.

use grads_bench::sweep::{json_num, json_obj, merge_bench_section_in};
use grads_core::nws::{ForecastSnapshot, NwsService};
use grads_core::perf::TreeBcastPrefix;
use grads_core::sched::{select_mpi_resources, select_mpi_resources_fast, ResourceChoice};
use grads_core::sim::prelude::*;
use std::time::Instant;

/// Compute volume and broadcast bytes of the synthetic application model
/// (the QR shape: big matrix factorization with a tree broadcast).
const FLOPS: f64 = 5.0e11;
const BCAST_BYTES: f64 = 1.0e7;
/// Per-path measurement budget, seconds. Slow points simply run once.
const BUDGET_S: f64 = 0.25;
/// CPU-availability history depth fed to the NWS forecast battery.
const HISTORY: usize = 10;

/// Deterministic pseudo-availability in `[0.25, 0.95)` for host `i`,
/// sample `j` — no RNG so every run (and every path) sees identical
/// forecasts.
fn availability(i: usize, j: usize) -> f64 {
    let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 1000;
    0.25 + 0.7 * (h as f64) / 1000.0
}

/// Build `clusters` clusters of `hosts / clusters` hosts each, ring-linked
/// over the WAN, with per-cluster base speeds and per-host NWS CPU
/// histories so effective speeds are heterogeneous within every cluster.
fn build(hosts: usize, clusters: usize) -> (Grid, NwsService, Vec<HostId>) {
    assert!(hosts >= clusters, "at least one host per cluster");
    let per = hosts / clusters;
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    for c in 0..clusters {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec::with_speed(4.0e8 + 1.0e8 * (c % 7) as f64);
        b.add_hosts(id, per, &spec);
        cl.push(id);
    }
    for c in 0..clusters {
        let next = (c + 1) % clusters;
        if next != c {
            b.connect(cl[c], cl[next], 5.0e7, 5e-3);
        }
    }
    let grid = b.build().expect("valid grid");
    let all: Vec<HostId> = (0..grid.hosts().len() as u32).map(HostId).collect();
    let mut nws = NwsService::new();
    for (i, &h) in all.iter().enumerate() {
        for j in 0..HISTORY {
            nws.observe_cpu(h, availability(i, j));
        }
    }
    (grid, nws, all)
}

/// Run `f` repeatedly for [`BUDGET_S`] and return (selections/sec, last
/// choice). Always runs at least once, so slow points cost one trial.
fn rate<F: FnMut() -> Option<ResourceChoice>>(mut f: F) -> (f64, ResourceChoice) {
    let t0 = Instant::now();
    let mut n = 0usize;
    let last;
    loop {
        let choice = f();
        n += 1;
        if t0.elapsed().as_secs_f64() >= BUDGET_S {
            last = choice;
            break;
        }
    }
    (
        n as f64 / t0.elapsed().as_secs_f64(),
        last.expect("non-empty grid must yield a choice"),
    )
}

/// The two choices must be the same bits, not merely close.
fn assert_identical(tag: &str, a: &ResourceChoice, b: &ResourceChoice, what: &str) {
    assert_eq!(a.cluster, b.cluster, "{tag}: {what} picked another cluster");
    assert_eq!(a.hosts, b.hosts, "{tag}: {what} picked other hosts");
    assert_eq!(
        a.predicted.to_bits(),
        b.predicted.to_bits(),
        "{tag}: {what} predicted {} vs {}",
        b.predicted,
        a.predicted
    );
}

struct Point {
    hosts: usize,
    clusters: usize,
    ref_per_s: f64,
    fast_per_s: f64,
}

fn run_point(hosts: usize, clusters: usize) -> Point {
    let (grid, nws, all) = build(hosts, clusters);
    let per = hosts / clusters;
    let tag = format!("h{hosts}_c{clusters}");

    let closure = |hs: &[HostId], grid: &Grid, nws: &NwsService| {
        TreeBcastPrefix::reference(hs, grid, nws, FLOPS, BCAST_BYTES)
    };
    let (ref_per_s, ref_choice) =
        rate(|| select_mpi_resources(&grid, &nws, &all, 1, per, &closure));

    let snap = ForecastSnapshot::capture(&grid, &nws);
    let make = || TreeBcastPrefix::new(&grid, &snap, FLOPS, BCAST_BYTES);
    let (fast_per_s, fast_choice) =
        rate(|| select_mpi_resources_fast(&grid, &snap, &all, 1, per, make, 1));

    assert_identical(&tag, &ref_choice, &fast_choice, "fast");

    Point {
        hosts,
        clusters,
        ref_per_s,
        fast_per_s,
    }
}

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke")
        || std::env::var("GRADS_SCHED_SMOKE").is_ok();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let sweep: Vec<(usize, usize)> = if smoke {
        vec![(64, 16), (1024, 16)]
    } else {
        let mut v = Vec::new();
        for &h in &[64usize, 256, 1024, 4096] {
            for &c in &[4usize, 16, 64] {
                if h >= c {
                    v.push((h, c));
                }
            }
        }
        v
    };

    println!(
        "SCHED-SCALE — decision-path selections/sec, reference vs fast \
         [{} sweep, {cores} cores]\n",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>9}",
        "hosts", "clusters", "ref/s", "fast/s", "speedup"
    );

    let mut fields: Vec<(&str, String)> = vec![
        ("cores_detected", cores.to_string()),
        (
            "mode",
            format!("\"{}\"", if smoke { "smoke" } else { "full" }),
        ),
        ("flops", json_num(FLOPS)),
        ("bcast_bytes", json_num(BCAST_BYTES)),
    ];
    let mut keyed: Vec<(String, String)> = Vec::new();
    let mut speedup_1024_16 = None;
    for &(h, c) in &sweep {
        let p = run_point(h, c);
        let speedup = p.fast_per_s / p.ref_per_s;
        println!(
            "{:>6} {:>9} {:>12.1} {:>12.1} {:>8.1}x",
            p.hosts, p.clusters, p.ref_per_s, p.fast_per_s, speedup
        );
        let tag = format!("h{h}_c{c}");
        keyed.push((format!("{tag}_ref_sel_per_s"), json_num(p.ref_per_s)));
        keyed.push((format!("{tag}_fast_sel_per_s"), json_num(p.fast_per_s)));
        keyed.push((format!("{tag}_speedup"), json_num(speedup)));
        if (h, c) == (1024, 16) {
            speedup_1024_16 = Some(speedup);
        }
    }

    let s1024 = speedup_1024_16.expect("sweep includes 1024x16");
    println!("\nall points: fast picked the bit-identical ResourceChoice as reference.");
    println!("speedup at 1024 hosts x 16 clusters: {s1024:.1}x");
    if smoke {
        assert!(
            s1024 >= 1.0,
            "smoke: fast path must not be slower than reference at 1024 hosts \
             (got {s1024:.2}x)"
        );
    } else {
        assert!(
            s1024 >= 5.0,
            "fast path must be >= 5x reference at 1024 hosts x 16 clusters \
             (got {s1024:.2}x)"
        );
    }

    for (k, v) in &keyed {
        fields.push((k.as_str(), v.clone()));
    }
    let section = if smoke {
        "sched_scale_smoke"
    } else {
        "sched_scale"
    };
    merge_bench_section_in("BENCH_sched.json", section, &json_obj(&fields));
    println!("wrote {section} section of BENCH_sched.json");
}
