//! **KERNEL-SCALE**: DES-kernel throughput on a communication-heavy
//! workload — 64 processes (4 clusters x 16 hosts) doing eager all-to-all
//! exchanges over a WAN mesh, with a compute phase per round so both the
//! CPU-sharing and the max-min-fair paths are exercised.
//!
//! The applied-event count is invariant across the kernel's test oracles
//! (stale pops are not counted), so `events/sec = events_processed
//! / wall` is an apples-to-apples throughput number. Every row runs on the
//! production kernel: dirty-set scoped rate solves, coalesced to one per
//! virtual instant.
//!
//! A coalesced-vs-eager recompute-*timing* A/B against the eager test
//! oracle (one solve per churn event) rides on the reference row, asserted
//! bit-identical to it before its throughput is recorded.
//!
//! Usage: `cargo run --release -p grads-bench --bin kernel_scale [rounds]`

use grads_bench::sweep::{json_num, json_obj, merge_bench_section};
use grads_core::sim::prelude::*;
use std::time::Instant;

const CLUSTERS: usize = 4;
const HOSTS_PER_CLUSTER: usize = 16;
const NPROC: usize = CLUSTERS * HOSTS_PER_CLUSTER;

fn build_grid() -> (Grid, Vec<HostId>) {
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
    // Full WAN mesh with heterogeneous bandwidth/latency per pair.
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
    (b.build().expect("valid grid"), hosts)
}

fn run_kernel(rounds: usize) -> (RunReport, f64) {
    run_tuned(rounds, false, false, None)
}

/// `uniform` selects the payload schedule: `false` keeps the historical
/// skewed per-pair sizes (every transfer completes at its own instant —
/// the workload the `kernel_scale` row is taken on), `true`
/// gives every transfer the same size, the shape of a real synchronized
/// `MPI_Alltoall` round — flows sharing a bottleneck then finish in
/// bitwise-identical completion waves, the regime the coalesced flush
/// collapses to one solve per instant.
fn run_tuned(
    rounds: usize,
    eager_oracle: bool,
    uniform: bool,
    obs: Option<grads_core::obs::Obs>,
) -> (RunReport, f64) {
    let (grid, hosts) = build_grid();
    let mut eng = Engine::new(grid);
    eng.set_eager_recompute_oracle(eager_oracle);
    if let Some(o) = obs {
        eng.set_obs(o);
    }
    for i in 0..NPROC {
        let me = hosts[i];
        let peers = hosts.clone();
        eng.spawn(&format!("p{i}"), me, move |ctx| {
            for r in 0..rounds {
                ctx.compute(1.0e6);
                for (j, &peer) in peers.iter().enumerate() {
                    if j != i {
                        let bytes = if uniform {
                            1.0e5
                        } else {
                            1.0e5 + (i * NPROC + j) as f64
                        };
                        ctx.isend(
                            mail_key(&[r as u64, i as u64, j as u64]),
                            peer,
                            bytes,
                            Box::new(()),
                        );
                    }
                }
                // Interleave compute with the receives so CPU completions
                // land while transfers are in flight — the iterative
                // compute/communicate pattern of the paper's applications.
                for j in 0..NPROC {
                    if j != i {
                        let _ = ctx.recv(mail_key(&[r as u64, j as u64, i as u64]));
                        ctx.compute(2.5e5);
                    }
                }
            }
        });
    }
    let wall = Instant::now();
    let report = eng.run();
    let secs = wall.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), NPROC, "all processes must complete");
    (report, secs)
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    println!(
        "KERNEL-SCALE — {NPROC}-process all-to-all over a {CLUSTERS}-cluster WAN mesh, \
         {rounds} round(s)\n"
    );

    // Warm-up run (allocator, coroutine stacks) before timing; keep the
    // faster of two timed runs to damp scheduler noise.
    let _ = run_kernel(1);

    let (serial_ref, t1) = run_kernel(rounds);
    let (r2, t2) = run_kernel(rounds);
    assert_eq!(
        serial_ref, r2,
        "the kernel must be run-to-run deterministic"
    );
    let (ref_end, ref_ev) = (serial_ref.end_time, serial_ref.events_processed);
    let serial_rate = ref_ev as f64 / t1.min(t2);
    println!(
        "{:>12} {:>12} {:>10} {:>14}",
        "kernel", "events", "wall(s)", "events/sec"
    );
    println!(
        "{:>12} {:>12} {:>10.3} {:>14.0}",
        "serial",
        ref_ev,
        t1.min(t2),
        serial_rate
    );
    println!("\nvirtual end_time {ref_end:.3} s.");

    // ---- Coalesced-recompute A/B ----------------------------------------
    //
    // Uniform-payload all-to-all (a synchronized `MPI_Alltoall` round),
    // eager oracle vs coalesced production *timing*:
    // churn events only mark dirty sets and the rate solve runs once per
    // virtual instant, so each round's 4032-flow send burst costs one
    // solve instead of 4032, and each bitwise-synchronized completion
    // wave costs one solve instead of one per flow. The uniform point is
    // the headline number because it is the regime the optimization
    // targets; the skewed workload (every completion at its own instant)
    // is measured below it as the honest floor — there, every eager-only
    // activation solve pairs 1:1 with a completion solve both timings
    // must pay, which caps the ratio strictly below 2x no matter how
    // cheap the solves get.
    // Bit-identity of the full run report is asserted before any
    // throughput is recorded (`identity_ok` in the snapshot is earned, not
    // aspirational), and a separate obs-enabled run reports how much churn
    // the deferral absorbed.
    let coal =
        |eager_oracle: bool, uniform: bool, obs| run_tuned(rounds, eager_oracle, uniform, obs);
    let (e1, et1) = coal(true, true, None);
    let (e2, et2) = coal(true, true, None);
    assert_eq!(&e1, &e2, "eager run must be run-to-run deterministic");
    let (c1, ct1) = coal(false, true, None);
    let (c2, ct2) = coal(false, true, None);
    assert_eq!(
        &e1, &c1,
        "coalesced recompute must be bit-identical to the eager reference"
    );
    assert_eq!(&c1, &c2, "coalesced run must be run-to-run deterministic");
    let eager_secs = et1.min(et2);
    let eager_rate = e1.events_processed as f64 / eager_secs;
    let coalesced_secs = ct1.min(ct2);
    let coalesced_rate = c1.events_processed as f64 / coalesced_secs;
    let coalesce_speedup = coalesced_rate / eager_rate;
    println!("\ncoalesced recompute timing (uniform payloads):");
    println!(
        "{:>12} {:>12} {:>10} {:>14} {:>10}",
        "timing", "events", "wall(s)", "events/sec", "speedup"
    );
    println!(
        "{:>12} {:>12} {:>10.3} {:>14.0} {:>9.2}x",
        "eager", e1.events_processed, eager_secs, eager_rate, 1.0
    );
    println!(
        "{:>12} {:>12} {:>10.3} {:>14.0} {:>9.2}x",
        "coalesced", c1.events_processed, coalesced_secs, coalesced_rate, coalesce_speedup
    );
    // The skewed-payload floor: same A/B on the reference row's workload,
    // where no two transfers finish at the same instant.
    let (se1, set1) = coal(true, false, None);
    let (se2, set2) = coal(true, false, None);
    let (sc1, sct1) = coal(false, false, None);
    let (sc2, sct2) = coal(false, false, None);
    assert_eq!(
        &se1, &sc1,
        "skewed coalesced run must be bit-identical to the eager oracle"
    );
    assert_eq!(
        serial_ref, sc1,
        "skewed coalesced run must be bit-identical to the reference row"
    );
    assert_eq!(&se1, &se2, "skewed eager run must be deterministic");
    assert_eq!(&sc1, &sc2, "skewed coalesced run must be deterministic");
    let skewed_rate = sc1.events_processed as f64 / sct1.min(sct2);
    let skewed_speedup = skewed_rate / (se1.events_processed as f64 / set1.min(set2));
    println!(
        "{:>12} {:>12} {:>10.3} {:>14.0} {:>9.2}x   (skewed payloads: completion-paired floor)",
        "coalesced",
        sc1.events_processed,
        sct1.min(sct2),
        skewed_rate,
        skewed_speedup
    );
    // Counter run (obs adds overhead, so it is never timed): how many
    // churn notifications arrived, how many solves actually ran, and the
    // same-instant burst-size distribution the deferral collapses.
    let obs = grads_core::obs::Obs::enabled();
    let (co, _) = coal(false, true, Some(obs.clone()));
    assert_eq!(&e1, &co, "obs-enabled run must not perturb results");
    let snap = obs.snapshot();
    let churn = snap.counter("sim.recomputes").unwrap_or(0);
    let solves = snap.counter("sim.recompute.solves").unwrap_or(0);
    let absorbed = snap.counter("sim.recompute.coalesced").unwrap_or(0);
    let (burst_mean, burst_max) = snap
        .histogram("sim.recompute.burst")
        .map(|h| (h.mean(), h.max))
        .unwrap_or((0.0, 0.0));
    assert_eq!(
        solves + absorbed,
        churn,
        "every churn is either solved or absorbed"
    );
    println!(
        "churn events {churn}, solves {solves}, absorbed {absorbed} \
         (burst mean {burst_mean:.1}, max {burst_max:.0})"
    );
    // The ≥2x floor is the ISSUE-10 acceptance bar for the real benchmark
    // configuration; the 1-round CI smoke run only checks identity and
    // snapshot shape, so wall-clock noise on shared runners cannot flake
    // the gate.
    if rounds >= 2 {
        assert!(
            coalesce_speedup >= 2.0,
            "coalesced timing must be >= 2x eager events/s, got {coalesce_speedup:.2}x"
        );
    }

    println!("\nshape to check: every run is bit-identical to its oracle twin, and");
    println!("coalesced timing runs >= 2x eager events/sec on uniform payloads.");

    // Stamp the machine so checked-in snapshots are self-describing
    // (throughput numbers are meaningless without the core count they
    // were taken on).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    merge_bench_section(
        "kernel_scale",
        &json_obj(&[
            ("cores_detected", cores.to_string()),
            ("rounds", rounds.to_string()),
            ("processes", NPROC.to_string()),
            ("events_applied", ref_ev.to_string()),
            ("virtual_end_time_s", json_num(ref_end)),
            ("events_per_s", json_num(serial_rate)),
        ]),
    );
    println!("\nwrote kernel_scale section of BENCH_sim.json");

    // Coalesce A/B snapshot. `identity_ok` is written only after the
    // in-binary bit-identity asserts above have passed.
    let cfields: Vec<(&str, String)> = vec![
        ("cores_detected", cores.to_string()),
        ("rounds", rounds.to_string()),
        ("processes", NPROC.to_string()),
        ("events_applied", e1.events_processed.to_string()),
        ("eager_events_per_s", json_num(eager_rate)),
        ("coalesced_events_per_s", json_num(coalesced_rate)),
        ("speedup_x", json_num(coalesce_speedup)),
        ("skewed_speedup_x", json_num(skewed_speedup)),
        ("recompute_churn", churn.to_string()),
        ("recompute_solves", solves.to_string()),
        ("coalesced_absorbed", absorbed.to_string()),
        ("burst_mean", json_num(burst_mean)),
        ("burst_max", json_num(burst_max)),
        ("identity_ok", "1".to_string()),
    ];
    merge_bench_section("kernel_scale_coalesce", &json_obj(&cfields));
    println!("wrote kernel_scale_coalesce section of BENCH_sim.json");
}
