//! **ATTR**: the honest-attribution plane, measured end to end.
//!
//! Two measurements on the fig3 QR-migration scenario, plus one
//! multi-tenant service round:
//!
//! 1. **Zero perturbation** — a run with collective-internals (per-hop)
//!    recording attached is bit-identical to a bare run: same `end_time`,
//!    same full kernel report. Asserted, not just reported.
//! 2. **Honest vs opaque attribution** — per-host critical-path tables
//!    from the same timeline: the honest walk follows the collective's
//!    internal sends across ranks, the opaque walk treats collectives as
//!    black boxes. Both tile `[0, makespan]` bitwise; the mass the honest
//!    walk re-assigns between hosts is what per-hop recording buys.
//! 3. **Service round spans** — a small admission/market round with the
//!    per-job span log enabled, exported as a Chrome trace artifact
//!    (CI uploads it; load in `chrome://tracing` or `ui.perfetto.dev`).
//!
//! Every number in the JSON is virtual-time-derived, so `BENCH_attr.json`
//! is byte-identical across reruns.
//!
//! Usage:
//!   cargo run --release -p grads-bench --bin attr_feedback          # full
//!   cargo run --release -p grads-bench --bin attr_feedback smoke    # CI smoke
//!   (optional: --export PATH for the service-round trace, default
//!   `target/service_round_trace.json`)
//!
//! Writes the `attr_feedback` (or `attr_feedback_smoke`) section of
//! `BENCH_attr.json` at the repository root.

use grads_bench::sweep::{json_num, json_obj, merge_bench_section_in};
use grads_core::prelude::*;
use grads_core::service::SpanLog;
use grads_core::sim::topology::macrogrid_qr;
use std::collections::BTreeMap;

/// The fig3 stop/restart scenario with a chosen recorder. Same shape as
/// the root `obs_determinism` fixture.
fn fig3(n_real: usize, rec: Recorder) -> QrExperimentResult {
    let mut cfg = QrExperimentConfig::paper(20000);
    cfg.qr.n_real = n_real;
    cfg.qr.block = 4;
    cfg.qr.poll_every = 4;
    cfg.load_at = 60.0;
    cfg.monitor_period = 10.0;
    cfg.t_max = 50_000.0;
    cfg.recorder = rec;
    run_qr_experiment(macrogrid_qr(), cfg)
}

/// `(host, seconds)` list → map, for set comparison and L1 distance.
fn host_map(v: &[(String, f64)]) -> BTreeMap<String, f64> {
    v.iter().cloned().collect()
}

fn main() {
    let mut smoke = std::env::var("GRADS_ATTR_SMOKE").is_ok();
    let mut export = String::from("target/service_round_trace.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "smoke" => smoke = true,
            "--export" => export = args.next().expect("--export takes a path"),
            other => panic!("unrecognized argument {other:?}"),
        }
    }
    let n_real = if smoke { 48 } else { 64 };
    let section = if smoke {
        "attr_feedback_smoke"
    } else {
        "attr_feedback"
    };
    println!("attr_feedback — honest attribution plane (n_real = {n_real})");

    // -------- 1. zero perturbation --------
    let plain = fig3(n_real, Recorder::disabled());
    let rec = Recorder::enabled_with_internals();
    let recorded = fig3(n_real, rec.clone());
    assert!(plain.migrated && recorded.migrated, "fixture must migrate");
    assert_eq!(
        plain.report.end_time.to_bits(),
        recorded.report.end_time.to_bits(),
        "collective-internals recording must not perturb the run"
    );
    assert_eq!(
        plain.report, recorded.report,
        "full report must be identical"
    );
    println!(
        "zero perturbation: internals-recorded run bit-identical to bare run \
         (end_time = {:.3} s)",
        recorded.report.end_time
    );

    // -------- 2. honest vs opaque per-host attribution --------
    let tl = rec.timeline();
    let makespan = tl.makespan();
    let honest_path = tl.critical_path();
    let opaque_path = tl.critical_path_opaque();
    let honest = host_map(&tl.critical_path_by_host(&honest_path));
    let opaque = host_map(&tl.critical_path_by_host(&opaque_path));
    println!("\nper-host critical-path attribution (makespan {makespan:.3} s):");
    println!(
        "  {:<14} {:>12} {:>12} {:>12}",
        "host", "honest s", "opaque s", "delta s"
    );
    let mut reassigned = 0.0f64;
    let hosts: std::collections::BTreeSet<&String> = honest.keys().chain(opaque.keys()).collect();
    for h in &hosts {
        let a = honest.get(*h).copied().unwrap_or(0.0);
        let b = opaque.get(*h).copied().unwrap_or(0.0);
        reassigned += (a - b).abs();
        println!("  {:<14} {a:>12.3} {b:>12.3} {:>12.3}", h.as_str(), a - b);
    }
    // Each second moved shows up once as +delta and once as -delta.
    reassigned /= 2.0;
    assert!(
        honest != opaque,
        "honest and opaque walks must attribute differently on fig3"
    );
    println!(
        "honest walk re-assigns {reassigned:.3} s of critical path \
         ({:.1}% of the makespan) relative to the opaque walk",
        100.0 * reassigned / makespan
    );

    // -------- 3. service round with per-job spans --------
    let spans = SpanLog::enabled();
    let scfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: 120,
            n_tenants: 4,
            mean_interarrival_s: 2.0,
            ..WorkloadConfig::default()
        },
        hosts: 32,
        clusters: 4,
        cores_per_host: 2,
        spans: spans.clone(),
        ..ServiceConfig::default()
    };
    let sres = run_service_experiment(scfg);
    let trace = spans.to_chrome_trace();
    if let Some(dir) = std::path::Path::new(&export).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create export directory");
        }
    }
    std::fs::write(&export, &trace).expect("write service-round trace");
    println!(
        "\nservice round: {} jobs completed, {} spans -> {export} ({} bytes)",
        sres.totals.completed,
        spans.spans().len(),
        trace.len()
    );

    // -------- JSON section --------
    let fields: Vec<(&str, String)> = vec![
        ("makespan_s", json_num(makespan)),
        ("honest_hosts", json_num(honest.len() as f64)),
        ("opaque_hosts", json_num(opaque.len() as f64)),
        ("attr_reassigned_s", json_num(reassigned)),
        ("attr_reassigned_frac", json_num(reassigned / makespan)),
        (
            "service_jobs_completed",
            json_num(sres.totals.completed as f64),
        ),
        ("service_spans", json_num(spans.spans().len() as f64)),
        ("service_trace_bytes", json_num(trace.len() as f64)),
    ];
    merge_bench_section_in("BENCH_attr.json", section, &json_obj(&fields));
    println!("\nwrote section {section:?} of BENCH_attr.json");
}
