//! End-to-end and per-layer benchmark of the GrADS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selfcheck
//! ```
//!
//! Run from the repository root. The process pins itself to one CPU
//! before the first engine is built, does one untimed warm-up pass, then
//! runs timed passes for `--seconds`. Every timed call is bracketed by the
//! reference probe (`probe.rs`). The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`. The line before it is a report with the run's stamps and
//! diagnostics; `--trace 1` also writes its spans under `.bench_out/`.

mod harness;
mod layers;
mod probe;
mod sys;
mod workloads;

use harness::{median, quantile, Harness, Tracer};
use probe::Probe;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{PassOut, Workload};

/// The seed whose result digests are pinned in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// A second seed the self-check holds out: invariants and rerun identity.
const HELD_OUT_SEED: u64 = 2;
/// The probe's duration on the reference host. `setup_s` is the set-up's
/// probe-normalised time expressed in seconds of that host. A set-up
/// lasts at most a few milliseconds, and this host's speed can differ by
/// 1.8× from one such moment to the next, so raw set-up medians moved by
/// as much between sets of runs.
const NOMINAL_PROBE_S: f64 = 0.025;
/// Timed seconds per run in the self-check.
const SELFCHECK_SECONDS: f64 = 1.0;
/// Timed passes per measured phase, at least.
const MIN_PASSES: usize = 2;
/// Pinned digests of the default seed's results, one `workload hex` a line.
const PINNED: &str = include_str!("../digests.txt");
/// The metric contract this program reports against.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, `(name, unit)`. The raw pass time (`wall_s`)
/// and throughput (`work_per_s`) go to the report line instead: this
/// host's speed drifts by up to 1.8× over minutes, which no bound on
/// raw seconds survives, while `wall_ref` cancels it.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_ref", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics that are program counts, taken from traced passes.
const COUNTS: [&str; 13] = [
    "sim.events_applied",
    "sim.recomputes",
    "sim.recompute.solves",
    "mpi.link_bytes",
    "mpi.host_flops",
    "sched.selections",
    "sched.candidate_sets",
    "svc.rounds",
    "svc.decisions",
    "contract.polls",
    "contract.violations",
    "contract.decisions_migrate",
    "qr.incarnations",
];

fn count_unit(name: &str) -> &'static str {
    match name {
        "mpi.link_bytes" => "B",
        "mpi.host_flops" => "flop",
        _ => "count",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut valued_flags = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            a.selfcheck = true;
            continue;
        }
        valued_flags += 1;
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {v} outside (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.selfcheck && valued_flags > 0 {
        return Err("--selfcheck takes no other flag".into());
    }
    if !a.selfcheck && !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    Ok(a)
}

/// How the process was placed and what it measures.
struct Stamps {
    cpus_allowed: Vec<usize>,
    pinned_cpu: Option<usize>,
    pin_error: Option<String>,
    commit: Option<String>,
    source_digest: Option<String>,
}

/// Load discipline: one CPU for the whole process, chosen before the
/// first engine is built, so the simulator's threads share it and the
/// library's single-CPU handoff path applies.
fn pin() -> Stamps {
    let cpus_allowed = sys::allowed_cpus();
    let (pinned_cpu, pin_error) = match cpus_allowed.last() {
        Some(&cpu) => match sys::pin_to(cpu) {
            Ok(()) => (Some(cpu), None),
            Err(e) => (None, Some(e)),
        },
        None => (None, Some("no CPU in the affinity mask".into())),
    };
    Stamps {
        cpus_allowed,
        pinned_cpu,
        pin_error,
        commit: sys::git_commit(),
        source_digest: sys::source_digest(),
    }
}

/// One timed pass with its measurements.
struct PassRec {
    id: u32,
    wall_s: f64,
    wall_ref: f64,
    probe_s: Vec<f64>,
    switches: u64,
    out: PassOut,
}

fn run_passes(
    w: &mut dyn Workload,
    probe: &Probe,
    mut tracer: Option<&mut Tracer>,
    seconds: f64,
    next_id: &mut u32,
) -> Vec<PassRec> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut recs = Vec::new();
    while recs.len() < MIN_PASSES || start.elapsed() < budget {
        let id = *next_id;
        *next_id += 1;
        let span = tracer.as_deref_mut().map(|t| {
            t.pass = id;
            t.open("pass")
        });
        let mut h = Harness::new(probe, tracer.as_deref_mut());
        let out = w.pass(&mut h);
        let (wall_s, wall_ref, probe_s) = (h.wall_s(), h.wall_ref(), h.probes.clone());
        let switches = h.switches;
        drop(h);
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        recs.push(PassRec {
            id,
            wall_s,
            wall_ref,
            probe_s,
            switches,
            out,
        });
    }
    recs
}

/// Everything one run reports.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Median host seconds of the timed calls per untraced pass.
    wall_s: f64,
    metrics: Vec<(String, f64, String)>,
    report: String,
}

fn pinned_digest(workload: &str) -> Option<u64> {
    PINNED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload))
            .then(|| f.next().and_then(|h| u64::from_str_radix(h, 16).ok()))
            .flatten()
    })
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_nums(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", v.join(", "))
}

fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool, stamps: &Stamps) -> RunResult {
    let mut w = workloads::make(workload, seed).expect("known workload");
    let probe = Probe::new();
    let mut tracer = Tracer::new();
    let mut problems: Vec<String> = Vec::new();

    // Set-up, several times; the last one's inputs are kept. Like a timed
    // call, each set-up is divided by the mean of the probes just before
    // and after it, and consecutive set-ups share the probe between them.
    let mut last_probe = probe.run();
    let mut setups = Vec::new();
    let mut setup_refs = Vec::new();
    for _ in 0..w.setup_reps() {
        let dt = if trace {
            tracer.span("setup", || w.setup())
        } else {
            w.setup()
        };
        let after = probe.run();
        setups.push(dt);
        setup_refs.push(dt / (0.5 * (last_probe + after)));
        last_probe = after;
    }

    // One untimed warm-up pass; its digest is the rerun-identity reference.
    let warm = {
        let mut h = Harness::new(&probe, None);
        w.pass(&mut h)
    };
    problems.extend(warm.problems.iter().map(|p| format!("warm-up: {p}")));
    let reference = warm.digest;
    let pinned = pinned_digest(workload);
    let pinned_ok = seed != DEFAULT_SEED || pinned == Some(reference.0);
    if !pinned_ok {
        problems.push(format!(
            "default-seed digest {:016x} differs from the pinned {}",
            reference.0,
            pinned.map_or("(none)".into(), |p| format!("{p:016x}"))
        ));
    }

    let mut next_id = 1u32;
    let (untraced, traced) = if trace {
        let u = run_passes(w.as_mut(), &probe, None, seconds / 2.0, &mut next_id);
        let t = run_passes(
            w.as_mut(),
            &probe,
            Some(&mut tracer),
            seconds / 2.0,
            &mut next_id,
        );
        (u, t)
    } else {
        (
            run_passes(w.as_mut(), &probe, None, seconds, &mut next_id),
            Vec::new(),
        )
    };
    // The layer measurements are bracketed by the probe, like a timed
    // call, so their products compare with the passes' `wall_ref`.
    let (layer_samples, layer_probe, n_hosts) = if trace {
        tracer.pass = next_id;
        let input = w.layer_input();
        let before = probe.run();
        let samples = layers::measure(&input, &mut tracer);
        (
            samples,
            0.5 * (before + probe.run()),
            input.grid.hosts().len(),
        )
    } else {
        (Vec::new(), 0.0, 0)
    };

    let all: Vec<&PassRec> = untraced.iter().chain(&traced).collect();
    let mut failed = 0;
    for p in &all {
        let mut bad: Vec<String> = p.out.problems.clone();
        if p.out.digest != reference {
            bad.push(format!(
                "digest {:016x} differs from the warm-up's {:016x}",
                p.out.digest.0, reference.0
            ));
        }
        if !bad.is_empty() || !pinned_ok {
            failed += 1;
        }
        problems.extend(bad.into_iter().map(|b| format!("pass {}: {b}", p.id)));
    }
    let attempted = all.len();
    let ok_frac = (attempted - failed) as f64 / attempted as f64;
    let correct = problems.is_empty();

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let refs: Vec<f64> = untraced.iter().map(|p| p.wall_ref).collect();
    let rates: Vec<f64> = untraced.iter().map(|p| p.out.work / p.wall_s).collect();
    let probes: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.probe_s.iter().copied())
        .collect();
    let peak = sys::peak_rss_mb().unwrap_or(0.0);
    let setup_s = median(&setup_refs) * NOMINAL_PROBE_S;

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut layer_rows = Vec::new();
    if !trace {
        for (name, v) in [
            ("wall_ref", median(&refs)),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak),
            ("ok_frac", ok_frac),
        ] {
            let unit = END_TO_END.iter().find(|m| m.0 == name).expect("named").1;
            metrics.push((name.into(), v, unit.into()));
        }
    } else {
        let (m, rows) = layer_metrics(
            &untraced,
            &traced,
            &layer_samples,
            layer_probe,
            n_hosts,
            &tracer,
        );
        metrics = m;
        layer_rows = rows;
        let _ = std::fs::create_dir_all(".bench_out");
        let path = format!(".bench_out/{workload}-seed{seed}.spans.json");
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("could not write {path}: {e}");
        }
    }

    let report = format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \
         \"cpus_allowed\": {:?}, \"pinned_cpu\": {}, \"pin_error\": {}, \
         \"available_parallelism\": {}, \"wait_policy\": {}, \"commit\": {}, \
         \"source_digest\": {}, \"work_unit\": {}, \"digest\": \"{:016x}\", \
         \"wall_s\": {}, \"work_per_s\": {}, \"probe_median_s\": {}, \"probe_iqr_frac\": {}, \"pass_wall_s\": {}, \
         \"pass_wall_ref\": {}, \"setup_raw_s\": {}, \"setup_samples_s\": {}, \"layers\": [{}], \"problems\": [{}]}}}}",
        json_str(workload),
        json_num(seconds),
        trace as u8,
        stamps.cpus_allowed,
        stamps.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        stamps.pin_error.as_deref().map_or("null".into(), json_str),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&format!("{:?}", grads_core::sim::wait_policy())),
        stamps.commit.as_deref().map_or("null".into(), json_str),
        stamps
            .source_digest
            .as_deref()
            .map_or("null".into(), json_str),
        json_str(w.work_unit()),
        reference.0,
        json_num(wall_s),
        json_num(median(&rates)),
        json_num(median(&probes)),
        json_num((quantile(&probes, 0.75) - quantile(&probes, 0.25)) / median(&probes)),
        json_nums(&walls),
        json_nums(&refs),
        json_num(median(&setups)),
        json_nums(&setups),
        layer_rows.join(", "),
        problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", "),
    );
    RunResult {
        correct,
        attempted,
        failed,
        wall_s,
        metrics,
        report,
    }
}

/// The traced run's per-layer metrics, plus one report row per layer
/// measurement (median, p90, sample count). `layer_probe` is the mean of
/// the probes that bracket the layer measurements.
fn layer_metrics(
    untraced: &[PassRec],
    traced: &[PassRec],
    samples: &[layers::Sample],
    layer_probe: f64,
    n_hosts: usize,
    tracer: &Tracer,
) -> (Vec<(String, f64, String)>, Vec<String>) {
    let mut m: Vec<(String, f64, String)> = Vec::new();
    let mut rows = Vec::new();
    let mut put = |name: &str, v: f64, unit: &str| m.push((name.to_string(), v, unit.to_string()));

    let count = |name: &str| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .map(|p| p.out.counts.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    for name in COUNTS {
        put(name, count(name), count_unit(name));
    }
    // Useful share `a / (a + b)`; 0 when the run reported neither.
    let share = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let useful = share(
        count("sim.events_applied"),
        count("sim.events_stale_discarded"),
    );
    put("sim.queue_useful_ratio", useful, "ratio");
    // The epoch counters exist only when `SchedTune::epoch` is on.
    let memo = share(count("svc.epoch.memo_hits"), count("svc.epoch.memo_misses"));
    put("svc.memo_hit_ratio", memo, "ratio");

    let switches: Vec<f64> = untraced.iter().map(|p| p.switches as f64).collect();
    let ctx_switches = median(&switches);
    put("sim.ctx_switches", ctx_switches, "count");

    // Self time per traced pass of the calls the benchmark makes itself.
    let self_time = |span: &str| -> f64 {
        let v: Vec<f64> = traced
            .iter()
            .map(|p| tracer.self_time(p.id, span))
            .collect();
        median(&v)
    };
    put("sim.run_s", self_time("sim.Engine::run"), "s");
    put(
        "svc.run_s",
        self_time("service.run_service_experiment"),
        "s",
    );

    let mut cost = BTreeMap::new();
    for s in samples {
        let (med, p90) = (median(&s.values), quantile(&s.values, 0.9));
        put(s.name, med, s.unit);
        put(&format!("{}.p90", s.name), p90, s.unit);
        cost.insert(s.name, med);
        rows.push(format!(
            "{{\"name\": {}, \"unit\": {}, \"median\": {}, \"p90\": {}, \"n\": {}}}",
            json_str(s.name),
            json_str(s.unit),
            json_num(med),
            json_num(p90),
            s.values.len()
        ));
    }

    // Computed layer times: per-call cost on the workload's input shape
    // times the call count the run reported. One handoff round trip is
    // two context switches on one CPU.
    let pass_s = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let pass_ref = median(&untraced.iter().map(|p| p.wall_ref).collect::<Vec<_>>());
    let traced_ref = median(&traced.iter().map(|p| p.wall_ref).collect::<Vec<_>>());
    let rounds = count("svc.rounds");
    let decisions = count("svc.decisions");
    let hosts = n_hosts as f64;
    let computed = [
        (
            "sim.handoff_s.computed",
            cost["sim.handoff_ns"] * 1e-9 * ctx_switches / 2.0,
        ),
        // A service round observes every host, then captures.
        (
            "nws.observe_s.computed",
            cost["nws.observe_us"] * 1e-6 * rounds * hosts,
        ),
        (
            "nws.capture_s.computed",
            cost["nws.capture_us"] * 1e-6 * rounds,
        ),
        (
            "sched.select_s.computed",
            cost["sched.select_us"] * 1e-6 * (count("sched.selections") + decisions),
        ),
        (
            "sched.market_clear_s.computed",
            cost["sched.market_clear_us"] * 1e-6 * rounds,
        ),
    ];
    let mut covered = 0.0;
    for (name, v) in computed {
        put(name, v, "s");
        covered += v;
    }
    put("proc.pass_s", pass_s, "s");
    // Both sides in probe units: the products were measured at another
    // moment, and host speed, than the passes. A negative value means
    // the products cover more than the pass, so one of them is wrong.
    put(
        "proc.unattributed_frac",
        1.0 - covered / layer_probe / pass_ref,
        "ratio",
    );
    put("obs.overhead_frac", traced_ref / pass_ref - 1.0, "ratio");
    (m, rows)
}

fn result_line(r: &RunResult) -> String {
    let ms: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        ms.join(", ")
    )
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract_section(section: &str) -> Vec<(String, String)> {
    let Some(start) = CONTRACT.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &CONTRACT[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    let field = |obj: &str, key: &str| -> Option<String> {
        let k = obj.find(&format!("\"{key}\""))?;
        let rest = &obj[k + key.len() + 2..];
        let q0 = rest.find('"')? + 1;
        let q1 = rest[q0..].find('"')? + q0;
        Some(rest[q0..q1].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// The short mode: every workload twice at reduced length — the default
/// seed untraced (pinned digest) and the held-out seed traced (invariants
/// and rerun identity) — checking names, units, `ok_frac` and set-up time.
fn selfcheck(seconds: f64, stamps: &Stamps) -> bool {
    let mut ok = true;
    let mut fail = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    let e2e = contract_section("end_to_end");
    let per_layer = contract_section("per_layer");
    if e2e.len() != END_TO_END.len() || per_layer.is_empty() {
        fail(format!("BENCHMARK.json sections not read: {e2e:?}"));
    }
    for w in workloads::NAMES {
        for (seed, trace, want) in [
            (DEFAULT_SEED, false, &e2e),
            (HELD_OUT_SEED, true, &per_layer),
        ] {
            let t0 = Instant::now();
            let r = run_one(w, seed, seconds, trace, stamps);
            let get = |n: &str| r.metrics.iter().find(|m| m.0 == n);
            for (name, unit) in want.iter() {
                match get(name) {
                    Some((_, v, u)) if u == unit && v.is_finite() => {}
                    other => fail(format!(
                        "{w} seed {seed}: metric {name} [{unit}] reported as {other:?}"
                    )),
                }
            }
            if r.metrics.len() != want.len() {
                fail(format!(
                    "{w} seed {seed}: {} metrics reported, {} named",
                    r.metrics.len(),
                    want.len()
                ));
            }
            if !r.correct || r.failed != 0 {
                fail(format!("{w} seed {seed}: not correct: {}", r.report));
            }
            if !trace {
                let v = |n: &str| get(n).map_or(f64::NAN, |m| m.1);
                if v("ok_frac") != 1.0 {
                    fail(format!("{w}: ok_frac {}", v("ok_frac")));
                }
                // A set-up timer that swallowed the passes would fail this.
                if v("setup_s").partial_cmp(&r.wall_s) != Some(std::cmp::Ordering::Less) {
                    fail(format!(
                        "{w}: setup_s {} not below wall_s {}",
                        v("setup_s"),
                        r.wall_s
                    ));
                }
            }
            println!(
                "{w:<18} seed {seed} trace {} : {} passes, {:.1} s, {}",
                trace as u8,
                r.attempted,
                t0.elapsed().as_secs_f64(),
                result_line(&r)
            );
        }
    }
    println!("selfcheck: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --selfcheck",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let stamps = pin();
    if args.selfcheck {
        return if selfcheck(SELFCHECK_SECONDS, &stamps) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let r = run_one(&args.workload, args.seed, args.seconds, args.trace, &stamps);
    println!("{}", r.report);
    println!("{}", result_line(&r));
    ExitCode::SUCCESS
}
