//! Determinism contract of the multi-tenant service layer.
//!
//! The service's promise is the same one the kernel and the decision
//! path already make: given a seed, the run is a pure function — the
//! identical admitted set, per-tenant accounts, and metrics across
//! reruns and regardless of sweep worker fan-out. Agreement with the
//! per-job rebuild is checked inside every debug-build run (see
//! `grads_service::service`), so these runs check it too.
//! `ServiceResult`'s `PartialEq` is bitwise on every float, so these
//! assertions are bit-for-bit, not approximate.

use grads_core::obs::{MetricsSnapshot, Obs};
use grads_core::prelude::*;
use grads_core::service::{generate_workload, SpanLog};
use proptest::prelude::*;

fn cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed,
            n_jobs: 120,
            n_tenants: 4,
            mean_interarrival_s: 1.0,
            ..WorkloadConfig::default()
        },
        hosts: 48,
        clusters: 4,
        cores_per_host: 2,
        round_s: 10.0,
        ..ServiceConfig::default()
    }
}

/// The `service_mapheavy` shape on a small grid: 8 clusters, no
/// admission cap and a reserve price above most budget rates, so a queue
/// stands and is re-decided every round. On debug builds every one of
/// those decisions runs the dispatcher's rebuild cross-check across all
/// 8 clusters.
fn standing_queue_cfg(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed,
            n_jobs: 40,
            mean_interarrival_s: 0.1,
            ..WorkloadConfig::default()
        },
        hosts: 64,
        clusters: 8,
        cores_per_host: 2,
        round_s: 30.0,
        reserve_price: 6.0,
        max_admissions_per_round: usize::MAX,
        ..ServiceConfig::default()
    }
}

/// The `service_churn` shape on a 48-host grid: all 60 arrivals land in
/// the first few rounds and jobs hold their hosts for hundreds of
/// seconds, so most rounds only retire work (the drain).
fn drain_heavy_cfg() -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed: 5,
            n_jobs: 60,
            mean_interarrival_s: 0.1,
            ..WorkloadConfig::default()
        },
        hosts: 48,
        clusters: 4,
        cores_per_host: 2,
        ..ServiceConfig::default()
    }
}

/// Sparse arrivals on a 32-host grid: the first job arrives after the
/// first two rounds and the queue empties between arrivals, so rounds
/// that observe but decide nothing come before the first capture and
/// between later ones.
fn sparse_arrivals_cfg() -> ServiceConfig {
    ServiceConfig {
        workload: WorkloadConfig {
            seed: 9,
            n_jobs: 24,
            mean_interarrival_s: 40.0,
            ..WorkloadConfig::default()
        },
        hosts: 32,
        clusters: 4,
        cores_per_host: 2,
        ..ServiceConfig::default()
    }
}

/// FNV-1a over `bytes`.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a pinned run must reproduce: `svc.rounds`, the decision count,
/// and digests of the whole `ServiceResult` and of its span trace.
#[derive(Debug, PartialEq)]
struct Pins {
    rounds: u64,
    decisions: f64,
    result: u64,
    trace: u64,
}

/// Run `c` with metrics and spans on. The result digest hashes its
/// `Debug` form, which prints every float in shortest round-trip form,
/// so it tells apart any two results that differ in one bit of one
/// field.
fn pinned_run(c: ServiceConfig) -> (Pins, MetricsSnapshot) {
    let (obs, spans) = (Obs::enabled(), SpanLog::enabled());
    let r = run_service_experiment(ServiceConfig {
        obs: obs.clone(),
        spans: spans.clone(),
        ..c
    });
    let snap = obs.snapshot();
    let pins = Pins {
        rounds: r.rounds,
        decisions: snap
            .histogram("svc.round.decisions")
            .expect("published")
            .sum,
        result: fnv(format!("{r:?}").as_bytes()),
        trace: fnv(spans.to_chrome_trace().as_bytes()),
    };
    (pins, snap)
}

/// Rounds that decide nothing skip the snapshot capture, and drain rounds
/// after the stream ends skip the observation too. Neither is read by a
/// decision, so both configs must reproduce, bit for bit, the results and
/// span traces of the service that observed and captured every round
/// (the pins below were recorded from it). Release builds compile out
/// the in-run rebuild checks, so this is the optimised guard of the skip.
#[test]
fn demand_driven_weather_matches_every_round_weather() {
    let weather = |s: &MetricsSnapshot| {
        let count = |name| s.counter(name).expect(name);
        (count("svc.capture_rounds"), count("svc.weather_rounds"))
    };

    let (drain, snap) = pinned_run(drain_heavy_cfg());
    assert_eq!(
        drain,
        Pins {
            rounds: 385,
            decisions: 177.0,
            result: 3726076655004423182,
            trace: 18219117052211923845,
        }
    );
    let (capture, observe) = weather(&snap);
    assert!(
        capture <= observe && observe < drain.rounds,
        "the drain skips weather: {capture} captures, {observe} observations, {} rounds",
        drain.rounds
    );

    let cfg = sparse_arrivals_cfg();
    let first = generate_workload(&cfg.workload)[0].submit_s;
    assert!(first > cfg.round_s, "the first job arrives at {first}");
    let (sparse, snap) = pinned_run(cfg);
    assert_eq!(
        sparse,
        Pins {
            rounds: 287,
            decisions: 24.0,
            result: 6158104156610520614,
            trace: 17201414070403257150,
        }
    );
    let (capture, observe) = weather(&snap);
    assert!(
        capture < observe && observe < sparse.rounds,
        "empty-queue rounds skip the capture: {capture} captures, {observe} observations, {} rounds",
        sparse.rounds
    );
}

#[test]
fn rerun_is_bit_identical() {
    for c in [cfg(7), standing_queue_cfg(11)] {
        let a = run_service_experiment(c.clone());
        let b = run_service_experiment(c);
        assert_eq!(a, b, "same seed must reproduce the identical run");
        assert!(a.totals.admitted > 0, "the scenario admits work");
    }
}

#[test]
fn obs_snapshot_is_bit_identical_across_reruns() {
    // The sink goes in by struct update, not by assigning to the moved-in
    // parameter: rustc 1.95.0 at opt-level 3 miscompiles a closure that
    // assigns to a field of its by-value parameter when it is called
    // twice with the same constant argument. The second call sees the
    // first call's (freed) sink, and the release run aborts on a
    // corrupted heap.
    let snap = |c: ServiceConfig| {
        let obs = Obs::enabled();
        run_service_experiment(ServiceConfig {
            obs: obs.clone(),
            ..c
        });
        obs.snapshot()
    };
    assert_eq!(
        snap(cfg(3)).to_json(),
        snap(cfg(3)).to_json(),
        "published counters are deterministic"
    );
    let standing = snap(standing_queue_cfg(11));
    assert_eq!(
        standing.to_json(),
        snap(standing_queue_cfg(11)).to_json(),
        "published counters are deterministic"
    );
    // The standing-queue shape re-decides its queue round after round,
    // so it takes more decisions than it has jobs.
    let decisions = standing
        .histogram("svc.round.decisions")
        .expect("published")
        .sum;
    assert!(decisions > 40.0, "the queue stands: {decisions} decisions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed: the run reproduces bitwise, and the ledgers balance —
    /// every submission is admitted or rejected, completions equal
    /// admissions once drained, SLO misses never exceed completions,
    /// and nobody spends past their aggregate budget.
    #[test]
    fn any_seed_reproduces_and_balances(seed in 0u64..1_000_000) {
        let a = run_service_experiment(cfg(seed));
        let b = run_service_experiment(cfg(seed));
        prop_assert_eq!(&a, &b);
        let t = &a.totals;
        prop_assert_eq!(t.submitted, 120);
        prop_assert_eq!(t.admitted + t.rejected, t.submitted);
        prop_assert_eq!(t.completed, t.admitted);
        prop_assert!(t.slo_misses <= t.completed);
        prop_assert!(t.host_seconds >= 0.0 && t.spend >= 0.0);
        prop_assert_eq!(t.admitted, a.admitted_ids.len() as u64);
        prop_assert!(a.fairness >= 0.0 && a.fairness <= 1.0 + 1e-12);
    }
}
