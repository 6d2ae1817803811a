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

use grads_core::obs::Obs;
use grads_core::prelude::*;
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
    let snap = |mut c: ServiceConfig| {
        c.obs = Obs::enabled();
        let obs = c.obs.clone();
        run_service_experiment(c);
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
