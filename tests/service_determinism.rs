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

#[test]
fn rerun_is_bit_identical() {
    let a = run_service_experiment(cfg(7));
    let b = run_service_experiment(cfg(7));
    assert_eq!(a, b, "same seed must reproduce the identical run");
    assert!(a.totals.admitted > 0, "the scenario admits work");
}

#[test]
fn obs_snapshot_is_bit_identical_across_reruns() {
    let snap = |seed: u64| {
        let mut c = cfg(seed);
        c.obs = Obs::enabled();
        let obs = c.obs.clone();
        run_service_experiment(c);
        obs.snapshot().to_json()
    };
    assert_eq!(snap(3), snap(3), "published counters are deterministic");
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
