//! Determinism contract of the multi-tenant service layer.
//!
//! The service's promise is the same one the kernel and the decision
//! path already make: given a seed, the run is a pure function — the
//! identical admitted set, per-tenant accounts, and metrics across
//! reruns, across `SchedTune` decision paths (reference vs fast), and
//! regardless of sweep worker fan-out.
//! `ServiceResult`'s `PartialEq` is bitwise on every float, so these
//! assertions are bit-for-bit, not approximate.

use grads_core::obs::Obs;
use grads_core::prelude::*;
use proptest::prelude::*;

fn cfg(seed: u64, sched: SchedTune) -> ServiceConfig {
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
        sched,
        ..ServiceConfig::default()
    }
}

#[test]
fn rerun_is_bit_identical() {
    let a = run_service_experiment(cfg(7, SchedTune::fast()));
    let b = run_service_experiment(cfg(7, SchedTune::fast()));
    assert_eq!(a, b, "same seed must reproduce the identical run");
    assert!(a.totals.admitted > 0, "the scenario admits work");
}

#[test]
fn decision_paths_agree_bit_identically() {
    // The per-job rebuild path is where `path` selects anything (the
    // epoch path maps through its own plan), so the decision-path
    // identity is pinned with epochs off.
    let reference = run_service_experiment(cfg(11, SchedTune::reference()));
    let fast = run_service_experiment(cfg(11, SchedTune::fast().with_epoch(false)));
    assert_eq!(
        reference.admitted_ids, fast.admitted_ids,
        "reference and fast paths must admit the identical job sequence"
    );
    assert_eq!(reference, fast, "full result, reference vs fast");
}

#[test]
fn epoch_path_agrees_with_every_decision_path_bit_identically() {
    // The incremental-epoch tentpole: delta capture + persistent index +
    // mapping plan must reproduce the rebuilt-per-job run exactly, and
    // compose with the other tune axes. `fast()` has epochs on, so the
    // oracle side says `with_epoch(false)` explicitly.
    let reference = run_service_experiment(cfg(13, SchedTune::reference()));
    let fast = run_service_experiment(cfg(13, SchedTune::fast().with_epoch(false)));
    let epoch = run_service_experiment(cfg(13, SchedTune::fast().with_epoch(true)));
    assert_eq!(
        reference.admitted_ids, epoch.admitted_ids,
        "epoch mode must admit the identical job sequence"
    );
    assert_eq!(reference, epoch, "full result, reference vs epoch");
    assert_eq!(fast, epoch, "full result, fast vs epoch");
}

#[test]
fn epoch_obs_differs_only_in_epoch_counters() {
    // Identity of the observable surface: filter the epoch-only
    // `svc.epoch.*` counters and the snapshots must match line for line.
    let snap = |sched: SchedTune| {
        let mut c = cfg(5, sched);
        c.obs = Obs::enabled();
        let obs = c.obs.clone();
        run_service_experiment(c);
        obs.snapshot().to_json()
    };
    let off = snap(SchedTune::fast().with_epoch(false));
    let on = snap(SchedTune::fast().with_epoch(true));
    assert!(
        on.contains("svc.epoch.memo_misses"),
        "epoch mode publishes its counters: {on}"
    );
    assert!(
        !off.contains("svc.epoch."),
        "the oracle side really runs the per-job rebuild: {off}"
    );
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("svc.epoch."))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&off),
        strip(&on),
        "beyond svc.epoch.*, the obs surface must be identical"
    );
    assert!(
        off.contains("svc.round.decisions") && on.contains("svc.round.decisions"),
        "the decision-cost histogram is recorded on both paths"
    );
}

#[test]
fn obs_snapshot_is_bit_identical_across_reruns() {
    let snap = |seed: u64| {
        let mut c = cfg(seed, SchedTune::fast());
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
        let a = run_service_experiment(cfg(seed, SchedTune::fast()));
        let b = run_service_experiment(cfg(seed, SchedTune::fast()));
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
