//! Pins the production defaults themselves, not just the identity of the
//! paths they select between: a default-built engine coalesces same-instant
//! churn into one rate solve per virtual instant, and a default-configured
//! service maps through incremental decision epochs. A default flip back
//! to the eager kernel timing or the per-job rebuild fails here, even
//! though every identity suite would still pass.

use grads_core::prelude::*;

#[test]
fn default_engine_coalesces_a_synchronized_burst() {
    // One cluster, eight hosts, a synchronized all-to-all round: every
    // process posts its sends at t = 0, so the flow activations of each
    // WAN-latency instant arrive as one same-instant churn burst.
    let mut b = GridBuilder::new();
    let c = b.cluster("C");
    b.local_link(c, 1e8, 1e-4);
    let hosts = b.add_hosts(c, 8, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    eng.apply_tune(EngineTune::default());
    let obs = Obs::enabled();
    eng.set_obs(obs.clone());
    let n = hosts.len();
    for i in 0..n {
        let peers = hosts.clone();
        eng.spawn(&format!("p{i}"), hosts[i], move |ctx| {
            for (j, &peer) in peers.iter().enumerate() {
                if j != i {
                    ctx.isend(mail_key(&[i as u64, j as u64]), peer, 1e5, Box::new(()));
                }
            }
            for j in (0..n).filter(|&j| j != i) {
                let _ = ctx.recv(mail_key(&[j as u64, i as u64]));
            }
        });
    }
    let report = eng.run();
    assert_eq!(report.completed.len(), n, "the round drains");
    let snap = obs.snapshot();
    let churn = snap.counter("sim.recomputes").unwrap_or(0);
    let solves = snap.counter("sim.recompute.solves").unwrap_or(0);
    assert!(churn > 0, "the round churns the rate model");
    assert!(
        solves < churn,
        "default timing must coalesce same-instant churn: {solves} solves for {churn} churns"
    );
}

#[test]
fn default_service_config_runs_decision_epochs() {
    let cfg = ServiceConfig {
        workload: WorkloadConfig {
            n_jobs: 60,
            n_tenants: 2,
            ..WorkloadConfig::default()
        },
        hosts: 32,
        clusters: 4,
        obs: Obs::enabled(),
        ..ServiceConfig::default()
    };
    let obs = cfg.obs.clone();
    let r = run_service_experiment(cfg);
    assert!(r.totals.admitted > 0, "the scenario admits work");
    let json = obs.snapshot().to_json();
    for k in [
        "svc.epoch.memo_misses",
        "svc.epoch.elig_updates",
        "svc.epoch.index_repairs",
    ] {
        assert!(json.contains(k), "default service must publish {k}: {json}");
    }
}
