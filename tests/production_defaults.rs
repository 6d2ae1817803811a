//! Pins the production defaults themselves, not just the identity of the
//! paths they select between: a default-built engine coalesces same-instant
//! churn into one rate solve per virtual instant and batches calls the
//! kernel need not see, and a default-configured service maps through
//! incremental decision epochs. A default flip back to the eager kernel
//! timing, the unbatched transport or the per-job rebuild fails here, even
//! though every identity suite would still pass. The reverse checks pin
//! the hidden kernel oracles as non-vacuous: each really switches off the
//! production shortcut it is the reference for.

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

/// Kernel request counters of a two-host script mixing `isend`, `trace`
/// and `now()` bursts with real blocking calls, batched or on the
/// unbatched oracle. Returns `(outboxed, roundtrips, now() calls)`.
fn call_burst_counters(unbatched: bool) -> (u64, u64, u64) {
    const BURSTS: u64 = 6;
    const NOWS_PER_BURST: u64 = 3;
    let mut b = GridBuilder::new();
    let c = b.cluster("C");
    b.local_link(c, 1e8, 1e-4);
    let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_unbatched_oracle(unbatched);
    let obs = Obs::enabled();
    eng.set_obs(obs.clone());
    let dst = hosts[1];
    eng.spawn("src", hosts[0], move |ctx| {
        for k in 0..BURSTS {
            ctx.isend(mail_key(&[k]), dst, 1e4, Box::new(k));
            ctx.trace("sent", k as f64);
            for _ in 0..NOWS_PER_BURST {
                let t = ctx.now();
                ctx.trace("t", t);
            }
            ctx.compute(1e6);
        }
    });
    eng.spawn("dst", dst, move |ctx| {
        for k in 0..BURSTS {
            let _ = ctx.recv(mail_key(&[k]));
        }
    });
    let report = eng.run();
    assert_eq!(report.completed.len(), 2, "the script drains");
    let snap = obs.snapshot();
    let count = |n: &str| snap.counter(n).unwrap_or(0);
    (
        count("sim.req.outboxed"),
        count("sim.req.roundtrips"),
        BURSTS * NOWS_PER_BURST,
    )
}

#[test]
fn unbatched_oracle_makes_every_call_a_round_trip() {
    let (outboxed, roundtrips, _) = call_burst_counters(false);
    let (oracle_outboxed, oracle_roundtrips, nows) = call_burst_counters(true);
    assert!(outboxed > 0, "the default transport must batch");
    assert_eq!(oracle_outboxed, 0, "the oracle must not batch");
    // Under the oracle every outboxed request and every clock read is a
    // round trip of its own; nothing else changes.
    assert_eq!(
        oracle_roundtrips,
        roundtrips + outboxed + nows,
        "every batched call and every now() must reach the kernel under the oracle"
    );
}

#[test]
fn eager_oracle_solves_once_per_churn() {
    let mut b = GridBuilder::new();
    let c = b.cluster("C");
    b.local_link(c, 1e8, 1e-4);
    let hosts = b.add_hosts(c, 4, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_eager_recompute_oracle(true);
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
    assert!(churn > 0, "the round churns the rate model");
    assert_eq!(
        snap.counter("sim.recompute.solves").unwrap_or(0),
        churn,
        "the eager oracle must solve once per churn"
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
    for k in ["svc.epoch.elig_updates", "svc.epoch.index_repairs"] {
        assert!(json.contains(k), "default service must publish {k}: {json}");
    }
}
