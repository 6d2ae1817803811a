//! Kernel determinism gate for the production substrate.
//!
//! The scenario deliberately mixes everything the kernel models: multi-host
//! compute on heterogeneous clusters, cross-cluster sends over shared WAN
//! links, injected external load windows, and one mid-run host failure that
//! kills processes while their flows are in flight. Two independent runs
//! must agree bit for bit, and the production path must reproduce each
//! hidden reference oracle exactly: the full recompute (every host and
//! sharing component on each solve), the unbatched transport (one blocking
//! round trip per `Ctx` call) and the eager recompute (one rate solve per
//! churn instead of one per virtual instant).

use grads_sim::prelude::*;

/// Which hidden reference oracles a run switches on.
#[derive(Debug, Clone, Copy)]
struct Oracles {
    full: bool,
    unbatched: bool,
    eager: bool,
}

const PRODUCTION: Oracles = Oracles {
    full: false,
    unbatched: false,
    eager: false,
};

/// Every combination of the three oracles.
fn all_oracle_sets() -> impl Iterator<Item = Oracles> {
    (0..8u8).map(|m| Oracles {
        full: m & 1 != 0,
        unbatched: m & 2 != 0,
        eager: m & 4 != 0,
    })
}

/// Build and run the mixed fault scenario with the given oracles.
fn scenario(o: Oracles) -> RunReport {
    let mut b = GridBuilder::new();
    let mut clusters = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..3u32 {
        let cl = b.cluster(&format!("C{c}"));
        b.local_link(cl, 1.0e6, 1.0e-3);
        let spec = HostSpec {
            speed: 100.0 * (c + 1) as f64,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(cl, 3, &spec));
        clusters.push(cl);
    }
    b.connect(clusters[0], clusters[1], 4.0e5, 30e-3);
    b.connect(clusters[1], clusters[2], 2.5e5, 45e-3);
    b.connect(clusters[0], clusters[2], 1.5e5, 60e-3);

    let mut eng = Engine::new(b.build().unwrap());
    eng.set_full_recompute_oracle(o.full);
    eng.set_unbatched_oracle(o.unbatched);
    eng.set_eager_recompute_oracle(o.eager);
    eng.panic_on_failure = false;
    // External load competing with the workers' compute actions.
    eng.add_load_window(hosts[0], 0.5, Some(3.0), 1.5);
    eng.add_load_window(hosts[4], 1.0, None, 0.75);
    // One host dies mid-run: at t = 1.2 its worker is blocked in a WAN
    // send with the flow still in flight and its receiver is parked in
    // `recv`, so the failure hits compute and communication mid-stride.
    eng.fail_host_at(hosts[7], 1.2);

    for i in 0..9usize {
        let src = hosts[i];
        let dst = hosts[(i + 3) % 9];
        let key = mail_key(&[100 + i as u64]);
        eng.spawn(&format!("w{i}"), src, move |ctx| {
            ctx.compute(60.0 + 15.0 * i as f64);
            ctx.send(key, dst, 5.0e4 * ((i % 3) + 1) as f64, Box::new(i));
            ctx.compute(40.0);
            let t = ctx.now();
            ctx.trace("w_done", t);
        });
        // The receiver lives on the destination host of the matching sender.
        let rkey = mail_key(&[100 + ((i + 6) % 9) as u64]);
        eng.spawn(&format!("r{i}"), src, move |ctx| {
            let _ = ctx.recv(rkey);
            ctx.compute(25.0 + 5.0 * i as f64);
            let t = ctx.now();
            ctx.trace("r_done", t);
        });
    }
    eng.run()
}

/// Two runs of the same scenario are bit-identical: same `end_time`, same
/// trace (f64 timestamps compared bitwise), same per-host flops and
/// per-link bytes — on the production path and on all oracles at once.
#[test]
fn two_runs_are_bit_identical() {
    let all = Oracles {
        full: true,
        unbatched: true,
        eager: true,
    };
    for o in [PRODUCTION, all] {
        let a = scenario(o);
        let b = scenario(o);
        assert_eq!(a.end_time, b.end_time, "{o:?}: end_time");
        assert_eq!(a.trace, b.trace, "{o:?}: trace");
        assert_eq!(a.host_flops, b.host_flops, "{o:?}: host_flops");
        assert_eq!(a.link_bytes, b.link_bytes, "{o:?}: link_bytes");
        assert_eq!(a, b, "{o:?}: full report");
    }
}

/// The dirty-set incremental path reproduces the scope-everything oracle
/// exactly, including under load injection and a mid-run host failure.
#[test]
fn incremental_matches_full_bitwise_under_faults() {
    let inc = scenario(PRODUCTION);
    let full = scenario(Oracles {
        full: true,
        ..PRODUCTION
    });
    assert_eq!(inc, full);
}

/// The batched handoff (grant-stamped clock reads, zero-length shortcuts,
/// the outbox) reproduces the unbatched oracle, which makes every `Ctx`
/// call a blocking round trip.
#[test]
fn direct_handoff_matches_unbatched_oracle_bitwise() {
    let direct = scenario(PRODUCTION);
    let unbatched = scenario(Oracles {
        unbatched: true,
        ..PRODUCTION
    });
    assert_eq!(direct, unbatched);
}

/// Coalesced recomputation — deferring the rate solve to the end of each
/// virtual instant, the production timing — must be unobservable: under
/// both recompute scopes the full report matches the eager oracle bit for
/// bit, under load injection and the mid-run host failure.
#[test]
fn coalesced_matches_eager_bitwise_across_modes() {
    for full in [false, true] {
        let o = Oracles { full, ..PRODUCTION };
        let eager = scenario(Oracles { eager: true, ..o });
        let coalesced = scenario(o);
        assert_eq!(eager, coalesced, "full={full}: eager vs coalesced timing");
    }
}

/// Every combination of the three oracles — each alone, in pairs, and all
/// at once — agrees bitwise with the production path.
#[test]
fn substrate_matrix_is_bit_identical() {
    let baseline = scenario(PRODUCTION);
    for o in all_oracle_sets() {
        assert_eq!(baseline, scenario(o), "{o:?}");
    }
}

/// The scenario actually exercises what it claims to: cross-cluster flows,
/// a killed worker, and survivors that finish.
#[test]
fn scenario_is_nontrivial() {
    let r = scenario(PRODUCTION);
    assert!(r.died.contains(&"w7".to_string()), "died: {:?}", r.died);
    assert!(r.died.contains(&"r7".to_string()), "died: {:?}", r.died);
    assert!(r.completed.len() >= 8, "completed: {:?}", r.completed);
    assert!(r.link_bytes.iter().any(|&b| b > 0.0));
    assert!(r.trace.series("w_done").len() >= 6);
}
