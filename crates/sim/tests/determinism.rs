//! Kernel determinism gate for the incremental rate-recomputation path.
//!
//! The scenario deliberately mixes everything the kernel models: multi-host
//! compute on heterogeneous clusters, cross-cluster sends over shared WAN
//! links, injected external load windows, and one mid-run host failure that
//! kills processes while their flows are in flight. Two independent runs
//! must agree bit for bit, and the scoped/dirty-set modes must reproduce
//! the scope-everything reference exactly.

use grads_sim::prelude::*;

/// Build and run the mixed fault scenario under the given recompute mode.
fn scenario(mode: RecomputeMode) -> RunReport {
    scenario_full(
        mode,
        CompactionPolicy::default(),
        EngineTune::default(),
        false,
    )
}

/// Same scenario, with an explicit heap-compaction policy.
fn scenario_with(mode: RecomputeMode, policy: CompactionPolicy) -> RunReport {
    scenario_full(mode, policy, EngineTune::default(), false)
}

/// Same scenario, with explicit substrate tuning (transport + event queue).
fn scenario_tuned(mode: RecomputeMode, tune: EngineTune) -> RunReport {
    scenario_full(mode, CompactionPolicy::default(), tune, false)
}

/// Same scenario on the eager-recompute test oracle (one rate solve per
/// churn event instead of one per virtual instant).
fn scenario_eager(mode: RecomputeMode, tune: EngineTune) -> RunReport {
    scenario_full(mode, CompactionPolicy::default(), tune, true)
}

fn scenario_full(
    mode: RecomputeMode,
    policy: CompactionPolicy,
    tune: EngineTune,
    eager_oracle: bool,
) -> RunReport {
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
    eng.set_recompute_mode(mode);
    eng.set_compaction_policy(policy);
    eng.apply_tune(tune);
    eng.set_eager_recompute_oracle(eager_oracle);
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
/// per-link bytes.
#[test]
fn two_runs_are_bit_identical() {
    for mode in [
        RecomputeMode::Legacy,
        RecomputeMode::Full,
        RecomputeMode::Incremental,
    ] {
        let a = scenario(mode);
        let b = scenario(mode);
        assert_eq!(a.end_time, b.end_time, "{mode:?}: end_time");
        assert_eq!(a.trace, b.trace, "{mode:?}: trace");
        assert_eq!(a.host_flops, b.host_flops, "{mode:?}: host_flops");
        assert_eq!(a.link_bytes, b.link_bytes, "{mode:?}: link_bytes");
        assert_eq!(a, b, "{mode:?}: full report");
    }
}

/// The dirty-set incremental path reproduces the scope-everything reference
/// exactly, including under load injection and a mid-run host failure.
#[test]
fn incremental_matches_full_bitwise_under_faults() {
    let inc = scenario(RecomputeMode::Incremental);
    let full = scenario(RecomputeMode::Full);
    assert_eq!(inc, full);
}

/// Against the pre-change global recompute the results agree to tolerance:
/// the legacy path re-stamps every action on every event, which only
/// changes *when* floating-point accrual is chunked, never the totals.
#[test]
fn incremental_matches_legacy_to_tolerance() {
    let inc = scenario(RecomputeMode::Incremental);
    let leg = scenario(RecomputeMode::Legacy);
    assert_eq!(inc.completed, leg.completed);
    assert_eq!(inc.died, leg.died);
    assert_eq!(inc.unfinished, leg.unfinished);
    assert_eq!(inc.events_processed, leg.events_processed);
    assert!(
        (inc.end_time - leg.end_time).abs() <= 1e-6 * leg.end_time.max(1.0),
        "end_time: inc {} leg {}",
        inc.end_time,
        leg.end_time
    );
    for (x, y) in inc.host_flops.iter().zip(&leg.host_flops) {
        assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0));
    }
    for (x, y) in inc.link_bytes.iter().zip(&leg.link_bytes) {
        assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0));
    }
}

/// Heap compaction is a pure heap rebuild: any policy — the default, never
/// compacting, or compacting at every opportunity — must produce
/// bit-identical results (end time, trace, totals, events processed). Only
/// the stale-discard bookkeeping may differ, and in the expected
/// direction: never-compact pops every stale event individually.
#[test]
fn compaction_policy_does_not_perturb_results() {
    let mode = RecomputeMode::Incremental;
    let baseline = scenario_with(mode, CompactionPolicy::default());
    let never = scenario_with(mode, CompactionPolicy::never());
    let eager = scenario_with(
        mode,
        CompactionPolicy {
            min_stale: 0,
            min_stale_fraction: 0.0,
        },
    );
    for (label, r) in [("never", &never), ("eager", &eager)] {
        assert_eq!(baseline.end_time, r.end_time, "{label}: end_time");
        assert_eq!(baseline.trace, r.trace, "{label}: trace");
        assert_eq!(baseline.host_flops, r.host_flops, "{label}: host_flops");
        assert_eq!(baseline.link_bytes, r.link_bytes, "{label}: link_bytes");
        assert_eq!(
            baseline.events_processed, r.events_processed,
            "{label}: events_processed"
        );
        assert_eq!(baseline.completed, r.completed, "{label}: completed");
        assert_eq!(baseline.died, r.died, "{label}: died");
    }
}

/// The direct (single-slot rendezvous) handoff and the seed channel
/// transport carry the same messages in the same order, so every recompute
/// mode must produce bit-identical reports across transports.
#[test]
fn direct_handoff_matches_channel_bitwise() {
    for mode in [
        RecomputeMode::Legacy,
        RecomputeMode::Full,
        RecomputeMode::Incremental,
    ] {
        let direct = scenario_tuned(
            mode,
            EngineTune {
                handoff: HandoffMode::Direct,
                ..Default::default()
            },
        );
        let channel = scenario_tuned(
            mode,
            EngineTune {
                handoff: HandoffMode::Channel,
                ..Default::default()
            },
        );
        assert_eq!(direct, channel, "{mode:?}: direct vs channel transport");
    }
}

/// The indexed (position-tracked) event queue and the seed heap+stale-mark
/// queue pop identical live-event sequences, so reports must be
/// bit-identical across queue modes too.
#[test]
fn indexed_queue_matches_stale_mark_bitwise() {
    for mode in [
        RecomputeMode::Legacy,
        RecomputeMode::Full,
        RecomputeMode::Incremental,
    ] {
        let indexed = scenario_tuned(
            mode,
            EngineTune {
                queue: EventQueueMode::Indexed,
                ..Default::default()
            },
        );
        let stale = scenario_tuned(
            mode,
            EngineTune {
                queue: EventQueueMode::StaleMark,
                ..Default::default()
            },
        );
        assert_eq!(indexed, stale, "{mode:?}: indexed vs stale-mark queue");
    }
}

/// Full 2×2 substrate matrix (transport × queue) agrees bitwise — the seed
/// configuration (channel + stale-mark) and the new default (direct +
/// indexed) included.
#[test]
fn substrate_matrix_is_bit_identical() {
    let baseline = scenario_tuned(RecomputeMode::Incremental, EngineTune::default());
    for handoff in [HandoffMode::Channel, HandoffMode::Direct] {
        for queue in [EventQueueMode::StaleMark, EventQueueMode::Indexed] {
            let r = scenario_tuned(
                RecomputeMode::Incremental,
                EngineTune {
                    handoff,
                    queue,
                    ..Default::default()
                },
            );
            assert_eq!(baseline, r, "{handoff:?} + {queue:?}");
        }
    }
}

/// Coalesced recomputation — deferring the rate solve to the end of each
/// virtual instant, the production timing — must be unobservable: for
/// every recompute mode the full report matches the eager oracle bit for
/// bit, under load injection and the mid-run host failure.
#[test]
fn coalesced_matches_eager_bitwise_across_modes() {
    for mode in [
        RecomputeMode::Legacy,
        RecomputeMode::Full,
        RecomputeMode::Incremental,
    ] {
        let eager = scenario_eager(mode, EngineTune::default());
        let coalesced = scenario_tuned(mode, EngineTune::default());
        assert_eq!(eager, coalesced, "{mode:?}: eager vs coalesced timing");
    }
}

/// Coalesced timing composed with the rest of the substrate matrix
/// (transport × queue) still reproduces the eager-oracle reference.
#[test]
fn coalesced_substrate_matrix_is_bit_identical() {
    let baseline = scenario_eager(RecomputeMode::Incremental, EngineTune::default());
    for handoff in [HandoffMode::Channel, HandoffMode::Direct] {
        for queue in [EventQueueMode::StaleMark, EventQueueMode::Indexed] {
            let r = scenario_tuned(
                RecomputeMode::Incremental,
                EngineTune {
                    handoff,
                    queue,
                    ..Default::default()
                },
            );
            assert_eq!(baseline, r, "coalesced + {handoff:?} + {queue:?}");
        }
    }
}

/// The scenario actually exercises what it claims to: cross-cluster flows,
/// a killed worker, and survivors that finish.
#[test]
fn scenario_is_nontrivial() {
    let r = scenario(RecomputeMode::Incremental);
    assert!(r.died.contains(&"w7".to_string()), "died: {:?}", r.died);
    assert!(r.died.contains(&"r7".to_string()), "died: {:?}", r.died);
    assert!(r.completed.len() >= 8, "completed: {:?}", r.completed);
    assert!(r.link_bytes.iter().any(|&b| b > 0.0));
    assert!(r.trace.series("w_done").len() >= 6);
}
