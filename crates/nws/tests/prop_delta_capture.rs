//! Property pin of the delta-capture equivalence: under *any*
//! interleaving of CPU/network observations, no-op observations
//! (re-measuring a value that leaves the served forecast bit-identical)
//! and capture points, a [`ForecastSnapshot::capture_delta`] chain serves
//! bitwise exactly what a fresh full [`ForecastSnapshot::capture`] would
//! serve at every capture point. This is the dirty-set bookkeeping's
//! contract — including the clearing edge cases, where a series goes
//! dirty and then returns to its baseline bits before the next capture.
//!
//! At every capture point the dirty-host list must also be strictly
//! ascending and equal a naive recount: the hosts whose served forecast
//! bits differ from the bits the last capture served. The wide grid's
//! 140 hosts span three `u64` words of the dirty-host bitset, and its
//! scripts favour the hosts at the word edges. CPU observations arrive
//! one host at a time (`observe_cpu`) and as whole-grid rounds
//! (`observe_cpu_all`), which rewrite each bitset word in one pass; the
//! recount is also checked right after every such round.

use grads_nws::{ForecastSnapshot, NwsService};
use grads_sim::prelude::*;
use grads_sim::topology::{GridBuilder, HostSpec};
use proptest::prelude::*;

/// Host counts per cluster of the small grid.
const SMALL: [usize; 3] = [2, 2, 2];
/// Host counts per cluster of the wide grid: 140 hosts, three words.
const WIDE: [usize; 3] = [64, 64, 12];

fn grid(hosts_per_cluster: &[usize]) -> Grid {
    let mut b = GridBuilder::new();
    let mut ids = Vec::new();
    for (c, &n) in hosts_per_cluster.iter().enumerate() {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1e8, 1e-4);
        b.add_hosts(id, n, &HostSpec::with_speed(1e8 + 1e7 * c as f64));
        ids.push(id);
    }
    for c in 1..ids.len() {
        b.connect(ids[0], ids[c], 1e6 * c as f64, 0.01 * c as f64);
    }
    b.build().unwrap()
}

/// One scripted step. Values are drawn from a tiny palette so that
/// repeated observations frequently reproduce the same forecast bits —
/// the no-op / dirty-clearing paths get exercised, not just the
/// always-dirty path.
#[derive(Debug, Clone)]
enum Op {
    Cpu {
        host: u32,
        v: u8,
    },
    /// One `observe_cpu_all` round over every host of the grid.
    CpuAll {
        v: Vec<u8>,
    },
    Bandwidth {
        a: u8,
        b: u8,
        v: u8,
    },
    Latency {
        a: u8,
        b: u8,
        v: u8,
    },
    Capture,
}

/// Steps over a grid of `n_hosts` hosts in `n_clusters` clusters, single
/// CPU observations on hosts drawn from `host`.
fn ops(
    n_hosts: usize,
    n_clusters: u8,
    host: impl Strategy<Value = u32> + 'static,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (host, 0u8..4).prop_map(|(host, v)| Op::Cpu { host, v }),
        1 => proptest::collection::vec(0u8..4, n_hosts).prop_map(|v| Op::CpuAll { v }),
        2 => (0..n_clusters, 0..n_clusters, 0u8..4)
            .prop_map(|(a, b, v)| Op::Bandwidth { a, b, v }),
        2 => (0..n_clusters, 0..n_clusters, 0u8..4)
            .prop_map(|(a, b, v)| Op::Latency { a, b, v }),
        1 => Just(Op::Capture),
    ];
    proptest::collection::vec(op, len)
}

fn palette(v: u8) -> f64 {
    [0.25, 0.5, 0.75, 0.5][v as usize % 4]
}

/// The hosts whose served CPU forecast bits differ from `captured`.
fn recount(nws: &NwsService, captured: &[u64]) -> Vec<HostId> {
    (0..captured.len() as u32)
        .map(HostId)
        .filter(|&h| nws.forecast_cpu_or_idle(h).to_bits() != captured[h.0 as usize])
        .collect()
}

/// Run `ops` on `g`, checking the delta chain and the dirty-host list at
/// every capture point and once at the end.
fn check_script(g: &Grid, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let n_hosts = g.hosts().len();
    let mut nws = NwsService::new();
    nws.enable_delta_tracking();
    let mut prev = ForecastSnapshot::capture_sync(g, &mut nws);
    let mut captured = vec![1.0f64.to_bits(); n_hosts];
    // Reused across captures, so each refill must drop the last one's hosts.
    let mut reused = Vec::new();
    for (step, o) in ops.into_iter().chain([Op::Capture]).enumerate() {
        match o {
            Op::Cpu { host, v } => nws.observe_cpu(HostId(host), palette(v)),
            Op::CpuAll { v } => {
                let avail: Vec<f64> = v.into_iter().map(palette).collect();
                nws.observe_cpu_all(&avail);
                prop_assert_eq!(
                    nws.dirty_hosts(),
                    recount(&nws, &captured),
                    "step {}: batch round",
                    step
                );
            }
            Op::Bandwidth { a, b, v } => nws.observe_bandwidth(
                ClusterId(a as u32),
                ClusterId(b as u32),
                1e6 * (1.0 + palette(v)),
            ),
            Op::Latency { a, b, v } => nws.observe_latency(
                ClusterId(a as u32),
                ClusterId(b as u32),
                0.01 * (1.0 + palette(v)),
            ),
            Op::Capture => {
                let dirty = nws.dirty_hosts();
                prop_assert!(
                    dirty.windows(2).all(|w| w[0] < w[1]),
                    "step {}: dirty hosts not strictly ascending: {:?}",
                    step,
                    dirty
                );
                prop_assert_eq!(&dirty, &recount(&nws, &captured), "step {}", step);
                nws.dirty_hosts_into(&mut reused);
                prop_assert_eq!(&reused, &dirty, "step {}: reused buffer", step);
                let full = ForecastSnapshot::capture(g, &nws);
                let delta = ForecastSnapshot::capture_delta(g, &mut nws, &prev);
                prop_assert_eq!(
                    full.fingerprint(),
                    delta.fingerprint(),
                    "step {}: delta chain diverged from full capture",
                    step
                );
                for h in 0..n_hosts as u32 {
                    prop_assert_eq!(
                        full.speed(HostId(h)).to_bits(),
                        delta.speed(HostId(h)).to_bits(),
                        "step {} host {}",
                        step,
                        h
                    );
                    captured[h as usize] = nws.forecast_cpu_or_idle(HostId(h)).to_bits();
                }
                prop_assert!(nws.dirty_hosts().is_empty(), "capture drains dirty hosts");
                prev = delta;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_capture_chain_equals_full_capture(
        ops in ops(
            SMALL.iter().sum(),
            SMALL.len() as u8,
            0..SMALL.iter().sum::<usize>() as u32,
            1..120,
        ),
    ) {
        check_script(&grid(&SMALL), ops)?;
    }

    /// The same contract on a grid whose dirty-host bitset spans three
    /// words, with half the CPU observations on the hosts at word edges.
    #[test]
    fn delta_capture_chain_spans_bitset_words(
        ops in ops(WIDE.iter().sum(), WIDE.len() as u8, prop_oneof![
            1 => (0..6usize).prop_map(|i| [0, 63, 64, 127, 128, 139][i]),
            1 => 0..WIDE.iter().sum::<usize>() as u32,
        ], 1..300),
    ) {
        check_script(&grid(&WIDE), ops)?;
    }
}
