//! Closed-form checks of the kernel's sharing models.
//!
//! The identity suites compare two paths of one kernel, so a modelling
//! bug both paths share would pass them. These scenarios have answers
//! known analytically, and every input is chosen so that the answer and
//! each intermediate the kernel computes are exact in `f64`: latencies
//! and work sizes are dyadic, and capacities and speeds are
//! `105 · 2^k`, so that every fair share `C / n` or `c · s / k` with
//! `n, k ≤ 8` is exact too (105 = 3 · 5 · 7). The kernel must therefore
//! hit each answer bit for bit, not merely within a tolerance.

use grads_sim::prelude::*;
use std::collections::BTreeMap;

/// WAN capacity in bytes/s: `105 · 2^13`, divisible by every `n ≤ 8`.
const WAN_BW: f64 = 105.0 * 8192.0;
/// Local links are `2^24` times faster, so they never bind.
const LOCAL_BW: f64 = WAN_BW * 16_777_216.0;
const LOCAL_LAT: f64 = 1.0 / 1024.0;
const WAN_LAT: f64 = 1.0 / 8.0;

/// Completion times recorded under `label`, as bits, in trace order.
fn finish_bits(r: &RunReport, label: &str) -> Vec<u64> {
    r.trace
        .series(label)
        .iter()
        .map(|&(_, v)| v.to_bits())
        .collect()
}

/// `n` processes on one host of cluster A each move `bytes` to one host
/// of cluster B at t = 0. Every flow crosses the same WAN link, which is
/// the only link that binds.
fn flows_over_one_bottleneck(n: usize, bytes: f64) -> (RunReport, Grid) {
    let mut b = GridBuilder::new();
    let ca = b.cluster("A");
    let cb = b.cluster("B");
    b.local_link(ca, LOCAL_BW, LOCAL_LAT);
    b.local_link(cb, LOCAL_BW, LOCAL_LAT);
    let src = b.add_hosts(ca, 1, &HostSpec::with_speed(1.0))[0];
    let dst = b.add_hosts(cb, 1, &HostSpec::with_speed(1.0))[0];
    b.connect(ca, cb, WAN_BW, WAN_LAT);
    let grid = b.build().unwrap();
    let mut eng = Engine::new(grid.clone());
    for i in 0..n {
        eng.spawn(&format!("f{i}"), src, move |ctx| {
            ctx.transfer(dst, bytes);
            let t = ctx.now();
            ctx.trace("done", t);
        });
    }
    (eng.run(), grid)
}

/// n = 1..=8 equal flows of B bytes sharing a link of capacity C each
/// get C / n, so all of them finish at exactly `latency + n·B/C`, and
/// the bottleneck carries exactly `n·B` bytes.
#[test]
fn equal_flows_on_one_bottleneck_finish_at_latency_plus_n_b_over_c() {
    let bytes = WAN_BW / 16.0;
    let latency = LOCAL_LAT + WAN_LAT + LOCAL_LAT;
    for n in 1..=8usize {
        let (r, grid) = flows_over_one_bottleneck(n, bytes);
        assert_eq!(r.completed.len(), n, "n={n}: every flow completes");
        let expected = latency + n as f64 * bytes / WAN_BW;
        assert_eq!(
            finish_bits(&r, "done"),
            vec![expected.to_bits(); n],
            "n={n}: finish times, expected {expected}"
        );
        assert_eq!(r.end_time.to_bits(), expected.to_bits(), "n={n}: end_time");
        let wan = grid
            .links()
            .iter()
            .position(|l| l.bandwidth == WAN_BW)
            .expect("one WAN link");
        assert_eq!(
            r.link_bytes[wan].to_bits(),
            (n as f64 * bytes).to_bits(),
            "n={n}: bytes over the bottleneck"
        );
    }
}

/// `k` processes each compute `flops` on one `cores`-core host at t = 0.
fn computes_on_one_host(k: usize, cores: u32, speed: f64, flops: f64) -> RunReport {
    let mut b = GridBuilder::new();
    let c = b.cluster("LOCAL");
    let spec = HostSpec {
        cores,
        ..HostSpec::with_speed(speed)
    };
    let h = b.add_hosts(c, 1, &spec)[0];
    let mut eng = Engine::new(b.build().unwrap());
    for i in 0..k {
        eng.spawn(&format!("c{i}"), h, move |ctx| {
            ctx.compute(flops);
            let t = ctx.now();
            ctx.trace("done", t);
        });
    }
    eng.run()
}

/// k = 1..=8 equal computes of F flops on a c-core host of speed s
/// (c ∈ {1, 2, 4}) each run at `min(s, c·s/k)`, so all of them finish at
/// exactly `(F/s)·max(1, k/c)`, and the host accrues exactly `k·F` flops.
#[test]
fn equal_computes_on_a_multicore_host_finish_at_the_closed_form() {
    let speed = 105.0 * 1_048_576.0;
    let flops = speed * 4.0;
    let mut seen = BTreeMap::new();
    for cores in [1u32, 2, 4] {
        for k in 1..=8usize {
            let r = computes_on_one_host(k, cores, speed, flops);
            assert_eq!(r.completed.len(), k, "k={k} c={cores}: all complete");
            let expected = (flops / speed) * (k as f64 / cores as f64).max(1.0);
            assert_eq!(
                finish_bits(&r, "done"),
                vec![expected.to_bits(); k],
                "k={k} c={cores}: finish times, expected {expected}"
            );
            assert_eq!(
                r.host_flops[0].to_bits(),
                (k as f64 * flops).to_bits(),
                "k={k} c={cores}: host_flops"
            );
            seen.insert((cores, k), expected);
        }
    }
    // The closed form itself: below the core count every action runs at
    // full speed, above it the host is shared evenly.
    assert_eq!(seen[&(4, 3)], 4.0);
    assert_eq!(seen[&(2, 3)], 6.0);
    assert_eq!(seen[&(1, 8)], 32.0);
}

/// A token of `bytes` goes once around a ring of `p` single-host
/// clusters, each joined to the next by its own WAN link, with blocking
/// `send`/`recv`. Host `i` records when its receive completed, and host
/// 0 starts the pass at t = 0 and receives last.
fn ring_pass(p: usize, bytes: f64) -> RunReport {
    let mut b = GridBuilder::new();
    let mut clusters = Vec::new();
    let mut hosts = Vec::new();
    for i in 0..p {
        let c = b.cluster(&format!("R{i}"));
        b.local_link(c, LOCAL_BW, LOCAL_LAT);
        hosts.push(b.add_hosts(c, 1, &HostSpec::with_speed(1.0))[0]);
        clusters.push(c);
    }
    for i in 0..p {
        b.connect(clusters[i], clusters[(i + 1) % p], WAN_BW, WAN_LAT);
    }
    let mut eng = Engine::new(b.build().unwrap());
    for i in 0..p {
        let next = hosts[(i + 1) % p];
        eng.spawn(&format!("r{i}"), hosts[i], move |ctx| {
            let hop_in = mail_key(&[((i + p - 1) % p) as u64]);
            let hop_out = mail_key(&[i as u64]);
            if i == 0 {
                ctx.send(hop_out, next, bytes, Box::new(()));
            }
            let _ = ctx.recv(hop_in);
            let t = ctx.now();
            ctx.trace(&format!("recv{i}"), t);
            if i != 0 {
                ctx.send(hop_out, next, bytes, Box::new(()));
            }
        });
    }
    eng.run()
}

/// The ring pass for p = 3..=8 completes its last receive at exactly
/// `p × t_hop`, and host `i` receives at exactly `i × t_hop`.
///
/// `t_hop` follows from the kernel's rendezvous send: the wire transfer
/// starts once both the send and the matching receive are posted (here
/// the receiver is always waiting already), activates after the route's
/// latency, and then moves `B` bytes at the flow's max-min share. A hop
/// from host `i` to host `i + 1` routes over the sender's local uplink,
/// the one WAN link between the two clusters, and the receiver's local
/// downlink, so its latency is `LOCAL_LAT + WAN_LAT + LOCAL_LAT`. It is
/// the only flow in the grid, so its rate is the slowest capacity on the
/// route, `WAN_BW`. Sender and receiver both resume when the transfer
/// completes, and the receiver forwards at once:
/// `t_hop = 2·LOCAL_LAT + WAN_LAT + B / WAN_BW`.
#[test]
fn ring_pass_completes_at_p_hops() {
    let bytes = WAN_BW / 16.0;
    let t_hop = LOCAL_LAT + WAN_LAT + LOCAL_LAT + bytes / WAN_BW;
    for p in 3..=8usize {
        let r = ring_pass(p, bytes);
        assert_eq!(r.completed.len(), p, "p={p}: every host finishes");
        for i in 1..p {
            let expected = i as f64 * t_hop;
            assert_eq!(
                finish_bits(&r, &format!("recv{i}")),
                vec![expected.to_bits()],
                "p={p}: host {i} receives at {expected}"
            );
        }
        let last = p as f64 * t_hop;
        assert_eq!(
            finish_bits(&r, "recv0"),
            vec![last.to_bits()],
            "p={p}: the token returns at {last}"
        );
        assert_eq!(r.end_time.to_bits(), last.to_bits(), "p={p}: end_time");
    }
}
