//! Warm engine storage: an engine built on a thread that already ran one
//! reuses that engine's buffers (DESIGN.md, "Warm engine storage"). The
//! recycled capacity must never show in a result, so every scenario here
//! runs back to back on one thread, in both big→small and small→big grid
//! order, and each report must equal, bit for bit, the report of the same
//! scenario run alone on a new thread, whose storage starts empty.
//!
//! This binary also installs a counting global allocator, which is why
//! these checks live in their own integration-test binary: the counts are
//! per thread, and no other test shares the allocator.
//!
//! The same WAN-mesh all-to-all also pins coalesced recompute timing to
//! the eager oracle on uniform and skewed payloads, with its solve count.

use grads_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread;

/// Counts the allocations and reallocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CLUSTERS: usize = 4;
const PER_CLUSTER: usize = 16;
const NPROC: usize = CLUSTERS * PER_CLUSTER;
/// Bytes of every all-to-all message.
const PAYLOAD: f64 = 1.0e5;
/// Flops of the compute phase that opens each all-to-all process.
const FLOPS: f64 = 1.0e6;

/// `clusters` clusters of `per` dual-core hosts on 1 GB/s local links,
/// fully meshed by WAN links of distinct bandwidth and latency.
fn mesh(clusters: usize, per: usize) -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    let mut hosts = Vec::new();
    for c in 0..clusters {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1.0e9, 50e-6);
        let spec = HostSpec {
            speed: 1.0e9,
            cores: 2,
            ..Default::default()
        };
        hosts.extend(b.add_hosts(id, per, &spec));
        cl.push(id);
    }
    let mut k = 0u32;
    for i in 0..clusters {
        for j in (i + 1)..clusters {
            let (bw, lat) = (5.0e7 + 1.0e7 * k as f64, 5e-3 + 3e-3 * k as f64);
            b.connect(cl[i], cl[j], bw, lat);
            k += 1;
        }
    }
    (b.build().expect("valid mesh"), hosts)
}

/// Bytes of the message from process `i` to process `j` of `n`.
type PayloadShape = fn(usize, usize, usize) -> f64;

/// Every message the same size, the shape of a synchronized
/// `MPI_Alltoall`: flows that share a bottleneck finish in
/// bitwise-identical completion waves.
fn uniform(_i: usize, _j: usize, _n: usize) -> f64 {
    PAYLOAD
}

/// A distinct size per ordered pair, so transfers finish at their own
/// instants.
fn skewed(i: usize, j: usize, n: usize) -> f64 {
    PAYLOAD + (i * n + j) as f64
}

/// One process per host: a compute phase, an eager send to every other
/// process, then a receive (and a short compute) from every other one.
fn all_to_all(hosts: &[HostId], eng: &mut Engine, bytes: PayloadShape) {
    let n = hosts.len();
    for i in 0..n {
        let peers = hosts.to_vec();
        eng.spawn(&format!("p{i}"), hosts[i], move |ctx| {
            ctx.compute(FLOPS);
            for (j, &peer) in peers.iter().enumerate() {
                if j != i {
                    let key = mail_key(&[i as u64, j as u64]);
                    ctx.isend(key, peer, bytes(i, j, n), Box::new(()));
                }
            }
            for j in 0..n {
                if j != i {
                    let _ = ctx.recv(mail_key(&[j as u64, i as u64]));
                    ctx.compute(0.25 * FLOPS);
                }
            }
        });
    }
}

/// The 4×16 all-to-all over a full WAN mesh.
fn big_all_to_all() -> RunReport {
    let (grid, hosts) = mesh(CLUSTERS, PER_CLUSTER);
    let mut eng = Engine::new(grid);
    all_to_all(&hosts, &mut eng, uniform);
    eng.run()
}

/// A 2×4 all-to-all cut off by `run_until` while its WAN flows are in
/// flight and receivers are blocked. A load window opening at 20 ms is
/// the last event before the cut-off, so the flows have moved part of
/// their bytes by then.
fn cut_off_all_to_all() -> RunReport {
    let (grid, hosts) = mesh(2, 4);
    let mut eng = Engine::new(grid);
    all_to_all(&hosts, &mut eng, uniform);
    eng.add_load_window(hosts[0], 0.02, None, 1.0);
    eng.run_until(0.03)
}

/// Three eager messages nobody receives, on keys the all-to-all also
/// uses, and a receiver still blocked on a key nobody sends: the run ends
/// with undelivered payloads in the mail directory.
fn undelivered() -> RunReport {
    let (grid, hosts) = mesh(1, 2);
    let (a, b) = (hosts[0], hosts[1]);
    let mut eng = Engine::new(grid);
    eng.spawn("sender", a, move |ctx| {
        for j in 0..3u64 {
            ctx.isend(mail_key(&[0, j + 1]), b, 1.0e6, Box::new(vec![j; 4]));
        }
        ctx.compute(2.0e6);
    });
    eng.spawn("waiter", b, move |ctx| {
        let _ = ctx.recv(mail_key(&[1, 0]));
    });
    eng.run()
}

/// Host 1 fails at 0.5 s while a rendezvous send to it, a raw transfer
/// to it and an eager send from it are in flight and a compute runs on it.
fn host_fails_mid_transfer() -> RunReport {
    let (grid, hosts) = mesh(1, 3);
    let (h0, h1, h2) = (hosts[0], hosts[1], hosts[2]);
    let mut eng = Engine::new(grid);
    let (to_r, to_q) = (mail_key(&[0, 1]), mail_key(&[1, 0]));
    eng.spawn("s", h0, move |ctx| {
        ctx.send(to_r, h1, 8.0e8, Box::new(1u32));
        let t = ctx.now();
        ctx.trace("s_done", t);
    });
    eng.spawn("r", h1, move |ctx| {
        let _ = ctx.recv(to_r);
    });
    eng.spawn("t", h2, move |ctx| {
        ctx.transfer(h1, 6.0e8);
        let t = ctx.now();
        ctx.trace("t_done", t);
    });
    eng.spawn("e", h1, move |ctx| {
        ctx.isend(to_q, h0, 9.0e8, Box::new(2u32));
        ctx.compute(3.0e9);
    });
    eng.spawn("q", h0, move |ctx| {
        let _ = ctx.recv(to_q);
        let t = ctx.now();
        ctx.trace("q_done", t);
    });
    eng.fail_host_at(h1, 0.5);
    eng.run()
}

type Scenario = (&'static str, fn() -> RunReport);

/// Largest grid first.
const BIG_TO_SMALL: [Scenario; 4] = [
    ("all-to-all 4x16", big_all_to_all),
    ("run_until cut-off 2x4", cut_off_all_to_all),
    ("host failure 1x3", host_fails_mid_transfer),
    ("undelivered eager 1x2", undelivered),
];

/// `f` on a new thread, whose storage slot starts empty.
fn on_fresh_thread<T: Send + 'static>(f: fn() -> T) -> T {
    thread::spawn(f).join().expect("scenario thread")
}

/// Every field of two reports, floats compared by bits. The trace is
/// compared through its `Debug` text, which prints each `f64` in the
/// shortest form that reads back to the same bits.
fn assert_bitwise_equal(what: &str, warm: &RunReport, fresh: &RunReport) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        warm.end_time.to_bits(),
        fresh.end_time.to_bits(),
        "{what}: end_time"
    );
    assert_eq!(warm.completed, fresh.completed, "{what}: completed");
    assert_eq!(warm.failed, fresh.failed, "{what}: failed");
    assert_eq!(warm.unfinished, fresh.unfinished, "{what}: unfinished");
    assert_eq!(warm.died, fresh.died, "{what}: died");
    assert_eq!(
        bits(&warm.host_flops),
        bits(&fresh.host_flops),
        "{what}: host_flops"
    );
    assert_eq!(
        bits(&warm.link_bytes),
        bits(&fresh.link_bytes),
        "{what}: link_bytes"
    );
    assert_eq!(
        warm.events_processed, fresh.events_processed,
        "{what}: events_processed"
    );
    assert_eq!(
        format!("{:?}", warm.trace),
        format!("{:?}", fresh.trace),
        "{what}: trace"
    );
}

/// Run `order` twice over, back to back on one new thread, and compare
/// each report with the same scenario's report on a fresh thread.
fn check_order(order: &[Scenario]) {
    let runs: Vec<Scenario> = order.iter().chain(order).copied().collect();
    let fns: Vec<fn() -> RunReport> = runs.iter().map(|&(_, f)| f).collect();
    let warm = thread::spawn(move || fns.iter().map(|f| f()).collect::<Vec<_>>())
        .join()
        .expect("back-to-back thread");
    for &(what, f) in order {
        let fresh = on_fresh_thread(f);
        for (_, w) in runs.iter().zip(&warm).filter(|((w, _), _)| *w == what) {
            assert_bitwise_equal(what, w, &fresh);
        }
    }
}

#[test]
fn warm_runs_equal_fresh_runs_big_to_small() {
    check_order(&BIG_TO_SMALL);
}

#[test]
fn warm_runs_equal_fresh_runs_small_to_big() {
    let mut order = BIG_TO_SMALL;
    order.reverse();
    check_order(&order);
}

/// The scenarios end the way their names say, so the comparisons above
/// cover leftover payloads, blocked receivers, dead hosts and cut-off
/// flows.
#[test]
fn scenarios_leave_the_state_they_name() {
    let r = on_fresh_thread(undelivered);
    assert_eq!(r.unfinished, vec!["waiter".to_string()]);
    assert_eq!(r.completed, vec!["sender".to_string()]);
    let r = on_fresh_thread(host_fails_mid_transfer);
    assert_eq!(r.died, vec!["r".to_string(), "e".to_string()]);
    assert!(r.trace.last_value("t_done").is_some(), "the transfer ends");
    let r = on_fresh_thread(cut_off_all_to_all);
    assert!(!r.unfinished.is_empty(), "the cut-off falls mid-round");
    let in_flight: f64 = r.link_bytes.iter().sum();
    let delivered = r.link_bytes.iter().all(|&b| b % PAYLOAD == 0.0);
    assert!(
        in_flight > 0.0 && !delivered,
        "flows in flight at the cut-off are credited what they moved"
    );
}

/// The second identical all-to-all on a thread finds the first one's
/// buffers: its `run` makes at most a tenth of the first's allocations.
/// Only `run` is counted (building the engine spawns the same closures
/// both times), and the counts repeat exactly from run to run.
#[test]
fn a_second_all_to_all_makes_a_tenth_of_the_allocations() {
    let (first, second) = thread::spawn(|| {
        let counted = || {
            let (grid, hosts) = mesh(CLUSTERS, PER_CLUSTER);
            let mut eng = Engine::new(grid);
            all_to_all(&hosts, &mut eng, uniform);
            let before = allocs();
            let r = eng.run();
            (allocs() - before, r)
        };
        (counted(), counted())
    })
    .join()
    .expect("allocation thread");
    assert_bitwise_equal("repeated all-to-all", &second.1, &first.1);
    assert!(
        second.0 * 10 <= first.0,
        "the second run made {} allocations, the first {}",
        second.0,
        first.0
    );
}

/// Byte conservation on the all-to-all: every message crosses each link
/// of its route once, so the links carry Σ payload × route length in
/// total. Each message is credited to its links as one addition of its
/// size, so the totals agree to rounding; the bound is 1e-12 relative.
#[test]
fn all_to_all_link_bytes_equal_payload_times_route_length() {
    let r = on_fresh_thread(big_all_to_all);
    assert_eq!(r.completed.len(), NPROC);
    let (grid, hosts) = mesh(CLUSTERS, PER_CLUSTER);
    let mut expected = 0.0;
    for &src in &hosts {
        for &dst in hosts.iter().filter(|&&d| d != src) {
            expected += PAYLOAD * grid.route_links(src, dst).count() as f64;
        }
    }
    let carried: f64 = r.link_bytes.iter().sum();
    assert!(
        (carried - expected).abs() <= 1e-12 * expected,
        "links carried {carried} B, routes imply {expected} B"
    );
}

/// The 4×4 all-to-all under the eager recompute oracle or production
/// timing, with the run's churn, solve and absorbed-churn counts. (The
/// 4×16 one takes tens of seconds under the eager oracle in a debug
/// build.)
fn counted_all_to_all(bytes: PayloadShape, eager_oracle: bool) -> (RunReport, [u64; 3]) {
    let (grid, hosts) = mesh(4, 4);
    let mut eng = Engine::new(grid);
    eng.set_eager_recompute_oracle(eager_oracle);
    let obs = grads_obs::Obs::enabled();
    eng.set_obs(obs.clone());
    all_to_all(&hosts, &mut eng, bytes);
    let r = eng.run();
    let snap = obs.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    let counts = [
        count("sim.recomputes"),
        count("sim.recompute.solves"),
        count("sim.recompute.coalesced"),
    ];
    (r, counts)
}

/// Production timing, which defers the rate solve to the end of each
/// virtual instant, reproduces the eager oracle (one solve per churn)
/// bit for bit on a 4×4 WAN-mesh all-to-all, with uniform and with
/// skewed payloads. Every churn is either solved or absorbed, and on
/// uniform payloads, whose send bursts and completion waves each land on
/// one instant, production runs at most one solve per four churns.
#[test]
fn coalesced_all_to_all_equals_the_eager_oracle() {
    let shapes: [(&str, PayloadShape); 2] = [("uniform", uniform), ("skewed", skewed)];
    for (shape, bytes) in shapes {
        let (eager, _) = counted_all_to_all(bytes, true);
        let (coalesced, [churns, solves, absorbed]) = counted_all_to_all(bytes, false);
        assert_eq!(coalesced.completed.len(), 16, "{shape}: every process ends");
        assert_bitwise_equal(shape, &coalesced, &eager);
        assert_eq!(
            solves + absorbed,
            churns,
            "{shape}: every churn is either solved or absorbed"
        );
        if shape == "uniform" {
            assert!(
                4 * solves <= churns,
                "{shape}: {solves} solves for {churns} churns"
            );
        }
    }
}
