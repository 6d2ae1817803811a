//! Wall-clock microbenchmarks of the emulator substrate's hot paths.
//!
//! Three storms, each isolating one layer of the kernel:
//!
//! * **handoff ping-pong** — one process polling an empty mailbox with
//!   `ctx.try_recv`: one request/grant pair per op and near-zero
//!   event-kernel work, so this measures the process↔kernel transport (two
//!   coroutine context switches) and nothing else. (`ctx.now()` would not do: it reads the clock stamped
//!   on the last grant and never reaches the kernel.) The run counts the
//!   kernel's blocking round trips (`sim.req.roundtrips`) and asserts one
//!   per poll, so the row provably times real round trips.
//! * **message ping-pong** — two processes bouncing a message back and
//!   forth on a LAN. Every round trip is four kernel handoffs plus the
//!   flow machinery (activate/done events, rate solve, mailbox).
//! * **cancel storm** — compute actions on a loaded host whose external
//!   load toggles at dense cadence, re-stamping every action each time.
//!   Each re-stamp replaces a pending completion event in the indexed
//!   queue. Reports events applied/sec.
//!
//! Writes the `sim_hotpath` section of `BENCH_sim.json` at the repo root.
//!
//! Usage: `cargo run --release -p grads-bench --bin sim_hotpath [rounds]`
//! (default 30000 ping-pong rounds; the handoff row runs twice as many).

use grads_bench::sweep::{json_num, json_obj, merge_bench_section};
use grads_core::prelude::*;
use std::time::Instant;

fn lan_pair() -> (Grid, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let hosts = b.add_hosts(c, 2, &HostSpec::with_speed(1e9));
    (b.build().unwrap(), hosts)
}

/// Raw handoff ping-pong: one process polling an empty mailbox `n` times,
/// each poll a single request/grant round trip with no event-kernel work
/// behind it. Returns (handoffs/sec wall-clock, the kernel's count of the
/// polls' blocking round trips).
fn handoff_pong(n: usize) -> (f64, u64) {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    // Counters are plain integers the kernel keeps anyway; the sink only
    // receives them when the run ends, so it costs the loop nothing.
    let obs = Obs::enabled();
    eng.set_obs(obs.clone());
    let key = mail_key(&[0]);
    eng.spawn("poll", hosts[0], move |ctx| {
        for _ in 0..n {
            assert!(ctx.try_recv(key).is_none(), "nothing is ever sent here");
        }
        assert_eq!(ctx.now(), 0.0, "virtual clock never advances here");
    });
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), 1);
    // The process's exit is one more round trip after the polls.
    let roundtrips = obs.snapshot().counter("sim.req.roundtrips").unwrap_or(0) - 1;
    (n as f64 / wall, roundtrips)
}

/// Best handoffs/sec of two runs, asserting every poll was a round trip.
fn best_handoff(n: usize) -> (f64, u64) {
    let (a, rt) = handoff_pong(n);
    let (b, rt2) = handoff_pong(n);
    assert_eq!(rt, rt2, "round-trip count must be deterministic");
    assert_eq!(
        rt, n as u64,
        "the handoff row must time one kernel round trip per poll"
    );
    (a.max(b), rt)
}

/// One ping-pong run: `rounds` round trips, `4 * rounds` kernel handoffs.
/// Returns ops/sec wall-clock.
fn ping_pong(rounds: usize) -> f64 {
    let (grid, hosts) = lan_pair();
    let mut eng = Engine::new(grid);
    let (h0, h1) = (hosts[0], hosts[1]);
    let k_ping = mail_key(&[1]);
    let k_pong = mail_key(&[2]);
    eng.spawn("ping", h0, move |ctx| {
        for _ in 0..rounds {
            ctx.send(k_ping, h1, 1.0, Box::new(()));
            let _ = ctx.recv(k_pong);
        }
    });
    eng.spawn("pong", h1, move |ctx| {
        for _ in 0..rounds {
            let _ = ctx.recv(k_ping);
            ctx.send(k_pong, h0, 1.0, Box::new(()));
        }
    });
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), 2);
    (4 * rounds) as f64 / wall
}

/// Cancel storm: `procs` long computes on one host, with external load
/// toggling `toggles` times — every toggle re-stamps every action and
/// replaces its pending completion event. Returns (applied events/sec,
/// events applied).
fn cancel_storm(procs: usize, toggles: usize) -> (f64, u64) {
    let mut b = GridBuilder::new();
    let c = b.cluster("LAN");
    b.local_link(c, 1.0e9, 1.0e-4);
    let hosts = b.add_hosts(c, 1, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    let h = hosts[0];
    for t in 0..toggles {
        let at = 0.5 + t as f64 * 0.01;
        eng.add_load_window(h, at, Some(at + 0.005), 2.0);
    }
    for _ in 0..procs {
        eng.spawn("c", h, |ctx| {
            ctx.compute(2e9);
        });
    }
    let t0 = Instant::now();
    let report = eng.run();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.completed.len(), procs);
    (
        report.events_processed as f64 / wall,
        report.events_processed,
    )
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    println!("sim_hotpath — substrate wall-clock microbenchmarks\n");

    // Warm-up pass so allocator effects don't skew run 1; best-of-2 to
    // damp scheduler noise on small machines.
    let _ = ping_pong(rounds / 10);

    let n_handoff = rounds * 2;
    let (ho_direct, ho_roundtrips) = best_handoff(n_handoff);
    println!("handoff ping-pong ({n_handoff} request/grant round trips):");
    println!(
        "  coroutine switch           {ho_direct:>12.0} handoffs/s   ({ho_roundtrips} counted)"
    );

    let ops = ping_pong(rounds).max(ping_pong(rounds));
    println!("\nmessage ping-pong ({rounds} round trips, 4 handoffs each):");
    println!("  coroutine switch           {ops:>12.0} ops/s");

    let (procs, toggles) = (100, 2000);
    let (ev, n_ev) = cancel_storm(procs, toggles);
    println!("\ncancel storm ({procs} computes x {toggles} load toggles, {n_ev} events):");
    println!("  indexed (in-place replace) {ev:>12.0} events/s");

    // Machine stamp so a checked-in snapshot says where its numbers came
    // from (a 2-core CI runner and a 32-core workstation produce very
    // different ops/s for the same code).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    merge_bench_section(
        "sim_hotpath",
        &json_obj(&[
            ("cores_detected", cores.to_string()),
            ("handoff_rounds", n_handoff.to_string()),
            ("handoff_roundtrips", ho_roundtrips.to_string()),
            ("handoff_direct_per_s", json_num(ho_direct)),
            ("ping_pong_rounds", rounds.to_string()),
            ("ping_pong_direct_ops_per_s", json_num(ops)),
            ("cancel_storm_events", n_ev.to_string()),
            ("cancel_indexed_events_per_s", json_num(ev)),
        ]),
    );
    println!("\nwrote sim_hotpath section of BENCH_sim.json");
}
