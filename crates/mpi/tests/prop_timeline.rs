//! Property-based tests of the flight recorder's message matching and
//! determinism, over randomized communication scripts.
//!
//! Invariants checked for every generated workload:
//!
//! * every send half and every receive half pairs into exactly one
//!   [`MsgRecord`] (no unmatched halves once the program terminates);
//! * every record satisfies `post ≤ match ≤ complete` on both halves
//!   (`t_send_post ≤ t_match`, rendezvous additionally
//!   `t_recv_post ≤ t_match`, and `t_match ≤ t_recv_complete`);
//! * state intervals never run backwards and stay inside their track's
//!   lifecycle span;
//! * two recorder-enabled runs of the same script produce bit-identical
//!   [`Timeline`]s and byte-identical Chrome-trace exports.

use grads_mpi::launch;
use grads_obs::{RankState, Recorder, Timeline};
use grads_sim::prelude::*;
use grads_sim::topology::{GridBuilder, HostSpec};
use proptest::prelude::*;

/// One step of the per-rank script; every rank executes the same list.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Compute `k × 1e6` flops.
    Compute(u8),
    /// Eager ring exchange (`isend` next, `recv` prev) of `bytes`.
    RingEager(u16),
    /// Rendezvous pairwise handoff: even ranks `ssend` 70 kB + `extra`
    /// to their odd neighbour.
    PairRendezvous(u16),
    /// Binomial broadcast from `root % size`.
    Bcast(u8, u16),
    /// Allreduce (reduce + bcast under one collective span).
    Allreduce(u16),
    /// Dissemination barrier.
    Barrier,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..50).prop_map(Op::Compute),
        (0u16..65535).prop_map(Op::RingEager),
        (0u16..65535).prop_map(Op::PairRendezvous),
        (0u8..255, 0u16..65535).prop_map(|(r, b)| Op::Bcast(r, b)),
        (0u16..65535).prop_map(Op::Allreduce),
        Just(Op::Barrier),
    ]
}

/// Run the script on `n` ranks with a fresh recorder; return the built
/// timeline, its Chrome export, and the kernel end time.
fn run_script(n: usize, ops: &[Op]) -> (Timeline, String, f64) {
    run_script_rec(n, ops, Recorder::enabled())
}

/// As [`run_script`] but with collective-internals (per-hop) recording.
fn run_script_internals(n: usize, ops: &[Op]) -> (Timeline, String, f64) {
    run_script_rec(n, ops, Recorder::enabled_with_internals())
}

fn run_script_rec(n: usize, ops: &[Op], rec: Recorder) -> (Timeline, String, f64) {
    let mut b = GridBuilder::new();
    let c = b.cluster("X");
    b.local_link(c, 1e8, 1e-4);
    let hs = b.add_hosts(c, n, &HostSpec::with_speed(1e9));
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_recorder(rec.clone());
    let script = ops.to_vec();
    launch(&mut eng, "prop", &hs, move |ctx, comm| {
        let me = comm.rank();
        let size = comm.size();
        for (i, op) in script.iter().enumerate() {
            let tag = 100 + i as u64;
            match *op {
                Op::Compute(k) => comm.compute(ctx, k as f64 * 1e6),
                Op::RingEager(bytes) => {
                    if size > 1 {
                        let next = (me + 1) % size;
                        let prev = (me + size - 1) % size;
                        comm.isend(ctx, next, tag, bytes as f64, Box::new(me));
                        let _: usize = comm.recv_t(ctx, prev, tag);
                    }
                }
                Op::PairRendezvous(extra) => {
                    let bytes = 70_000.0 + extra as f64;
                    if me % 2 == 0 {
                        if me + 1 < size {
                            comm.ssend(ctx, me + 1, tag, bytes, Box::new(me));
                        }
                    } else {
                        let _: usize = comm.recv_t(ctx, me - 1, tag);
                    }
                }
                Op::Bcast(root, bytes) => {
                    let root = root as usize % size;
                    let _ = comm.bcast_t(ctx, root, bytes as f64, (me == root).then_some(42u64));
                }
                Op::Allreduce(bytes) => {
                    let _ = comm.allreduce_t(ctx, bytes as f64, me as u64, |a, b| a + b);
                }
                Op::Barrier => comm.barrier(ctx),
            }
        }
    });
    let r = eng.run();
    let tl = rec.timeline();
    let chrome = tl.to_chrome_trace();
    (tl, chrome, r.end_time)
}

proptest! {
    /// Matching completeness + half ordering, for arbitrary scripts.
    #[test]
    fn every_message_matches_exactly_once_with_ordered_stamps(
        n in 2usize..6,
        ops in prop::collection::vec(op(), 0..10),
    ) {
        let (tl, _, end_time) = run_script(n, &ops);
        prop_assert_eq!(tl.unmatched_sends, 0, "all sends must match");
        prop_assert_eq!(tl.unmatched_recvs, 0, "all recvs must match");
        for m in &tl.msgs {
            prop_assert!(m.t_send_post <= m.t_match, "send post ≤ match: {m:?}");
            prop_assert!(m.t_match <= m.t_recv_complete, "match ≤ recv complete: {m:?}");
            prop_assert!(m.t_send_post <= m.t_send_complete, "send half ordered: {m:?}");
            prop_assert!(m.t_recv_post <= m.t_recv_complete, "recv half ordered: {m:?}");
            if !m.eager {
                prop_assert!(m.t_recv_post <= m.t_match, "rendezvous recv post ≤ match: {m:?}");
            }
            prop_assert!(m.t_recv_complete <= end_time);
        }
        for t in &tl.tracks {
            prop_assert!(t.live && t.start <= t.end);
            for iv in &t.intervals {
                prop_assert!(iv.t0 <= iv.t1, "interval runs forward: {iv:?}");
                prop_assert!(t.start <= iv.t0 && iv.t1 <= t.end,
                    "interval inside the lifecycle span: {iv:?} in {}..{}", t.start, t.end);
            }
        }
    }

    /// Collective internals: per-hop spans nest inside exactly their
    /// parent `Collective` interval and tile it bitwise — and recording
    /// them perturbs nothing (same end time, same state intervals, same
    /// matched messages as a plain recorder run).
    #[test]
    fn collective_hops_nest_and_tile_their_parent_interval(
        n in 2usize..6,
        ops in prop::collection::vec(op(), 1..10),
    ) {
        let (plain, _, plain_end) = run_script(n, &ops);
        let (tl, _, end) = run_script_internals(n, &ops);
        prop_assert_eq!(end.to_bits(), plain_end.to_bits(),
            "internals recording must not perturb the run");
        prop_assert_eq!(&plain.msgs, &tl.msgs, "matched messages identical");
        for (a, b) in plain.tracks.iter().zip(&tl.tracks) {
            prop_assert_eq!(&a.intervals, &b.intervals, "state intervals identical");
            prop_assert!(a.hops.is_empty(), "plain recorder keeps no hops");
        }
        for t in &tl.tracks {
            let colls: Vec<_> = t
                .intervals
                .iter()
                .filter(|iv| iv.state == RankState::Collective)
                .collect();
            for h in &t.hops {
                prop_assert!(h.t1 > h.t0, "recorded hops have width: {h:?}");
                prop_assert!(
                    colls.iter().any(|c| c.t0 <= h.t0 && h.t1 <= c.t1),
                    "hop nests in a Collective interval: {:?}", h
                );
            }
            for c in &colls {
                let inside: Vec<_> = t
                    .hops
                    .iter()
                    .filter(|h| c.t0 <= h.t0 && h.t1 <= c.t1)
                    .collect();
                if c.t1 > c.t0 {
                    // Inside a collective the rank is always in a send or
                    // a recv call, so the positive-width hops tile the
                    // parent exactly — bitwise-shared endpoints.
                    prop_assert!(!inside.is_empty(),
                        "positive-width collective must contain hops: {:?}", c);
                    prop_assert_eq!(inside[0].t0.to_bits(), c.t0.to_bits(),
                        "first hop starts at the collective start");
                    for w in inside.windows(2) {
                        prop_assert_eq!(w[0].t1.to_bits(), w[1].t0.to_bits(),
                            "consecutive hops share endpoints bitwise");
                    }
                    prop_assert_eq!(inside.last().unwrap().t1.to_bits(), c.t1.to_bits(),
                        "last hop ends at the collective end");
                }
            }
        }
    }

    /// Two recorder-enabled runs are bit- and byte-identical.
    #[test]
    fn recorded_timelines_are_deterministic(
        n in 2usize..6,
        ops in prop::collection::vec(op(), 0..10),
    ) {
        let (ta, ca, ea) = run_script(n, &ops);
        let (tb, cb, eb) = run_script(n, &ops);
        prop_assert_eq!(ea.to_bits(), eb.to_bits(), "end times must be bit-identical");
        prop_assert_eq!(&ta, &tb, "timelines must be bit-identical");
        prop_assert_eq!(ca, cb, "Chrome traces must be byte-identical");
        prop_assert_eq!(ta.summary(), tb.summary(), "summaries must be byte-identical");
    }
}
