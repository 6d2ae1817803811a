//! Property-based pin for the handoff's short-cut calls: the
//! grant-stamped clock behind `ctx.now()`, zero-length `compute`/`sleep`
//! answered in the process, and the bounded outbox that batches
//! fire-and-forget requests (`isend`, `trace`, `inject_load`,
//! `remove_load`) onto the next real round trip. The engine's unbatched
//! oracle (`Engine::set_unbatched_oracle`) makes one round trip per call:
//! under random per-process scripts — with bursts of at least 40 queued
//! requests in a row, so the outbox cap is crossed — batched and unbatched
//! runs must produce bit-identical run reports and traces, and every
//! process must observe the same `now()` sequence.

use grads_sim::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// One step of a randomized process script. `Recv(s)` receives the next
/// eager message from process `s`; `Burst` issues a run of calls that
/// never block, back to back.
#[derive(Debug, Clone)]
enum Op {
    Now,
    Send(u8, u32),
    Trace(u32),
    Load(u8, u32, bool),
    ZeroCompute,
    ZeroSleep,
    Compute(u32),
    Sleep(u32),
    Recv(u8),
    Burst(Vec<Op>),
}

/// Calls that never block: clock reads, zero-length work, and the
/// requests the batched transport queues.
fn nonblocking(nprocs: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Now),
        ((0..nprocs), 1u32..200_000).prop_map(|(d, b)| Op::Send(d, b)),
        (0u32..1000).prop_map(Op::Trace),
        ((0..nprocs), 1u32..20, 0u8..2).prop_map(|(h, a, on)| Op::Load(h, a, on == 1)),
        Just(Op::ZeroCompute),
        Just(Op::ZeroSleep),
    ]
}

fn op_strategy(nprocs: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        nonblocking(nprocs),
        nonblocking(nprocs),
        (1u32..2000).prop_map(Op::Compute),
        (1u32..20).prop_map(Op::Sleep),
        (0..nprocs).prop_map(Op::Recv),
        proptest::collection::vec(nonblocking(nprocs), 40..64).prop_map(Op::Burst),
    ]
}

/// `(clusters, procs, scripts)`.
type Workload = (u8, u8, Vec<Vec<Op>>);

fn workload() -> impl Strategy<Value = Workload> {
    (1u8..4, 2u8..7).prop_flat_map(|(nclusters, nprocs)| {
        let scripts = proptest::collection::vec(
            proptest::collection::vec(op_strategy(nprocs), 1..12),
            nprocs as usize,
        );
        (Just(nclusters), Just(nprocs), scripts)
    })
}

fn count_sends(script: &[Op], pending: &mut [u32]) {
    for op in script {
        match op {
            Op::Send(d, _) => pending[*d as usize] += 1,
            Op::Burst(b) => count_sends(b, pending),
            _ => {}
        }
    }
}

/// Make every script deadlock-free: a mid-script receive survives only
/// when it takes a message from a lower-numbered process that will send
/// one (so by induction every mid-script receive completes), and every
/// message still unreceived gets a receive at the end of its target's
/// script, after all of that target's own sends.
fn sanitize(n: u8, scripts: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let n = n as usize;
    let mut pending = vec![vec![0u32; n]; n];
    for (s, script) in scripts.iter().enumerate() {
        count_sends(script, &mut pending[s]);
    }
    let mut out: Vec<Vec<Op>> = Vec::with_capacity(n);
    for (p, script) in scripts.iter().enumerate() {
        let mut kept = Vec::with_capacity(script.len());
        for op in script {
            if let Op::Recv(s) = op {
                let s = *s as usize;
                if s >= p || pending[s][p] == 0 {
                    continue;
                }
                pending[s][p] -= 1;
            }
            kept.push(op.clone());
        }
        out.push(kept);
    }
    for (s, row) in pending.iter().enumerate() {
        for (p, &left) in row.iter().enumerate() {
            out[p].extend((0..left).map(|_| Op::Recv(s as u8)));
        }
    }
    out
}

/// Per-process cursors and sinks a script runs against.
struct Run<'a> {
    me: usize,
    hosts: &'a [HostId],
    send_seq: Vec<u64>,
    recv_seq: Vec<u64>,
    seen: Vec<u64>,
}

impl Run<'_> {
    fn op(&mut self, ctx: &mut Ctx, op: &Op) {
        match op {
            Op::Now => self.seen.push(ctx.now().to_bits()),
            Op::Send(d, bytes) => {
                let d = *d as usize;
                let key = mail_key(&[self.me as u64, d as u64, self.send_seq[d]]);
                self.send_seq[d] += 1;
                ctx.isend(key, self.hosts[d], *bytes as f64, Box::new(self.me as u64));
            }
            Op::Trace(v) => ctx.trace("op", *v as f64),
            Op::Load(h, amount, on) => {
                let host = self.hosts[*h as usize];
                if *on {
                    ctx.inject_load(host, *amount as f64 * 0.1);
                } else {
                    ctx.remove_load(host, *amount as f64 * 0.1);
                }
            }
            Op::ZeroCompute => ctx.compute(0.0),
            Op::ZeroSleep => ctx.sleep(0.0),
            Op::Compute(f) => ctx.compute(*f as f64),
            Op::Sleep(s) => ctx.sleep(*s as f64 * 0.05),
            Op::Recv(s) => {
                let s = *s as usize;
                let key = mail_key(&[s as u64, self.me as u64, self.recv_seq[s]]);
                self.recv_seq[s] += 1;
                let from = ctx.recv(key).downcast::<u64>().expect("u64 payload");
                assert_eq!(*from, s as u64, "message from the wrong sender");
            }
            Op::Burst(b) => {
                for op in b {
                    self.op(ctx, op);
                }
            }
        }
    }
}

/// Run the scripts batched or on the unbatched oracle; returns the report
/// and each process's observed `now()` bits, in call order.
fn run_workload(nclusters: u8, scripts: &[Vec<Op>], unbatched: bool) -> (RunReport, Vec<Vec<u64>>) {
    let mut b = GridBuilder::new();
    let mut hosts = Vec::new();
    let mut cids = Vec::new();
    for c in 0..nclusters {
        let cid = b.cluster(&format!("C{c}"));
        b.local_link(cid, 1e7, 1e-4);
        hosts.extend(b.add_hosts(cid, 2, &HostSpec::with_speed(1e4)));
        cids.push(cid);
    }
    for c in 0..nclusters as usize {
        let next = (c + 1) % nclusters as usize;
        if next != c {
            b.connect(cids[c], cids[next], 5e6, 0.01 + 0.005 * c as f64);
        }
    }
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_unbatched_oracle(unbatched);
    let hostv: Arc<Vec<HostId>> =
        Arc::new((0..scripts.len()).map(|q| hosts[q % hosts.len()]).collect());
    let seen: Vec<Arc<Mutex<Vec<u64>>>> = scripts.iter().map(|_| Arc::default()).collect();
    for (p, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let hostv = hostv.clone();
        let sink = seen[p].clone();
        eng.spawn(&format!("p{p}"), hostv[p], move |ctx| {
            let n = hostv.len();
            let mut run = Run {
                me: p,
                hosts: &hostv,
                send_seq: vec![0; n],
                recv_seq: vec![0; n],
                seen: Vec::new(),
            };
            for op in &script {
                run.op(ctx, op);
            }
            // Exit with a queued request, and read the clock once more.
            run.seen.push(ctx.now().to_bits());
            ctx.trace("done", 1.0);
            *sink.lock().unwrap() = run.seen;
        });
    }
    let report = eng.run();
    let seen = seen
        .iter()
        .map(|s| std::mem::take(&mut *s.lock().unwrap()))
        .collect();
    (report, seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batched transport is bit-identical to the one-call,
    /// one-round-trip unbatched oracle.
    #[test]
    fn outbox_batching_is_unobservable(
        (nclusters, nprocs, scripts) in workload()
    ) {
        let scripts = sanitize(nprocs, &scripts);
        let (oracle, oracle_now) = run_workload(nclusters, &scripts, true);
        let (direct, direct_now) = run_workload(nclusters, &scripts, false);
        prop_assert_eq!(oracle.completed.len(), nprocs as usize,
            "sanitized scripts must not deadlock");
        prop_assert_eq!(&oracle.trace, &direct.trace, "trace");
        prop_assert_eq!(&oracle_now, &direct_now, "observed now()");
        prop_assert_eq!(&oracle, &direct, "full report");
    }
}
