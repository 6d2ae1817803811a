//! Property-based determinism pin for coalesced rate recomputation: under
//! randomized same-timestamp churn bursts — collective-style multi-flow
//! send bursts, load inject/remove pairs, compute storms — deferring the
//! rate solve to the end of each virtual instant
//! (the kernel's production timing) must reproduce the eager oracle
//! ([`Engine::set_eager_recompute_oracle`]) bit for bit under both
//! recompute scopes (dirty-set and the full-recompute oracle). This is
//! the property level of the three-level pin (unit: `engine::tests`,
//! end-to-end: `tests/substrate_determinism.rs`); the route-class solver
//! equivalence has its own pin in `prop_sharing.rs`.

use grads_sim::engine::Engine;
use grads_sim::prelude::*;
use grads_sim::process::mail_key;
use grads_sim::topology::GridBuilder;
use proptest::prelude::*;

/// One step of a randomized process script. `SendBurst` issues several
/// non-blocking sends back to back with zero virtual time between them —
/// the binomial-collective shape whose same-instant `FlowActivate` burst
/// coalesced timing collapses into one solve. `LoadPulse` injects and
/// immediately removes external load (two same-instant churns). All
/// processes also start at t = 0, so the run opens on a compute storm.
#[derive(Debug, Clone)]
enum Op {
    Compute(u32),
    Sleep(u32),
    SendBurst(Vec<(u8, u32)>),
    LoadPulse(u8, u32),
    RecvFrom(u8),
}

fn op_strategy(nprocs: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..1500).prop_map(Op::Compute),
        (1u32..30).prop_map(Op::Sleep),
        proptest::collection::vec(((0..nprocs), 1u32..150_000), 1..6).prop_map(Op::SendBurst),
        ((0..nprocs), 1u32..30).prop_map(|(h, a)| Op::LoadPulse(h, a)),
    ]
}

/// `(clusters, procs, scripts)` — 2–4 clusters so WAN routes are shared and
/// send bursts pile onto common links.
type Workload = (u8, u8, Vec<Vec<Op>>);

fn workload() -> impl Strategy<Value = Workload> {
    (2u8..5, 3u8..7).prop_flat_map(|(nclusters, nprocs)| {
        let scripts = proptest::collection::vec(
            proptest::collection::vec(op_strategy(nprocs), 0..7),
            nprocs as usize,
        );
        (Just(nclusters), Just(nprocs), scripts)
    })
}

/// Append a matching receive on every burst-send's target so nothing
/// deadlocks (same sanitation idea as `prop_outbox.rs`).
fn sanitize(n: u8, scripts: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let mut out: Vec<Vec<Op>> = scripts.to_vec();
    let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); n as usize];
    for (src, script) in out.iter().enumerate() {
        for op in script {
            if let Op::SendBurst(sends) = op {
                for (dst, _) in sends {
                    recvs[*dst as usize].push(Op::RecvFrom(src as u8));
                }
            }
        }
    }
    for (p, r) in recvs.into_iter().enumerate() {
        out[p].extend(r);
    }
    out
}

fn run_workload(
    nclusters: u8,
    scripts: &[Vec<Op>],
    full_oracle: bool,
    eager_oracle: bool,
) -> RunReport {
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
        b.connect(cids[c], cids[next], 5e6, 0.01 + 0.005 * c as f64);
    }
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_full_recompute_oracle(full_oracle);
    eng.set_eager_recompute_oracle(eager_oracle);
    for (p, script) in scripts.iter().enumerate() {
        let script = script.clone();
        let hostv: Vec<HostId> = (0..scripts.len()).map(|q| hosts[q % hosts.len()]).collect();
        let me = p;
        eng.spawn(&format!("p{p}"), hostv[p], move |ctx| {
            // Flat per-(src → dst) sequence numbers keep mail keys
            // collision-free; the burst structure never enters the key.
            let mut send_seq = vec![0u64; hostv.len()];
            let mut recv_seq = vec![0u64; hostv.len()];
            for op in &script {
                match op {
                    Op::Compute(f) => ctx.compute(*f as f64),
                    Op::Sleep(s) => ctx.sleep(*s as f64 * 0.1),
                    Op::SendBurst(sends) => {
                        // Consecutive non-blocking sends: zero virtual time
                        // elapses between them, so their flow churn lands at
                        // one instant.
                        for (d, bytes) in sends {
                            let d = *d as usize;
                            let key = mail_key(&[me as u64, d as u64, send_seq[d]]);
                            send_seq[d] += 1;
                            ctx.isend(key, hostv[d], *bytes as f64, Box::new(me as u64));
                        }
                    }
                    Op::LoadPulse(h, amount) => {
                        let host = hostv[*h as usize];
                        ctx.inject_load(host, *amount as f64 * 0.1);
                        ctx.remove_load(host, *amount as f64 * 0.1);
                    }
                    Op::RecvFrom(s) => {
                        let s = *s as usize;
                        let key = mail_key(&[s as u64, me as u64, recv_seq[s]]);
                        recv_seq[s] += 1;
                        let _ = ctx.recv(key);
                    }
                }
            }
            let t = ctx.now();
            ctx.trace("done", t);
        });
    }
    eng.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Eager vs coalesced timing is bit-identical — trace, flops, bytes and
    /// end time — under both recompute scopes.
    #[test]
    fn coalesced_timing_is_unobservable(
        (nclusters, nprocs, scripts) in workload()
    ) {
        let scripts = sanitize(nprocs, &scripts);
        for full in [false, true] {
            let eager = run_workload(nclusters, &scripts, full, true);
            let coalesced = run_workload(nclusters, &scripts, full, false);
            prop_assert_eq!(&eager.end_time, &coalesced.end_time, "full={}: end_time", full);
            prop_assert_eq!(&eager.trace, &coalesced.trace, "full={}: trace", full);
            prop_assert_eq!(&eager.host_flops, &coalesced.host_flops, "full={}: host_flops", full);
            prop_assert_eq!(&eager.link_bytes, &coalesced.link_bytes, "full={}: link_bytes", full);
            prop_assert_eq!(&eager, &coalesced, "full={}: full report", full);
        }
    }
}
