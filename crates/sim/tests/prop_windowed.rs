//! Property-based determinism pin for the windowed (conservative parallel)
//! kernel: randomized cross-cluster workloads must produce byte-identical
//! results under the serial kernel and under windowed execution at 1 vs N
//! workers — traces, flops, bytes, end time and observability snapshots
//! included. This is the property level of the three-level pin (unit:
//! `engine::tests`, end-to-end: `tests/substrate_determinism.rs`).

use grads_sim::engine::Engine;
use grads_sim::prelude::*;
use grads_sim::process::mail_key;
use grads_sim::topology::GridBuilder;
use proptest::prelude::*;

/// A randomized program: per process, a short script of operations. Sends
/// target processes on *other clusters* often enough that cross-partition
/// events (the windowed kernel's hard case) dominate.
#[derive(Debug, Clone)]
enum Op {
    Compute(u32),
    Sleep(u32),
    SendTo(u8, u32),
    RecvFrom(u8),
}

fn op_strategy(nprocs: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..2000).prop_map(Op::Compute),
        (1u32..40).prop_map(Op::Sleep),
        ((0..nprocs), 1u32..200_000).prop_map(|(p, b)| Op::SendTo(p, b)),
        (0..nprocs).prop_map(Op::RecvFrom),
    ]
}

/// `(clusters, procs, scripts, load windows)` — enough shape variety to hit
/// 2–4 partitions with different WAN latencies per case.
type Workload = (u8, u8, Vec<Vec<Op>>, Vec<(u8, u32, u32, u32)>);

fn workload() -> impl Strategy<Value = Workload> {
    (2u8..5, 3u8..7).prop_flat_map(|(nclusters, nprocs)| {
        let scripts = proptest::collection::vec(
            proptest::collection::vec(op_strategy(nprocs), 0..8),
            nprocs as usize,
        );
        let loads = proptest::collection::vec((0..nprocs, 0u32..40, 1u32..30, 1u32..30), 0..4);
        (Just(nclusters), Just(nprocs), scripts, loads)
    })
}

/// Drop unmatched receives, then append a receive on every send's target —
/// same sanitation as `prop_engine.rs`, so nothing deadlocks.
fn sanitize(n: u8, scripts: &[Vec<Op>]) -> Vec<Vec<Op>> {
    let mut out: Vec<Vec<Op>> = scripts
        .iter()
        .map(|s| {
            s.iter()
                .filter(|o| !matches!(o, Op::RecvFrom(_)))
                .cloned()
                .collect()
        })
        .collect();
    let mut recvs: Vec<Vec<Op>> = vec![Vec::new(); n as usize];
    for (src, script) in out.iter().enumerate() {
        for op in script {
            if let Op::SendTo(dst, _) = op {
                recvs[*dst as usize].push(Op::RecvFrom(src as u8));
            }
        }
    }
    for (p, r) in recvs.into_iter().enumerate() {
        out[p].extend(r);
    }
    out
}

/// Run one sanitized workload under a kernel mode, returning the full run
/// report plus a rendered observability snapshot (the byte-identity side
/// channel the paper's monitoring motivation asks for).
fn run_workload(
    nclusters: u8,
    scripts: &[Vec<Op>],
    loads: &[(u8, u32, u32, u32)],
    kernel: KernelMode,
    policy: WindowPolicy,
) -> (RunReport, String) {
    let mut b = GridBuilder::new();
    let mut hosts = Vec::new();
    let mut cids = Vec::new();
    for c in 0..nclusters {
        let cid = b.cluster(&format!("C{c}"));
        b.local_link(cid, 1e7, 1e-4);
        hosts.extend(b.add_hosts(cid, 2, &HostSpec::with_speed(1e4)));
        cids.push(cid);
    }
    // A WAN ring with distinct latencies, plus one chord when possible, so
    // the minimum-latency lookahead derivation has something to minimise.
    for c in 0..nclusters as usize {
        let next = (c + 1) % nclusters as usize;
        b.connect(cids[c], cids[next], 5e6, 0.01 + 0.005 * c as f64);
    }
    if nclusters >= 3 {
        b.connect(cids[0], cids[2], 2e6, 0.04);
    }
    let mut eng = Engine::new(b.build().unwrap());
    eng.set_kernel_mode(kernel);
    eng.set_window_policy(policy);
    let obs = grads_obs::Obs::enabled();
    eng.set_obs(obs.clone());
    for &(p, start, len, amount) in loads {
        let host = hosts[p as usize % hosts.len()];
        let t0 = start as f64 * 0.1;
        eng.add_load_window(host, t0, Some(t0 + len as f64 * 0.1), amount as f64 * 0.1);
    }
    for (p, script) in scripts.iter().enumerate() {
        let script = script.clone();
        // Processes round-robin over the flattened host list (two hosts
        // per cluster), so sends routinely cross partitions.
        let hostv: Vec<HostId> = (0..scripts.len()).map(|q| hosts[q % hosts.len()]).collect();
        let me = p;
        eng.spawn(&format!("p{p}"), hostv[p], move |ctx| {
            let mut send_seq = vec![0u64; hostv.len()];
            let mut recv_seq = vec![0u64; hostv.len()];
            for op in &script {
                match op {
                    Op::Compute(f) => ctx.compute(*f as f64),
                    Op::Sleep(s) => ctx.sleep(*s as f64 * 0.1),
                    Op::SendTo(d, bytes) => {
                        let d = *d as usize;
                        let key = mail_key(&[me as u64, d as u64, send_seq[d]]);
                        send_seq[d] += 1;
                        ctx.isend(key, hostv[d], *bytes as f64, Box::new(me as u64));
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
    let r = eng.run();
    assert!(
        r.unfinished.is_empty(),
        "sanitized workload must not deadlock: {:?}",
        r.unfinished
    );
    (r, format!("{:?}", obs.snapshot()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serial vs windowed, and windowed at 1 vs N workers (pool dispatch
    /// forced so the concurrent paths really execute): the full run report
    /// is byte-identical everywhere, and the observability snapshot is
    /// byte-identical across worker counts.
    #[test]
    fn windowed_kernel_is_worker_count_invariant(
        (nclusters, nprocs, scripts, loads) in workload()
    ) {
        let scripts = sanitize(nprocs, &scripts);
        let force = WindowPolicy {
            force_parallel: true,
            min_parallel_drain: 0,
            min_parallel_accrual: 0,
            ..WindowPolicy::default()
        };
        let (serial, _) = run_workload(
            nclusters, &scripts, &loads, KernelMode::Serial, WindowPolicy::default());
        let (w1, snap1) = run_workload(
            nclusters, &scripts, &loads, KernelMode::Windowed { workers: 1 },
            WindowPolicy::default());
        let (w4, snap4) = run_workload(
            nclusters, &scripts, &loads, KernelMode::Windowed { workers: 4 }, force);
        prop_assert_eq!(&serial, &w1, "serial vs windowed(1)");
        prop_assert_eq!(&serial, &w4, "serial vs windowed(4, forced pool)");
        // Worker count may not leak into observability either: window
        // planning is worker-count-independent by construction.
        prop_assert_eq!(snap1, snap4, "obs snapshots at 1 vs 4 workers");
    }
}
