//! Property tests of the fast decision path: on randomized grids,
//! NWS CPU histories, eligibility sets, and size bounds, the fast path —
//! forecast snapshot + zero-materialization candidate walk + incremental
//! prefix predictor — picks the **bit-identical** `ResourceChoice` as the
//! seed reference loop.

use grads_nws::{ForecastSnapshot, NwsService};
use grads_perf::{FlatPrefix, TreeBcastPrefix};
use grads_sched::{select_mpi_resources, select_mpi_resources_fast, ResourceChoice};
use grads_sim::prelude::*;
use grads_sim::topology::GridBuilder;
use proptest::prelude::*;

const FLOPS: f64 = 2.0e11;
const BCAST_BYTES: f64 = 4.0e6;

#[derive(Debug, Clone)]
struct Inst {
    /// Host speeds, grouped by cluster.
    clusters: Vec<Vec<f64>>,
    /// Per-host CPU-availability history fed to the forecast battery.
    obs: Vec<Vec<f64>>,
    /// Per-host eligibility (75% dense on average; may be empty).
    eligible: Vec<bool>,
    min_procs: usize,
    max_procs: usize,
}

fn instance() -> impl Strategy<Value = Inst> {
    proptest::collection::vec(proptest::collection::vec(1e8f64..4e9, 1..7), 1..5).prop_flat_map(
        |clusters| {
            let n: usize = clusters.iter().map(Vec::len).sum();
            (
                Just(clusters),
                proptest::collection::vec(proptest::collection::vec(0.05f64..1.0, 0..15), n),
                proptest::collection::vec(0u8..4, n),
                1usize..4,
                0usize..8,
            )
                .prop_map(|(clusters, obs, elig, min_procs, extra)| Inst {
                    clusters,
                    obs,
                    eligible: elig.into_iter().map(|e| e != 0).collect(),
                    min_procs,
                    max_procs: min_procs + extra,
                })
        },
    )
}

fn build(inst: &Inst) -> (Grid, NwsService, Vec<HostId>) {
    let mut b = GridBuilder::new();
    let mut cl = Vec::new();
    for (c, speeds) in inst.clusters.iter().enumerate() {
        let id = b.cluster(&format!("C{c}"));
        b.local_link(id, 1e9, 5e-5);
        for &s in speeds {
            b.add_host(id, &HostSpec::with_speed(s));
        }
        cl.push(id);
    }
    for w in cl.windows(2) {
        b.connect(w[0], w[1], 5e7, 5e-3);
    }
    let grid = b.build().unwrap();
    let mut nws = NwsService::new();
    for (i, hist) in inst.obs.iter().enumerate() {
        for &a in hist {
            nws.observe_cpu(HostId(i as u32), a);
        }
    }
    let eligible: Vec<HostId> = inst
        .eligible
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e)
        .map(|(i, _)| HostId(i as u32))
        .collect();
    (grid, nws, eligible)
}

/// Bitwise-comparable projection of a selection result.
fn key(c: &Option<ResourceChoice>) -> Option<(ClusterId, Vec<HostId>, u64)> {
    c.as_ref()
        .map(|c| (c.cluster, c.hosts.clone(), c.predicted.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental `TreeBcastPrefix` through the walk equals the
    /// reference loop scoring the whole-prefix closure against the live
    /// service — bit for bit.
    #[test]
    fn tree_model_fast_path_matches_reference(inst in instance()) {
        let (grid, nws, eligible) = build(&inst);
        let closure = |hs: &[HostId], grid: &Grid, nws: &NwsService| {
            TreeBcastPrefix::reference(hs, grid, nws, FLOPS, BCAST_BYTES)
        };
        let reference = select_mpi_resources(
            &grid, &nws, &eligible, inst.min_procs, inst.max_procs, &closure,
        );
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let fast = select_mpi_resources_fast(
            &grid, &snap, &eligible, inst.min_procs, inst.max_procs,
            || TreeBcastPrefix::new(&grid, &snap, FLOPS, BCAST_BYTES),
            1,
        );
        prop_assert_eq!(key(&fast), key(&reference), "tree model diverged");
    }

    /// The flat (perfectly parallel) incremental model equals its
    /// whole-prefix sum closure through the reference loop.
    #[test]
    fn flat_model_fast_path_matches_reference(inst in instance()) {
        let (grid, nws, eligible) = build(&inst);
        let closure = |hs: &[HostId], grid: &Grid, nws: &NwsService| {
            let total: f64 = hs.iter().map(|&h| nws.effective_speed(grid, h)).sum();
            FLOPS / total
        };
        let reference = select_mpi_resources(
            &grid, &nws, &eligible, inst.min_procs, inst.max_procs, &closure,
        );
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let fast = select_mpi_resources_fast(
            &grid, &snap, &eligible, inst.min_procs, inst.max_procs,
            || FlatPrefix { flops: FLOPS },
            1,
        );
        prop_assert_eq!(key(&fast), key(&reference), "flat model diverged");
    }
}
