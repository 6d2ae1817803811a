//! Resource selection for tightly-coupled MPI applications.
//!
//! The pre-workflow GrADS scheduler (used for the ScaLAPACK QR experiment,
//! §4.1.2) picks a processor set for a single parallel application: it
//! enumerates candidate subsets — per-cluster prefixes of the
//! fastest-available hosts, since tightly-coupled codes suffer across WAN
//! links — and keeps the one whose predicted execution time is lowest,
//! using the application's own performance model.

use grads_nws::NwsService;
use grads_sim::prelude::*;

/// A candidate (or selected) processor set with its predicted time.
#[derive(Debug, Clone)]
pub struct ResourceChoice {
    /// Chosen hosts, fastest-available first.
    pub hosts: Vec<HostId>,
    /// Predicted execution time from the application model, seconds.
    pub predicted: f64,
    /// Cluster the hosts came from.
    pub cluster: ClusterId,
}

/// Application performance predictor: given an ordered host set, forecast
/// the execution time. Provided by the COP (its executable performance
/// model).
pub type MpiPredictor<'a> = dyn Fn(&[HostId], &Grid, &NwsService) -> f64 + 'a;

/// Enumerate candidate host sets: for each cluster, prefixes (by forecast
/// effective speed, descending) of length `min_procs..=max_procs`.
pub fn candidate_sets(
    grid: &Grid,
    nws: &NwsService,
    eligible: &[HostId],
    min_procs: usize,
    max_procs: usize,
) -> Vec<(ClusterId, Vec<HostId>)> {
    // Eligibility bitset over dense host ids: one O(|eligible|) pass here
    // instead of an O(|eligible|) scan per host per cluster below.
    let mut is_eligible = vec![false; grid.hosts().len()];
    for h in eligible {
        if let Some(slot) = is_eligible.get_mut(h.0 as usize) {
            *slot = true;
        }
    }
    let mut out = Vec::new();
    for (ci, cluster) in grid.clusters().iter().enumerate() {
        let mut hosts: Vec<HostId> = cluster
            .hosts
            .iter()
            .copied()
            .filter(|h| is_eligible[h.0 as usize])
            .collect();
        if hosts.is_empty() {
            continue;
        }
        hosts.sort_by(|&a, &b| {
            nws.effective_speed(grid, b)
                .total_cmp(&nws.effective_speed(grid, a))
                .then(a.cmp(&b))
        });
        for k in min_procs..=max_procs.min(hosts.len()) {
            out.push((ClusterId(ci as u32), hosts[..k].to_vec()));
        }
    }
    out
}

/// Select the processor set with the lowest predicted execution time.
/// Returns `None` if no cluster can supply `min_procs` eligible hosts.
///
/// This is the reference selector: it materializes every candidate and
/// re-runs the forecast ensemble inside the sort and the predictor.
/// Production decisions go through [`crate::CandidateWalk`]; this loop
/// stays as the oracle that the walk's unit and property tests compare
/// against.
pub fn select_mpi_resources(
    grid: &Grid,
    nws: &NwsService,
    eligible: &[HostId],
    min_procs: usize,
    max_procs: usize,
    predict: &MpiPredictor<'_>,
) -> Option<ResourceChoice> {
    let mut best: Option<ResourceChoice> = None;
    for (cluster, hosts) in candidate_sets(grid, nws, eligible, min_procs, max_procs) {
        let predicted = predict(&hosts, grid, nws);
        match &best {
            Some(b) if b.predicted <= predicted => {}
            _ => {
                best = Some(ResourceChoice {
                    hosts,
                    predicted,
                    cluster,
                })
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup() -> Grid {
        let mut b = GridBuilder::new();
        let utk = b.cluster("UTK");
        b.add_hosts(utk, 4, &HostSpec::with_speed(933e6));
        let uiuc = b.cluster("UIUC");
        b.add_hosts(uiuc, 8, &HostSpec::with_speed(450e6));
        b.connect(utk, uiuc, 4e6, 0.03);
        b.build().unwrap()
    }

    /// Simple predictor: perfectly parallel flops over summed speeds.
    fn flat_predictor(flops: f64) -> impl Fn(&[HostId], &Grid, &NwsService) -> f64 {
        move |hosts, grid, nws| {
            let total: f64 = hosts.iter().map(|&h| nws.effective_speed(grid, h)).sum();
            flops / total
        }
    }

    /// The eligibility bitset does not change candidate enumeration: a
    /// scrambled, duplicated eligible list yields exactly the same
    /// candidate sets, in the same order, as the sorted one — order comes
    /// from cluster iteration and forecast speed, never from `eligible`.
    #[test]
    fn candidate_order_is_independent_of_eligible_order() {
        let grid = setup();
        let nws = NwsService::new();
        let sorted: Vec<HostId> = (0..12).map(HostId).collect();
        let scrambled: Vec<HostId> = [7u32, 0, 11, 3, 3, 9, 1, 10, 2, 8, 5, 4, 6, 0]
            .into_iter()
            .map(HostId)
            .collect();
        let a = candidate_sets(&grid, &nws, &sorted, 2, 12);
        let b = candidate_sets(&grid, &nws, &scrambled, 2, 12);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // Within each candidate, hosts are fastest-first with id tie-break.
        for (_, hosts) in &a {
            for w in hosts.windows(2) {
                let (x, y) = (w[0], w[1]);
                let sx = nws.effective_speed(&grid, x);
                let sy = nws.effective_speed(&grid, y);
                assert!(sx > sy || (sx == sy && x < y), "{x:?} before {y:?}");
            }
        }
    }

    /// A partial eligible set restricted to the slow cluster still
    /// enumerates correctly through the bitset path.
    #[test]
    fn partial_eligibility_filters_hosts() {
        let grid = setup();
        let nws = NwsService::new();
        let uiuc_only: Vec<HostId> = grid.hosts_of("UIUC")[..5].to_vec();
        let sets = candidate_sets(&grid, &nws, &uiuc_only, 2, 12);
        assert!(sets
            .iter()
            .all(|(c, _)| *c == grid.cluster_by_name("UIUC").unwrap()));
        assert_eq!(sets.last().unwrap().1.len(), 5);
        assert!(sets
            .iter()
            .all(|(_, hs)| hs.iter().all(|h| uiuc_only.contains(h))));
    }

    #[test]
    fn picks_faster_cluster_with_all_hosts() {
        let grid = setup();
        let nws = NwsService::new();
        let all: Vec<HostId> = (0..12).map(HostId).collect();
        let p = flat_predictor(1e12);
        let choice = select_mpi_resources(&grid, &nws, &all, 2, 12, &p).unwrap();
        // UTK: 4 * 933 = 3732 Mflop/s; UIUC: 8 * 450 = 3600. UTK wins.
        assert_eq!(choice.cluster, grid.cluster_by_name("UTK").unwrap());
        assert_eq!(choice.hosts.len(), 4);
    }

    #[test]
    fn loaded_fast_cluster_loses() {
        let grid = setup();
        let mut nws = NwsService::new();
        // One UTK node heavily loaded (availability 0.25).
        let utk0 = grid.hosts_of("UTK")[0];
        for _ in 0..20 {
            nws.observe_cpu(utk0, 0.25);
        }
        let all: Vec<HostId> = (0..12).map(HostId).collect();
        let p = flat_predictor(1e12);
        let choice = select_mpi_resources(&grid, &nws, &all, 2, 12, &p).unwrap();
        // UTK effective: 3*933 + 0.25*933 = 3032 < UIUC 3600. UIUC wins.
        assert_eq!(choice.cluster, grid.cluster_by_name("UIUC").unwrap());
        assert_eq!(choice.hosts.len(), 8);
    }

    #[test]
    fn prefix_ordering_puts_fastest_first() {
        let grid = setup();
        let mut nws = NwsService::new();
        let utk1 = grid.hosts_of("UTK")[1];
        for _ in 0..20 {
            nws.observe_cpu(utk1, 0.1);
        }
        let all = grid.hosts_of("UTK");
        let sets = candidate_sets(&grid, &nws, &all, 3, 3);
        assert_eq!(sets.len(), 1);
        // The loaded host must be last (excluded from the 3-host prefix).
        assert!(!sets[0].1.contains(&utk1));
    }

    #[test]
    fn respects_min_procs() {
        let grid = setup();
        let nws = NwsService::new();
        let only_two: Vec<HostId> = grid.hosts_of("UTK")[..2].to_vec();
        let p = flat_predictor(1e12);
        assert!(select_mpi_resources(&grid, &nws, &only_two, 3, 8, &p).is_none());
        assert!(select_mpi_resources(&grid, &nws, &only_two, 2, 8, &p).is_some());
    }

    #[test]
    fn non_monotone_predictor_picks_sweet_spot() {
        // Predictor with a communication penalty that grows with the
        // process count: best size is interior.
        let grid = setup();
        let nws = NwsService::new();
        let all = grid.hosts_of("UIUC");
        let p = |hosts: &[HostId], grid: &Grid, nws: &NwsService| {
            let total: f64 = hosts.iter().map(|&h| nws.effective_speed(grid, h)).sum();
            1e12 / total + 50.0 * (hosts.len() as f64)
        };
        let choice = select_mpi_resources(&grid, &nws, &all, 1, 8, &p).unwrap();
        assert!(
            choice.hosts.len() > 1 && choice.hosts.len() < 8,
            "expected interior optimum, got {}",
            choice.hosts.len()
        );
    }
}
