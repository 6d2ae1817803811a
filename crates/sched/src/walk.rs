//! Zero-materialization candidate enumeration and the first-wins argmin
//! — the scheduler's grid-scale fast path.
//!
//! The reference selector ([`crate::select_mpi_resources`]) materializes
//! every per-cluster prefix as its own `Vec<HostId>` and hands each to a
//! whole-prefix closure, so scoring a cluster of `n` hosts allocates `n`
//! vectors and visits `O(n²)` hosts — each visit re-running the NWS
//! forecast ensemble. [`CandidateWalk`] enumerates the same prefixes
//! *implicitly*: hosts are sorted once per cluster (against cached
//! speeds), then a single left-to-right pass maintains the running
//! aggregates ([`PrefixAgg`]: Σ speed, min speed, count) that an
//! incremental [`PrefixPredictor`] needs to score prefix `k` from `k−1`
//! in `O(1)`. Only the winning prefix is ever materialized.
//!
//! [`CandidateWalk::select`] scores clusters in index order on the
//! calling thread and keeps the argmin under the total order
//! `(predicted, cluster, prefix length)` with first-wins ties — exactly
//! the order the reference path's loop applies — so the choice is
//! bit-identical to the reference. [`CandidateWalk::select_from_index`]
//! applies the same scoring and argmin to a persistent
//! [`SnapshotIndex`], one cluster at a time — the service mapper's path.

use crate::epoch::{HostBitset, SnapshotIndex};
use crate::mpi_sched::ResourceChoice;
use grads_nws::{ForecastSnapshot, ForecastSource};
use grads_perf::{PrefixAgg, PrefixPredictor};
use grads_sim::prelude::*;

/// One cluster's sorted eligible hosts with their cached effective
/// speeds — the implicit candidate family `prefix(1..=len)`.
#[derive(Debug, Clone)]
pub struct ClusterPrefixes {
    /// The cluster the hosts belong to.
    pub cluster: ClusterId,
    /// Eligible hosts, fastest-available first (forecast speed
    /// descending, host id ascending on ties — the reference order).
    pub hosts: Vec<HostId>,
    /// `hosts[i]`'s effective speed at walk-build time, aligned with
    /// `hosts`.
    pub speeds: Vec<f64>,
}

/// Implicit enumeration of every candidate prefix, ready for incremental
/// scoring. Build once per decision epoch (typically against a
/// [`ForecastSnapshot`]) and score with [`CandidateWalk::select`].
#[derive(Debug, Clone)]
pub struct CandidateWalk {
    clusters: Vec<ClusterPrefixes>,
    min_procs: usize,
    max_procs: usize,
}

impl CandidateWalk {
    /// Enumerate candidates for `eligible` hosts: per cluster, prefixes
    /// of length `min_procs..=max_procs` of the fastest-available hosts.
    /// Forecasts are read once per host from `src`; clusters that cannot
    /// supply `min_procs` eligible hosts are dropped (they contribute no
    /// candidates in the reference enumeration either).
    ///
    /// `min_procs` must be at least 1: a zero-length prefix has no hosts
    /// to score.
    pub fn new<S: ForecastSource + ?Sized>(
        grid: &Grid,
        src: &S,
        eligible: &[HostId],
        min_procs: usize,
        max_procs: usize,
    ) -> Self {
        assert!(min_procs >= 1, "a candidate prefix needs at least one host");
        let mut is_eligible = vec![false; grid.hosts().len()];
        for h in eligible {
            if let Some(slot) = is_eligible.get_mut(h.0 as usize) {
                *slot = true;
            }
        }
        let mut clusters = Vec::new();
        if min_procs <= max_procs {
            for (ci, cluster) in grid.clusters().iter().enumerate() {
                let mut pairs: Vec<(HostId, f64)> = cluster
                    .hosts
                    .iter()
                    .copied()
                    .filter(|h| is_eligible[h.0 as usize])
                    .map(|h| (h, src.effective_speed(grid, h)))
                    .collect();
                if pairs.len() < min_procs {
                    continue;
                }
                // Same comparator as the reference sort, against the
                // cached speeds (identical values ⇒ identical order).
                pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                clusters.push(ClusterPrefixes {
                    cluster: ClusterId(ci as u32),
                    hosts: pairs.iter().map(|&(h, _)| h).collect(),
                    speeds: pairs.iter().map(|&(_, s)| s).collect(),
                });
            }
        }
        CandidateWalk {
            clusters,
            min_procs,
            max_procs,
        }
    }

    /// The per-cluster prefix families, in cluster-index order.
    pub fn clusters(&self) -> &[ClusterPrefixes] {
        &self.clusters
    }

    /// Total number of candidate prefixes enumerated — what the
    /// reference `candidate_sets` would have materialized.
    pub fn n_candidates(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| self.max_procs.min(c.hosts.len()) - self.min_procs + 1)
            .sum()
    }

    /// Score every candidate with `pred` and return the choice with the
    /// lowest predicted time — the first such `(cluster, prefix length)`
    /// in enumeration order on ties, exactly like the reference loop.
    pub fn select<P: PrefixPredictor>(&self, pred: &mut P) -> Option<ResourceChoice> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (ci, c) in self.clusters.iter().enumerate() {
            let (k, t) = best_in_cluster(c, self.min_procs, self.max_procs, pred);
            match best {
                Some((_, _, bt)) if bt <= t => {}
                _ => best = Some((ci, k, t)),
            }
        }
        best.map(|(ci, k, predicted)| {
            let c = &self.clusters[ci];
            ResourceChoice {
                hosts: c.hosts[..k].to_vec(),
                predicted,
                cluster: c.cluster,
            }
        })
    }

    /// [`CandidateWalk::select`] straight from a prebuilt
    /// [`SnapshotIndex`], without re-sorting and without collecting every
    /// cluster first. Clusters are scored one at a time in index order:
    /// a cluster with fewer than `min_procs` eligible hosts is skipped
    /// without touching its order (the retention rule of
    /// [`CandidateWalk::new`]); otherwise the first `min(max_procs,
    /// avail)` hosts of its persistent order that are set in `eligible`
    /// are collected into `scratch` and scored there —
    /// `O(procs + skipped hosts)` per cluster instead of `O(H log H)`.
    /// A new leader's buffer is swapped aside, not copied, and only the
    /// winning prefix is copied out.
    ///
    /// `elig_counts[ci]` must be the number of eligible hosts in cluster
    /// `ci` (service drivers maintain it `O(1)` per admit/complete).
    ///
    /// Bit-identity with the fresh walk: the index order filtered by
    /// eligibility equals filter-then-sort (the comparator is a unique
    /// total order), truncating at `max_procs` removes only hosts the
    /// scoring pass never reads, and the argmin is the same first-wins
    /// reduction. One contract deviation:
    /// [`PrefixPredictor::begin_cluster`] sees the truncated host list
    /// rather than the full eligible list; every in-tree predictor
    /// ([`grads_perf::TreeBcastPrefix`], [`grads_perf::FlatPrefix`])
    /// ignores that argument, but a custom predictor that reads beyond the
    /// scored prefix would observe the difference.
    pub fn select_from_index<P: PrefixPredictor>(
        index: &SnapshotIndex,
        eligible: &HostBitset,
        elig_counts: &[usize],
        min_procs: usize,
        max_procs: usize,
        pred: &mut P,
        scratch: &mut WalkScratch,
    ) -> Option<ResourceChoice> {
        assert!(min_procs >= 1, "a candidate prefix needs at least one host");
        if min_procs > max_procs {
            return None;
        }
        // `buf` is the cluster being scored; `lead` holds this call's
        // leader once `best` is set (whatever it held before is unread).
        let WalkScratch { buf, lead } = scratch;
        let mut best: Option<(usize, f64)> = None;
        for (order, &avail) in index.clusters().iter().zip(elig_counts) {
            if avail < min_procs {
                continue;
            }
            let take = max_procs.min(avail);
            buf.cluster = order.cluster;
            buf.hosts.clear();
            buf.speeds.clear();
            for (&h, &s) in order.hosts.iter().zip(&order.speeds) {
                if eligible.contains(h) {
                    buf.hosts.push(h);
                    buf.speeds.push(s);
                    if buf.hosts.len() == take {
                        break;
                    }
                }
            }
            debug_assert_eq!(buf.hosts.len(), take, "elig_counts out of sync with bitset");
            let (k, t) = best_in_cluster(buf, min_procs, max_procs, pred);
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => {
                    best = Some((k, t));
                    std::mem::swap(buf, lead);
                }
            }
        }
        best.map(|(k, predicted)| ResourceChoice {
            hosts: lead.hosts[..k].to_vec(),
            predicted,
            cluster: lead.cluster,
        })
    }
}

/// Reusable buffers for [`CandidateWalk::select_from_index`]: the
/// cluster being scored and the current leader. A caller that keeps one
/// across selections (the service's mapping plan) scores without
/// allocating once the buffers have grown to its largest prefix.
#[derive(Debug, Clone)]
pub struct WalkScratch {
    buf: ClusterPrefixes,
    lead: ClusterPrefixes,
}

impl Default for WalkScratch {
    fn default() -> Self {
        let empty = || ClusterPrefixes {
            cluster: ClusterId(0),
            hosts: Vec::new(),
            speeds: Vec::new(),
        };
        WalkScratch {
            buf: empty(),
            lead: empty(),
        }
    }
}

/// Walk one cluster's prefixes with an incremental predictor and return
/// its best `(prefix length, predicted)`. Ties keep the shorter prefix —
/// the reference loop's first-wins rule, since it visits a cluster's
/// prefixes in ascending length. `c` must hold at least `min_procs` hosts.
fn best_in_cluster<P: PrefixPredictor>(
    c: &ClusterPrefixes,
    min_procs: usize,
    max_procs: usize,
    pred: &mut P,
) -> (usize, f64) {
    let kmax = max_procs.min(c.hosts.len());
    pred.begin_cluster(c.cluster, &c.hosts);
    let (mut sum, mut min) = (0.0f64, f64::INFINITY);
    let mut best: Option<(usize, f64)> = None;
    for i in 0..kmax {
        sum += c.speeds[i];
        min = min.min(c.speeds[i]);
        let agg = PrefixAgg {
            k: i + 1,
            host: c.hosts[i],
            speed: c.speeds[i],
            sum_speed: sum,
            min_speed: min,
        };
        pred.push(&agg);
        if agg.k >= min_procs {
            let t = pred.predict(&agg);
            match best {
                Some((_, bt)) if bt <= t => {}
                _ => best = Some((agg.k, t)),
            }
        }
    }
    best.expect("a retained cluster yields at least one prefix")
}

/// Select the processor set with the lowest predicted execution time via
/// the fast path: an already-captured snapshot and an incremental
/// predictor. Bit-identical to [`crate::select_mpi_resources`] run
/// against the same forecasts with the equivalent whole-prefix model.
///
/// `make_predictor` is called once. `workers` is ignored: scoring always
/// runs on the calling thread. The parameter stays only so existing
/// callers keep compiling.
pub fn select_mpi_resources_fast<P, F>(
    grid: &Grid,
    snap: &ForecastSnapshot,
    eligible: &[HostId],
    min_procs: usize,
    max_procs: usize,
    make_predictor: F,
    _workers: usize,
) -> Option<ResourceChoice>
where
    P: PrefixPredictor,
    F: FnOnce() -> P,
{
    if min_procs > max_procs || max_procs == 0 {
        return None;
    }
    CandidateWalk::new(grid, snap, eligible, min_procs.max(1), max_procs)
        .select(&mut make_predictor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpi_sched::{candidate_sets, select_mpi_resources};
    use grads_nws::NwsService;
    use grads_perf::TreeBcastPrefix;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup() -> (Grid, NwsService) {
        let mut b = GridBuilder::new();
        let utk = b.cluster("UTK");
        b.local_link(utk, 1e8, 1e-4);
        b.add_hosts(utk, 4, &HostSpec::with_speed(933e6));
        let uiuc = b.cluster("UIUC");
        b.local_link(uiuc, 1e8, 1e-4);
        b.add_hosts(uiuc, 8, &HostSpec::with_speed(450e6));
        let ucsd = b.cluster("UCSD");
        b.local_link(ucsd, 1e8, 1e-4);
        b.add_hosts(ucsd, 6, &HostSpec::with_speed(600e6));
        b.connect(utk, uiuc, 4e6, 0.03);
        b.connect(utk, ucsd, 2e6, 0.05);
        b.connect(uiuc, ucsd, 3e6, 0.04);
        let mut nws = NwsService::new();
        for i in 0..18u32 {
            for j in 0..15 {
                nws.observe_cpu(HostId(i), 0.3 + 0.04 * ((i * 5 + j) % 13) as f64);
            }
        }
        (b.build().unwrap(), nws)
    }

    fn assert_same_choice(a: &ResourceChoice, b: &ResourceChoice) {
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
    }

    #[test]
    fn walk_enumerates_the_reference_candidates() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        for (min_p, max_p) in [(1, 18), (2, 5), (5, 5), (7, 18)] {
            let reference = candidate_sets(&grid, &nws, &all, min_p, max_p);
            let snap = ForecastSnapshot::capture(&grid, &nws);
            let walk = CandidateWalk::new(&grid, &snap, &all, min_p, max_p);
            assert_eq!(walk.n_candidates(), reference.len(), "{min_p}..={max_p}");
            // Reconstruct the implicit enumeration and compare.
            let mut implicit = Vec::new();
            for c in walk.clusters() {
                for k in min_p..=max_p.min(c.hosts.len()) {
                    implicit.push((c.cluster, c.hosts[..k].to_vec()));
                }
            }
            assert_eq!(implicit, reference);
        }
    }

    #[test]
    fn incremental_predictor_matches_closure_path_bitwise() {
        let (grid, nws) = setup();
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let (flops, bytes) = (3e12, 2.5e7);
        let closure = |hosts: &[HostId], grid: &Grid, nws: &NwsService| {
            TreeBcastPrefix::reference(hosts, grid, nws, flops, bytes)
        };
        let reference = select_mpi_resources(&grid, &nws, &all, 2, 18, &closure).unwrap();
        let fast = select_mpi_resources_fast(
            &grid,
            &snap,
            &all,
            2,
            18,
            || TreeBcastPrefix::new(&grid, &snap, flops, bytes),
            1,
        )
        .unwrap();
        assert_same_choice(&reference, &fast);
    }

    /// Scores every prefix `42.0`, so every candidate ties.
    struct ConstantPrefix;

    impl PrefixPredictor for ConstantPrefix {
        fn begin_cluster(&mut self, _cluster: ClusterId, _hosts: &[HostId]) {}
        fn push(&mut self, _agg: &PrefixAgg) {}
        fn predict(&self, _agg: &PrefixAgg) -> f64 {
            42.0
        }
    }

    #[test]
    fn degenerate_bounds_select_nothing() {
        let (grid, nws) = setup();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let predict = |hosts: &[HostId], g: &Grid, n: &NwsService| {
            TreeBcastPrefix::reference(hosts, g, n, 1e12, 1e6)
        };
        for (min_p, max_p) in [(5, 2), (30, 40), (1, 0)] {
            let r = select_mpi_resources(&grid, &nws, &all, min_p, max_p, &predict);
            let f =
                select_mpi_resources_fast(&grid, &snap, &all, min_p, max_p, || ConstantPrefix, 1);
            assert!(r.is_none() && f.is_none(), "{min_p}..={max_p}");
        }
        // No eligible hosts at all.
        assert!(select_mpi_resources_fast(&grid, &snap, &[], 1, 4, || ConstantPrefix, 1).is_none());
    }

    #[test]
    fn tie_break_keeps_first_cluster_and_shortest_prefix() {
        // A constant predictor makes every candidate tie: the reference
        // keeps the very first (cluster 0, k = min_procs); the fast path
        // must agree.
        let (grid, nws) = setup();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let all: Vec<HostId> = (0..18).map(HostId).collect();
        let constant = |_: &[HostId], _: &Grid, _: &NwsService| 42.0;
        let r = select_mpi_resources(&grid, &nws, &all, 2, 18, &constant).unwrap();
        assert_eq!(r.cluster, ClusterId(0));
        assert_eq!(r.hosts.len(), 2);
        let f = select_mpi_resources_fast(&grid, &snap, &all, 2, 18, || ConstantPrefix, 1).unwrap();
        assert_same_choice(&r, &f);
    }
}
