//! Persistent decision-epoch index: the sorted per-cluster host
//! orderings that [`crate::CandidateWalk`] rebuilds from scratch for
//! every job, maintained once per round instead.
//!
//! [`crate::CandidateWalk::new`] pays an `O(H log H)` per-cluster sort
//! per *job* even though the [`grads_nws::ForecastSnapshot`] it sorts
//! against is frozen for the whole service round — only the *eligibility*
//! of hosts differs between jobs, never their order. A [`SnapshotIndex`]
//! keeps every cluster's full host list sorted under the walk comparator
//! (effective speed descending, [`HostId`] ascending — a *unique* total
//! order, since ids are unique) and is repaired between rounds from the
//! snapshot delta: each changed host is removed at its old key and
//! re-inserted at its new one. Because the order is a unique total order,
//! remove/re-insert repair provably lands in the same permutation a full
//! re-sort would produce, so everything downstream stays bit-identical.
//!
//! Per-job work then drops to
//! [`crate::CandidateWalk::from_index`]: walk the prebuilt order, keep
//! hosts present in the job's eligibility [`HostBitset`], and stop after
//! `max_procs` of them — `O(procs + skipped busy hosts)` instead of
//! `O(H log H)`.

use grads_nws::{ForecastSnapshot, ForecastSource};
use grads_sim::prelude::*;
use std::cmp::Ordering;

/// Dense bitset over host ids — the per-job eligibility mask handed to
/// [`crate::CandidateWalk::from_index`], maintained `O(1)` per
/// admit/complete by service drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBitset {
    words: Vec<u64>,
}

impl HostBitset {
    /// An empty set over `n_hosts` host ids.
    pub fn new(n_hosts: usize) -> Self {
        HostBitset {
            words: vec![0; n_hosts.div_ceil(64)],
        }
    }

    /// Add `h`; returns `true` if it was absent.
    pub fn insert(&mut self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove `h`; returns `true` if it was present.
    pub fn remove(&mut self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, h: HostId) -> bool {
        let (w, b) = (h.0 as usize / 64, h.0 as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no host is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// One cluster's complete host list in walk order, with the cached
/// effective speeds the order was built against.
#[derive(Debug, Clone)]
pub struct ClusterOrder {
    /// The cluster the hosts belong to.
    pub cluster: ClusterId,
    /// Every host of the cluster, effective speed descending, host id
    /// ascending on speed ties.
    pub hosts: Vec<HostId>,
    /// `hosts[i]`'s effective speed, aligned with `hosts`.
    pub speeds: Vec<f64>,
}

/// What a [`SnapshotIndex::repair`] call actually did, for the
/// `svc.epoch.*` observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// Hosts removed and re-inserted at a new key.
    pub moved: usize,
    /// True when the delta was large enough that a full rebuild was
    /// cheaper than per-host repair (`moved` then counts the changed
    /// hosts that triggered it).
    pub rebuilt: bool,
}

/// Per-cluster host orderings under the candidate-walk comparator,
/// persistent across the jobs of a decision epoch and repaired — not
/// re-sorted — when the forecast snapshot changes between epochs.
#[derive(Debug, Clone)]
pub struct SnapshotIndex {
    clusters: Vec<ClusterOrder>,
    /// Host id → the effective-speed key the host is currently filed
    /// under (needed to locate it for removal).
    speed_of: Vec<f64>,
    /// Host id → index into `clusters`.
    cluster_ix: Vec<u32>,
}

/// The walk comparator on `(speed, host)` keys: speed descending under
/// `total_cmp`, host id ascending. `total_cmp` equality implies bitwise
/// equality and host ids are unique, so the order is a unique total
/// order — the foundation of the repair == re-sort argument.
#[inline]
fn key_cmp(a_speed: f64, a_host: HostId, b_speed: f64, b_host: HostId) -> Ordering {
    b_speed.total_cmp(&a_speed).then(a_host.cmp(&b_host))
}

impl SnapshotIndex {
    /// Sort every cluster's full host list against `snap`. Done once at
    /// service start (and as the repair fallback for very large deltas).
    pub fn build(grid: &Grid, snap: &ForecastSnapshot) -> Self {
        let n = grid.hosts().len();
        let mut speed_of = vec![0.0; n];
        let mut cluster_ix = vec![0u32; n];
        let mut clusters = Vec::with_capacity(grid.clusters().len());
        for (ci, cluster) in grid.clusters().iter().enumerate() {
            let mut pairs: Vec<(HostId, f64)> = cluster
                .hosts
                .iter()
                .map(|&h| (h, snap.effective_speed(grid, h)))
                .collect();
            pairs.sort_by(|a, b| key_cmp(a.1, a.0, b.1, b.0));
            for &(h, s) in &pairs {
                speed_of[h.0 as usize] = s;
                cluster_ix[h.0 as usize] = ci as u32;
            }
            clusters.push(ClusterOrder {
                cluster: ClusterId(ci as u32),
                hosts: pairs.iter().map(|&(h, _)| h).collect(),
                speeds: pairs.iter().map(|&(_, s)| s).collect(),
            });
        }
        SnapshotIndex {
            clusters,
            speed_of,
            cluster_ix,
        }
    }

    /// The per-cluster orders, in cluster-index order.
    pub fn clusters(&self) -> &[ClusterOrder] {
        &self.clusters
    }

    /// Number of hosts indexed.
    pub fn n_hosts(&self) -> usize {
        self.speed_of.len()
    }

    /// First index in `c`'s order at which `(speed, h)` files — the
    /// host's exact position if present (keys are unique), else its
    /// insertion point.
    fn lower_bound(c: &ClusterOrder, speed: f64, h: HostId) -> usize {
        let (mut lo, mut hi) = (0usize, c.hosts.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key_cmp(c.speeds[mid], c.hosts[mid], speed, h) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The first `k` hosts of cluster `ci`'s order that are set in
    /// `eligible` — the host list of the prefix a cached
    /// `(prefix length, predicted)` cluster score refers to, materialized
    /// only for the winning cluster of a mapping decision.
    pub fn eligible_prefix(&self, ci: usize, eligible: &HostBitset, k: usize) -> Vec<HostId> {
        let order = &self.clusters[ci];
        let mut hosts = Vec::with_capacity(k);
        for &h in &order.hosts {
            if eligible.contains(h) {
                hosts.push(h);
                if hosts.len() == k {
                    break;
                }
            }
        }
        hosts
    }

    /// Bring the index up to date with `snap` given the hosts whose
    /// forecasts changed since the last sync (the
    /// [`grads_nws::NwsService::dirty_hosts`] set). Each changed host is
    /// removed at its old key and re-inserted at its new one; when the
    /// delta covers more than a quarter of the grid, a full rebuild is
    /// cheaper and provably equivalent, so we do that instead.
    pub fn repair(
        &mut self,
        grid: &Grid,
        snap: &ForecastSnapshot,
        changed: &[HostId],
    ) -> RepairReport {
        if changed.len() * 4 > self.speed_of.len() {
            *self = Self::build(grid, snap);
            return RepairReport {
                moved: changed.len(),
                rebuilt: true,
            };
        }
        let mut moved = 0;
        for &h in changed {
            let hi = h.0 as usize;
            let new = snap.effective_speed(grid, h);
            let old = self.speed_of[hi];
            if new.to_bits() == old.to_bits() {
                continue; // forecast bits moved and came back, or a collision
            }
            let c = &mut self.clusters[self.cluster_ix[hi] as usize];
            let at = Self::lower_bound(c, old, h);
            debug_assert_eq!(c.hosts[at], h, "index lost track of a host key");
            c.hosts.remove(at);
            c.speeds.remove(at);
            let to = Self::lower_bound(c, new, h);
            c.hosts.insert(to, h);
            c.speeds.insert(to, new);
            self.speed_of[hi] = new;
            moved += 1;
        }
        RepairReport {
            moved,
            rebuilt: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::CandidateWalk;
    use grads_nws::NwsService;
    use grads_perf::TreeBcastPrefix;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup(hosts_per_cluster: usize) -> (Grid, NwsService) {
        let mut b = GridBuilder::new();
        let mut ids = Vec::new();
        for c in 0..3 {
            let id = b.cluster(&format!("C{c}"));
            b.local_link(id, 1e8, 1e-4);
            for i in 0..hosts_per_cluster {
                b.add_host(
                    id,
                    &HostSpec::with_speed(3e8 + 1e8 * ((c * 7 + i * 3) % 5) as f64),
                );
            }
            ids.push(id);
        }
        b.connect(ids[0], ids[1], 4e6, 0.03);
        b.connect(ids[0], ids[2], 2e6, 0.05);
        b.connect(ids[1], ids[2], 3e6, 0.04);
        let mut nws = NwsService::new();
        let n = (3 * hosts_per_cluster) as u32;
        for i in 0..n {
            for j in 0..10 {
                nws.observe_cpu(HostId(i), 0.3 + 0.04 * ((i * 5 + j) % 13) as f64);
            }
        }
        (b.build().unwrap(), nws)
    }

    fn assert_index_matches_full_sort(grid: &Grid, snap: &ForecastSnapshot, idx: &SnapshotIndex) {
        let fresh = SnapshotIndex::build(grid, snap);
        for (a, b) in idx.clusters().iter().zip(fresh.clusters()) {
            assert_eq!(a.hosts, b.hosts, "order diverged in {:?}", a.cluster);
            let ab: Vec<u64> = a.speeds.iter().map(|s| s.to_bits()).collect();
            let bb: Vec<u64> = b.speeds.iter().map(|s| s.to_bits()).collect();
            assert_eq!(ab, bb, "speeds diverged in {:?}", a.cluster);
        }
    }

    #[test]
    fn bitset_basics() {
        let mut s = HostBitset::new(130);
        assert!(s.is_empty());
        assert!(s.insert(HostId(0)));
        assert!(s.insert(HostId(64)));
        assert!(s.insert(HostId(129)));
        assert!(!s.insert(HostId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(HostId(129)) && !s.contains(HostId(128)));
        assert!(s.remove(HostId(64)));
        assert!(!s.remove(HostId(64)));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(HostId(500)), "out of range is absent");
    }

    #[test]
    fn repair_equals_full_resort_across_observation_rounds() {
        let (grid, mut nws) = setup(6);
        nws.enable_delta_tracking();
        let mut snap = ForecastSnapshot::capture_sync(&grid, &mut nws);
        let mut idx = SnapshotIndex::build(&grid, &snap);
        for round in 0..12u32 {
            // A few hosts drift each round, including reversions.
            for k in 0..3 {
                let h = (round * 5 + k * 7) % 18;
                nws.observe_cpu(HostId(h), 0.2 + 0.05 * ((round + k) % 2) as f64);
            }
            let dirty = nws.dirty_hosts();
            snap = ForecastSnapshot::capture_delta(&grid, &mut nws, &snap);
            let rep = idx.repair(&grid, &snap, &dirty);
            assert!(!rep.rebuilt, "small deltas must take the repair path");
            assert!(rep.moved <= dirty.len());
            assert_index_matches_full_sort(&grid, &snap, &idx);
        }
    }

    #[test]
    fn huge_delta_falls_back_to_rebuild() {
        let (grid, mut nws) = setup(6);
        nws.enable_delta_tracking();
        let snap0 = ForecastSnapshot::capture_sync(&grid, &mut nws);
        let mut idx = SnapshotIndex::build(&grid, &snap0);
        for h in 0..18u32 {
            nws.observe_cpu(HostId(h), 0.9);
        }
        let dirty = nws.dirty_hosts();
        assert!(dirty.len() * 4 > 18);
        let snap = ForecastSnapshot::capture_delta(&grid, &mut nws, &snap0);
        let rep = idx.repair(&grid, &snap, &dirty);
        assert!(rep.rebuilt);
        assert_index_matches_full_sort(&grid, &snap, &idx);
    }

    #[test]
    fn indexed_walk_matches_fresh_walk_bitwise() {
        let (grid, nws) = setup(8);
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let idx = SnapshotIndex::build(&grid, &snap);
        let n = 24u32;
        // Deterministic pseudo-random eligibility patterns.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let mut bits = HostBitset::new(n as usize);
            let mut eligible = Vec::new();
            let mut counts = vec![0usize; grid.clusters().len()];
            for h in 0..n {
                if next() % 3 != 0 {
                    bits.insert(HostId(h));
                    eligible.push(HostId(h));
                    counts[(h / 8) as usize] += 1;
                }
            }
            for (min_p, max_p) in [(1, 4), (2, 3), (3, 24), (1, 1)] {
                let fresh = CandidateWalk::new(&grid, &snap, &eligible, min_p, max_p);
                let indexed = CandidateWalk::from_index(&idx, &bits, &counts, min_p, max_p);
                let (flops, bytes) = (2e12, 1.5e7);
                let a = fresh.select(&mut TreeBcastPrefix::new(&grid, &snap, flops, bytes));
                let b = indexed.select(&mut TreeBcastPrefix::new(&grid, &snap, flops, bytes));
                match (&a, &b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.hosts, b.hosts, "trial {trial} {min_p}..={max_p}");
                        assert_eq!(a.cluster, b.cluster);
                        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("presence mismatch, trial {trial} {min_p}..={max_p}"),
                }
            }
        }
    }

    #[test]
    fn indexed_walk_truncates_to_max_procs() {
        let (grid, nws) = setup(8);
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let idx = SnapshotIndex::build(&grid, &snap);
        let mut bits = HostBitset::new(24);
        for h in 0..24u32 {
            bits.insert(HostId(h));
        }
        let counts = vec![8usize; 3];
        let walk = CandidateWalk::from_index(&idx, &bits, &counts, 2, 3);
        for c in walk.clusters() {
            assert_eq!(c.hosts.len(), 3, "only max_procs hosts are materialized");
        }
        assert_eq!(walk.n_candidates(), 3 * 2);
    }
}
