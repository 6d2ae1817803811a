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
//! A delta covering more than a quarter of the grid (every service round
//! observes every host) takes the re-sort instead, done in place: each
//! cluster is re-keyed inside its existing buffers and sorted through one
//! reused buffer of integer keys, so no round reallocates the index.
//!
//! Per-job work then drops to
//! [`crate::CandidateWalk::select_from_index`]: walk the prebuilt order,
//! keep hosts present in the job's eligibility [`HostBitset`], and stop
//! after `max_procs` of them — `O(procs + skipped busy hosts)` per
//! cluster instead of `O(H log H)`.

use grads_nws::predictors::order_key;
use grads_nws::{ForecastSnapshot, ForecastSource};
use grads_sim::prelude::*;
use std::cmp::Ordering;

/// Dense bitset over host ids — the per-job eligibility mask handed to
/// [`crate::CandidateWalk::select_from_index`], maintained `O(1)` per
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
    /// Reused sort buffer of the large-delta fallback: one cluster's
    /// `(!order_key(speed), host id)` keys.
    keys: Vec<(i64, u32)>,
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
    /// service start; the large-delta repair fallback re-sorts in place
    /// instead (see [`Self::repair`]).
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
            keys: Vec::new(),
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

    /// Bring the index up to date with `snap` given the hosts whose
    /// forecasts changed since the last sync (the
    /// [`grads_nws::NwsService::dirty_hosts`] set). Each changed host is
    /// removed at its old key and re-inserted at its new one; when the
    /// delta covers more than a quarter of the grid, re-sorting every
    /// cluster is cheaper and provably equivalent, so we do that instead.
    /// That fallback works in place: each cluster is re-sorted inside its
    /// existing `hosts`/`speeds` buffers through one reused buffer of
    /// integer keys, so the index keeps its allocations. Debug builds
    /// check each fallback against a fresh [`Self::build`].
    pub fn repair(
        &mut self,
        grid: &Grid,
        snap: &ForecastSnapshot,
        changed: &[HostId],
    ) -> RepairReport {
        if changed.len() * 4 > self.speed_of.len() {
            self.resort_all(grid, snap);
            #[cfg(debug_assertions)]
            self.assert_equals_build(grid, snap);
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

    /// Re-sort every cluster against `snap` in place. A cluster's host
    /// set never changes, so each one is re-keyed from its own `hosts`.
    /// The keys `(!order_key(speed), host id)` order exactly like
    /// [`key_cmp`], a unique total order, so `sort_unstable` lands in the
    /// permutation [`Self::build`] produces.
    fn resort_all(&mut self, grid: &Grid, snap: &ForecastSnapshot) {
        let keys = &mut self.keys;
        for c in &mut self.clusters {
            keys.clear();
            for &h in &c.hosts {
                let s = snap.effective_speed(grid, h);
                self.speed_of[h.0 as usize] = s;
                keys.push((!order_key(s), h.0));
            }
            keys.sort_unstable();
            for ((slot, speed), &(_, h)) in c.hosts.iter_mut().zip(&mut c.speeds).zip(&*keys) {
                *slot = HostId(h);
                *speed = self.speed_of[h as usize];
            }
        }
    }

    /// Panic unless the index equals a fresh [`Self::build`] bit for bit.
    #[cfg(debug_assertions)]
    fn assert_equals_build(&self, grid: &Grid, snap: &ForecastSnapshot) {
        let fresh = Self::build(grid, snap);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        for (a, b) in self.clusters.iter().zip(&fresh.clusters) {
            assert_eq!(
                a.hosts, b.hosts,
                "in-place rebuild diverged in {:?}",
                a.cluster
            );
            assert_eq!(
                bits(&a.speeds),
                bits(&b.speeds),
                "in-place rebuild speeds diverged"
            );
        }
        assert_eq!(bits(&self.speed_of), bits(&fresh.speed_of));
        assert_eq!(self.cluster_ix, fresh.cluster_ix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{CandidateWalk, WalkScratch};
    use grads_nws::NwsService;
    use grads_perf::{PrefixAgg, PrefixPredictor, TreeBcastPrefix};
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

    /// Consecutive full-grid deltas each take the in-place fallback and
    /// each land exactly where a fresh build does, including hosts tied
    /// on effective speed and hosts whose availability clamps to `±0.0`
    /// (distinct keys under `total_cmp`).
    #[test]
    fn huge_delta_falls_back_to_rebuild() {
        let (grid, mut nws) = setup(6);
        nws.enable_delta_tracking();
        let mut snap = ForecastSnapshot::capture_sync(&grid, &mut nws);
        let mut idx = SnapshotIndex::build(&grid, &snap);
        let (mut neg_zero, mut pos_zero, mut ties) = (0, 0, 0);
        for round in 0..6u32 {
            for h in 0..18u32 {
                // Equal availabilities on hosts of equal speed tie; -0.0
                // stays -0.0 and negatives clamp to +0.0.
                let a = match (h + round) % 6 {
                    0 => -0.0,
                    1 => -0.5,
                    2 | 3 => 0.5,
                    _ => 0.25 + 0.125 * f64::from(round % 3),
                };
                for _ in 0..12 {
                    nws.observe_cpu(HostId(h), a);
                }
            }
            let dirty = nws.dirty_hosts();
            assert!(dirty.len() * 4 > 18, "round {round}: a full-grid delta");
            snap = ForecastSnapshot::capture_delta(&grid, &mut nws, &snap);
            let rep = idx.repair(&grid, &snap, &dirty);
            assert_eq!(
                rep,
                RepairReport {
                    moved: dirty.len(),
                    rebuilt: true
                },
                "round {round}"
            );
            assert_index_matches_full_sort(&grid, &snap, &idx);
            for c in idx.clusters() {
                neg_zero += c
                    .speeds
                    .iter()
                    .filter(|s| s.to_bits() == (-0.0f64).to_bits())
                    .count();
                pos_zero += c.speeds.iter().filter(|s| s.to_bits() == 0).count();
                ties += c
                    .speeds
                    .windows(2)
                    .filter(|w| w[0].to_bits() == w[1].to_bits())
                    .count();
            }
        }
        assert!(
            neg_zero > 0 && pos_zero > 0,
            "-0.0: {neg_zero}, +0.0: {pos_zero}"
        );
        assert!(ties > 0, "some hosts tie on effective speed");
    }

    /// Wraps a predictor and records, per `begin_cluster`, the cluster
    /// and how many hosts it was handed.
    struct Recording<P> {
        inner: P,
        seen: Vec<(ClusterId, usize)>,
    }

    impl<P: PrefixPredictor> PrefixPredictor for Recording<P> {
        fn begin_cluster(&mut self, cluster: ClusterId, hosts: &[HostId]) {
            self.seen.push((cluster, hosts.len()));
            self.inner.begin_cluster(cluster, hosts);
        }
        fn push(&mut self, agg: &PrefixAgg) {
            self.inner.push(agg);
        }
        fn predict(&self, agg: &PrefixAgg) -> f64 {
            self.inner.predict(agg)
        }
    }

    /// The index-backed selector equals a fresh walk bit for bit, scores
    /// only clusters that can seat `min_procs`, and hands each scored
    /// cluster exactly `min(max_procs, eligible)` hosts.
    #[test]
    fn indexed_walk_matches_fresh_walk_bitwise() {
        let (grid, nws) = setup(8);
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let idx = SnapshotIndex::build(&grid, &snap);
        let n = 24u32;
        // Deterministic pseudo-random eligibility patterns; the last
        // trial has every host eligible. One scratch serves every
        // selection, as in the service's mapping plan.
        let mut scratch = WalkScratch::default();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..=40 {
            let mut bits = HostBitset::new(n as usize);
            let mut eligible = Vec::new();
            let mut counts = vec![0usize; grid.clusters().len()];
            for h in 0..n {
                let draw = next();
                if trial == 40 || draw % 3 != 0 {
                    bits.insert(HostId(h));
                    eligible.push(HostId(h));
                    counts[(h / 8) as usize] += 1;
                }
            }
            for (min_p, max_p) in [(1, 4), (2, 3), (3, 24), (1, 1)] {
                let (flops, bytes) = (2e12, 1.5e7);
                let fresh = CandidateWalk::new(&grid, &snap, &eligible, min_p, max_p)
                    .select(&mut TreeBcastPrefix::new(&grid, &snap, flops, bytes));
                let mut pred = Recording {
                    inner: TreeBcastPrefix::new(&grid, &snap, flops, bytes),
                    seen: Vec::new(),
                };
                let indexed = CandidateWalk::select_from_index(
                    &idx,
                    &bits,
                    &counts,
                    min_p,
                    max_p,
                    &mut pred,
                    &mut scratch,
                );
                match (&fresh, &indexed) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.hosts, b.hosts, "trial {trial} {min_p}..={max_p}");
                        assert_eq!(a.cluster, b.cluster);
                        assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("presence mismatch, trial {trial} {min_p}..={max_p}"),
                }
                let expected: Vec<(ClusterId, usize)> = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c >= min_p)
                    .map(|(ci, &c)| (ClusterId(ci as u32), c.min(max_p)))
                    .collect();
                assert_eq!(pred.seen, expected, "trial {trial} {min_p}..={max_p}");
            }
        }
    }
}
