//! The reusable mapping plan: per-cluster free-host state and a
//! placement memo, maintained `O(Δ)` instead of rebuilt per job.
//!
//! Without the plan, every job examined in a dispatch round pays an
//! `O(hosts)` scan of `free_cores` to build its eligibility list and an
//! `O(hosts log hosts)` per-cluster re-sort inside the candidate walk —
//! even though at most `procs` hosts change occupancy per admission and
//! the forecast snapshot is frozen for the whole round. [`MappingPlan`]
//! keeps what those rebuilds recompute:
//!
//! * a free-host [`HostBitset`] plus per-cluster eligible counts and a
//!   grid-wide free-host count, updated only on the `0 ↔ 1` free-core
//!   transitions of admit/retire (a host with 2 free cores going to 1 is
//!   still eligible — no update);
//! * per-cluster **stamps**: a logical clock value recording when the
//!   cluster's mapping-relevant state last changed. A stamp is bumped by
//!   an eligibility transition in the cluster, by a forecast change on
//!   one of its hosts (the delta-capture dirty set), or — conservatively,
//!   for all clusters at once — by a dirty network pair (cross-cluster
//!   transfer estimates feed every cluster's broadcast leg in general);
//! * a placement **memo** keyed by `(app class, procs, flops bits,
//!   broadcast bits)` holding per-cluster `(prefix length, predicted)`
//!   scores, each tagged with the cluster stamp it was computed under.
//!   A lookup reuses exactly the columns whose stamp still matches and
//!   recomputes the rest through the persistent
//!   [`grads_sched::SnapshotIndex`] — so an admission invalidates
//!   precisely the clusters it touched, nothing else.
//!
//! Bit-identity: a memo column is reused only when nothing a recompute
//! would read has changed (same eligible prefix, same snapshot bits, same
//! model inputs), recomputation itself goes through
//! [`grads_sched::CandidateWalk::score_cluster_from_index`] (the same
//! scoring code as a fresh walk), and the cross-cluster argmin below
//! replays the walk's cluster-index-order first-wins reduction. Debug
//! builds of the dispatcher check every decision against a fresh
//! [`grads_sched::select_mpi_resources_fast`] walk over a rebuilt
//! eligible list.

use std::collections::HashMap;

use grads_nws::ForecastSnapshot;
use grads_obs::Obs;
use grads_perf::TreeBcastPrefix;
use grads_sched::{CandidateWalk, HostBitset, RepairReport, ResourceChoice, SnapshotIndex};
use grads_sim::prelude::*;

use crate::workload::Job;

/// Memo capacity guard: when the key set reaches this size the memo is
/// cleared wholesale (deterministically) rather than grown without bound.
const MEMO_MAX_KEYS: usize = 8192;

#[derive(Debug, Clone, Copy)]
struct MemoCol {
    /// Cluster stamp the score was computed under (`0` = never).
    stamp: u64,
    /// The cluster's best `(prefix length, predicted)`, `None` when the
    /// cluster could not seat the job at computation time.
    best: Option<(usize, f64)>,
}

/// Incrementally-maintained mapping state for one service run. See the
/// module docs for the invalidation rules and the identity argument.
pub struct MappingPlan {
    /// Hosts with at least one free core.
    free: HostBitset,
    /// Free (eligible) host count per cluster, aligned with cluster ids.
    elig_count: Vec<usize>,
    /// Host id → cluster index.
    cluster_of: Vec<u32>,
    /// Grid-wide free-host count — the `eligible.len()` of the rebuilt
    /// path, without the scan.
    free_hosts: usize,
    /// Per-cluster last-changed stamps.
    stamps: Vec<u64>,
    /// Logical clock behind the stamps.
    clock: u64,
    memo: HashMap<(u8, usize, u64, u64), Vec<MemoCol>>,
    // `svc.epoch.*` counter state, published once at end of run.
    memo_hits: u64,
    memo_misses: u64,
    elig_updates: u64,
    index_repairs: u64,
    index_rebuilds: u64,
}

impl MappingPlan {
    /// Derive the initial free state from the live `free_cores` table.
    pub fn new(grid: &Grid, free_cores: &[u32]) -> Self {
        let n_hosts = grid.hosts().len();
        let n_clusters = grid.clusters().len();
        let mut free = HostBitset::new(n_hosts);
        let mut elig_count = vec![0usize; n_clusters];
        let mut cluster_of = vec![0u32; n_hosts];
        let mut free_hosts = 0usize;
        for (ci, cluster) in grid.clusters().iter().enumerate() {
            for &h in &cluster.hosts {
                cluster_of[h.0 as usize] = ci as u32;
                if free_cores[h.0 as usize] > 0 {
                    free.insert(h);
                    elig_count[ci] += 1;
                    free_hosts += 1;
                }
            }
        }
        MappingPlan {
            free,
            elig_count,
            cluster_of,
            free_hosts,
            stamps: vec![1; n_clusters],
            clock: 1,
            memo: HashMap::new(),
            memo_hits: 0,
            memo_misses: 0,
            elig_updates: 0,
            index_repairs: 0,
            index_rebuilds: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Number of hosts with at least one free core — what the rebuilt
    /// path's `eligible.len()` would be.
    pub fn free_host_count(&self) -> usize {
        self.free_hosts
    }

    /// Record a host crossing the eligibility boundary: `free = false`
    /// when its last free core was taken (admit), `true` when a core
    /// freed up on a fully-busy host (retire). Calls for non-boundary
    /// core transitions must be omitted by the driver — a host going from
    /// 2 free cores to 1 is still eligible and invalidates nothing.
    pub fn set_host_free(&mut self, h: HostId, free: bool) {
        let changed = if free {
            self.free.insert(h)
        } else {
            self.free.remove(h)
        };
        debug_assert!(changed, "set_host_free called off the 0↔1 boundary");
        let ci = self.cluster_of[h.0 as usize] as usize;
        if free {
            self.elig_count[ci] += 1;
            self.free_hosts += 1;
        } else {
            self.elig_count[ci] -= 1;
            self.free_hosts -= 1;
        }
        self.stamps[ci] = self.tick();
        self.elig_updates += 1;
    }

    /// Absorb a round's forecast delta: bump the stamp of every cluster
    /// holding a dirty host; a dirty network pair bumps every cluster
    /// (transfer estimates are cross-cluster state).
    pub fn on_weather(&mut self, dirty_hosts: &[HostId], network_dirty: bool) {
        if network_dirty {
            let s = self.tick();
            self.stamps.fill(s);
            return;
        }
        for &h in dirty_hosts {
            let ci = self.cluster_of[h.0 as usize] as usize;
            self.stamps[ci] = self.tick();
        }
    }

    /// Fold a [`SnapshotIndex::repair`] outcome into the counters.
    pub fn note_repair(&mut self, rep: RepairReport) {
        if rep.rebuilt {
            self.index_rebuilds += 1;
        }
        self.index_repairs += rep.moved as u64;
    }

    /// Map `job` through the memo + persistent index: per cluster, reuse
    /// the cached score when the cluster's stamp is unchanged, recompute
    /// it through the index otherwise, then reduce in cluster-index order
    /// with first-wins ties — the candidate walk's exact argmin.
    pub fn map(
        &mut self,
        job: &Job,
        index: &SnapshotIndex,
        grid: &Grid,
        snap: &ForecastSnapshot,
    ) -> Option<ResourceChoice> {
        let key = (
            job.kind as u8,
            job.procs,
            job.flops.to_bits(),
            job.bcast_bytes.to_bits(),
        );
        let n_clusters = self.stamps.len();
        if !self.memo.contains_key(&key) && self.memo.len() >= MEMO_MAX_KEYS {
            self.memo.clear();
        }
        let cols = self.memo.entry(key).or_insert_with(|| {
            vec![
                MemoCol {
                    stamp: 0,
                    best: None
                };
                n_clusters
            ]
        });
        let mut pred = TreeBcastPrefix::new(grid, snap, job.flops, job.bcast_bytes);
        let mut best: Option<(usize, usize, f64)> = None;
        for (ci, col) in cols.iter_mut().enumerate() {
            if col.stamp == self.stamps[ci] {
                self.memo_hits += 1;
            } else {
                col.best = CandidateWalk::score_cluster_from_index(
                    index,
                    ci,
                    &self.free,
                    self.elig_count[ci],
                    job.procs,
                    job.procs,
                    &mut pred,
                );
                col.stamp = self.stamps[ci];
                self.memo_misses += 1;
            }
            if let Some((k, t)) = col.best {
                match best {
                    Some((_, _, bt)) if bt <= t => {}
                    _ => best = Some((ci, k, t)),
                }
            }
        }
        best.map(|(ci, k, predicted)| ResourceChoice {
            hosts: index.eligible_prefix(ci, &self.free, k),
            predicted,
            cluster: ClusterId(ci as u32),
        })
    }

    /// Publish the `svc.epoch.*` counters. Zero-perturbation like every
    /// other metric: reads accumulated integers, computes nothing new.
    pub fn publish(&self, obs: &Obs) {
        obs.counter_add("svc.epoch.index_repairs", self.index_repairs);
        obs.counter_add("svc.epoch.index_rebuilds", self.index_rebuilds);
        obs.counter_add("svc.epoch.memo_hits", self.memo_hits);
        obs.counter_add("svc.epoch.memo_misses", self.memo_misses);
        obs.counter_add("svc.epoch.elig_updates", self.elig_updates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::service_grid;
    use grads_nws::NwsService;
    use grads_sched::select_mpi_resources_fast;

    fn setup() -> (Grid, NwsService) {
        let grid = service_grid(48, 4, 2);
        let mut nws = NwsService::new();
        for i in 0..48u32 {
            for j in 0..8 {
                nws.observe_cpu(HostId(i), 0.3 + 0.05 * ((i * 3 + j) % 11) as f64);
            }
        }
        (grid, nws)
    }

    fn job(procs: usize, flops: f64, bytes: f64) -> Job {
        Job {
            id: 0,
            tenant: 0,
            kind: crate::workload::AppKind::Qr,
            procs,
            flops,
            bcast_bytes: bytes,
            submit_s: 0.0,
            deadline_s: 1e9,
            budget: 1e9,
            runtime_skew: 1.0,
        }
    }

    /// The plan's mapping equals the fresh walk across an admit/retire
    /// sequence, and the memo actually reuses columns when nothing moved.
    #[test]
    fn plan_map_matches_fresh_walk_through_occupancy_churn() {
        let (grid, nws) = setup();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let index = SnapshotIndex::build(&grid, &snap);
        let mut free_cores: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
        let mut plan = MappingPlan::new(&grid, &free_cores);
        let jobs = [
            job(3, 2e12, 1.5e7),
            job(2, 5e11, 1e6),
            job(3, 2e12, 1.5e7), // same key as the first: memo-hit material
            job(4, 8e12, 3e7),
            job(1, 1e11, 0.0),
        ];
        let mut occupied: Vec<Vec<HostId>> = Vec::new();
        for (step, j) in jobs.iter().enumerate() {
            let eligible: Vec<HostId> = (0..48u32)
                .map(HostId)
                .filter(|h| free_cores[h.0 as usize] > 0)
                .collect();
            let reference = select_mpi_resources_fast(
                &grid,
                &snap,
                &eligible,
                j.procs,
                j.procs,
                || TreeBcastPrefix::new(&grid, &snap, j.flops, j.bcast_bytes),
                1,
            );
            let got = plan.map(j, &index, &grid, &snap);
            match (&reference, &got) {
                (Some(r), Some(g)) => {
                    assert_eq!(r.hosts, g.hosts, "step {step}");
                    assert_eq!(r.cluster, g.cluster);
                    assert_eq!(r.predicted.to_bits(), g.predicted.to_bits());
                }
                (None, None) => {}
                _ => panic!("presence mismatch at step {step}"),
            }
            // Admit: occupy the chosen hosts.
            if let Some(c) = got {
                for &h in &c.hosts {
                    free_cores[h.0 as usize] -= 1;
                    if free_cores[h.0 as usize] == 0 {
                        plan.set_host_free(h, false);
                    }
                }
                occupied.push(c.hosts);
            }
        }
        assert!(plan.memo_hits > 0, "repeated keys must hit the memo");
        // Retire everything and re-map: still identical to fresh.
        for hosts in occupied.drain(..) {
            for h in hosts {
                free_cores[h.0 as usize] += 1;
                if free_cores[h.0 as usize] == 1 {
                    plan.set_host_free(h, true);
                }
            }
        }
        let j = job(3, 2e12, 1.5e7);
        let all: Vec<HostId> = (0..48).map(HostId).collect();
        let reference = select_mpi_resources_fast(
            &grid,
            &snap,
            &all,
            3,
            3,
            || TreeBcastPrefix::new(&grid, &snap, j.flops, j.bcast_bytes),
            1,
        )
        .unwrap();
        let got = plan.map(&j, &index, &grid, &snap).unwrap();
        assert_eq!(reference.hosts, got.hosts);
        assert_eq!(reference.predicted.to_bits(), got.predicted.to_bits());
    }

    /// Weather deltas invalidate exactly the touched clusters' columns.
    #[test]
    fn weather_invalidation_is_per_cluster() {
        let (grid, mut nws) = setup();
        nws.enable_delta_tracking();
        let snap0 = ForecastSnapshot::capture_sync(&grid, &mut nws);
        let mut index = SnapshotIndex::build(&grid, &snap0);
        let free_cores: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
        let mut plan = MappingPlan::new(&grid, &free_cores);
        let j = job(2, 1e12, 5e6);
        plan.map(&j, &index, &grid, &snap0);
        let misses0 = plan.memo_misses;
        assert_eq!(misses0, 4, "cold memo computes every cluster");

        // Dirty one host in cluster 0 only.
        nws.observe_cpu(HostId(0), 0.9);
        let dirty = nws.dirty_hosts();
        let net = nws.has_dirty_network();
        let snap1 = ForecastSnapshot::capture_delta(&grid, &mut nws, &snap0);
        plan.note_repair(index.repair(&grid, &snap1, &dirty));
        plan.on_weather(&dirty, net);
        let got = plan.map(&j, &index, &grid, &snap1);
        assert_eq!(
            plan.memo_misses - misses0,
            1,
            "only the dirtied cluster recomputes"
        );
        assert_eq!(plan.memo_hits, 3);
        // And the result still equals a fresh walk against the new snap.
        let all: Vec<HostId> = (0..48).map(HostId).collect();
        let reference = select_mpi_resources_fast(
            &grid,
            &snap1,
            &all,
            2,
            2,
            || TreeBcastPrefix::new(&grid, &snap1, j.flops, j.bcast_bytes),
            1,
        );
        match (&reference, &got) {
            (Some(r), Some(g)) => {
                assert_eq!(r.hosts, g.hosts);
                assert_eq!(r.predicted.to_bits(), g.predicted.to_bits());
            }
            (None, None) => {}
            _ => panic!("presence mismatch"),
        }
    }
}
