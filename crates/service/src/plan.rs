//! The reusable mapping plan: per-cluster free-host state, maintained
//! `O(Δ)` instead of rebuilt per job.
//!
//! Without the plan, every job examined in a dispatch round pays an
//! `O(hosts)` scan of `free_cores` to build its eligibility list and an
//! `O(hosts log hosts)` per-cluster re-sort inside the candidate walk —
//! even though at most `procs` hosts change occupancy per admission and
//! the forecast snapshot is frozen for the whole round. [`MappingPlan`]
//! keeps a free-host [`HostBitset`] plus per-cluster eligible counts and
//! a grid-wide free-host count, updated only on the `0 ↔ 1` free-core
//! transitions of admit/retire (a host with 2 free cores going to 1 is
//! still eligible — no update). Each job then maps through
//! [`CandidateWalk::select_from_index`] over the persistent
//! [`grads_sched::SnapshotIndex`], scoring one cluster at a time.
//!
//! No score is cached between jobs. The dispatcher observes every host
//! each round, so every cluster's forecasts move every round, and each
//! job brings its own work size: a per-cluster placement memo measured
//! zero hits on every service configuration tried (EXPERIMENTS.md
//! §SVC-MEMO).
//!
//! Bit-identity: the indexed selector is the fresh walk's scoring and
//! first-wins argmin over the same filtered order. Debug builds of the
//! dispatcher check every decision against a fresh
//! [`grads_sched::select_mpi_resources_fast`] walk over a rebuilt
//! eligible list.

use grads_nws::ForecastSnapshot;
use grads_obs::Obs;
use grads_perf::TreeBcastPrefix;
use grads_sched::{
    CandidateWalk, HostBitset, RepairReport, ResourceChoice, SnapshotIndex, WalkScratch,
};
use grads_sim::prelude::*;

use crate::workload::Job;

/// Incrementally-maintained free-host state for one service run. See the
/// module docs for the update rule and the identity argument.
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
    /// The candidate walk's buffers, reused by every [`MappingPlan::map`].
    walk: WalkScratch,
    // `svc.epoch.*` counter state, published once at end of run.
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
            walk: WalkScratch::default(),
            elig_updates: 0,
            index_repairs: 0,
            index_rebuilds: 0,
        }
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
    /// 2 free cores to 1 is still eligible.
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
        self.elig_updates += 1;
    }

    /// A no-op. The plan caches nothing that a forecast change could
    /// invalidate; this stays only because the benchmark harness's
    /// mapping layer (`perfbench/src/layers.rs`) still calls
    /// `on_weather(&[], true)`.
    #[doc(hidden)]
    pub fn on_weather(&mut self, _dirty_hosts: &[HostId], _network_dirty: bool) {}

    /// Fold a [`SnapshotIndex::repair`] outcome into the counters.
    pub fn note_repair(&mut self, rep: RepairReport) {
        if rep.rebuilt {
            self.index_rebuilds += 1;
        }
        self.index_repairs += rep.moved as u64;
    }

    /// Map `job` through the persistent index: the lowest-predicted
    /// `procs`-host prefix of any cluster's free hosts, first-wins on
    /// ties — the candidate walk's exact choice.
    pub fn map(
        &mut self,
        job: &Job,
        index: &SnapshotIndex,
        grid: &Grid,
        snap: &ForecastSnapshot,
    ) -> Option<ResourceChoice> {
        CandidateWalk::select_from_index(
            index,
            &self.free,
            &self.elig_count,
            job.procs,
            job.procs,
            &mut TreeBcastPrefix::new(grid, snap, job.flops, job.bcast_bytes),
            &mut self.walk,
        )
    }

    /// Publish the `svc.epoch.*` counters. Zero-perturbation like every
    /// other metric: reads accumulated integers, computes nothing new.
    /// The service captures a snapshot only in rounds that decide (see
    /// `svc.capture_rounds`), so `index_repairs` and `index_rebuilds`
    /// count repairs at those rounds, each over the hosts whose forecast
    /// moved since the previous capture.
    pub fn publish(&self, obs: &Obs) {
        obs.counter_add("svc.epoch.index_repairs", self.index_repairs);
        obs.counter_add("svc.epoch.index_rebuilds", self.index_rebuilds);
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
    /// sequence. The sequence includes a job whose winning cluster
    /// differs from the previous job's longer winner, so the reused walk
    /// scratch holds a longer leader from another cluster when it starts.
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
            job(3, 2e12, 1.5e7),
            job(4, 8e12, 3e7),
            job(3, 2e12, 1.5e7),
            job(1, 1e11, 0.0),
        ];
        let mut occupied: Vec<Vec<HostId>> = Vec::new();
        let mut prev: Option<(ClusterId, usize)> = None;
        let mut switched_after_longer = false;
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
                if let Some((cluster, len)) = prev {
                    switched_after_longer |= cluster != c.cluster && len > c.hosts.len();
                }
                prev = Some((c.cluster, c.hosts.len()));
                for &h in &c.hosts {
                    free_cores[h.0 as usize] -= 1;
                    if free_cores[h.0 as usize] == 0 {
                        plan.set_host_free(h, false);
                    }
                }
                occupied.push(c.hosts);
            }
        }
        assert!(
            switched_after_longer,
            "no job switched cluster after a longer leader"
        );
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

    /// After a forecast delta repairs the index, the plan's mapping
    /// equals a fresh walk against the new snapshot.
    #[test]
    fn plan_map_matches_fresh_walk_after_weather_repair() {
        let (grid, mut nws) = setup();
        nws.enable_delta_tracking();
        let snap0 = ForecastSnapshot::capture_sync(&grid, &mut nws);
        let mut index = SnapshotIndex::build(&grid, &snap0);
        let free_cores: Vec<u32> = grid.hosts().iter().map(|h| h.cores).collect();
        let mut plan = MappingPlan::new(&grid, &free_cores);
        let j = job(2, 1e12, 5e6);
        plan.map(&j, &index, &grid, &snap0);

        // Dirty one host in cluster 0 only.
        nws.observe_cpu(HostId(0), 0.9);
        let dirty = nws.dirty_hosts();
        let snap1 = ForecastSnapshot::capture_delta(&grid, &mut nws, &snap0);
        plan.note_repair(index.repair(&grid, &snap1, &dirty));
        let got = plan.map(&j, &index, &grid, &snap1);
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
