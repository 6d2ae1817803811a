//! Incremental prefix performance models for candidate-set scoring.
//!
//! The MPI scheduler (§3.1, §4.1.2) scores per-cluster *prefixes* of the
//! fastest-available hosts. A closure-style model re-reads the whole
//! prefix for every candidate length, so scoring all prefixes of an
//! `n`-host cluster costs `O(n²)` host visits. A [`PrefixPredictor`]
//! instead consumes hosts one at a time alongside running aggregates
//! (Σ speed, min speed, count) maintained by the candidate walk, so
//! scoring prefix `k` from prefix `k−1` is `O(1)` and a whole cluster is
//! `O(n)`.
//!
//! The contract every implementation must honour for the scheduler's
//! bit-identity guarantee: `predict` after `k` `push` calls must return
//! **exactly** (bitwise) what the equivalent whole-prefix model would
//! return on the first `k` hosts. The aggregates in [`PrefixAgg`] are
//! accumulated left-to-right in host order, matching what
//! `iter().sum()` / `fold(INFINITY, f64::min)` produce on the
//! materialized prefix, so models built on them satisfy the contract for
//! free.

use grads_nws::{ForecastSnapshot, ForecastSource};
use grads_sim::prelude::*;

/// Running aggregates over the current prefix, maintained by the
/// candidate walk and handed to the predictor on every step.
#[derive(Debug, Clone, Copy)]
pub struct PrefixAgg {
    /// Prefix length including the just-pushed host.
    pub k: usize,
    /// The host at position `k − 1` (the one just pushed).
    pub host: HostId,
    /// Its effective speed (flop/s).
    pub speed: f64,
    /// Left-to-right sum of effective speeds over the prefix.
    pub sum_speed: f64,
    /// Running minimum of effective speeds over the prefix.
    pub min_speed: f64,
}

/// An application performance model scored incrementally along a
/// cluster's sorted host list.
///
/// Lifecycle per cluster: one `begin_cluster`, then for each host in
/// fastest-first order one `push`, with `predict` sampled at every
/// candidate prefix length. Implementations may keep internal state
/// (e.g. the broadcast root) but must derive predictions only from the
/// pushed hosts and aggregates.
pub trait PrefixPredictor {
    /// Start scoring a new cluster whose full sorted eligible host list
    /// is `hosts` (fastest-available first).
    fn begin_cluster(&mut self, cluster: ClusterId, hosts: &[HostId]);
    /// Absorb the next host of the prefix.
    fn push(&mut self, agg: &PrefixAgg);
    /// Predicted execution time for the current prefix.
    fn predict(&self, agg: &PrefixAgg) -> f64;
}

/// Perfectly parallel model: `flops / Σ effective_speed`. The simplest
/// §3.2 `ecost` shape — fixed work spread over the aggregate rate.
#[derive(Debug, Clone, Copy)]
pub struct FlatPrefix {
    /// Total charged floating-point operations.
    pub flops: f64,
}

impl PrefixPredictor for FlatPrefix {
    fn begin_cluster(&mut self, _cluster: ClusterId, _hosts: &[HostId]) {}
    fn push(&mut self, _agg: &PrefixAgg) {}
    fn predict(&self, agg: &PrefixAgg) -> f64 {
        self.flops / agg.sum_speed
    }
}

/// Bulk-synchronous model with a binomial-tree broadcast term — the
/// shape of the QR COP's executable performance model (§4.1.2).
///
/// Compute: the work is split evenly, so the slowest member sets the
/// pace — `flops / max(1, k · min_speed)`. Communication: the root
/// serializes `⌈log₂ k⌉` copies of the `bcast_bytes` volume through its
/// uplink and the deepest leaf adds one more leg; the per-leg time is
/// the snapshot's transfer estimate from the prefix's first host to its
/// first *distinct* host (zero until the prefix spans two machines).
pub struct TreeBcastPrefix<'a> {
    grid: &'a Grid,
    snap: &'a ForecastSnapshot,
    flops: f64,
    bcast_bytes: f64,
    root: Option<HostId>,
    /// Cached per-leg transfer time once a second distinct host appears.
    leg: Option<f64>,
}

impl<'a> TreeBcastPrefix<'a> {
    /// Model `flops` of compute and a `bcast_bytes` broadcast volume
    /// against the captured forecasts.
    pub fn new(grid: &'a Grid, snap: &'a ForecastSnapshot, flops: f64, bcast_bytes: f64) -> Self {
        TreeBcastPrefix {
            grid,
            snap,
            flops,
            bcast_bytes,
            root: None,
            leg: None,
        }
    }

    /// The whole-prefix closure equivalent of this model, for reference
    /// paths and A/B identity checks: bit-identical to the incremental
    /// scoring on any prefix.
    pub fn reference<S: ForecastSource + ?Sized>(
        hosts: &[HostId],
        grid: &Grid,
        src: &S,
        flops: f64,
        bcast_bytes: f64,
    ) -> f64 {
        let min_speed = hosts
            .iter()
            .map(|&h| src.effective_speed(grid, h))
            .fold(f64::INFINITY, f64::min);
        let t_comp = flops / (hosts.len() as f64 * min_speed).max(1.0);
        let t_comm = match hosts.iter().find(|&&h| h != hosts[0]) {
            Some(&other) if hosts.len() > 1 => {
                let legs = (hosts.len() as f64).log2().ceil() + 1.0;
                legs * src.transfer_time(grid, hosts[0], other, bcast_bytes)
            }
            _ => 0.0,
        };
        t_comp + t_comm
    }
}

impl PrefixPredictor for TreeBcastPrefix<'_> {
    fn begin_cluster(&mut self, _cluster: ClusterId, _hosts: &[HostId]) {
        self.root = None;
        self.leg = None;
    }

    fn push(&mut self, agg: &PrefixAgg) {
        match self.root {
            None => self.root = Some(agg.host),
            Some(root) => {
                if self.leg.is_none() && agg.host != root {
                    self.leg =
                        Some(
                            self.snap
                                .transfer_time(self.grid, root, agg.host, self.bcast_bytes),
                        );
                }
            }
        }
    }

    fn predict(&self, agg: &PrefixAgg) -> f64 {
        let t_comp = self.flops / (agg.k as f64 * agg.min_speed).max(1.0);
        let t_comm = match self.leg {
            Some(leg) if agg.k > 1 => {
                let legs = (agg.k as f64).log2().ceil() + 1.0;
                legs * leg
            }
            _ => 0.0,
        };
        t_comp + t_comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grads_nws::NwsService;
    use grads_sim::topology::{GridBuilder, HostSpec};

    fn setup() -> (Grid, NwsService) {
        let mut b = GridBuilder::new();
        let x = b.cluster("X");
        b.local_link(x, 1e8, 1e-4);
        for i in 0..6 {
            b.add_host(x, &HostSpec::with_speed(4e8 + 1e8 * i as f64));
        }
        let y = b.cluster("Y");
        b.local_link(y, 1e8, 1e-4);
        b.add_hosts(y, 3, &HostSpec::with_speed(9e8));
        b.connect(x, y, 1e7, 0.02);
        let mut nws = NwsService::new();
        for i in 0..9u32 {
            for j in 0..12 {
                nws.observe_cpu(HostId(i), 0.4 + 0.05 * ((i + j) % 9) as f64);
            }
        }
        (b.build().unwrap(), nws)
    }

    /// Drive a predictor along a host list the way the candidate walk
    /// does, returning the prediction at every prefix length.
    fn drive<P: PrefixPredictor>(
        pred: &mut P,
        cluster: ClusterId,
        hosts: &[HostId],
        snap: &ForecastSnapshot,
    ) -> Vec<f64> {
        pred.begin_cluster(cluster, hosts);
        let (mut sum, mut min) = (0.0f64, f64::INFINITY);
        let mut out = Vec::new();
        for (i, &h) in hosts.iter().enumerate() {
            let s = snap.speed(h);
            sum += s;
            min = min.min(s);
            let agg = PrefixAgg {
                k: i + 1,
                host: h,
                speed: s,
                sum_speed: sum,
                min_speed: min,
            };
            pred.push(&agg);
            out.push(pred.predict(&agg));
        }
        out
    }

    #[test]
    fn flat_prefix_matches_whole_prefix_sum() {
        let (grid, nws) = setup();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let hosts: Vec<HostId> = (0..6).map(HostId).collect();
        let mut p = FlatPrefix { flops: 1e12 };
        let incremental = drive(&mut p, ClusterId(0), &hosts, &snap);
        for (i, &got) in incremental.iter().enumerate() {
            let total: f64 = hosts[..=i]
                .iter()
                .map(|&h| nws.effective_speed(&grid, h))
                .sum();
            assert_eq!(got.to_bits(), (1e12 / total).to_bits(), "prefix {}", i + 1);
        }
    }

    #[test]
    fn tree_bcast_matches_reference_closure_bitwise() {
        let (grid, nws) = setup();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        for hosts in [
            (0..6).map(HostId).collect::<Vec<_>>(),
            vec![HostId(2), HostId(2), HostId(5), HostId(1)], // repeated slots
            vec![HostId(7)],
            vec![HostId(3), HostId(3), HostId(3)], // never spans two machines
        ] {
            let mut p = TreeBcastPrefix::new(&grid, &snap, 2e12, 3.2e7);
            let incremental = drive(&mut p, ClusterId(0), &hosts, &snap);
            for (i, &got) in incremental.iter().enumerate() {
                let want = TreeBcastPrefix::reference(&hosts[..=i], &grid, &snap, 2e12, 3.2e7);
                assert_eq!(got.to_bits(), want.to_bits(), "prefix {:?}", &hosts[..=i]);
                // And the reference against the live service agrees too
                // (snapshot equivalence).
                let live = TreeBcastPrefix::reference(&hosts[..=i], &grid, &nws, 2e12, 3.2e7);
                assert_eq!(got.to_bits(), live.to_bits());
            }
        }
    }

    #[test]
    fn tree_bcast_has_interior_optimum_on_heterogeneous_hosts() {
        // Fastest-first prefixes over increasingly slow hosts: adding a
        // slow host can hurt (min-speed pacing + an extra bcast leg), so
        // the best prefix is not always the longest.
        let mut b = GridBuilder::new();
        let x = b.cluster("X");
        b.local_link(x, 1e6, 5e-3);
        b.add_host(x, &HostSpec::with_speed(1e9));
        b.add_host(x, &HostSpec::with_speed(9e8));
        b.add_host(x, &HostSpec::with_speed(2e7)); // straggler
        let grid = b.build().unwrap();
        let nws = NwsService::new();
        let snap = ForecastSnapshot::capture(&grid, &nws);
        let hosts: Vec<HostId> = (0..3).map(HostId).collect();
        let mut p = TreeBcastPrefix::new(&grid, &snap, 1e12, 1e6);
        let t = drive(&mut p, ClusterId(0), &hosts, &snap);
        assert!(t[1] < t[0], "two fast hosts beat one: {t:?}");
        assert!(t[2] > t[1], "the straggler must hurt: {t:?}");
    }
}
