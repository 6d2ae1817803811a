//! Swap rescheduling policies and the in-simulation swap rescheduler
//! (§4.2, policies after Sievert & Casanova \[14\]).
//!
//! *"During execution, the contract monitor periodically checks the
//! performance of the machines and swaps slower machines in the active set
//! with faster machines in the inactive set."*

use grads_mpi::SwapWorld;
use grads_nws::NwsService;
use grads_obs::{DecisionAction, DecisionKind, Obs};
use grads_sim::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

/// When to swap an active machine for an inactive one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwapPolicy {
    /// Swap every active machine for which some unused inactive machine is
    /// at least `factor`× faster (greedy pairing, worst active first).
    Greedy {
        /// Required speed advantage of the inactive machine.
        factor: f64,
    },
    /// Swap at most the single worst active machine per decision round.
    WorstFirst {
        /// Required speed advantage of the inactive machine.
        factor: f64,
    },
    /// Move the *whole* active set into one inactive cluster when that
    /// cluster can hold it and its slowest member beats the current
    /// bottleneck by `factor` — what the paper's demonstration did
    /// (*"migrated all three working application processes to the UIUC
    /// cluster"*). Falls back to greedy pairing when no cluster
    /// qualifies.
    PackCluster {
        /// Required speed advantage of the destination cluster's slowest
        /// selected slot over the current active bottleneck.
        factor: f64,
    },
    /// Never swap (baseline).
    Never,
}

/// One planned swap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedSwap {
    /// Logical rank to move.
    pub logical: usize,
    /// Inactive physical slot to move it to.
    pub to_phys: usize,
    /// Effective speed of the current host.
    pub active_speed: f64,
    /// Effective speed of the target host.
    pub inactive_speed: f64,
}

/// Plan swaps given effective speeds of active logical ranks and available
/// inactive slots. Pure decision logic; actuation is separate.
pub fn plan_swaps(
    policy: SwapPolicy,
    active: &[(usize, f64)],
    inactive: &[(usize, f64)],
) -> Vec<PlannedSwap> {
    let factor = match policy {
        SwapPolicy::Never => return Vec::new(),
        SwapPolicy::PackCluster { factor } => {
            // Handled by `plan_pack`; callers that reach here with no
            // cluster structure degrade to greedy pairing.
            factor
        }
        SwapPolicy::Greedy { factor } | SwapPolicy::WorstFirst { factor } => factor,
    };
    // Worst actives first; best inactives first.
    let mut act: Vec<(usize, f64)> = active.to_vec();
    act.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut ina: Vec<(usize, f64)> = inactive.to_vec();
    ina.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out = Vec::new();
    let mut ii = 0;
    for &(logical, a_speed) in &act {
        if ii >= ina.len() {
            break;
        }
        let (phys, i_speed) = ina[ii];
        if i_speed >= factor * a_speed {
            out.push(PlannedSwap {
                logical,
                to_phys: phys,
                active_speed: a_speed,
                inactive_speed: i_speed,
            });
            ii += 1;
            if matches!(policy, SwapPolicy::WorstFirst { .. }) {
                break;
            }
        } else {
            // Inactives are sorted descending: nothing further helps this
            // or any faster active.
            break;
        }
    }
    out
}

/// Plan a whole-set move: if some cluster holds at least `active.len()`
/// available inactive slots and the slowest of the best such slots beats
/// the current active bottleneck by `factor`, pair every active rank with
/// one slot of that cluster. `inactive_clusters[i]` is the cluster of
/// `inactive[i]`.
pub fn plan_pack(
    factor: f64,
    active: &[(usize, f64)],
    inactive: &[(usize, f64)],
    inactive_clusters: &[ClusterId],
) -> Vec<PlannedSwap> {
    assert_eq!(inactive.len(), inactive_clusters.len());
    let need = active.len();
    if need == 0 {
        return Vec::new();
    }
    let bottleneck = active.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    // Group inactive slots per cluster, fastest first.
    let mut clusters: std::collections::BTreeMap<ClusterId, Vec<(usize, f64)>> =
        std::collections::BTreeMap::new();
    for (k, &(phys, speed)) in inactive.iter().enumerate() {
        clusters
            .entry(inactive_clusters[k])
            .or_default()
            .push((phys, speed));
    }
    let mut best: Option<(f64, Vec<(usize, f64)>)> = None;
    for (_, mut slots) in clusters {
        if slots.len() < need {
            continue;
        }
        slots.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        slots.truncate(need);
        let worst = slots.last().map(|&(_, s)| s).unwrap_or(0.0);
        match &best {
            Some((bw, _)) if *bw >= worst => {}
            _ => best = Some((worst, slots)),
        }
    }
    match best {
        Some((worst, slots)) if worst >= factor * bottleneck => active
            .iter()
            .zip(slots)
            .map(|(&(logical, a_speed), (phys, i_speed))| PlannedSwap {
                logical,
                to_phys: phys,
                active_speed: a_speed,
                inactive_speed: i_speed,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Run the swap rescheduler inside the simulation: every `period` virtual
/// seconds, read effective speeds from the shared weather service, plan
/// swaps under `policy`, and actuate them on the swap world. Exits when
/// `done()` turns true. Swap actuations are traced as
/// `("swap", logical rank)`.
///
/// An enabled `obs` also records `swap.*` counters (decision rounds,
/// planned and actuated swaps) and `Decision`/`ActuationStarted` events
/// with `DecisionAction::Swap` stamped at `ctx.now()`; swap behavior is
/// the same under [`Obs::disabled`]. Swap completion happens
/// asynchronously at the application's next swap point, so no
/// `ActuationComplete` is recorded here.
#[allow(clippy::too_many_arguments)]
pub fn run_swap_rescheduler(
    ctx: &mut Ctx,
    sw: &SwapWorld,
    grid: &Grid,
    nws: &Arc<Mutex<NwsService>>,
    policy: SwapPolicy,
    period: f64,
    done: &(dyn Fn() -> bool + Send + Sync),
    obs: &Obs,
) {
    while !done() {
        ctx.sleep(period);
        let (active, inactive) = {
            let n = nws.lock();
            // Active hosts carry one app rank, which the NWS probe sees;
            // discount it so busy-but-unloaded hosts are not mistaken for
            // slow ones (that mistake makes the rescheduler thrash).
            let active: Vec<(usize, f64)> = (0..sw.n_active)
                .map(|l| {
                    let host = sw.host_of_logical(l);
                    let h = grid.host(host);
                    let probed = n.forecast_cpu_or_idle(host);
                    let avail = grads_nws::app_availability_from_probe(h.cores, probed);
                    (l, h.speed * avail)
                })
                .collect();
            let inactive: Vec<(usize, f64)> = sw
                .available_inactive()
                .into_iter()
                .map(|p| (p, n.effective_speed(grid, sw.phys_hosts[p])))
                .collect();
            (active, inactive)
        };
        let planned = match policy {
            SwapPolicy::PackCluster { factor } => {
                let clusters: Vec<ClusterId> = {
                    let avail = sw.available_inactive();
                    avail
                        .iter()
                        .map(|&p| grid.host(sw.phys_hosts[p]).cluster)
                        .collect()
                };
                plan_pack(factor, &active, &inactive, &clusters)
            }
            _ => plan_swaps(policy, &active, &inactive),
        };
        obs.counter_add("swap.rounds", 1);
        obs.counter_add("swap.planned", planned.len() as u64);
        if !planned.is_empty() {
            obs.event(
                ctx.now(),
                DecisionKind::Decision {
                    action: DecisionAction::Swap,
                },
            );
        }
        for s in planned {
            if sw.request_swap(s.logical, s.to_phys).is_ok() {
                ctx.trace("swap", s.logical as f64);
                obs.counter_add("swap.actuated", 1);
                obs.event(
                    ctx.now(),
                    DecisionKind::ActuationStarted {
                        action: DecisionAction::Swap,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_policy_plans_nothing() {
        let p = plan_swaps(SwapPolicy::Never, &[(0, 1.0)], &[(1, 100.0)]);
        assert!(p.is_empty());
    }

    #[test]
    fn greedy_pairs_worst_active_with_best_inactive() {
        let active = vec![(0, 10.0), (1, 2.0), (2, 8.0)];
        let inactive = vec![(5, 9.0), (6, 20.0)];
        // Worst active (logical 1, speed 2) gets the best inactive (20);
        // with factor 1.5 the second pairing (9 vs 1.5×8 = 12) fails.
        let p = plan_swaps(SwapPolicy::Greedy { factor: 1.5 }, &active, &inactive);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].logical, 1);
        assert_eq!(p[0].to_phys, 6);
        // With a looser factor both pairings qualify.
        let p2 = plan_swaps(SwapPolicy::Greedy { factor: 1.01 }, &active, &inactive);
        assert_eq!(p2.len(), 2);
        assert_eq!(p2[1].logical, 2);
        assert_eq!(p2[1].to_phys, 5);
    }

    #[test]
    fn factor_threshold_blocks_marginal_swaps() {
        let active = vec![(0, 10.0)];
        let inactive = vec![(1, 12.0)];
        assert!(plan_swaps(SwapPolicy::Greedy { factor: 1.5 }, &active, &inactive).is_empty());
        assert_eq!(
            plan_swaps(SwapPolicy::Greedy { factor: 1.1 }, &active, &inactive).len(),
            1
        );
    }

    #[test]
    fn worst_first_limits_to_one() {
        let active = vec![(0, 1.0), (1, 1.0)];
        let inactive = vec![(2, 10.0), (3, 10.0)];
        let p = plan_swaps(SwapPolicy::WorstFirst { factor: 2.0 }, &active, &inactive);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].logical, 0);
    }

    #[test]
    fn pack_moves_whole_set_when_cluster_fits() {
        // Actives bottlenecked at 150; cluster B offers 3 slots of 450.
        let active = vec![(0, 550.0), (1, 150.0), (2, 550.0)];
        let inactive = vec![(3, 450.0), (4, 450.0), (5, 450.0), (6, 900.0)];
        let clusters = vec![ClusterId(1), ClusterId(1), ClusterId(1), ClusterId(2)];
        let p = plan_pack(2.0, &active, &inactive, &clusters);
        assert_eq!(p.len(), 3, "{p:?}");
        let targets: Vec<usize> = p.iter().map(|s| s.to_phys).collect();
        assert!(targets.iter().all(|t| [3, 4, 5].contains(t)));
        let logicals: Vec<usize> = p.iter().map(|s| s.logical).collect();
        assert_eq!(
            {
                let mut l = logicals.clone();
                l.sort_unstable();
                l
            },
            vec![0, 1, 2]
        );
    }

    #[test]
    fn pack_declines_when_no_cluster_fits() {
        // Only two slots per cluster for three actives.
        let active = vec![(0, 100.0), (1, 100.0), (2, 100.0)];
        let inactive = vec![(3, 900.0), (4, 900.0), (5, 900.0), (6, 900.0)];
        let clusters = vec![ClusterId(1), ClusterId(1), ClusterId(2), ClusterId(2)];
        assert!(plan_pack(2.0, &active, &inactive, &clusters).is_empty());
    }

    #[test]
    fn pack_declines_when_cluster_too_slow() {
        let active = vec![(0, 400.0), (1, 400.0)];
        let inactive = vec![(2, 450.0), (3, 450.0)];
        let clusters = vec![ClusterId(1), ClusterId(1)];
        // 450 < 2.0 × 400: not worth moving everyone.
        assert!(plan_pack(2.0, &active, &inactive, &clusters).is_empty());
        // A looser factor accepts.
        assert_eq!(plan_pack(1.1, &active, &inactive, &clusters).len(), 2);
    }

    #[test]
    fn no_inactive_means_no_swaps() {
        let p = plan_swaps(SwapPolicy::Greedy { factor: 1.1 }, &[(0, 1.0)], &[]);
        assert!(p.is_empty());
    }

    #[test]
    fn greedy_respects_double_check_above() {
        // From greedy_pairs test: with factor 1.5 only the first pairing
        // qualifies (9 < 1.5 * 8).
        let active = vec![(0, 10.0), (1, 2.0), (2, 8.0)];
        let inactive = vec![(5, 9.0), (6, 20.0)];
        let p = plan_swaps(SwapPolicy::Greedy { factor: 1.5 }, &active, &inactive);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].logical, 1);
    }
}
