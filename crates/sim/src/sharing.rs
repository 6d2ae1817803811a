//! Fluid resource-sharing models.
//!
//! Two rate-assignment problems arise in the emulator:
//!
//! * **CPU sharing**: all compute actions on a host (plus injected external
//!   load) divide the host's aggregate capacity equally, with each action
//!   capped at one core's speed.
//! * **Network sharing**: concurrent flows divide link bandwidth max-min
//!   fairly (progressive filling), each flow bottlenecked by the tightest
//!   link on its route.
//!
//! Both models are pure: they map demand sets to rate vectors and are
//! re-invoked by the kernel whenever the demand set churns. The kernel
//! recomputes rates *incrementally* — one connected sharing component at a
//! time — so the network solver is exposed in two layers: a reusable
//! flat-array core ([`FairScratch::solve`]) that allocates nothing on the
//! steady path, and the original slice-of-`Vec` convenience wrapper
//! ([`max_min_fair`]).

/// Per-action CPU rate on a host with `cores` cores of `speed` flop/s each,
/// shared by `n_actions` compute actions plus `load_units` units of external
/// competing load.
///
/// The fluid model: total capacity is `cores * speed`; every claimant
/// (action or load unit) receives an equal share, but no single action can
/// exceed one core (`speed`). With fewer claimants than cores every action
/// runs at full single-core speed — this matches the paper's dual-processor
/// UTK nodes, where one competing process does not slow a single application
/// process.
pub fn cpu_share(speed: f64, cores: u32, n_actions: usize, load_units: f64) -> f64 {
    if n_actions == 0 {
        return 0.0;
    }
    let claimants = n_actions as f64 + load_units;
    let equal = (cores as f64) * speed / claimants;
    equal.min(speed)
}

/// Reusable buffers for the progressive-filling solver.
///
/// The kernel keeps one of these alive across recomputations so that the
/// steady-state path performs no heap allocation. Inputs are flat arrays:
/// flow `f`'s route is `links_flat[offsets[f].0 .. offsets[f].0 + offsets[f].1]`,
/// link indices are *local* to the `caps` array (the caller maps global link
/// ids down to a dense component-local range).
#[derive(Default, Debug)]
pub struct FairScratch {
    rem_cap: Vec<f64>,
    count: Vec<u32>,
    fixed: Vec<bool>,
    saturated: Vec<bool>,
    /// Links still carrying undecided flows, ascending — the aggregated
    /// solver's filling rounds scan this instead of every link.
    live: Vec<u32>,
    /// Classes not yet fixed, ascending — the aggregated solver's rate
    /// accumulation and fixing sweeps scan this instead of every class.
    undecided: Vec<u32>,
}

impl FairScratch {
    /// Empty every buffer, keeping its capacity. Each solve re-sizes
    /// the buffers it reads, so this changes no result; it only lets a
    /// recycled scratch start out like a new one.
    pub(crate) fn clear(&mut self) {
        self.rem_cap.clear();
        self.count.clear();
        self.fixed.clear();
        self.saturated.clear();
        self.live.clear();
        self.undecided.clear();
    }

    /// Max-min fair allocation over flat route arrays.
    ///
    /// `offsets[f] = (start, len)` into `links_flat`; `caps[l]` is the
    /// capacity of local link `l`. On return `rates` holds one rate per
    /// flow; flows with empty routes get `f64::INFINITY`.
    ///
    /// Progressive filling raises all undecided flows uniformly by the
    /// tightest link's fair share, then fixes every flow crossing a link
    /// whose remaining capacity is exhausted (within a small relative
    /// epsilon of the link's *original* capacity, which is robust to
    /// catastrophic cancellation on wildly mixed magnitudes). The tightest
    /// link itself is always treated as exhausted, so at least one flow is
    /// fixed per round and the loop terminates after at most `nf` rounds —
    /// no "fix everything" fallback is needed, and every flow ends up
    /// bottlenecked by a genuinely saturated link.
    pub fn solve(
        &mut self,
        offsets: &[(u32, u32)],
        links_flat: &[u32],
        caps: &[f64],
        rates: &mut Vec<f64>,
    ) {
        let nf = offsets.len();
        let nl = caps.len();
        rates.clear();
        rates.resize(nf, 0.0);
        self.rem_cap.clear();
        self.rem_cap.extend_from_slice(caps);
        self.count.clear();
        self.count.resize(nl, 0);
        self.fixed.clear();
        self.fixed.resize(nf, false);
        self.saturated.clear();
        self.saturated.resize(nl, false);

        let route = |f: usize| {
            let (s, n) = offsets[f];
            &links_flat[s as usize..s as usize + n as usize]
        };
        let mut undecided = 0usize;
        for (f, rate) in rates.iter_mut().enumerate().take(nf) {
            let r = route(f);
            if r.is_empty() {
                *rate = f64::INFINITY;
                self.fixed[f] = true;
            } else {
                undecided += 1;
                for &l in r {
                    self.count[l as usize] += 1;
                }
            }
        }
        while undecided > 0 {
            // Tightest link among links still carrying undecided flows.
            let mut best: Option<(usize, f64)> = None;
            for l in 0..nl {
                if self.count[l] == 0 {
                    continue;
                }
                let fair = self.rem_cap[l] / self.count[l] as f64;
                match best {
                    Some((_, b)) if fair >= b => {}
                    _ => best = Some((l, fair)),
                }
            }
            let Some((argmin, inc)) = best else { break };
            for (f, r) in rates.iter_mut().enumerate().take(nf) {
                if !self.fixed[f] {
                    *r += inc;
                }
            }
            // Deduct this round's allocation; a link is exhausted when what
            // remains is negligible relative to its original capacity.
            for (l, &cap) in caps.iter().enumerate().take(nl) {
                self.saturated[l] = false;
                if self.count[l] > 0 {
                    self.rem_cap[l] -= inc * self.count[l] as f64;
                    if self.rem_cap[l] <= 1e-12 * cap {
                        self.rem_cap[l] = 0.0;
                        self.saturated[l] = true;
                    }
                }
            }
            // Progress guarantee: the argmin link is saturated by
            // construction even if round-off left it marginally positive.
            self.rem_cap[argmin] = 0.0;
            self.saturated[argmin] = true;
            for f in 0..nf {
                if self.fixed[f] {
                    continue;
                }
                if route(f).iter().any(|&l| self.saturated[l as usize]) {
                    self.fixed[f] = true;
                    undecided -= 1;
                    for &l in route(f) {
                        self.count[l as usize] -= 1;
                    }
                }
            }
        }
    }

    /// Max-min fair allocation over *route classes* — groups of flows that
    /// share the exact same route, weighted by multiplicity.
    ///
    /// `offsets[c] = (start, len)` into `links_flat` gives class `c`'s route;
    /// `mult[c]` is how many flows travel it. On return `rates[c]` is the
    /// per-flow rate of every flow in class `c` (classes with empty routes
    /// get `f64::INFINITY`).
    ///
    /// Arithmetically identical to running [`FairScratch::solve`] over the
    /// expanded per-flow inputs, bit for bit: a link's claimant count is the
    /// *sum of multiplicities* (the same integer the per-flow solver counts
    /// one flow at a time), so each round's fair-share increment
    /// `rem_cap / count` is the identical `f64`; per-flow rates accumulate
    /// the identical increment sequence (one addition per round, whether a
    /// round's increment is added to one class accumulator or to each member
    /// flow separately — same operands, same order); capacity deduction
    /// `inc * count` multiplies the same values; and classes fix exactly
    /// when all their member flows would (members share every route link).
    /// `prop_sharing.rs` pins the equivalence over randomized inputs.
    ///
    /// Unlike the per-flow reference, every per-round sweep here runs over
    /// a compact list instead of the full index range: the tightest-link
    /// search and capacity deduction scan a *live-link list* (links still
    /// carrying undecided classes) and the rate accumulation and fixing
    /// test scan an *undecided-class list*. Both lists are built and
    /// maintained ascending (`Vec::retain` preserves order), so argmin
    /// tie-breaks, rate additions and fix decisions happen in exactly the
    /// reference's `0..nl` / `0..nc` order.
    pub fn solve_classes(
        &mut self,
        offsets: &[(u32, u32)],
        links_flat: &[u32],
        caps: &[f64],
        mult: &[u32],
        rates: &mut Vec<f64>,
    ) {
        let nc = offsets.len();
        let nl = caps.len();
        rates.clear();
        rates.resize(nc, 0.0);
        self.rem_cap.clear();
        self.rem_cap.extend_from_slice(caps);
        self.count.clear();
        self.count.resize(nl, 0);
        self.saturated.clear();
        self.saturated.resize(nl, false);

        let route = |c: usize| {
            let (s, n) = offsets[c];
            &links_flat[s as usize..s as usize + n as usize]
        };
        self.undecided.clear();
        for (c, rate) in rates.iter_mut().enumerate().take(nc) {
            let r = route(c);
            if r.is_empty() {
                *rate = f64::INFINITY;
            } else {
                self.undecided.push(c as u32);
                for &l in r {
                    self.count[l as usize] += mult[c];
                }
            }
        }
        // Ascending build: ties in the argmin scan must resolve to the
        // lowest link index, exactly as the reference's 0..nl sweep does.
        self.live.clear();
        self.live
            .extend((0..nl as u32).filter(|&l| self.count[l as usize] > 0));
        // The borrow checker cannot see that `undecided` and the other
        // scratch vectors are disjoint fields once a closure captures
        // `self`, so the list is moved out for the duration of the loop.
        let mut undecided = std::mem::take(&mut self.undecided);
        while !undecided.is_empty() {
            // Tightest link among links still carrying undecided classes.
            // Every live link has count > 0 by maintenance below.
            let mut best: Option<(usize, f64)> = None;
            for &lu in &self.live {
                let l = lu as usize;
                let fair = self.rem_cap[l] / self.count[l] as f64;
                match best {
                    Some((_, b)) if fair >= b => {}
                    _ => best = Some((l, fair)),
                }
            }
            let Some((argmin, inc)) = best else { break };
            for &cu in &undecided {
                rates[cu as usize] += inc;
            }
            // Deduct this round's allocation; a link is exhausted when what
            // remains is negligible relative to its original capacity.
            for &lu in &self.live {
                let l = lu as usize;
                self.saturated[l] = false;
                self.rem_cap[l] -= inc * self.count[l] as f64;
                if self.rem_cap[l] <= 1e-12 * caps[l] {
                    self.rem_cap[l] = 0.0;
                    self.saturated[l] = true;
                }
            }
            // Progress guarantee: the argmin link is saturated by
            // construction even if round-off left it marginally positive.
            self.rem_cap[argmin] = 0.0;
            self.saturated[argmin] = true;
            // Fix every class crossing a link saturated this round. The
            // fix test reads only `saturated`, never `count`, so the
            // in-pass count decrements cannot change later decisions.
            let count = &mut self.count;
            let saturated = &self.saturated;
            undecided.retain(|&cu| {
                let c = cu as usize;
                if route(c).iter().any(|&l| saturated[l as usize]) {
                    for &l in route(c) {
                        count[l as usize] -= mult[c];
                    }
                    false
                } else {
                    true
                }
            });
            // An undecided class's route links all stay live (none can be
            // saturated, and the class itself keeps their counts positive),
            // so shedding saturated and emptied links here never removes a
            // link the fixing test or the next argmin scan still needs.
            self.live
                .retain(|&lu| count[lu as usize] > 0 && !saturated[lu as usize]);
        }
        self.undecided = undecided;
    }
}

/// Max-min fair ("progressive filling") bandwidth allocation.
///
/// `routes[f]` lists the link indices used by flow `f`; `capacity[l]` is link
/// `l`'s bandwidth. Returns one rate per flow. Flows with empty routes get
/// `f64::INFINITY` (same-host transfers are not bandwidth-limited).
///
/// Convenience wrapper over [`FairScratch::solve`]; the kernel calls the
/// flat-array core directly to avoid per-recompute allocation.
pub fn max_min_fair(routes: &[Vec<usize>], capacity: &[f64]) -> Vec<f64> {
    let mut offsets = Vec::with_capacity(routes.len());
    let mut links_flat = Vec::new();
    for r in routes {
        offsets.push((links_flat.len() as u32, r.len() as u32));
        links_flat.extend(r.iter().map(|&l| l as u32));
    }
    let mut scratch = FairScratch::default();
    let mut rates = Vec::new();
    scratch.solve(&offsets, &links_flat, capacity, &mut rates);
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn cpu_single_core_splits_evenly() {
        assert!(close(cpu_share(100.0, 1, 2, 0.0), 50.0));
        assert!(close(cpu_share(100.0, 1, 1, 0.0), 100.0));
        assert!(close(cpu_share(100.0, 1, 1, 1.0), 50.0));
    }

    #[test]
    fn cpu_dual_core_absorbs_one_competitor() {
        // One app action + one load unit on a dual-core host: both fit.
        assert!(close(cpu_share(100.0, 2, 1, 1.0), 100.0));
        // Two app actions + two load units: each gets half a core.
        assert!(close(cpu_share(100.0, 2, 2, 2.0), 50.0));
    }

    #[test]
    fn cpu_share_capped_at_one_core() {
        assert!(close(cpu_share(100.0, 4, 1, 0.0), 100.0));
    }

    #[test]
    fn cpu_no_actions_is_zero() {
        assert_eq!(cpu_share(100.0, 2, 0, 5.0), 0.0);
    }

    #[test]
    fn maxmin_single_link_splits() {
        let rates = max_min_fair(&[vec![0], vec![0]], &[10.0]);
        assert!(close(rates[0], 5.0) && close(rates[1], 5.0));
    }

    #[test]
    fn maxmin_empty_route_unlimited() {
        let rates = max_min_fair(&[vec![]], &[10.0]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn maxmin_classic_three_flow() {
        // Two links of cap 10. Flow A uses both, B uses link 0, C uses link 1.
        // Max-min: A=5, B=5, C=5.
        let rates = max_min_fair(&[vec![0, 1], vec![0], vec![1]], &[10.0, 10.0]);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 5.0));
        assert!(close(rates[2], 5.0));
    }

    #[test]
    fn maxmin_unequal_links() {
        // Link 0 cap 10 shared by A,B; link 1 cap 100 used by A only.
        // A and B both get 5 (bottleneck link 0).
        let rates = max_min_fair(&[vec![0, 1], vec![0]], &[10.0, 100.0]);
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 5.0));
    }

    #[test]
    fn maxmin_leftover_capacity_goes_to_unconstrained() {
        // A: link0; B: link0+link1; C: link1. Caps 2 and 10.
        // Round 1: link0 fair=1 saturates -> A=B=1. C continues on link1
        // (cap 10 - 2 = 8 left for C alone) -> C = 1+8 = 9.
        let rates = max_min_fair(&[vec![0], vec![0, 1], vec![1]], &[2.0, 10.0]);
        assert!(close(rates[0], 1.0));
        assert!(close(rates[1], 1.0));
        assert!(close(rates[2], 9.0));
    }

    #[test]
    fn maxmin_conserves_capacity() {
        // Total allocated on any link never exceeds capacity.
        let routes = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2],
            vec![0],
            vec![1],
            vec![2],
        ];
        let caps = [7.0, 11.0, 5.0];
        let rates = max_min_fair(&routes, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = routes
                .iter()
                .zip(&rates)
                .filter(|(r, _)| r.contains(&l))
                .map(|(_, &x)| x)
                .sum();
            assert!(used <= cap * (1.0 + 1e-6), "link {l}: {used} > {cap}");
        }
    }

    #[test]
    fn maxmin_mixed_magnitudes_terminate_and_conserve() {
        // Capacities spanning twelve orders of magnitude used to be able to
        // trip the old absolute-epsilon saturation test; the relative test
        // plus argmin-forcing keeps every round productive.
        let routes = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![1]];
        let caps = [1e-6, 3.0e6, 7.5e-3];
        let rates = max_min_fair(&routes, &caps);
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = routes
                .iter()
                .zip(&rates)
                .filter(|(r, _)| r.contains(&l))
                .map(|(_, &x)| x)
                .sum();
            assert!(used <= cap * (1.0 + 1e-6), "link {l}: {used} > {cap}");
            assert!(rates.iter().all(|r| r.is_finite() && *r >= 0.0));
        }
    }

    /// Expand class inputs to per-flow inputs and check the aggregated
    /// solver reproduces the per-flow reference bit for bit.
    fn assert_classes_match_flows(class_routes: &[Vec<u32>], mult: &[u32], caps: &[f64]) {
        let mut offsets = Vec::new();
        let mut links_flat = Vec::new();
        for r in class_routes {
            offsets.push((links_flat.len() as u32, r.len() as u32));
            links_flat.extend_from_slice(r);
        }
        // Per-flow expansion: every class repeated `mult` times.
        let mut f_offsets = Vec::new();
        let mut f_links = Vec::new();
        for (c, r) in class_routes.iter().enumerate() {
            for _ in 0..mult[c] {
                f_offsets.push((f_links.len() as u32, r.len() as u32));
                f_links.extend_from_slice(r);
            }
        }
        let mut scratch = FairScratch::default();
        let mut class_rates = Vec::new();
        scratch.solve_classes(&offsets, &links_flat, caps, mult, &mut class_rates);
        let mut flow_rates = Vec::new();
        scratch.solve(&f_offsets, &f_links, caps, &mut flow_rates);
        let mut k = 0;
        for (c, &m) in mult.iter().enumerate() {
            for _ in 0..m {
                assert_eq!(
                    class_rates[c].to_bits(),
                    flow_rates[k].to_bits(),
                    "class {c} vs expanded flow {k}: {} vs {}",
                    class_rates[c],
                    flow_rates[k]
                );
                k += 1;
            }
        }
    }

    #[test]
    fn class_solver_matches_flow_solver_on_shared_bottleneck() {
        // Two classes over a shared link plus private tails; weights 3 and 2.
        assert_classes_match_flows(
            &[vec![0, 1], vec![0, 2], vec![2]],
            &[3, 2, 4],
            &[10.0, 100.0, 7.0],
        );
    }

    #[test]
    fn class_solver_matches_flow_solver_with_empty_routes_and_unit_weights() {
        assert_classes_match_flows(
            &[vec![], vec![0], vec![0, 1], vec![1]],
            &[2, 1, 1, 1],
            &[4.0, 6.0],
        );
    }

    #[test]
    fn class_solver_matches_flow_solver_on_mixed_magnitudes() {
        assert_classes_match_flows(
            &[vec![0, 1], vec![1, 2], vec![0, 2], vec![1]],
            &[7, 1, 13, 2],
            &[1e-6, 3.0e6, 7.5e-3],
        );
    }

    #[test]
    fn class_solver_scratch_reuse_is_clean() {
        let offsets = [(0u32, 2u32), (2, 1)];
        let links = [0u32, 1, 0];
        let caps = [9.0, 3.0];
        let mult = [2u32, 5];
        let mut scratch = FairScratch::default();
        let mut a = Vec::new();
        scratch.solve_classes(&offsets, &links, &caps, &mult, &mut a);
        let mut b = Vec::new();
        scratch.solve_classes(&offsets, &links, &caps, &mult, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn flat_solver_matches_wrapper() {
        let routes = vec![vec![0usize, 1], vec![0], vec![1], vec![]];
        let caps = [4.0, 6.0];
        let via_wrapper = max_min_fair(&routes, &caps);
        let offsets = [(0u32, 2u32), (2, 1), (3, 1), (4, 0)];
        let links_flat = [0u32, 1, 0, 1];
        let mut scratch = FairScratch::default();
        let mut rates = Vec::new();
        scratch.solve(&offsets, &links_flat, &caps, &mut rates);
        assert_eq!(via_wrapper, rates);
        // Scratch reuse must not leak state between solves.
        scratch.solve(&offsets, &links_flat, &caps, &mut rates);
        assert_eq!(via_wrapper, rates);
    }
}
