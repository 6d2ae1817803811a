//! Grid economies — the paper's §5 future-work capability ("Grid
//! economies for allocating resources"), after the G-commerce work it
//! cites (\[24\]: Wolski, Plank, Brevik & Bryan, *"G-commerce: Market
//! formulations controlling resource allocation on the computational
//! grid"*).
//!
//! Two market formulations are implemented, matching G-commerce's
//! comparison:
//!
//! * a **commodities market**: one price per resource type, adjusted by
//!   tâtonnement (excess demand raises the price, excess supply lowers
//!   it) until the market approximately clears; consumers then receive
//!   allocations proportional to their demand at the equilibrium price;
//! * **auctions**: capacity is sold slot by slot to the highest bidder at
//!   the second-highest price.
//!
//! G-commerce's finding — commodities markets reach smoother, more
//! predictable prices than auctions while clearing comparably — is
//! reproduced by the tests and the price-stability metric.

use grads_nws::predictors::order_key;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A resource seller: `capacity` divisible CPU slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Producer {
    /// Slots offered.
    pub capacity: f64,
}

/// A resource buyer with a budget and a maximum useful demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Consumer {
    /// Money available per market round.
    pub budget: f64,
    /// Slots beyond this are useless to the job.
    pub max_demand: f64,
}

/// Demand of one consumer at a price: budget-limited and need-capped.
pub fn demand_at(c: &Consumer, price: f64) -> f64 {
    (c.budget / price.max(1e-12)).min(c.max_demand)
}

/// Result of running a commodities market to (approximate) equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Clearing price.
    pub price: f64,
    /// Residual excess demand (demand − supply) at that price.
    pub excess: f64,
    /// Tâtonnement iterations used.
    pub iterations: usize,
    /// Whether |excess| fell below the tolerance.
    pub converged: bool,
    /// Per-consumer allocations (slots), demand-proportional if the
    /// market is over-subscribed at the clearing price.
    pub allocations: Vec<f64>,
    /// Price trajectory (for stability analysis).
    pub price_history: Vec<f64>,
}

/// A single-commodity market with tâtonnement price adjustment.
#[derive(Debug, Clone)]
pub struct CommodityMarket {
    /// Current price.
    pub price: f64,
    /// Adjustment gain: `p ← p · (1 + λ · excess/supply)`.
    pub lambda: f64,
}

impl Default for CommodityMarket {
    fn default() -> Self {
        CommodityMarket {
            price: 1.0,
            lambda: 0.5,
        }
    }
}

impl CommodityMarket {
    /// Total offered capacity.
    pub fn supply(producers: &[Producer]) -> f64 {
        producers.iter().map(|p| p.capacity).sum()
    }

    /// Aggregate demand at a price.
    pub fn demand(consumers: &[Consumer], price: f64) -> f64 {
        consumers.iter().map(|c| demand_at(c, price)).sum()
    }

    /// Iterate price adjustment until the excess demand is within
    /// `tol · supply` or `max_iters` rounds pass, then allocate.
    ///
    /// The returned [`Equilibrium`] is internally consistent by
    /// construction: after the tâtonnement loop exits, the per-consumer
    /// demands are evaluated **once** at the final price, and that single
    /// evaluation supplies the reported `excess`, the `converged` flag,
    /// *and* the `allocations` — the flag always describes the same
    /// equilibrium the allocations were computed at, never a residual
    /// from a pre-step price.
    pub fn clear(
        &mut self,
        producers: &[Producer],
        consumers: &[Consumer],
        max_iters: usize,
        tol: f64,
    ) -> Equilibrium {
        let supply = Self::supply(producers).max(1e-12);
        let mut history = Vec::with_capacity(max_iters + 1);
        history.push(self.price);
        let mut iterations = 0;
        let mut excess = Self::demand(consumers, self.price) - supply;
        while iterations < max_iters && excess.abs() > tol * supply {
            let step = (self.lambda * excess / supply).clamp(-0.5, 0.5);
            self.price = (self.price * (1.0 + step)).max(1e-9);
            history.push(self.price);
            iterations += 1;
            excess = Self::demand(consumers, self.price) - supply;
        }
        // One demand evaluation at the final price feeds excess, flag and
        // allocations alike (everyone gets their demand, scaled down
        // uniformly if the market is still over-subscribed).
        let demands: Vec<f64> = consumers.iter().map(|c| demand_at(c, self.price)).collect();
        let total: f64 = demands.iter().sum();
        let excess = total - supply;
        let scale = if total > supply { supply / total } else { 1.0 };
        let allocations = demands.iter().map(|d| d * scale).collect();
        Equilibrium {
            price: self.price,
            excess,
            iterations,
            converged: excess.abs() <= tol * supply,
            allocations,
            price_history: history,
        }
    }
}

/// Result of an auction round.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// Per-consumer allocations (slots).
    pub allocations: Vec<f64>,
    /// Per-slot price charged for each lot sold, in sale order. The money
    /// actually paid for a lot is `slot_prices[i] * lot_sizes[i]`.
    pub slot_prices: Vec<f64>,
    /// Size of each lot sold (slots), aligned with `slot_prices`. Whole
    /// lots are `1.0`; fractional tails of capacity or of a consumer's
    /// residual need are smaller.
    pub lot_sizes: Vec<f64>,
}

/// Residues below this are treated as exhausted: a budget or need that
/// float arithmetic has ground down to `~1e-12` slots (or currency units)
/// can neither win nor block a sale. See [`auction_allocate`]'s slot
/// granularity contract.
pub const AUCTION_EPS: f64 = 1e-9;

/// Second-price sealed-bid auction: capacity is sold lot by lot to the
/// highest bidder at the runner-up's per-slot bid (half the winner's bid
/// when unopposed, and never above the winner's own bid).
///
/// **Slot granularity contract.** Capacity is divisible: it is sold in
/// lots of *at most* one slot. A lot is `min(1.0, remaining capacity,
/// winner's remaining need)`, so
///
/// * fractional capacity is fully sellable (3.5 slots sell as
///   `1 + 1 + 1 + 0.5`, not as 3 with 0.5 stranded);
/// * a consumer with `max_demand < 1.0` can win (its lot is its need);
/// * payment is pro-rata: a lot of `s` slots at per-slot price `p` costs
///   `s · p`, capped by the winner's remaining budget.
///
/// Budgets and needs below [`AUCTION_EPS`] count as exhausted, so float
/// residue left by repeated subtraction cannot keep a bidder in the loop
/// or strand an unsellable sliver of capacity.
///
/// Each consumer's per-slot valuation is its remaining budget spread over
/// its remaining useful demand, `b / max(n, 1)`: a consumer needing less
/// than one slot concentrates its whole budget on that fraction, so its
/// per-slot bid is its full remaining budget.
///
/// **Heap invariant.** The bids live in a max-heap keyed by
/// `(order_key(bid), Reverse(index))` — the integer image of "bid
/// descending under `total_cmp`, index ascending" — holding exactly one
/// entry per eligible consumer (budget and need above [`AUCTION_EPS`]),
/// each at that consumer's current bid. Each lot pops the winner, reads
/// the second price off the runner-up at the top, and re-pushes the
/// winner at its recomputed bid if it is still eligible. Selling a lot
/// moves only the winner's budget and need, so every other entry stays
/// exact between lots, and the heap order is the order a full re-sort of
/// all bids would give: ties still go to the lower index. Cost is
/// `O(n + lots · log n)` for `n` consumers, with no allocation per lot.
pub fn auction_allocate(producers: &[Producer], consumers: &[Consumer]) -> AuctionOutcome {
    let mut capacity = CommodityMarket::supply(producers);
    let mut remaining_budget: Vec<f64> = consumers.iter().map(|c| c.budget).collect();
    let mut remaining_need: Vec<f64> = consumers.iter().map(|c| c.max_demand).collect();
    let mut allocations = vec![0.0; consumers.len()];
    let mut slot_prices = Vec::new();
    let mut lot_sizes = Vec::new();
    // Per-slot value of more capacity to a consumer, if it can still bid.
    let bid = |b: f64, n: f64| (n > AUCTION_EPS && b > AUCTION_EPS).then(|| b / n.max(1.0));
    let mut bids: BinaryHeap<(i64, Reverse<usize>)> = consumers
        .iter()
        .enumerate()
        .filter_map(|(i, c)| bid(c.budget, c.max_demand).map(|v| (order_key(v), Reverse(i))))
        .collect();
    while capacity > AUCTION_EPS {
        let Some((_, Reverse(winner))) = bids.pop() else {
            break;
        };
        let current = |i: usize| remaining_budget[i] / remaining_need[i].max(1.0);
        let top = current(winner);
        let price = bids
            .peek()
            .map(|&(_, Reverse(i))| current(i))
            .unwrap_or(top * 0.5)
            .min(top);
        let lot = capacity.min(1.0).min(remaining_need[winner]);
        let paid = (price * lot).min(remaining_budget[winner]);
        allocations[winner] += lot;
        remaining_budget[winner] -= paid;
        remaining_need[winner] -= lot;
        capacity -= lot;
        slot_prices.push(price);
        lot_sizes.push(lot);
        if let Some(v) = bid(remaining_budget[winner], remaining_need[winner]) {
            bids.push((order_key(v), Reverse(winner)));
        }
    }
    AuctionOutcome {
        allocations,
        slot_prices,
        lot_sizes,
    }
}

/// Relative standard deviation of a price series — the G-commerce price
/// stability metric (lower = smoother).
pub fn price_volatility(prices: &[f64]) -> f64 {
    if prices.len() < 2 {
        return 0.0;
    }
    let n = prices.len() as f64;
    let mean = prices.iter().sum::<f64>() / n;
    let var = prices.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean.max(1e-12)
}

/// Jain's fairness index over allocations (1 = perfectly fair).
pub fn jain_fairness(alloc: &[f64]) -> f64 {
    let n = alloc.len() as f64;
    let s: f64 = alloc.iter().sum();
    let s2: f64 = alloc.iter().map(|a| a * a).sum();
    if s2 <= 0.0 {
        return 1.0;
    }
    s * s / (n * s2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn producers(caps: &[f64]) -> Vec<Producer> {
        caps.iter().map(|&c| Producer { capacity: c }).collect()
    }

    fn consumers(specs: &[(f64, f64)]) -> Vec<Consumer> {
        specs
            .iter()
            .map(|&(budget, max_demand)| Consumer { budget, max_demand })
            .collect()
    }

    #[test]
    fn market_converges_and_clears() {
        let p = producers(&[40.0, 60.0]);
        let c = consumers(&[(100.0, 80.0), (50.0, 60.0), (25.0, 30.0)]);
        let mut m = CommodityMarket::default();
        let eq = m.clear(&p, &c, 500, 0.01);
        assert!(eq.converged, "{eq:?}");
        let total: f64 = eq.allocations.iter().sum();
        assert!((total - 100.0).abs() <= 2.0, "market clears: {total}");
        // Richer consumers obtain more.
        assert!(eq.allocations[0] > eq.allocations[1]);
        assert!(eq.allocations[1] > eq.allocations[2]);
    }

    #[test]
    fn scarcity_raises_the_price() {
        let c = consumers(&[(100.0, 1000.0), (100.0, 1000.0)]);
        let mut m_plenty = CommodityMarket::default();
        let eq_plenty = m_plenty.clear(&producers(&[400.0]), &c, 500, 0.01);
        let mut m_scarce = CommodityMarket::default();
        let eq_scarce = m_scarce.clear(&producers(&[40.0]), &c, 500, 0.01);
        assert!(
            eq_scarce.price > eq_plenty.price * 5.0,
            "scarce {} vs plenty {}",
            eq_scarce.price,
            eq_plenty.price
        );
    }

    #[test]
    fn unsaturated_market_gives_everyone_their_demand() {
        let p = producers(&[1000.0]);
        let c = consumers(&[(10.0, 5.0), (10.0, 3.0)]);
        let mut m = CommodityMarket::default();
        let eq = m.clear(&p, &c, 500, 0.01);
        // Price floors out; everyone is capped by need, not money.
        assert!((eq.allocations[0] - 5.0).abs() < 1e-6);
        assert!((eq.allocations[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn auction_sells_to_the_highest_valuations() {
        let p = producers(&[3.0]);
        let c = consumers(&[(90.0, 3.0), (10.0, 3.0)]);
        let out = auction_allocate(&p, &c);
        assert!(out.allocations[0] >= 2.0, "{:?}", out.allocations);
        let sold: f64 = out.allocations.iter().sum();
        assert!((sold - 3.0).abs() < 1e-9);
        assert_eq!(out.slot_prices.len(), 3);
    }

    #[test]
    fn auction_respects_budgets_and_needs() {
        let p = producers(&[10.0]);
        let c = consumers(&[(5.0, 2.0), (5.0, 2.0)]);
        let out = auction_allocate(&p, &c);
        for (i, &a) in out.allocations.iter().enumerate() {
            assert!(a <= 2.0 + 1e-9, "consumer {i} over-allocated: {a}");
        }
        let sold: f64 = out.allocations.iter().sum();
        assert!(sold <= 4.0 + 1e-9, "needs cap total sales: {sold}");
    }

    #[test]
    fn commodity_prices_smoother_than_auction_prices() {
        // The G-commerce comparison: tâtonnement converges to a stable
        // price; sequential auction prices jump around as budgets drain.
        let p = producers(&[50.0]);
        let c = consumers(&[(100.0, 40.0), (60.0, 30.0), (30.0, 25.0), (10.0, 20.0)]);
        let mut m = CommodityMarket::default();
        let eq = m.clear(&p, &c, 500, 0.01);
        assert!(eq.converged);
        // Post-convergence prices: the last few tâtonnement steps.
        let tail = &eq.price_history[eq.price_history.len().saturating_sub(3)..];
        let auction = auction_allocate(&p, &c);
        let v_market = price_volatility(tail);
        let v_auction = price_volatility(&auction.slot_prices);
        assert!(
            v_market < v_auction,
            "market tail volatility {v_market} vs auction {v_auction}"
        );
    }

    /// Regression (ISSUE 6): `while capacity >= 1.0` used to strand the
    /// fractional tail — 3.5 slots sold as 3 with 0.5 thrown away.
    #[test]
    fn auction_sells_fractional_capacity_tail() {
        let p = producers(&[3.5]);
        let c = consumers(&[(100.0, 10.0)]);
        let out = auction_allocate(&p, &c);
        let sold: f64 = out.allocations.iter().sum();
        assert!(
            (sold - 3.5).abs() < 1e-9,
            "fractional capacity must sell fully: {sold}"
        );
        assert_eq!(out.lot_sizes, vec![1.0, 1.0, 1.0, 0.5]);
        assert_eq!(out.slot_prices.len(), out.lot_sizes.len());
    }

    /// Regression (ISSUE 6): a consumer with `max_demand < 1.0` could
    /// never win a slot (the bid filter required a whole slot of need).
    #[test]
    fn auction_serves_sub_slot_consumers() {
        let p = producers(&[2.0]);
        let c = consumers(&[(50.0, 0.4), (1.0, 2.0)]);
        let out = auction_allocate(&p, &c);
        assert!(
            (out.allocations[0] - 0.4).abs() < 1e-9,
            "sub-slot need must be servable: {:?}",
            out.allocations
        );
        // The rest goes to the whole-slot consumer.
        assert!(
            (out.allocations[1] - 1.6).abs() < 1e-9,
            "{:?}",
            out.allocations
        );
    }

    /// Regression (ISSUE 6): float residue in `remaining_budget` (e.g.
    /// 1e-16 left after repeated subtraction) used to keep a bidder in
    /// the loop; it must count as exhausted.
    #[test]
    fn auction_drops_exhausted_budget_residue() {
        // Consumer 0's budget drains to an O(1e-16) residue after paying
        // for its first slots; consumer 1 has need but no money at all.
        let p = producers(&[10.0]);
        let c = consumers(&[(0.3 + 0.3 + 0.3 - 0.9 + 1e-16, 100.0), (0.0, 100.0)]);
        let out = auction_allocate(&p, &c);
        assert_eq!(
            out.allocations[0], 0.0,
            "residue budget must not win slots: {:?}",
            out.allocations
        );
        assert!(out.slot_prices.is_empty());
    }

    /// Unopposed fractional-need endgame terminates and charges pro-rata.
    #[test]
    fn auction_prices_fractional_lots_pro_rata() {
        let p = producers(&[1.0]);
        let c = consumers(&[(8.0, 0.5)]);
        let out = auction_allocate(&p, &c);
        assert!((out.allocations[0] - 0.5).abs() < 1e-12);
        // Sole bidder: per-slot price is half its bid (b / max(n,1) = 8),
        // and it pays price × lot, not price × whole slot.
        assert_eq!(out.slot_prices, vec![4.0]);
        assert_eq!(out.lot_sizes, vec![0.5]);
    }

    /// Regression (ISSUE 6): `converged`, `excess` and `allocations` must
    /// all describe the same (final-price) equilibrium, including when
    /// the iteration cap — not the tolerance — ends the loop.
    #[test]
    fn clear_flag_and_allocations_agree_at_the_final_price() {
        let p = producers(&[40.0]);
        let cs = [
            consumers(&[(100.0, 80.0), (50.0, 60.0)]),
            consumers(&[(10.0, 5.0)]),
            consumers(&[(1000.0, 1e6), (0.5, 0.25)]),
        ];
        for c in &cs {
            for max_iters in [0usize, 1, 3, 500] {
                let mut m = CommodityMarket {
                    price: 1.0,
                    lambda: 2.5, // aggressive steps force overshoot
                };
                let tol = 0.01;
                let eq = m.clear(&p, c, max_iters, tol);
                let supply = CommodityMarket::supply(&p);
                let demand = CommodityMarket::demand(c, eq.price);
                // excess is the final-price excess, bitwise.
                assert_eq!(
                    eq.excess.to_bits(),
                    (demand - supply).to_bits(),
                    "excess must be measured at the reported price"
                );
                // flag is derived from that same excess.
                assert_eq!(eq.converged, eq.excess.abs() <= tol * supply);
                // allocations are the same demands, scaled to supply.
                let total: f64 = eq.allocations.iter().sum();
                let expect = demand.min(supply);
                assert!(
                    (total - expect).abs() <= 1e-9 * expect.max(1.0),
                    "allocations {total} vs demand-at-price {expect}"
                );
            }
        }
    }

    #[test]
    fn fairness_metric_sane() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[10.0, 0.0, 0.0]);
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
