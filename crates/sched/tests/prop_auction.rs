//! Property test of the heap-driven second-price auction: on randomized
//! markets it must sell the same lots, at the same prices, to the same
//! consumers as the sort-per-lot loop it replaced, bit for bit.

use grads_sched::{auction_allocate, AuctionOutcome, Consumer, Producer, AUCTION_EPS};
use proptest::prelude::*;

/// The sort-per-lot auction: every lot rebuilds and fully sorts the bids
/// (bid descending under `total_cmp`, index ascending), sells to the top
/// bidder and charges the runner-up's bid.
fn sort_per_lot_oracle(producers: &[Producer], consumers: &[Consumer]) -> AuctionOutcome {
    let mut capacity: f64 = producers.iter().map(|p| p.capacity).sum();
    let mut remaining_budget: Vec<f64> = consumers.iter().map(|c| c.budget).collect();
    let mut remaining_need: Vec<f64> = consumers.iter().map(|c| c.max_demand).collect();
    let mut allocations = vec![0.0; consumers.len()];
    let mut slot_prices = Vec::new();
    let mut lot_sizes = Vec::new();
    while capacity > AUCTION_EPS {
        let mut bids: Vec<(usize, f64)> = remaining_budget
            .iter()
            .zip(&remaining_need)
            .enumerate()
            .filter(|(_, (&b, &n))| n > AUCTION_EPS && b > AUCTION_EPS)
            .map(|(i, (&b, &n))| (i, b / n.max(1.0)))
            .collect();
        if bids.is_empty() {
            break;
        }
        bids.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let (winner, top) = bids[0];
        let price = bids.get(1).map(|&(_, p)| p).unwrap_or(top * 0.5).min(top);
        let lot = capacity.min(1.0).min(remaining_need[winner]);
        let paid = (price * lot).min(remaining_budget[winner]);
        allocations[winner] += lot;
        remaining_budget[winner] -= paid;
        remaining_need[winner] -= lot;
        capacity -= lot;
        slot_prices.push(price);
        lot_sizes.push(lot);
    }
    AuctionOutcome {
        allocations,
        slot_prices,
        lot_sizes,
    }
}

/// Budgets and needs around the exhaustion threshold: below, at and one
/// ulp above [`AUCTION_EPS`], zero, sub-slot fractions and whole slots.
fn amount() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(AUCTION_EPS / 2.0),
        Just(AUCTION_EPS),
        Just(f64::from_bits(AUCTION_EPS.to_bits() + 1)),
        Just(3.0 * AUCTION_EPS),
        0.0f64..1.0,
        1.0f64..8.0,
        (1u32..8).prop_map(f64::from),
    ]
}

/// Budgets also reach large, infinite and NaN values.
fn budget() -> impl Strategy<Value = f64> {
    prop_oneof![
        amount(),
        8.0f64..1e3,
        (1u32..64).prop_map(f64::from),
        Just(f64::INFINITY),
        Just(f64::NAN),
    ]
}

/// Zero, fractional and whole capacities.
fn capacity() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(AUCTION_EPS),
        0.0f64..4.0,
        (1u32..48).prop_map(f64::from),
        Just(2.5),
    ]
}

#[derive(Debug, Clone)]
struct Market {
    producers: Vec<Producer>,
    consumers: Vec<Consumer>,
}

/// 0–200 consumers drawn from a small palette of `(budget, need)` pairs,
/// so equal bids — and with them the lower-index tie-break — are common.
fn market() -> impl Strategy<Value = Market> {
    (
        proptest::collection::vec(capacity(), 0..4),
        proptest::collection::vec((budget(), amount()), 1..8),
        proptest::collection::vec(0usize..8, 0..=200),
    )
        .prop_map(|(caps, palette, picks)| Market {
            producers: caps
                .into_iter()
                .map(|capacity| Producer { capacity })
                .collect(),
            consumers: picks
                .into_iter()
                .map(|k| {
                    let (budget, max_demand) = palette[k % palette.len()];
                    Consumer { budget, max_demand }
                })
                .collect(),
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The heap-driven auction sells exactly what the sort-per-lot loop
    /// sells: allocations, per-slot prices and lot sizes agree bit for
    /// bit.
    #[test]
    fn heap_auction_matches_sort_per_lot_oracle(m in market()) {
        let want = sort_per_lot_oracle(&m.producers, &m.consumers);
        let got = auction_allocate(&m.producers, &m.consumers);
        prop_assert_eq!(bits(&got.allocations), bits(&want.allocations), "allocations");
        prop_assert_eq!(bits(&got.slot_prices), bits(&want.slot_prices), "slot prices");
        prop_assert_eq!(bits(&got.lot_sizes), bits(&want.lot_sizes), "lot sizes");
    }
}
