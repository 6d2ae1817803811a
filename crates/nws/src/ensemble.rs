//! Dynamic predictor selection: run the whole predictor battery, track each
//! predictor's historical error, and forecast with the current best.
//!
//! This is the method the Network Weather Service uses to stay accurate
//! across wildly different signal regimes (stable LAN bandwidth vs. bursty
//! CPU availability) without per-signal tuning.
//!
//! One kernel runs the standard battery of
//! [`crate::predictors::standard_battery`] fused into two fixed-size
//! records per series: a row of samples (a ring and three sorted
//! windows) and a lane of scalars (sums, smoothing states, the twelve
//! outstanding forecasts and error sums, and the cached winner). An
//! [`Ensemble`] is one row and one lane; the weather service keeps its
//! CPU series as a bank of rows and lanes indexed by host.

use crate::predictors::{
    median, order_key, slide_full, slide_sorted, trimmed_mean, STANDARD_LEN, STANDARD_NAMES,
};

/// Forecast plus uncertainty information.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Predicted next value.
    pub value: f64,
    /// Mean absolute error of the winning predictor over the stream so far.
    pub mae: f64,
    /// Name of the predictor that produced the forecast.
    pub predictor: String,
}

/// Window lengths of the standard battery's sliding means and medians.
const WINDOWS: [usize; 3] = [5, 21, 51];
/// Smoothing factors of the standard battery's exponential smoothers.
const ALPHAS: [f64; 3] = [0.05, 0.2, 0.5];
/// Samples the ring keeps: the longest window.
const RING: usize = 51;
/// The trimmed mean's tails; it reads the 21-sample sorted window.
const TRIM: usize = 3;

/// The sample side of one fused-battery series: 984 bytes.
///
/// The ring holds the last 51 samples; the value a window of length `k`
/// evicts is the one `k` slots back, read before the new sample
/// overwrites the oldest slot. Two sorted windows (21, 51) of
/// [`order_key`]s serve their medians, and the trimmed mean reads the
/// 21-window the median keeps. The 5-sample median is selected straight
/// from the ring ([`median5`]).
///
/// A row is not over-aligned to a cache line: a `Vec` of over-aligned
/// rows goes through the allocator's aligned path, which raised the
/// service benchmarks' peak RSS by about 1 MiB and bought no measurable
/// speed.
#[derive(Clone)]
pub(crate) struct Row {
    /// Sample `n` (counting from 0) lands in `ring[n % RING]`.
    ring: [f64; RING],
    sorted21: [i64; 21],
    sorted51: [i64; 51],
}

impl Default for Row {
    fn default() -> Self {
        Row {
            ring: [0.0; RING],
            sorted21: [0; 21],
            sorted51: [0; 51],
        }
    }
}

/// The scalar side of one fused-battery series. Arrays of twelve are in
/// [`STANDARD_NAMES`] order.
#[derive(Clone, Default)]
pub(crate) struct Lane {
    /// Samples absorbed; 0 for a series never measured.
    n: u64,
    /// The running mean's sum.
    sum: f64,
    /// The sliding means' window sums, by [`WINDOWS`] entry.
    win_sums: [f64; 3],
    /// The exponential smoothers' states, by [`ALPHAS`] entry.
    smooth: [f64; 3],
    /// Every predictor's outstanding forecast: what the next sample
    /// scores.
    next: [f64; STANDARD_LEN],
    /// Absolute and squared error sums. Every predictor forecasts from
    /// the first sample on, so all twelve have been scored `n - 1` times:
    /// one shared count.
    abs_err: [f64; STANDARD_LEN],
    sq_err: [f64; STANDARD_LEN],
    /// The winner's MAE, battery index and forecast, selected once per
    /// sample so every forecast read is O(1).
    best_mae: f64,
    best_ix: usize,
    best_value: f64,
}

/// The battery plus scoring kernel: absorb `value` into the series
/// `(row, lane)`, score every outstanding forecast against it, and
/// select the winner. Returns the value the series serves from now on.
///
/// Every predictor keeps its boxed twin's arithmetic in the same order,
/// so each forecast is bit-identical to the boxed battery's (DESIGN.md
/// §"The fused forecast battery"; pinned by `tests/prop_forecast.rs`).
#[inline]
pub(crate) fn observe(row: &mut Row, lane: &mut Lane, value: f64) -> f64 {
    let n = lane.n;
    if n > 0 {
        let scores = lane.abs_err.iter_mut().zip(&mut lane.sq_err);
        for (&pred, (abs, sq)) in lane.next.iter().zip(scores) {
            let e = pred - value;
            *abs += e.abs();
            *sq += e * e;
        }
    }
    let head = (n % RING as u64) as usize;
    // A window of length `k` holds `before(k)` samples now and `after(k)`
    // once this one lands; a full one evicts `k` slots back.
    let before = |k: usize| n.min(k as u64) as usize;
    let after = |k: usize| (n + 1).min(k as u64) as usize;
    let old = WINDOWS.map(|k| (n >= k as u64).then(|| row.ring[(head + RING - k) % RING]));
    let next = &mut lane.next;

    next[0] = value;
    lane.sum += value;
    next[1] = lane.sum / (n + 1) as f64;
    for (i, &k) in WINDOWS.iter().enumerate() {
        lane.win_sums[i] += value;
        if let Some(o) = old[i] {
            lane.win_sums[i] -= o;
        }
        next[2 + i] = lane.win_sums[i] / after(k) as f64;
    }
    slide(&mut row.sorted21, before(21), old[1], value);
    slide(&mut row.sorted51, before(51), old[2], value);
    next[5] = median5(&row.ring, head, n, value);
    next[6] = median(&row.sorted21[..after(21)]);
    next[7] = median(&row.sorted51[..after(51)]);
    for (i, &alpha) in ALPHAS.iter().enumerate() {
        let s = &mut lane.smooth[i];
        *s = if n == 0 {
            value
        } else {
            alpha * value + (1.0 - alpha) * *s
        };
        next[8 + i] = *s;
    }
    next[11] = trimmed_mean(&row.sorted21[..after(21)], TRIM);

    row.ring[head] = value;
    lane.n = n + 1;
    lane.select();
    lane.best_value
}

/// The median of the last five samples (of all of them while fewer),
/// `value` being the newest, not yet in the ring.
///
/// A full window is a seven-comparator median-selection network over the
/// samples' [`order_key`]s, with no sorted copy to slide: the network
/// only moves keys, so it selects exactly the key a sort would put in
/// the middle.
#[inline(always)]
fn median5(ring: &[f64; RING], head: usize, n: u64, value: f64) -> f64 {
    let back = |k: usize| order_key(ring[(head + RING - k) % RING]);
    if n < 4 {
        let len = n as usize + 1;
        let mut p = [0i64; 5];
        for (k, slot) in p[..len - 1].iter_mut().enumerate() {
            *slot = back(k + 1);
        }
        p[len - 1] = order_key(value);
        p[..len].sort_unstable();
        return median(&p[..len]);
    }
    let mut p = [back(4), back(3), back(2), back(1), order_key(value)];
    for (i, j) in [(0, 1), (3, 4), (0, 3), (1, 4), (1, 2), (2, 3), (1, 2)] {
        (p[i], p[j]) = (p[i].min(p[j]), p[i].max(p[j]));
    }
    median(&p[2..3])
}

/// Slide one sorted window of length at most `N`, holding `len` keys, by
/// `value`: a full window (one with an evictee `old`) takes the
/// fixed-length path, a growing one [`slide_sorted`]'s insert.
#[inline(always)]
fn slide<const N: usize>(sorted: &mut [i64; N], len: usize, old: Option<f64>, value: f64) {
    match old {
        Some(old) => slide_full(sorted, old, value),
        None => slide_sorted(sorted, len, None, value),
    }
}

impl Lane {
    /// Select the winner: the lowest mean absolute error, ties to the
    /// earlier battery entry. All twelve share one scored count, so
    /// dividing by it is monotone under round-to-nearest: a predictor
    /// whose error sum is no smaller than the leader's cannot have a
    /// smaller MAE and is skipped without a division. Both comparisons
    /// are written so that a NaN sum or MAE takes the lead, as a
    /// `mae >= best` argmin over the twelve does.
    fn select(&mut self) {
        let scored = self.n - 1;
        if scored == 0 {
            // Nothing scored yet: every MAE is infinite, the first wins.
            (self.best_mae, self.best_ix, self.best_value) = (f64::INFINITY, 0, self.next[0]);
            return;
        }
        let d = scored as f64;
        let (mut lead, mut mae, mut ix) = (self.abs_err[0], self.abs_err[0] / d, 0);
        for (i, &a) in self.abs_err.iter().enumerate().skip(1) {
            if a >= lead {
                continue;
            }
            let m = a / d;
            if m >= mae {
                continue;
            }
            (lead, mae, ix) = (a, m, i);
        }
        (self.best_mae, self.best_ix, self.best_value) = (mae, ix, self.next[ix]);
    }

    /// The winner's forecast; `None` while unmeasured.
    fn forecast_value(&self) -> Option<f64> {
        (self.n > 0).then_some(self.best_value)
    }

    /// The winner's forecast, MAE and name; `None` while unmeasured. An
    /// infinite MAE (nothing scored yet) reports as 0.
    fn forecast(&self) -> Option<Forecast> {
        (self.n > 0).then(|| Forecast {
            value: self.best_value,
            mae: if self.best_mae.is_finite() {
                self.best_mae
            } else {
                0.0
            },
            predictor: STANDARD_NAMES[self.best_ix].to_string(),
        })
    }

    /// The latest sample: the last-value predictor's forecast.
    fn last_measurement(&self) -> Option<f64> {
        (self.n > 0).then_some(self.next[0])
    }
}

/// An ensemble forecaster with NWS-style dynamic predictor selection over
/// the standard battery, run as one fused row of samples and lane of
/// scalars.
///
/// ```
/// use grads_nws::ensemble::Ensemble;
/// let mut e = Ensemble::standard();
/// for i in 0..100 {
///     e.update(10.0 + if i % 2 == 0 { 0.5 } else { -0.5 });
/// }
/// let f = e.forecast().unwrap();
/// assert!((f.value - 10.0).abs() < 1.0);
/// ```
pub struct Ensemble {
    row: Row,
    lane: Lane,
}

impl Ensemble {
    /// An unmeasured ensemble over the standard NWS predictor battery,
    /// bit-identical to running the boxed
    /// [`crate::predictors::standard_battery`] with the same selection.
    pub fn standard() -> Self {
        Ensemble {
            row: Row::default(),
            lane: Lane::default(),
        }
    }

    /// Feed one measurement: score every predictor's outstanding forecast
    /// against it, let every predictor absorb it, and select the winner
    /// that [`Ensemble::forecast`] serves until the next update: the lowest
    /// mean absolute error, ties to the earlier battery entry.
    pub fn update(&mut self, value: f64) {
        observe(&mut self.row, &mut self.lane, value);
    }

    /// Number of measurements absorbed.
    pub fn len(&self) -> u64 {
        self.lane.n
    }

    /// True if no measurements have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.lane.n == 0
    }

    /// Most recent raw measurement.
    pub fn last_measurement(&self) -> Option<f64> {
        self.lane.last_measurement()
    }

    /// [`Ensemble::forecast`]'s value alone, without the predictor-name
    /// allocation: bit-identical to `forecast().value`. This is the read
    /// of every value-only consumer (capture, transfer estimates, the
    /// delta-capture dirty check in [`crate::monitor::NwsService`]).
    pub fn forecast_value(&self) -> Option<f64> {
        self.lane.forecast_value()
    }

    /// Forecast the next value using the predictor with the lowest mean
    /// absolute error so far. Ties break toward the earlier battery entry
    /// (deterministic). `None` until at least one measurement has arrived.
    pub fn forecast(&self) -> Option<Forecast> {
        self.lane.forecast()
    }

    /// Per-predictor `(name, mae, rmse)` diagnostics. Predictors that have
    /// not been scored yet report `NaN`.
    pub fn scores(&self) -> Vec<(String, f64, f64)> {
        let scored = self.lane.n.saturating_sub(1);
        let d = scored as f64;
        (0..STANDARD_LEN)
            .map(|i| {
                let (mae, rmse) = if scored > 0 {
                    (self.lane.abs_err[i] / d, (self.lane.sq_err[i] / d).sqrt())
                } else {
                    (f64::NAN, f64::NAN)
                };
                (STANDARD_NAMES[i].to_string(), mae, rmse)
            })
            .collect()
    }
}

/// CPU series indexed by host: one [`Row`] and one [`Lane`] per host, no
/// per-series allocation. A host never measured has a lane with count 0,
/// as has every host past the end. Every sample is a CPU availability,
/// clamped to `[0, 1]` on the way in.
#[derive(Default)]
pub(crate) struct CpuBank {
    rows: Vec<Row>,
    lanes: Vec<Lane>,
}

impl CpuBank {
    /// Make room for hosts `0..len`.
    fn cover(&mut self, len: usize) {
        if len > self.lanes.len() {
            self.rows.resize_with(len, Row::default);
            self.lanes.resize_with(len, Lane::default);
        }
    }

    /// Observe `availability` on host `h`; returns the value the host
    /// serves now.
    pub(crate) fn observe(&mut self, h: usize, availability: f64) -> f64 {
        self.cover(h + 1);
        observe(
            &mut self.rows[h],
            &mut self.lanes[h],
            availability.clamp(0.0, 1.0),
        )
    }

    /// Observe `availability[h]` on every host `h`, ascending, handing
    /// each host and the value it serves now to `served`.
    pub(crate) fn observe_all(&mut self, availability: &[f64], mut served: impl FnMut(usize, f64)) {
        self.cover(availability.len());
        let series = self.rows.iter_mut().zip(&mut self.lanes);
        for (h, ((row, lane), &a)) in series.zip(availability).enumerate() {
            served(h, observe(row, lane, a.clamp(0.0, 1.0)));
        }
    }

    /// The measured hosts and the values they serve, ascending.
    pub(crate) fn measured(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (self.lanes.iter().enumerate()).filter_map(|(h, l)| Some((h, l.forecast_value()?)))
    }

    /// The value host `h` serves; `None` if never measured.
    pub(crate) fn forecast_value(&self, h: usize) -> Option<f64> {
        self.lanes.get(h).and_then(Lane::forecast_value)
    }

    /// Host `h`'s forecast; `None` if never measured.
    pub(crate) fn forecast(&self, h: usize) -> Option<Forecast> {
        self.lanes.get(h).and_then(Lane::forecast)
    }

    /// Host `h`'s latest sample; `None` if never measured.
    pub(crate) fn last_measurement(&self, h: usize) -> Option<f64> {
        self.lanes.get(h).and_then(Lane::last_measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ensemble_has_no_forecast() {
        let e = Ensemble::standard();
        assert!(e.forecast().is_none());
        assert!(e.is_empty());
    }

    #[test]
    fn constant_signal_predicted_exactly() {
        let mut e = Ensemble::standard();
        for _ in 0..50 {
            e.update(7.0);
        }
        let f = e.forecast().unwrap();
        assert!((f.value - 7.0).abs() < 1e-12);
        assert!(f.mae < 1e-12);
    }

    #[test]
    fn step_change_eventually_tracked() {
        let mut e = Ensemble::standard();
        for _ in 0..30 {
            e.update(1.0);
        }
        for _ in 0..100 {
            e.update(9.0);
        }
        let f = e.forecast().unwrap();
        assert!(
            (f.value - 9.0).abs() < 1.0,
            "forecast {} should be near 9 after the step",
            f.value
        );
    }

    #[test]
    fn noisy_signal_prefers_smoothing_over_last_value() {
        // Alternating +-1 around 5: last_value is always 2 off; means are
        // near-perfect. The winner must not be last_value.
        let mut e = Ensemble::standard();
        for i in 0..200 {
            e.update(5.0 + if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let f = e.forecast().unwrap();
        assert_ne!(f.predictor, "last_value");
        assert!((f.value - 5.0).abs() < 0.5);
    }

    #[test]
    fn spiky_signal_prefers_robust_predictor() {
        // Mostly 1.0 with rare huge spikes: medians/trimmed means win over
        // plain means in MAE.
        let mut e = Ensemble::standard();
        for i in 0..300 {
            e.update(if i % 29 == 0 { 50.0 } else { 1.0 });
        }
        let f = e.forecast().unwrap();
        assert!((f.value - 1.0).abs() < 0.5, "forecast {}", f.value);
    }

    #[test]
    fn scores_cover_all_predictors() {
        let mut e = Ensemble::standard();
        for i in 0..60 {
            e.update(i as f64);
        }
        let scores = e.scores();
        assert_eq!(scores.len(), 12);
        for (name, mae, rmse) in scores {
            assert!(mae.is_finite(), "{name} unscored");
            assert!(rmse >= mae * 0.99, "{name}: rmse {rmse} < mae {mae}");
        }
    }

    #[test]
    fn forecast_value_matches_full_forecast_bitwise() {
        let mut e = Ensemble::standard();
        assert!(e.forecast_value().is_none());
        for i in 0..120u32 {
            e.update((i.wrapping_mul(48271) % 89) as f64 * 0.01);
            let full = e.forecast().unwrap().value;
            let fast = e.forecast_value().unwrap();
            assert_eq!(full.to_bits(), fast.to_bits(), "step {i}");
        }
    }

    /// The median-of-five network selects the middle of the sorted keys
    /// on every tuple over five distinct values (so every order and every
    /// pattern of ties), for every ring position of the window.
    #[test]
    fn median5_network_matches_sorting() {
        let vals = [-0.0, 0.0, 0.5, 1.0, f64::NAN];
        for code in 0..5usize.pow(5) {
            let sample: Vec<f64> = (0..5).map(|d| vals[code / 5usize.pow(d) % 5]).collect();
            let mut keys: Vec<i64> = sample.iter().map(|&x| order_key(x)).collect();
            keys.sort_unstable();
            let want = median(&keys);
            for head in [0, 3, 4, 50] {
                let mut ring = [0.0; RING];
                for k in 1..=4 {
                    ring[(head + RING - k) % RING] = sample[4 - k];
                }
                let got = median5(&ring, head, 60, sample[4]);
                assert_eq!(got.to_bits(), want.to_bits(), "{sample:?} head {head}");
            }
        }
    }

    #[test]
    fn forecast_is_deterministic() {
        let run = || {
            let mut e = Ensemble::standard();
            for i in 0..100u32 {
                e.update((i.wrapping_mul(2654435761).wrapping_mul(i) % 97) as f64);
            }
            e.forecast().unwrap()
        };
        assert_eq!(run(), run());
    }
}
