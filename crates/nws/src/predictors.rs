//! Individual time-series predictors, in the style of Wolski's Network
//! Weather Service.
//!
//! Each predictor consumes measurements one at a time and offers a one-step-
//! ahead forecast. None of them is best for every signal; the
//! [`crate::ensemble`] module runs them all and dynamically selects whichever
//! has the lowest historical error — the NWS "dynamic predictor selection"
//! method the GrADS scheduler and rescheduler rely on for `dcost` estimates
//! and resource forecasts.

use std::collections::VecDeque;

use grads_sim::from_order_key;
/// The kernel's `f64` order key, re-exported for the scheduler's auction
/// heap and snapshot-index keys.
pub use grads_sim::order_key;

/// A one-step-ahead forecaster over a scalar measurement stream.
pub trait Predictor {
    /// Human-readable name, e.g. `"sliding_median(21)"`.
    fn name(&self) -> String;
    /// Incorporate a new measurement.
    fn update(&mut self, value: f64);
    /// Forecast the next measurement; `None` until enough data has arrived.
    fn predict(&self) -> Option<f64>;
}

/// Predicts the most recent measurement.
#[derive(Debug, Default, Clone)]
pub struct LastValue {
    last: Option<f64>,
}

impl Predictor for LastValue {
    fn name(&self) -> String {
        "last_value".into()
    }
    fn update(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of all measurements seen so far.
#[derive(Debug, Default, Clone)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl Predictor for RunningMean {
    fn name(&self) -> String {
        "running_mean".into()
    }
    fn update(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Predicts the mean of the last `k` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    k: usize,
    window: VecDeque<f64>,
    sum: f64,
}

impl SlidingMean {
    /// Window length `k` must be at least 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window length must be >= 1");
        SlidingMean {
            k,
            window: VecDeque::with_capacity(k + 1),
            sum: 0.0,
        }
    }
}

impl Predictor for SlidingMean {
    fn name(&self) -> String {
        format!("sliding_mean({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        self.sum += value;
        if self.window.len() > self.k {
            self.sum -= self.window.pop_front().expect("non-empty window");
        }
    }
    fn predict(&self) -> Option<f64> {
        (!self.window.is_empty()).then(|| self.sum / self.window.len() as f64)
    }
}

/// Predicts the median of the last `k` measurements. Robust to the load
/// spikes that plague CPU-availability signals.
///
/// The window is kept twice: in arrival order (for eviction) and sorted
/// under [`f64::total_cmp`], so `predict` is an O(1) read and `update` one
/// memmove with no allocation.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    k: usize,
    window: VecDeque<f64>,
    /// `sorted[..window.len()]` is the window's [`order_key`]s, sorted.
    sorted: Vec<i64>,
}

impl SlidingMedian {
    /// Window length `k` must be at least 1.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "window length must be >= 1");
        SlidingMedian {
            k,
            window: VecDeque::with_capacity(k),
            sorted: vec![0; k],
        }
    }
}

impl Predictor for SlidingMedian {
    fn name(&self) -> String {
        format!("sliding_median({})", self.k)
    }
    fn update(&mut self, value: f64) {
        push_window(&mut self.window, &mut self.sorted, self.k, value);
    }
    fn predict(&self) -> Option<f64> {
        let n = self.window.len();
        (n > 0).then(|| median(&self.sorted[..n]))
    }
}

/// The median of a sorted, non-empty window of keys: the middle value,
/// or the mean of the middle two.
pub(crate) fn median(v: &[i64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        from_order_key(v[n / 2])
    } else {
        0.5 * (from_order_key(v[n / 2 - 1]) + from_order_key(v[n / 2]))
    }
}

/// Mean of a sorted window of keys after dropping `trim` values from
/// each end; windows too short to outsize the tails are averaged whole.
pub(crate) fn trimmed_mean(v: &[i64], trim: usize) -> f64 {
    let t = if v.len() > 2 * trim { trim } else { 0 };
    let kept = &v[t..v.len() - t];
    kept.iter().map(|&k| from_order_key(k)).sum::<f64>() / kept.len() as f64
}

/// Push `value` into the FIFO `window` of length at most `k`, keeping
/// `sorted[..window.len()]` its sorted [`order_key`]s.
fn push_window(window: &mut VecDeque<f64>, sorted: &mut [i64], k: usize, value: f64) {
    let len = window.len();
    let old = if len == k { window.pop_front() } else { None };
    window.push_back(value);
    slide_sorted(sorted, len, old, value);
}

/// Slide the sorted window of [`order_key`]s `sorted[..len]` by one
/// sample: evict `old` (a full window keeps its length) or, with
/// `old == None`, grow to `len + 1` (`sorted` must have room).
pub(crate) fn slide_sorted(sorted: &mut [i64], len: usize, old: Option<f64>, value: f64) {
    let Some(old) = old else {
        let value = order_key(value);
        let at = sorted[..len].partition_point(|&x| x < value);
        sorted.copy_within(at..len, at + 1);
        sorted[at] = value;
        return;
    };
    evict_insert(&mut sorted[..len], order_key(old), order_key(value));
}

/// [`slide_sorted`] for a full window of a fixed length `N`: evict `old`
/// and insert `value`. The searches run over a constant length, which
/// the compiler unrolls; this is the fused battery's steady-state slide.
pub(crate) fn slide_full<const N: usize>(sorted: &mut [i64; N], old: f64, value: f64) {
    evict_insert(sorted, order_key(old), order_key(value));
}

/// Replace the key `old` in the sorted `sorted` by the key `value`,
/// keeping it sorted.
///
/// The evict and the insert are one `copy_within` over the elements
/// between the two positions, not a remove followed by an insert.
/// Equal keys are equal bits, so whichever copy of `old` is evicted, the
/// result is exactly the keys of the window sorted from scratch under
/// [`f64::total_cmp`].
#[inline(always)]
fn evict_insert(sorted: &mut [i64], old: i64, value: i64) {
    let at = sorted.partition_point(|&x| x < value);
    let gone = sorted.partition_point(|&x| x < old);
    debug_assert_eq!(sorted[gone], old, "evicted value is in the sorted window");
    // `old` at or after the insertion point: shift `at..gone` right and
    // write at `at`. Before it: shift `gone + 1..at` left over `old` and
    // write at `at - 1`. The direction is as random as the samples, so
    // it is selected, not branched on.
    let right = at <= gone;
    let pick = |r, l| std::hint::select_unpredictable(right, r, l);
    sorted.copy_within(pick(at, gone + 1)..pick(gone, at), pick(at + 1, gone));
    sorted[pick(at, at.wrapping_sub(1))] = value;
}

/// Exponentially smoothed forecast: `s <- alpha * x + (1 - alpha) * s`.
#[derive(Debug, Clone)]
pub struct ExpSmoothing {
    alpha: f64,
    state: Option<f64>,
}

impl ExpSmoothing {
    /// `alpha` in (0, 1]: larger tracks faster, smaller smooths harder.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        ExpSmoothing { alpha, state: None }
    }
}

impl Predictor for ExpSmoothing {
    fn name(&self) -> String {
        format!("exp_smoothing({})", self.alpha)
    }
    fn update(&mut self, value: f64) {
        self.state = Some(match self.state {
            None => value,
            Some(s) => self.alpha * value + (1.0 - self.alpha) * s,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.state
    }
}

/// Mean of the last `k` measurements after discarding the `trim` smallest
/// and `trim` largest.
///
/// Like [`SlidingMedian`] it keeps a sorted copy of the window; the mean
/// is computed once per `update` and `predict` returns it.
#[derive(Debug, Clone)]
pub struct TrimmedMean {
    k: usize,
    trim: usize,
    window: VecDeque<f64>,
    /// `sorted[..window.len()]` is the window's [`order_key`]s, sorted.
    sorted: Vec<i64>,
    mean: Option<f64>,
}

impl TrimmedMean {
    /// Requires `k > 2 * trim` so at least one sample survives trimming.
    pub fn new(k: usize, trim: usize) -> Self {
        assert!(k > 2 * trim, "window must outsize the trimmed tails");
        TrimmedMean {
            k,
            trim,
            window: VecDeque::with_capacity(k),
            sorted: vec![0; k],
            mean: None,
        }
    }
}

impl Predictor for TrimmedMean {
    fn name(&self) -> String {
        format!("trimmed_mean({},{})", self.k, self.trim)
    }
    fn update(&mut self, value: f64) {
        push_window(&mut self.window, &mut self.sorted, self.k, value);
        self.mean = Some(trimmed_mean(&self.sorted[..self.window.len()], self.trim));
    }
    fn predict(&self) -> Option<f64> {
        self.mean
    }
}

/// The standard NWS-style predictor battery, one boxed predictor each:
/// the reference the fused battery of [`crate::ensemble`] reproduces bit
/// for bit (`tests/prop_forecast.rs`). `Send + Sync`, so a battery can
/// move to another thread.
pub fn standard_battery() -> Vec<Box<dyn Predictor + Send + Sync>> {
    vec![
        Box::new(LastValue::default()),
        Box::new(RunningMean::default()),
        Box::new(SlidingMean::new(5)),
        Box::new(SlidingMean::new(21)),
        Box::new(SlidingMean::new(51)),
        Box::new(SlidingMedian::new(5)),
        Box::new(SlidingMedian::new(21)),
        Box::new(SlidingMedian::new(51)),
        Box::new(ExpSmoothing::new(0.05)),
        Box::new(ExpSmoothing::new(0.2)),
        Box::new(ExpSmoothing::new(0.5)),
        Box::new(TrimmedMean::new(21, 3)),
    ]
}

/// Names of [`standard_battery`]'s predictors, in battery order: the
/// names the fused battery's forecasts are reported under
/// ([`crate::ensemble`]).
pub(crate) const STANDARD_NAMES: [&str; STANDARD_LEN] = [
    "last_value",
    "running_mean",
    "sliding_mean(5)",
    "sliding_mean(21)",
    "sliding_mean(51)",
    "sliding_median(5)",
    "sliding_median(21)",
    "sliding_median(51)",
    "exp_smoothing(0.05)",
    "exp_smoothing(0.2)",
    "exp_smoothing(0.5)",
    "trimmed_mean(21,3)",
];

/// Number of predictors in the standard battery.
pub(crate) const STANDARD_LEN: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_tracks() {
        let mut p = LastValue::default();
        assert!(p.predict().is_none());
        p.update(3.0);
        p.update(5.0);
        assert_eq!(p.predict(), Some(5.0));
    }

    #[test]
    fn running_mean_averages_everything() {
        let mut p = RunningMean::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_forgets() {
        let mut p = SlidingMean::new(2);
        for v in [10.0, 2.0, 4.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(3.0));
    }

    #[test]
    fn sliding_median_odd_and_even() {
        let mut p = SlidingMedian::new(3);
        p.update(5.0);
        p.update(1.0);
        assert_eq!(p.predict(), Some(3.0));
        p.update(9.0);
        assert_eq!(p.predict(), Some(5.0));
    }

    #[test]
    fn median_robust_to_spike() {
        let mut p = SlidingMedian::new(5);
        for v in [1.0, 1.0, 100.0, 1.0, 1.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(1.0));
    }

    #[test]
    fn exp_smoothing_converges() {
        let mut p = ExpSmoothing::new(0.5);
        p.update(0.0);
        for _ in 0..50 {
            p.update(10.0);
        }
        assert!((p.predict().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let mut p = TrimmedMean::new(5, 1);
        for v in [1.0, 1.0, 1.0, 1.0, 1000.0] {
            p.update(v);
        }
        assert_eq!(p.predict(), Some(1.0));
    }

    #[test]
    fn trimmed_mean_small_window_untimmed() {
        let mut p = TrimmedMean::new(5, 2);
        p.update(4.0);
        // Window has one sample; trimming disabled until it outsizes tails.
        assert_eq!(p.predict(), Some(4.0));
    }

    #[test]
    #[should_panic]
    fn sliding_mean_rejects_zero_window() {
        let _ = SlidingMean::new(0);
    }

    #[test]
    fn battery_has_unique_names() {
        let b = standard_battery();
        let mut names: Vec<String> = b.iter().map(|p| p.name()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn standard_names_are_the_battery_names() {
        let names: Vec<String> = standard_battery().iter().map(|p| p.name()).collect();
        assert_eq!(names, STANDARD_NAMES);
    }

    #[test]
    fn slide_sorted_evicts_and_inserts_on_either_side() {
        let slid = |v: &[f64], len: usize, old: Option<f64>, value: f64| {
            let mut keys: Vec<i64> = v.iter().map(|&x| order_key(x)).collect();
            slide_sorted(&mut keys, len, old, value);
            keys.into_iter()
                .map(|k| from_order_key(k).to_bits())
                .collect::<Vec<_>>()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(slid(&v, 4, Some(1.0), 3.5), bits(&[2.0, 3.0, 3.5, 4.0]));
        assert_eq!(slid(&v, 4, Some(4.0), 0.5), bits(&[0.5, 1.0, 2.0, 3.0]));
        assert_eq!(slid(&v, 4, Some(3.0), 3.0), bits(&v));
        assert_eq!(
            slid(&[2.0, 0.0, 0.0], 1, None, -0.0),
            bits(&[-0.0, 2.0, 0.0])
        );
        assert_eq!(
            slid(&[-0.0, 2.0, 0.0], 2, None, 0.0),
            bits(&[-0.0, 0.0, 2.0])
        );
        let nan = [f64::NAN, -f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
        for x in nan {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
        assert!(order_key(-f64::NAN) < order_key(f64::NEG_INFINITY));
        assert!(order_key(f64::INFINITY) < order_key(f64::NAN));
    }
}
