//! Property-based tests of the forecasting ensemble, and of the fused
//! battery behind every production series against [`BoxedEnsemble`], a
//! test-local ensemble over boxed predictors that shares no code with it.

use grads_nws::predictors::{
    standard_battery, ExpSmoothing, LastValue, Predictor, RunningMean, SlidingMean, SlidingMedian,
    TrimmedMean,
};
use grads_nws::{Ensemble, Forecast, NwsService};
use grads_sim::prelude::HostId;
use proptest::prelude::*;
use std::collections::VecDeque;

/// One predictor's outstanding forecast and error record.
struct Tracked {
    next: Option<f64>,
    abs_err_sum: f64,
    sq_err_sum: f64,
    n_scored: u64,
}

impl Tracked {
    /// Score the outstanding forecast against `value`, then make `next`
    /// the outstanding one.
    fn absorb(&mut self, value: f64, next: Option<f64>) {
        if let Some(pred) = self.next {
            let e = pred - value;
            self.abs_err_sum += e.abs();
            self.sq_err_sum += e * e;
            self.n_scored += 1;
        }
        self.next = next;
    }

    /// Mean absolute error so far; `+inf` while unscored.
    fn mae(&self) -> f64 {
        if self.n_scored > 0 {
            self.abs_err_sum / self.n_scored as f64
        } else {
            f64::INFINITY
        }
    }
}

/// NWS dynamic predictor selection over any boxed battery, each
/// predictor scored on its own count: the reference the fused
/// [`Ensemble`] and the service's CPU bank must match bit for bit.
struct BoxedEnsemble {
    predictors: Vec<Box<dyn Predictor + Send + Sync>>,
    tracked: Vec<Tracked>,
    last: Option<f64>,
}

impl BoxedEnsemble {
    fn new(predictors: Vec<Box<dyn Predictor + Send + Sync>>) -> Self {
        let tracked = predictors
            .iter()
            .map(|p| Tracked {
                next: p.predict(),
                abs_err_sum: 0.0,
                sq_err_sum: 0.0,
                n_scored: 0,
            })
            .collect();
        BoxedEnsemble {
            predictors,
            tracked,
            last: None,
        }
    }

    fn update(&mut self, value: f64) {
        for (t, p) in self.tracked.iter_mut().zip(&mut self.predictors) {
            p.update(value);
            t.absorb(value, p.predict());
        }
        self.last = Some(value);
    }

    /// The forecasting predictor with the lowest MAE as `(mae, index,
    /// forecast)`: a plain first-wins argmin, ties to the earlier entry
    /// (a NaN MAE compares as never `>=`, so it takes the lead).
    fn select(&self) -> Option<(f64, usize, f64)> {
        let mut best: Option<(f64, usize, f64)> = None;
        for (i, t) in self.tracked.iter().enumerate() {
            let Some(pred) = t.next else { continue };
            let mae = t.mae();
            match best {
                Some((bmae, _, _)) if mae >= bmae => {}
                _ => best = Some((mae, i, pred)),
            }
        }
        best
    }

    fn forecast_value(&self) -> Option<f64> {
        self.select().map(|(_, _, value)| value)
    }

    fn forecast(&self) -> Option<Forecast> {
        self.select().map(|(mae, i, value)| Forecast {
            value,
            mae: if mae.is_finite() { mae } else { 0.0 },
            predictor: self.predictors[i].name(),
        })
    }

    fn scores(&self) -> Vec<(String, f64, f64)> {
        self.tracked
            .iter()
            .zip(&self.predictors)
            .map(|(t, p)| {
                let n = t.n_scored as f64;
                let (mae, rmse) = if t.n_scored > 0 {
                    (t.abs_err_sum / n, (t.sq_err_sum / n).sqrt())
                } else {
                    (f64::NAN, f64::NAN)
                };
                (p.name(), mae, rmse)
            })
            .collect()
    }
}

fn series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..120)
}

/// Values from a small alphabet, so windows hold many duplicates, with
/// both signed zeros (distinct under `total_cmp`, equal under `==`).
const ALPHABET: [f64; 8] = [0.0, -0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 3.0, 1e-9];

fn alphabet() -> impl Strategy<Value = f64> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

/// A window length in 1..60 and a series from [`ALPHABET`] that is longer
/// than the window, so eviction runs.
fn windowed_series() -> impl Strategy<Value = (usize, Vec<f64>)> {
    (1usize..60).prop_flat_map(|k| {
        let vals = proptest::collection::vec(alphabet(), k + 1..k + 120);
        (Just(k), vals)
    })
}

/// Sort-on-predict sliding median: the allocating implementation the
/// sorted-window [`SlidingMedian`] must match bit for bit.
struct OracleMedian {
    k: usize,
    window: VecDeque<f64>,
}

impl Predictor for OracleMedian {
    fn name(&self) -> String {
        format!("sliding_median({})", self.k)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        if self.window.len() > self.k {
            self.window.pop_front();
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        })
    }
}

/// Sort-on-predict trimmed mean, the oracle for [`TrimmedMean`].
struct OracleTrimmed {
    k: usize,
    trim: usize,
    window: VecDeque<f64>,
}

impl Predictor for OracleTrimmed {
    fn name(&self) -> String {
        format!("trimmed_mean({},{})", self.k, self.trim)
    }
    fn update(&mut self, value: f64) {
        self.window.push_back(value);
        if self.window.len() > self.k {
            self.window.pop_front();
        }
    }
    fn predict(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.window.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let t = if v.len() > 2 * self.trim {
            self.trim
        } else {
            0
        };
        let kept = &v[t..v.len() - t];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

fn oracle_median(k: usize) -> OracleMedian {
    OracleMedian {
        k,
        window: VecDeque::new(),
    }
}

fn oracle_trimmed(k: usize, trim: usize) -> OracleTrimmed {
    OracleTrimmed {
        k,
        trim,
        window: VecDeque::new(),
    }
}

/// [`standard_battery`] with its windowed order statistics swapped for
/// the sort-on-predict oracles, in the same order.
fn oracle_battery() -> Vec<Box<dyn Predictor + Send + Sync>> {
    vec![
        Box::new(LastValue::default()),
        Box::new(RunningMean::default()),
        Box::new(SlidingMean::new(5)),
        Box::new(SlidingMean::new(21)),
        Box::new(SlidingMean::new(51)),
        Box::new(oracle_median(5)),
        Box::new(oracle_median(21)),
        Box::new(oracle_median(51)),
        Box::new(ExpSmoothing::new(0.05)),
        Box::new(ExpSmoothing::new(0.2)),
        Box::new(ExpSmoothing::new(0.5)),
        Box::new(oracle_trimmed(21, 3)),
    ]
}

/// Values that stress the `total_cmp` order and the running sums:
/// infinities, NaNs of both signs, subnormals and the largest finite.
const SPECIALS: [f64; 8] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 4.0,
    f64::MAX,
];

/// A series longer than three 51-sample windows, so every window and the
/// fused battery's ring wrap, mixing [`ALPHABET`] duplicates, a wide
/// range and [`SPECIALS`].
fn long_series() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![
        4 => alphabet(),
        4 => 0.0f64..1e6,
        1 => (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
    ];
    proptest::collection::vec(value, 3 * 51 + 1..400)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// A forecast as `(value bits, MAE bits, predictor name)`.
fn forecast_bits(f: Option<Forecast>) -> Option<(u64, u64, String)> {
    f.map(|f| (f.value.to_bits(), f.mae.to_bits(), f.predictor))
}

/// Every predictor's `(name, MAE bits, RMSE bits)`.
fn score_bits(scores: Vec<(String, f64, f64)>) -> Vec<(String, u64, u64)> {
    scores
        .into_iter()
        .map(|(name, mae, rmse)| (name, mae.to_bits(), rmse.to_bits()))
        .collect()
}

/// CPU availability samples: in-range values with many duplicates,
/// signed zeros, NaNs of both signs, infinities, subnormals and values
/// outside `[0, 1]` (the service clamps them on the way in).
fn cpu_value() -> impl Strategy<Value = f64> {
    const ODD: [f64; 11] = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 4.0,
        1.5,
        -0.25,
        3.0,
        f64::MAX,
    ];
    prop_oneof![
        10 => (0..6usize).prop_map(|i| ALPHABET[i]),
        8 => 0.0f64..1.0,
        1 => (0..ODD.len()).prop_map(|i| ODD[i]),
    ]
}

/// One step of a CPU-bank script.
#[derive(Debug, Clone)]
enum BankOp {
    /// `observe_cpu_all` over hosts `0..values.len()`.
    All(Vec<f64>),
    /// `observe_cpu` on one host, possibly past every batch.
    One(u32, f64),
}

/// A host count in 1..=200 (the dirty-host bitset spans up to four
/// words) and a script of batch rounds, most over every host, mixed with
/// single observations on ids up to 64 past the batches, so some hosts
/// are never measured. The longer scripts fill all three windows.
fn bank_script() -> impl Strategy<Value = (usize, Vec<BankOp>)> {
    (1usize..=200).prop_flat_map(|hosts| {
        let len = prop_oneof![3 => Just(hosts), 1 => 1..=hosts];
        let all = len.prop_flat_map(|n| proptest::collection::vec(cpu_value(), n));
        let op = prop_oneof![
            6 => all.prop_map(BankOp::All),
            1 => (0..hosts as u32 + 64, cpu_value()).prop_map(|(h, v)| BankOp::One(h, v)),
        ];
        (Just(hosts), proptest::collection::vec(op, 1..200))
    })
}

#[test]
fn oracle_battery_mirrors_the_standard_battery() {
    let names = |b: Vec<Box<dyn Predictor + Send + Sync>>| -> Vec<String> {
        b.iter().map(|p| p.name()).collect()
    };
    assert_eq!(names(oracle_battery()), names(standard_battery()));
}

proptest! {
    /// Window-based predictors forecast within the range of their window
    /// (means and medians cannot extrapolate beyond observed values).
    #[test]
    fn window_predictors_bounded(vals in series(), k in 1usize..20) {
        let mut mean = SlidingMean::new(k);
        let mut median = SlidingMedian::new(k);
        for &v in &vals {
            mean.update(v);
            median.update(v);
        }
        let window: Vec<f64> = vals.iter().rev().take(k).copied().collect();
        let lo = window.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let m = mean.predict().unwrap();
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        let md = median.predict().unwrap();
        prop_assert!(md >= lo - 1e-9 && md <= hi + 1e-9);
    }

    /// The trimmed mean is bounded by the untrimmed window range too.
    #[test]
    fn trimmed_mean_bounded(vals in series()) {
        let mut tm = TrimmedMean::new(9, 2);
        for &v in &vals {
            tm.update(v);
        }
        let window: Vec<f64> = vals.iter().rev().take(9).copied().collect();
        let lo = window.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let p = tm.predict().unwrap();
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    /// The ensemble always produces a forecast after ≥1 measurement, with
    /// non-negative MAE, and is fully deterministic.
    #[test]
    fn ensemble_total_and_deterministic(vals in series()) {
        let run = |vs: &[f64]| {
            let mut e = Ensemble::standard();
            for &v in vs {
                e.update(v);
            }
            e.forecast().unwrap()
        };
        let f1 = run(&vals);
        let f2 = run(&vals);
        prop_assert_eq!(f1.clone(), f2);
        prop_assert!(f1.mae >= 0.0);
        prop_assert!(f1.value.is_finite());
    }

    /// On a constant signal every scored predictor converges to the value
    /// and the winner's MAE is (near) zero.
    #[test]
    fn constant_signal_perfect(v in 0.0f64..1000.0, n in 2usize..60) {
        let mut e = Ensemble::standard();
        for _ in 0..n {
            e.update(v);
        }
        let f = e.forecast().unwrap();
        prop_assert!((f.value - v).abs() < 1e-9);
        prop_assert!(f.mae < 1e-9);
    }

    /// The winning predictor's MAE is minimal among all scored predictors.
    #[test]
    fn winner_has_min_mae(vals in proptest::collection::vec(0.0f64..100.0, 5..80)) {
        let mut e = Ensemble::standard();
        for &v in &vals {
            e.update(v);
        }
        let f = e.forecast().unwrap();
        for (name, mae, _) in e.scores() {
            if mae.is_finite() {
                prop_assert!(f.mae <= mae + 1e-9, "{} beats winner: {} < {}", name, mae, f.mae);
            }
        }
    }

    /// The sorted-window predictors serve bitwise what sorting the window
    /// on every `predict()` serves, after every update.
    #[test]
    fn windowed_predictors_match_sort_on_predict(
        (k, vals) in windowed_series(),
        trim_seed in 0usize..30,
    ) {
        let trim = trim_seed % k.div_ceil(2);
        let mut median = SlidingMedian::new(k);
        let mut trimmed = TrimmedMean::new(k, trim);
        let mut want_median = oracle_median(k);
        let mut want_trimmed = oracle_trimmed(k, trim);
        prop_assert_eq!(median.predict(), None);
        prop_assert_eq!(trimmed.predict(), None);
        for (i, &v) in vals.iter().enumerate() {
            median.update(v);
            trimmed.update(v);
            want_median.update(v);
            want_trimmed.update(v);
            prop_assert_eq!(
                bits(median.predict()),
                bits(want_median.predict()),
                "median k={} step {}", k, i
            );
            prop_assert_eq!(
                bits(trimmed.predict()),
                bits(want_trimmed.predict()),
                "trimmed k={} trim={} step {}", k, trim, i
            );
        }
    }

    /// The fused standard battery serves bitwise what the boxed
    /// [`standard_battery`] serves, at every step: the forecast, its
    /// value-only twin and every predictor's name, MAE and RMSE bits.
    #[test]
    fn fused_battery_matches_boxed_battery_bitwise(vals in long_series()) {
        let mut fused = Ensemble::standard();
        let mut boxed = BoxedEnsemble::new(standard_battery());
        prop_assert_eq!(score_bits(fused.scores()), score_bits(boxed.scores()));
        for (i, &v) in vals.iter().enumerate() {
            fused.update(v);
            boxed.update(v);
            prop_assert_eq!(forecast_bits(fused.forecast()), forecast_bits(boxed.forecast()), "step {}", i);
            prop_assert_eq!(
                bits(fused.forecast_value()),
                bits(boxed.forecast_value()),
                "value, step {}", i
            );
            prop_assert_eq!(bits(fused.last_measurement()), bits(boxed.last), "last, step {}", i);
            prop_assert_eq!(score_bits(fused.scores()), score_bits(boxed.scores()), "scores, step {}", i);
        }
    }

    /// The cached winner is the naive argmin over `scores()` order (ties
    /// to the earlier entry, unscored predictors at infinite MAE), with
    /// each candidate's forecast taken from the sort-on-predict oracle
    /// battery; an ensemble over the oracle battery agrees bitwise.
    #[test]
    fn ensemble_cache_matches_naive_argmin(
        vals in proptest::collection::vec(alphabet(), 1..160),
    ) {
        let mut e = Ensemble::standard();
        let mut mirror = BoxedEnsemble::new(oracle_battery());
        let mut oracles = oracle_battery();
        for (i, &v) in vals.iter().enumerate() {
            e.update(v);
            mirror.update(v);
            for p in &mut oracles {
                p.update(v);
            }
            let mut best: Option<(f64, usize, f64)> = None;
            for (j, ((_, mae, _), p)) in e.scores().into_iter().zip(&oracles).enumerate() {
                let Some(pred) = p.predict() else { continue };
                let mae = if mae.is_nan() { f64::INFINITY } else { mae };
                if best.is_none_or(|(bmae, _, _)| mae < bmae) {
                    best = Some((mae, j, pred));
                }
            }
            let (mae, j, value) = best.expect("a measured ensemble forecasts");
            let f = e.forecast().expect("a measured ensemble forecasts");
            prop_assert_eq!(f.value.to_bits(), value.to_bits(), "value, step {}", i);
            prop_assert_eq!(bits(e.forecast_value()), Some(value.to_bits()), "step {}", i);
            let mae = if mae.is_finite() { mae } else { 0.0 };
            prop_assert_eq!(f.mae.to_bits(), mae.to_bits(), "mae, step {}", i);
            prop_assert_eq!(&f.predictor, &oracles[j].name(), "step {}", i);
            prop_assert_eq!(Some(f), mirror.forecast(), "oracle ensemble, step {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The service's CPU bank serves bitwise what one [`BoxedEnsemble`]
    /// per host serves, after every batch round and every single
    /// observation, on every host including the never-measured ones:
    /// `forecast_cpu` (value bits, MAE bits, name),
    /// `forecast_cpu_or_idle` and `last_cpu_measurement`. With delta
    /// tracking on, the dirty hosts are exactly those whose served bits
    /// differ from the idle baseline (nothing is ever captured).
    #[test]
    fn cpu_bank_matches_boxed_ensembles_bitwise(
        (hosts, script) in bank_script(),
        tracked in (0u8..2).prop_map(|b| b == 1),
    ) {
        let span = hosts + 64;
        let mut nws = NwsService::new();
        if tracked {
            nws.enable_delta_tracking();
        }
        let mut want: Vec<Option<BoxedEnsemble>> = (0..span).map(|_| None).collect();
        let observe = |want: &mut [Option<BoxedEnsemble>], h: usize, v: f64| {
            want[h]
                .get_or_insert_with(|| BoxedEnsemble::new(standard_battery()))
                .update(v.clamp(0.0, 1.0));
        };
        for (step, op) in script.into_iter().enumerate() {
            match op {
                BankOp::All(values) => {
                    nws.observe_cpu_all(&values);
                    for (h, &v) in values.iter().enumerate() {
                        observe(&mut want, h, v);
                    }
                }
                BankOp::One(h, v) => {
                    nws.observe_cpu(HostId(h), v);
                    observe(&mut want, h as usize, v);
                }
            }
            let mut dirty = Vec::new();
            for (h, e) in want.iter().enumerate() {
                let host = HostId(h as u32);
                let served = nws.forecast_cpu_or_idle(host);
                prop_assert_eq!(
                    forecast_bits(nws.forecast_cpu(host)),
                    forecast_bits(e.as_ref().and_then(BoxedEnsemble::forecast)),
                    "forecast, step {} host {}", step, h
                );
                prop_assert_eq!(
                    served.to_bits(),
                    e.as_ref().and_then(BoxedEnsemble::forecast_value).unwrap_or(1.0).to_bits(),
                    "served, step {} host {}", step, h
                );
                prop_assert_eq!(
                    bits(nws.last_cpu_measurement(host)),
                    bits(e.as_ref().and_then(|e| e.last)),
                    "last, step {} host {}", step, h
                );
                if tracked && served.to_bits() != 1.0f64.to_bits() {
                    dirty.push(host);
                }
            }
            prop_assert_eq!(nws.dirty_hosts(), dirty, "dirty hosts, step {}", step);
        }
    }
}
