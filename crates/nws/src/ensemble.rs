//! Dynamic predictor selection: run the whole predictor battery, track each
//! predictor's historical error, and forecast with the current best.
//!
//! This is the method the Network Weather Service uses to stay accurate
//! across wildly different signal regimes (stable LAN bandwidth vs. bursty
//! CPU availability) without per-signal tuning.

use crate::predictors::{Predictor, StandardBattery, STANDARD_LEN, STANDARD_NAMES};

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

/// One predictor's outstanding forecast and error record.
struct Tracked {
    /// The predictor's forecast for the current state: the outstanding
    /// forecast the next measurement scores.
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

/// The predictor with the lowest MAE among those that forecast, as
/// `(mae, index, forecast)`; ties go to the earlier battery entry.
fn select(tracked: &[Tracked]) -> Option<(f64, usize, f64)> {
    let mut best: Option<(f64, usize, f64)> = None;
    let mut leader: Option<&Tracked> = None;
    for (i, t) in tracked.iter().enumerate() {
        let Some(pred) = t.next else {
            continue;
        };
        // Dividing by the same count is monotone, so a predictor scored
        // as often as the leader with no smaller error sum cannot have a
        // smaller MAE: skip its division.
        if leader.is_some_and(|l| l.n_scored == t.n_scored && t.abs_err_sum >= l.abs_err_sum) {
            continue;
        }
        let mae = t.mae();
        match best {
            Some((bmae, _, _)) if mae >= bmae => {}
            _ => {
                best = Some((mae, i, pred));
                leader = Some(t);
            }
        }
    }
    best
}

/// An ensemble forecaster with NWS-style dynamic predictor selection.
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
    /// The fused standard battery, run unless `custom` is non-empty.
    standard: StandardBattery,
    /// A custom set of boxed predictors (the test-oracle path); empty for
    /// the standard battery.
    custom: Vec<Box<dyn Predictor + Send + Sync>>,
    /// Scores, one per predictor in battery order.
    tracked: Vec<Tracked>,
    n_updates: u64,
    last: Option<f64>,
    /// The current winner as `(mae, battery index, forecast)`, chosen
    /// once per [`Ensemble::update`] so every forecast read is O(1).
    best: Option<(f64, usize, f64)>,
}

impl Ensemble {
    /// Ensemble over the standard NWS predictor battery, run as one fused
    /// battery (a single sample ring and three sorted windows instead of
    /// twelve boxed predictors): bit-identical to
    /// `Ensemble::new(standard_battery())`.
    pub fn standard() -> Self {
        Self::with_custom(Vec::new(), vec![None; STANDARD_LEN])
    }

    /// Ensemble over a custom predictor set.
    pub fn new(predictors: Vec<Box<dyn Predictor + Send + Sync>>) -> Self {
        assert!(!predictors.is_empty(), "ensemble needs predictors");
        let next = predictors.iter().map(|p| p.predict()).collect();
        Self::with_custom(predictors, next)
    }

    /// An unscored ensemble over `custom`, or over the fused battery when
    /// `custom` is empty; `next` holds each predictor's first forecast.
    fn with_custom(custom: Vec<Box<dyn Predictor + Send + Sync>>, next: Vec<Option<f64>>) -> Self {
        let tracked: Vec<Tracked> = next
            .into_iter()
            .map(|next| Tracked {
                next,
                abs_err_sum: 0.0,
                sq_err_sum: 0.0,
                n_scored: 0,
            })
            .collect();
        Ensemble {
            standard: StandardBattery::new(),
            custom,
            best: select(&tracked),
            tracked,
            n_updates: 0,
            last: None,
        }
    }

    /// Feed one measurement: score every predictor's outstanding forecast
    /// against it, let every predictor absorb it, and select the winner
    /// that [`Ensemble::forecast`] serves until the next update: the lowest
    /// mean absolute error, ties to the earlier battery entry.
    pub fn update(&mut self, value: f64) {
        if self.custom.is_empty() {
            let next = self.standard.update(value);
            for (t, next) in self.tracked.iter_mut().zip(next) {
                t.absorb(value, Some(next));
            }
        } else {
            for (t, p) in self.tracked.iter_mut().zip(&mut self.custom) {
                p.update(value);
                t.absorb(value, p.predict());
            }
        }
        self.best = select(&self.tracked);
        self.n_updates += 1;
        self.last = Some(value);
    }

    /// Name of the `i`-th predictor in battery order.
    fn name(&self, i: usize) -> String {
        match self.custom.get(i) {
            Some(p) => p.name(),
            None => STANDARD_NAMES[i].to_string(),
        }
    }

    /// Number of measurements absorbed.
    pub fn len(&self) -> u64 {
        self.n_updates
    }

    /// True if no measurements have been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.n_updates == 0
    }

    /// Most recent raw measurement.
    pub fn last_measurement(&self) -> Option<f64> {
        self.last
    }

    /// [`Ensemble::forecast`]'s value alone, without the predictor-name
    /// allocation: bit-identical to `forecast().value`. This is the read
    /// of every value-only consumer (capture, transfer estimates, the
    /// delta-capture dirty check in [`crate::monitor::NwsService`]).
    pub fn forecast_value(&self) -> Option<f64> {
        self.best.map(|(_, _, value)| value)
    }

    /// Forecast the next value using the predictor with the lowest mean
    /// absolute error so far. Ties break toward the earlier battery entry
    /// (deterministic). `None` until at least one measurement has arrived.
    pub fn forecast(&self) -> Option<Forecast> {
        self.best.map(|(mae, i, value)| Forecast {
            value,
            mae: if mae.is_finite() { mae } else { 0.0 },
            predictor: self.name(i),
        })
    }

    /// Per-predictor `(name, mae, rmse)` diagnostics. Predictors that have
    /// not been scored yet report `NaN`.
    pub fn scores(&self) -> Vec<(String, f64, f64)> {
        self.tracked
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let (mae, rmse) = if t.n_scored > 0 {
                    (
                        t.abs_err_sum / t.n_scored as f64,
                        (t.sq_err_sum / t.n_scored as f64).sqrt(),
                    )
                } else {
                    (f64::NAN, f64::NAN)
                };
                (self.name(i), mae, rmse)
            })
            .collect()
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
