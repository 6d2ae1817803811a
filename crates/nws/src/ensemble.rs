//! Dynamic predictor selection: run the whole predictor battery, track each
//! predictor's historical error, and forecast with the current best.
//!
//! This is the method the Network Weather Service uses to stay accurate
//! across wildly different signal regimes (stable LAN bandwidth vs. bursty
//! CPU availability) without per-signal tuning.

use crate::predictors::{standard_battery, Predictor};

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

struct Tracked {
    predictor: Box<dyn Predictor + Send + Sync>,
    /// `predictor.predict()` for the current state: the outstanding
    /// forecast the next measurement scores.
    next: Option<f64>,
    abs_err_sum: f64,
    sq_err_sum: f64,
    n_scored: u64,
}

impl Tracked {
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
    for (i, t) in tracked.iter().enumerate() {
        let Some(pred) = t.next else {
            continue;
        };
        let mae = t.mae();
        match best {
            Some((bmae, _, _)) if mae >= bmae => {}
            _ => best = Some((mae, i, pred)),
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
    tracked: Vec<Tracked>,
    n_updates: u64,
    last: Option<f64>,
    /// The current winner as `(mae, battery index, forecast)`, chosen
    /// once per [`Ensemble::update`] so every forecast read is O(1).
    best: Option<(f64, usize, f64)>,
}

impl Ensemble {
    /// Ensemble over the standard NWS predictor battery.
    pub fn standard() -> Self {
        Self::new(standard_battery())
    }

    /// Ensemble over a custom predictor set.
    pub fn new(predictors: Vec<Box<dyn Predictor + Send + Sync>>) -> Self {
        assert!(!predictors.is_empty(), "ensemble needs predictors");
        let tracked: Vec<Tracked> = predictors
            .into_iter()
            .map(|p| Tracked {
                next: p.predict(),
                predictor: p,
                abs_err_sum: 0.0,
                sq_err_sum: 0.0,
                n_scored: 0,
            })
            .collect();
        Ensemble {
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
        for t in &mut self.tracked {
            if let Some(pred) = t.next {
                let e = pred - value;
                t.abs_err_sum += e.abs();
                t.sq_err_sum += e * e;
                t.n_scored += 1;
            }
            t.predictor.update(value);
            t.next = t.predictor.predict();
        }
        self.best = select(&self.tracked);
        self.n_updates += 1;
        self.last = Some(value);
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
            predictor: self.tracked[i].predictor.name(),
        })
    }

    /// Per-predictor `(name, mae, rmse)` diagnostics. Predictors that have
    /// not been scored yet report `NaN`.
    pub fn scores(&self) -> Vec<(String, f64, f64)> {
        self.tracked
            .iter()
            .map(|t| {
                let (mae, rmse) = if t.n_scored > 0 {
                    (
                        t.abs_err_sum / t.n_scored as f64,
                        (t.sq_err_sum / t.n_scored as f64).sqrt(),
                    )
                } else {
                    (f64::NAN, f64::NAN)
                };
                (t.predictor.name(), mae, rmse)
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
