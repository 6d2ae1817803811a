//! Deterministic metrics: counters, gauges and fixed-bucket histograms,
//! with a stable snapshot and a hand-rolled JSON export (no serde in the
//! offline build environment).
//!
//! Everything here is a pure function of the sequence of recording calls:
//! keys aggregate in `BTreeMap`s (stable iteration), histogram bucket
//! edges are compile-time constants, and floating-point accumulation
//! happens in call order — so two runs that record the same values in the
//! same order produce bit-identical snapshots and byte-identical JSON.

use crate::json::{push_number, push_string};
use std::collections::BTreeMap;

/// Histogram bucket upper bounds (`le` semantics, log-decade spacing).
/// An observation `v` lands in the first bucket with `v <= le`; values
/// above the last edge land in the overflow bucket. The edges cover the
/// virtual-second range the decision loop lives in (sub-millisecond
/// kernel work up to multi-thousand-second application phases) and double
/// as size buckets for dirty-set cardinalities.
pub const HISTOGRAM_LE: [f64; 8] = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4];

/// A fixed-bucket histogram over virtual-time quantities.
///
/// Buckets are [`HISTOGRAM_LE`] plus one overflow bucket. `min`/`max` are
/// `0.0` while `count == 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (accumulated in record order).
    pub sum: f64,
    /// Smallest observation, or `0.0` when empty.
    pub min: f64,
    /// Largest observation, or `0.0` when empty.
    pub max: f64,
    /// Per-bucket counts: `buckets[i]` counts observations with
    /// `v <= HISTOGRAM_LE[i]` (exclusive of earlier buckets); the last
    /// entry is the overflow bucket.
    pub buckets: [u64; HISTOGRAM_LE.len() + 1],
    /// Observations strictly below the lowest edge. They still count in
    /// `buckets[0]` (cumulative `le` semantics), but without this counter
    /// the clamp is silent: a `1e-9` and a `1e-3` sample are
    /// indistinguishable, hiding samples the log-decade range cannot
    /// resolve.
    pub underflow: u64,
    /// Observations strictly above the highest edge — the same count as
    /// the last (overflow) bucket, surfaced by name so range blowouts are
    /// visible without knowing the bucket layout.
    pub overflow: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_LE.len() + 1],
            underflow: 0,
            overflow: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = HISTOGRAM_LE
            .iter()
            .position(|&le| v <= le)
            .unwrap_or(HISTOGRAM_LE.len());
        self.buckets[idx] += 1;
        if v < HISTOGRAM_LE[0] {
            self.underflow += 1;
        } else if v > HISTOGRAM_LE[HISTOGRAM_LE.len() - 1] {
            self.overflow += 1;
        }
    }

    /// Mean observation, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The mutable registry behind an `Obs` handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Add `delta` to a named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set a named gauge (last write wins).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record an observation into a named histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Deterministic point-in-time copy, sorted by metric name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }
}

/// An immutable, name-sorted copy of a [`Registry`].
///
/// `PartialEq` is bitwise on every float, which is what the determinism
/// regression wants: two runs compare equal only if they recorded
/// numerically identical streams.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a JSON object. Key order is the snapshot's (sorted)
    /// order and float formatting is Rust's shortest round-trip notation,
    /// so equal snapshots serialize byte-identically — benches diff runs
    /// by diffing this string.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, &self.gauges, |out, v| push_number(out, *v));
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, &self.histograms, |out, h| {
            out.push_str("{\"count\": ");
            out.push_str(&h.count.to_string());
            out.push_str(", \"sum\": ");
            push_number(out, h.sum);
            out.push_str(", \"min\": ");
            push_number(out, h.min);
            out.push_str(", \"max\": ");
            push_number(out, h.max);
            out.push_str(", \"le\": [");
            for (i, le) in HISTOGRAM_LE.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_number(out, *le);
            }
            out.push_str(", null], \"buckets\": [");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push_str("], \"underflow\": ");
            out.push_str(&h.underflow.to_string());
            out.push_str(", \"overflow\": ");
            out.push_str(&h.overflow.to_string());
            out.push('}');
        });
        out.push_str("}\n}");
        out
    }
}

fn push_entries<V>(
    out: &mut String,
    entries: &[(String, V)],
    mut push_val: impl FnMut(&mut String, &V),
) {
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_string(out, k);
        out.push_str(": ");
        push_val(out, v);
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0.0005, 0.5, 0.5, 50.0, 1e6] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.0005);
        assert_eq!(h.max, 1e6);
        assert_eq!(h.buckets[0], 1); // <= 1e-3
        assert_eq!(h.buckets[3], 2); // <= 1.0
        assert_eq!(h.buckets[5], 1); // <= 1e2
        assert_eq!(h.buckets[HISTOGRAM_LE.len()], 1); // overflow
        assert!((h.mean() - (0.0005 + 0.5 + 0.5 + 50.0 + 1e6) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_samples_are_counted_not_silently_clamped() {
        let mut h = Histogram::default();
        h.observe(1e-9); // below the lowest edge
        h.observe(0.5); // in range
        h.observe(1e-3); // exactly on the lowest edge: NOT underflow
        h.observe(1e4); // exactly on the highest edge: NOT overflow
        h.observe(1e9); // above the highest edge
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        // Bucket counts keep their cumulative-le shape unchanged.
        assert_eq!(h.buckets[0], 2, "1e-9 and 1e-3 both land in bucket 0");
        assert_eq!(h.buckets[HISTOGRAM_LE.len() - 1], 1, "1e4 in last edge");
        assert_eq!(h.buckets[HISTOGRAM_LE.len()], 1, "1e9 in overflow bucket");
        assert_eq!(h.overflow, h.buckets[HISTOGRAM_LE.len()]);
        let mut r = Registry::default();
        r.observe("h", 1e-9);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"underflow\": 1"));
        assert!(json.contains("\"overflow\": 0"));
    }

    #[test]
    fn bucket_edges_are_le_inclusive() {
        let mut h = Histogram::default();
        h.observe(1.0);
        assert_eq!(h.buckets[3], 1, "exactly-on-edge lands in that bucket");
    }

    #[test]
    fn registry_snapshot_is_sorted_and_stable() {
        let mut r = Registry::default();
        r.counter_add("z", 1);
        r.counter_add("a", 2);
        r.counter_add("z", 3);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        r.observe("h", 0.1);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_string(), 2), ("z".to_string(), 4)]);
        assert_eq!(s.gauge("g"), Some(2.5));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s, r.snapshot());
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut r = Registry::default();
        r.counter_add("with \"quote\"", 1);
        r.gauge_set("g", 0.25);
        r.observe("h", 2.0);
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\"quote\\\""));
        assert!(a.contains("\"g\": 0.25"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn empty_snapshot_serializes() {
        let s = MetricsSnapshot::default();
        assert_eq!(
            s.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}"
        );
    }
}
