//! A registry of named monotonic counters and gauges with a snapshot/diff
//! API, used to attribute simulated work to phases.
//!
//! Counters are monotonic `u64`s (cache accesses, retired instructions,
//! DRAM traffic); gauges are `f64` last-value samples (measured
//! cycles-per-iteration, miss rates). `BTreeMap` storage keeps rendering
//! and JSON export deterministically ordered, which the byte-identical
//! trace tests rely on.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named monotonic counters, last-value gauges, and latency histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A point-in-time copy of a [`MetricsRegistry`], used to diff phases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values at snapshot time (or counter deltas, for a diff).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at snapshot time (latest value wins in a diff).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram state at snapshot time (latest state wins in a diff).
    pub histograms: BTreeMap<String, Histogram>,
}

/// Canonical flat key for a labeled counter: `name{k1=v1,k2=v2}` with the
/// labels sorted by key, so the same label set always maps to the same
/// `BTreeMap` entry regardless of call-site ordering.
#[must_use]
fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut key = String::from(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
    }
    key.push('}');
    key
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the monotonic counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Adds `delta` to the labeled counter `name{labels}` — e.g.
    /// `add_labeled("fabric.slices", &[("tenant", "2")], 1)` bumps
    /// `fabric.slices{tenant=2}`. Labels are canonicalized (sorted by
    /// key), so call-site ordering does not fragment the series.
    pub fn add_labeled(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let key = labeled_key(name, labels);
        *self.counters.entry(key).or_insert(0) += delta;
    }

    /// Records one sample into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Current value of counter `name` (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the labeled counter `name{labels}`.
    #[must_use]
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&labeled_key(name, labels)).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any sample has been observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Current value of gauge `name`, if set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Number of distinct counters, gauges, and histograms registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A point-in-time copy of every counter, gauge, and histogram.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// The change since `earlier`: counter deltas (saturating, so a reset
    /// in between reads as zero rather than wrapping) and the latest gauge
    /// and histogram states.
    #[must_use]
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Plain-text table of every counter and gauge, sorted by name.
    #[must_use]
    pub fn render(&self) -> String {
        self.snapshot().render()
    }

    /// JSON object `{"counters": {...}, "gauges": {...}}`, sorted by name.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

impl MetricsSnapshot {
    /// Plain-text table of every counter, gauge, and histogram, sorted by
    /// name within each group.
    #[must_use]
    pub fn render(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:width$}  {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:width$}  {v:.3}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "{k:width$}  {}", h.render());
        }
        out
    }

    /// JSON object `{"counters": {...}, "gauges": {...}, "histograms":
    /// {...}}`, sorted by name within each group. Non-finite gauges
    /// (degenerate runs) render as `null`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("counters", Json::obj(self.counters.iter().map(|(k, &v)| (k, v.into())))),
            ("gauges", Json::obj(self.gauges.iter().map(|(k, &v)| (k, Json::float(v))))),
            ("histograms", Json::obj(self.histograms.iter().map(|(k, h)| (k, h.to_json())))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = MetricsRegistry::new();
        m.add("mem.dram_accesses", 3);
        m.add("mem.dram_accesses", 4);
        m.gauge("accel.cycles_per_iter", 2.5);
        assert_eq!(m.counter("mem.dram_accesses"), 7);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge_value("accel.cycles_per_iter"), Some(2.5));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn diff_isolates_a_phase() {
        let mut m = MetricsRegistry::new();
        m.add("l1.accesses", 100);
        let warmup = m.snapshot();
        m.add("l1.accesses", 40);
        m.add("dram.accesses", 5);
        let d = m.diff(&warmup);
        assert_eq!(d.counters["l1.accesses"], 40);
        assert_eq!(d.counters["dram.accesses"], 5);
    }

    #[test]
    fn render_and_json_are_sorted_and_wellformed() {
        let mut m = MetricsRegistry::new();
        m.add("zeta", 1);
        m.add("alpha", 2);
        m.gauge("mid", 0.5);
        let text = m.render();
        let a = text.find("alpha").unwrap();
        let z = text.find("zeta").unwrap();
        assert!(a < z);
        let json = m.to_json().to_string();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"alpha\":2"));
        assert!(json.contains("\"mid\":0.5"));
        assert_eq!(crate::json::parse(&json).expect("metrics JSON parses").to_string(), json);
    }

    #[test]
    fn labeled_counters_canonicalize_label_order() {
        let mut m = MetricsRegistry::new();
        m.add_labeled("fabric.slices", &[("tenant", "2"), ("region", "r04")], 3);
        m.add_labeled("fabric.slices", &[("region", "r04"), ("tenant", "2")], 4);
        assert_eq!(m.counter("fabric.slices{region=r04,tenant=2}"), 7);
        assert_eq!(
            m.labeled_counter("fabric.slices", &[("tenant", "2"), ("region", "r04")]),
            7
        );
    }

    #[test]
    fn histograms_register_render_and_export() {
        let mut m = MetricsRegistry::new();
        m.observe("fabric.queue_wait_cycles", 100);
        m.observe("fabric.queue_wait_cycles", 900);
        assert_eq!(m.histogram("fabric.queue_wait_cycles").map(|h| h.count()), Some(2));
        assert!(m.histogram("missing").is_none());
        assert_eq!(m.len(), 1);
        let text = m.render();
        assert!(text.contains("fabric.queue_wait_cycles"));
        assert!(text.contains("count=2"));
        let json = m.to_json();
        let count = json.at(&["histograms", "fabric.queue_wait_cycles", "count"]);
        assert_eq!(count, Some(&2u64.into()));
        // Snapshots round-trip histogram state.
        assert_eq!(m.snapshot(), m.diff(&MetricsSnapshot::default()));
    }

    #[test]
    fn non_finite_gauges_export_as_null() {
        let mut m = MetricsRegistry::new();
        m.gauge("bad", f64::NAN);
        let json = m.to_json().to_string();
        assert_eq!(json, r#"{"counters":{},"gauges":{"bad":null},"histograms":{}}"#);
    }
}
