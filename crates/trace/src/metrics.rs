//! A registry of named monotonic counters and last-value gauges.
//!
//! Counters are monotonic `u64`s (cache accesses, retired instructions,
//! DRAM traffic); gauges are `f64` last-value samples (measured
//! cycles-per-iteration, miss rates). Each subsystem's `record_metrics`
//! writes its totals here, and [`MetricsRegistry::render`] prints them as a
//! plain-text table. `BTreeMap` storage keeps the table deterministically
//! ordered, which the byte-identical trace tests rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named monotonic counters and last-value gauges.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the monotonic counter `name` (creating it at zero).
    /// Counters wrap on overflow, like [`Histogram`](crate::Histogram)
    /// totals.
    pub fn add(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.wrapping_add(delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Plain-text table of every counter, then every gauge, each sorted by
    /// name.
    #[must_use]
    pub fn render(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
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
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_wrap_on_overflow_instead_of_panicking() {
        let mut m = MetricsRegistry::new();
        m.add("c", u64::MAX);
        m.add("c", 1);
        assert_eq!(m.counter("c"), 0);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = MetricsRegistry::new();
        m.add("mem.dram_accesses", 3);
        m.add("mem.dram_accesses", 4);
        m.gauge("accel.cycles_per_iter", 2.5);
        assert_eq!(m.counter("mem.dram_accesses"), 7);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge_value("accel.cycles_per_iter"), Some(2.5));
        assert_eq!(m.gauge_value("never"), None);
    }

    #[test]
    fn render_is_sorted_and_aligned() {
        let mut m = MetricsRegistry::new();
        m.add("zeta", 1);
        m.add("alpha", 2);
        m.gauge("mid", 0.5);
        assert_eq!(m.render(), "alpha  2\nzeta   1\nmid    0.500\n");
    }
}
