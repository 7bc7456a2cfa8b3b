//! Zero-dependency log-bucketed latency histograms.
//!
//! A [`Histogram`] records `u64` samples (cycle latencies, queue waits,
//! migration costs) into 65 power-of-two buckets: bucket 0 holds the value
//! zero and bucket `b` holds `[2^(b-1), 2^b)`. That gives a fixed-size,
//! allocation-free structure whose quantile estimates are deterministic —
//! two runs recording the same multiset of samples produce bit-identical
//! summaries and JSON, which the byte-identical fleet-telemetry tests rely
//! on.
//!
//! Merging is exact bucket-wise addition (`count`/`sum` wrap modulo 2^64),
//! so merge is associative and commutative: folding per-tenant histograms
//! in any order — or across soak episodes — yields the same result as one
//! histogram that saw every sample. `tests/trace_determinism.rs` pins this
//! down as a `forall!` property.

use crate::json::Json;

/// Number of log buckets: one for zero plus one per bit width of `u64`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable, deterministic log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[b]` counts `[2^(b-1), 2^b)`.
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    /// Sum of all samples, modulo 2^64 (wrapping keeps merge associative).
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index of a value: 0 for zero, else its bit width.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (used as the quantile estimate).
fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in O(1).
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] = self.buckets[bucket_of(value)].wrapping_add(n);
        self.count = self.count.wrapping_add(n);
        self.sum = self.sum.wrapping_add(value.wrapping_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Exact, associative, and commutative:
    /// the result is identical to one histogram that recorded both
    /// histograms' samples, in any order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.wrapping_add(*o);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples (modulo 2^64).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples, modulo 2^64.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (zero on an empty histogram).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Deterministic quantile estimate: the inclusive upper bound of the
    /// bucket containing the `q`-quantile rank, clamped to the exact
    /// observed `[min, max]` range — so `quantile(1.0) == max()` and the
    /// estimates are monotone in `q` (p50 ≤ p90 ≤ p99 ≤ max, the invariant
    /// `tracecheck fleetstats` validates).
    #[must_use]
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (see `Histogram::quantile`).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// One-line summary (`count=.. p50=.. p90=.. p99=.. max=..`).
    ///
    /// An empty histogram has no defined quantiles; rather than print the
    /// numeric placeholders (`quantile` returns 0, which reads as "the
    /// p99 latency was zero cycles"), empty lanes render every statistic
    /// as `-`. The JSON export is unaffected — `to_json` keeps numeric
    /// zeros so every field `tracecheck fleetstats` reads stays a number.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "count=0 p50=- p90=- p99=- max=-".to_string();
        }
        format!(
            "count={} p50={} p90={} p99={} max={}",
            self.count,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max()
        )
    }

    /// JSON object with the summary statistics and the sparse non-empty
    /// buckets, in a fixed field order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = self.buckets.iter().enumerate().filter(|&(_, &n)| n > 0);
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min().into()),
            ("p50", self.p50().into()),
            ("p90", self.p90().into()),
            ("p99", self.p99().into()),
            ("max", self.max().into()),
            ("buckets", Json::obj(buckets.map(|(i, &n)| (i.to_string(), n.into())))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in [3u64, 5, 9, 100, 1000, 1001] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1001);
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max(), "{p50} {p90} {p99}");
        assert_eq!(h.quantile(1.0), 1001, "top quantile is the exact max");
        assert!(h.quantile(0.0) >= 3, "estimates never dip below min");
    }

    /// Zero-observation histograms: every quantile is a defined value (no
    /// division by zero, no bucket interpolation off the end), the JSON
    /// keeps its numeric schema, and the human rendering shows `-` so an
    /// empty lane can't masquerade as "p99 was 0 cycles".
    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.render(), "count=0 p50=- p90=- p99=- max=-");
        // The JSON schema stays numeric (the fleetstats validator reads
        // the quantile fields as u64s).
        let json = h.to_json();
        for key in ["count", "p50", "p99"] {
            assert_eq!(json.get(key).and_then(Json::u64), Some(0), "{key}");
        }
    }

    /// One-observation histograms: every quantile is clamped to the single
    /// sample — never interpolated past it, never zero.
    #[test]
    fn single_sample_quantiles_are_the_sample() {
        for v in [0u64, 1, 7, 1000, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "quantile({q}) of single sample {v}");
            }
            assert_eq!(h.render(), format!("count=1 p50={v} p90={v} p99={v} max={v}"));
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (i, v) in [0u64, 1, 7, 7, 64, 900, 17].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            whole.record(*v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Commutes.
        let mut other = b;
        other.merge(&a);
        assert_eq!(other, whole);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new();
        bulk.record_n(42, 5);
        let mut loop_ = Histogram::new();
        for _ in 0..5 {
            loop_.record(42);
        }
        assert_eq!(bulk, loop_);
    }

    #[test]
    fn json_is_wellformed_and_ordered() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        let json = h.to_json();
        let keys: Vec<&str> = json.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["count", "sum", "min", "p50", "p90", "p99", "max", "buckets"]);
        assert_eq!(
            h.to_json().to_string(),
            r#"{"count":2,"sum":5,"min":0,"p50":0,"p90":5,"p99":5,"max":5,"buckets":{"0":1,"3":1}}"#
        );
    }
}
