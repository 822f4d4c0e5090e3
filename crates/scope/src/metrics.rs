//! Metrics registry: named counters and cycle histograms with a stable,
//! hand-rendered JSON snapshot (fixed ordering, integer-only — the same
//! determinism discipline as the fleet telemetry).

use crate::event::Event;
use std::collections::BTreeMap;

/// Power-of-two-bucket histogram for cycle-valued observations.
///
/// Bucket `i` holds observations whose value has `i` significant bits, i.e.
/// `v == 0` lands in bucket 0 and otherwise `2^(i-1) <= v < 2^i`. Quantiles
/// are answered at bucket granularity (the bucket's inclusive upper edge) —
/// deterministic and integer-valued, which is what the byte-identical
/// telemetry discipline needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram { buckets: [0; 65], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl CycleHistogram {
    /// An empty histogram.
    pub fn new() -> CycleHistogram {
        CycleHistogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observation count.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub const fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// The quantile `q` (in per-myriad, e.g. 9900 for p99) at bucket
    /// granularity: the inclusive upper edge of the bucket containing the
    /// `ceil(q/10000 * count)`-th smallest observation, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q_per_myriad: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * q_per_myriad).div_ceil(10_000).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let edge = if i == 0 { 0 } else { (1u128 << i) - 1 };
                return (edge as u64).min(self.max);
            }
        }
        self.max
    }

    /// Stable JSON snapshot of the summary statistics.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.quantile(5000),
            self.quantile(9900),
        )
    }
}

/// Named counters + cycle histograms. Keys are sorted (BTreeMap), so the
/// JSON snapshot is deterministic for a given content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, CycleHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// Histogram `name`, if any observation was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&CycleHistogram> {
        self.histograms.get(name)
    }

    /// Whether no counter or histogram exists.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Counts `ev` under the `scope.<kind>` counter — the standard routing
    /// of a trace stream into metrics.
    pub fn record_event(&mut self, ev: &Event) {
        self.inc(&format!("scope.{}", ev.kind().name()), 1);
    }

    /// Stable JSON snapshot: `{"counters":{...},"histograms":{...}}` with
    /// keys in sorted order.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{}", h.to_json()));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = CycleHistogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // p50: 3rd smallest (3) lives in bucket 2 (2..=3), edge 3.
        assert_eq!(h.quantile(5000), 3);
        // p99: the 100 observation, bucket edge 127 clamped to max 100.
        assert_eq!(h.quantile(9900), 100);
        // Empty histogram.
        assert_eq!(CycleHistogram::new().quantile(9900), 0);
        assert_eq!(CycleHistogram::new().min(), 0);
    }

    #[test]
    fn histogram_zero_observation() {
        let mut h = CycleHistogram::new();
        h.observe(0);
        assert_eq!(h.quantile(5000), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn registry_json_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.inc("b.second", 2);
        m.inc("a.first", 1);
        m.observe("lat", 7);
        let j = m.to_json();
        assert!(j.starts_with("{\"counters\":{\"a.first\":1,\"b.second\":2},"));
        assert!(j.contains("\"histograms\":{\"lat\":{\"count\":1,"));
        assert_eq!(j, m.clone().to_json());
    }

    #[test]
    fn record_event_counts_by_kind() {
        let mut m = MetricsRegistry::new();
        m.record_event(&Event::Recovery { cycles: 1 });
        m.record_event(&Event::Recovery { cycles: 2 });
        assert_eq!(m.counter("scope.recovery"), 2);
    }
}
