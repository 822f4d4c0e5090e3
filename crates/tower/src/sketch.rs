//! Deterministic log-bucket quantile sketch.
//!
//! Tower ingests one cycle-delta observation per node per round and must
//! answer percentile queries over millions of observations without
//! retaining them. The sketch is a fixed array of buckets: values below
//! [`LINEAR_MAX`] land in exact unit buckets, larger values in
//! log-linear buckets with [`SUBBUCKETS`] subdivisions per octave
//! (relative error bounded by `1/SUBBUCKETS` ≈ 6%). Everything is
//! integer-only and the bucket layout is a pure function of the value,
//! so the sketch depends only on the multiset of observations, never on
//! their order.

/// Values below this are counted exactly, one bucket per value.
const LINEAR_MAX: u64 = 32;
/// Log-linear subdivisions per octave above `LINEAR_MAX`.
const SUBBUCKETS: usize = 16;
/// 32 exact buckets + 16 sub-buckets for each octave 5..=63.
const BUCKETS: usize = LINEAR_MAX as usize + (64 - 5) * SUBBUCKETS;

/// Bucket index for a value. Total order on values maps to a monotone
/// (non-strict) order on buckets, so quantiles read off a prefix scan.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 5
    let sub = ((v >> (msb - 4)) & 0xf) as usize;
    LINEAR_MAX as usize + (msb - 5) * SUBBUCKETS + sub
}

/// Representative (lower-bound) value for a bucket index.
fn value_of(bucket: usize) -> u64 {
    if bucket < LINEAR_MAX as usize {
        return bucket as u64;
    }
    let b = bucket - LINEAR_MAX as usize;
    let msb = b / SUBBUCKETS + 5;
    let sub = (b % SUBBUCKETS) as u64;
    (1u64 << msb) | (sub << (msb - 4))
}

/// Streaming quantile sketch over `u64` observations.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    pub fn new() -> Self {
        QuantileSketch { buckets: Box::new([0; BUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of every observation (floor division; 0 when empty).
    /// Exact — the sum and count are tracked outside the buckets.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Quantile in per-myriad (p50 = 5000, p99 = 9900). Returns the
    /// lower bound of the bucket holding the q-th observation, clamped
    /// to the exact observed maximum so p100 is never an overestimate.
    pub fn quantile(&self, q_per_myriad: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * q_per_myriad).div_ceil(10_000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Deterministic JSON summary (fixed key order, integers only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.quantile(5000),
            self.quantile(9000),
            self.quantile(9900)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_self_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket order broke at {v}");
            assert!(value_of(b) <= v, "lower bound exceeds value at {v}");
            prev = b;
        }
        // Lower bound of a bucket maps back to the same bucket.
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(value_of(b)), b, "bucket {b} round-trip");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..LINEAR_MAX {
            s.observe(v);
        }
        assert_eq!(s.quantile(1), 0);
        assert_eq!(s.quantile(5000), 15);
        assert_eq!(s.quantile(10_000), LINEAR_MAX - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut s = QuantileSketch::new();
        for v in 1..=100_000u64 {
            s.observe(v * 7 + 13);
        }
        for q in [1000u64, 2500, 5000, 9000, 9900, 9999] {
            let exact = (100_000 * q).div_ceil(10_000).max(1) * 7 + 13;
            let est = s.quantile(q);
            assert!(est <= exact, "q{q}: estimate {est} above exact {exact}");
            let err = (exact - est) * 100 / exact;
            assert!(err <= 7, "q{q}: relative error {err}% too large");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut s = QuantileSketch::new();
        assert_eq!(s.mean(), 0);
        for v in [10u64, 20, 31] {
            s.observe(v);
        }
        assert_eq!(s.mean(), 20);
        // Mean stays exact above the linear range (buckets only bound the
        // quantiles, not the sum).
        s.observe(1_000_000);
        assert_eq!(s.mean(), (10 + 20 + 31 + 1_000_000) / 4);
    }

    #[test]
    fn empty_sketch_renders_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(
            s.to_json(),
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0}"
        );
    }
}
