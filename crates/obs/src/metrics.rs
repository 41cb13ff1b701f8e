//! The metrics registry's value types and their merge algebra.
//!
//! Worker threads accumulate into private [`MetricsSnapshot`] shards; at
//! session end the shards are merged into one snapshot. The merge is
//! **associative and commutative** (asserted by the property suite in
//! `tests/properties.rs`), so the merged snapshot is independent of how
//! work was partitioned across threads — the same algebraic contract the
//! parallel determinism battery (DESIGN.md §7) imposes on overlay shards
//! and degradation reports, extended here to observability aggregates.
//!
//! The arithmetic is integer-only by design: counters and histogram
//! sums are `u64`, so no merge order can introduce floating-point
//! reassociation drift into a manifest.

use std::collections::BTreeMap;

use serde_json::{Map, Number, Value};

/// Number of power-of-two histogram buckets (`u64` values need ≤ 64).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A set-style metric. Merging keeps the *latest* write, where "latest"
/// is decided by a session-scoped monotonic stamp — a max operation, hence
/// associative and commutative (ties break toward the larger value).
///
/// Gauges must only be set from serial code (stage boundaries on the
/// driving thread); a gauge raced from worker threads would merge
/// deterministically per-partition but carry a partition-dependent value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    /// Session-scoped write stamp (higher = later).
    pub stamp: u64,
    /// The recorded value.
    pub value: i64,
}

impl Gauge {
    /// Merges another gauge observation into this one (max by
    /// `(stamp, value)`).
    pub fn merge(&mut self, other: Gauge) {
        if (other.stamp, other.value) > (self.stamp, self.value) {
            *self = other;
        }
    }
}

/// A power-of-two-bucketed distribution of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observation (0 while empty).
    pub max: u64,
    /// `buckets[i]` counts observations `v` with `bit_len(v) == i`
    /// (so bucket 0 is exactly `v == 0`, bucket `i` spans
    /// `[2^(i-1), 2^i - 1]`).
    pub buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
        }
    }
}

impl Histogram {
    /// The bucket index for an observation.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The value range `[lo, hi]` a bucket covers (bucket 0 is exactly 0,
    /// bucket `i` spans `[2^(i-1), 2^i - 1]`).
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            return (0, 0);
        }
        let lo = 1u64 << (i - 1);
        let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by **deterministic bucket
    /// interpolation**: the rank's bucket is located by cumulative count,
    /// then the observations inside it are assumed evenly spread across
    /// the bucket's value range and the rank's offset picks a point with
    /// integer arithmetic only. The result is clamped to the observed
    /// `[min, max]`, and identical for any merge tree over the same
    /// observations — quantiles inherit the merge algebra's determinism
    /// even though they are derived, not stored.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank =
            (((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64).min(self.count - 1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < seen + c {
                let (lo, hi) = Self::bucket_bounds(i);
                let offset = rank - seen;
                let width = hi - lo;
                let interpolated = if c > 1 {
                    // Exact integer interpolation, widened so no width ×
                    // offset product can overflow.
                    lo + ((width as u128 * offset as u128) / (c - 1) as u128) as u64
                } else {
                    lo + width / 2
                };
                return interpolated.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Folds another histogram into this one (bucket-wise sums, min/max).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    /// JSON rendering: scalar stats plus the non-empty buckets as
    /// `[bit_len, count]` pairs in ascending bucket order.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("count".to_string(), Value::Number(Number::UInt(self.count)));
        obj.insert("sum".to_string(), Value::Number(Number::UInt(self.sum)));
        if self.count > 0 {
            obj.insert("min".to_string(), Value::Number(Number::UInt(self.min)));
            obj.insert("max".to_string(), Value::Number(Number::UInt(self.max)));
        }
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                Value::Array(vec![
                    Value::Number(Number::UInt(i as u64)),
                    Value::Number(Number::UInt(c)),
                ])
            })
            .collect();
        obj.insert("buckets".to_string(), Value::Array(buckets));
        Value::Object(obj)
    }
}

/// One shard (or the merged total) of the metrics registry.
///
/// Keys are kept in `BTreeMap`s so every rendering is name-ordered and
/// two equal snapshots serialize to identical bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic additive totals.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins point-in-time values.
    pub gauges: BTreeMap<String, Gauge>,
    /// Bucketed distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Adds `n` to the named counter.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named gauge with a write stamp.
    pub fn gauge_set(&mut self, name: &str, stamp: u64, value: i64) {
        self.gauges
            .entry(name.to_string())
            .or_insert(Gauge { stamp: 0, value: 0 })
            .merge(Gauge { stamp, value });
    }

    /// Records one observation into the named histogram.
    pub fn histogram_observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Folds another shard into this one. Associative and commutative:
    /// any merge tree over the same shards yields the same snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (name, g) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .or_insert(Gauge { stamp: 0, value: 0 })
                .merge(*g);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// JSON rendering with deterministic (name-ordered) keys.
    pub fn to_json(&self) -> Value {
        let mut counters = Map::new();
        for (name, n) in &self.counters {
            counters.insert(name.clone(), Value::Number(Number::UInt(*n)));
        }
        let mut gauges = Map::new();
        for (name, g) in &self.gauges {
            gauges.insert(name.clone(), Value::Number(Number::Int(g.value)));
        }
        let mut histograms = Map::new();
        for (name, h) in &self.histograms {
            histograms.insert(name.clone(), h.to_json());
        }
        let mut obj = Map::new();
        obj.insert("counters".to_string(), Value::Object(counters));
        obj.insert("gauges".to_string(), Value::Object(gauges));
        obj.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_partition_the_domain() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_merge_matches_sequential_observation() {
        let mut all = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0u64, 1, 5, 9, 1000, 77] {
            all.observe(v);
        }
        for v in [0u64, 1, 5] {
            a.observe(v);
        }
        for v in [9u64, 1000, 77] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantiles_interpolate_deterministically() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantile is 0");
        h.observe(100);
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(1.0), 100);

        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000, 2000, 4000] {
            h.observe(v);
        }
        // Quantiles are monotone, bracketed by the observed range, and
        // exactly reproducible.
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= h.min && p99 <= h.max);
        assert_eq!(p99, h.quantile(0.99));
    }

    #[test]
    fn quantiles_are_merge_order_independent() {
        let values = [0u64, 3, 9, 17, 80, 81, 500, 7000, 7001, 65000];
        let mut whole = Histogram::default();
        for v in values {
            whole.observe(v);
        }
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                left.observe(*v);
            } else {
                right.observe(*v);
            }
        }
        right.merge(&left);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(whole.quantile(q), right.quantile(q), "q={q}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_domain() {
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        for v in [0u64, 1, 2, 3, 4, 100, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket(v));
            assert!(lo <= v && (v <= hi || Histogram::bucket(v) == HISTOGRAM_BUCKETS - 1));
        }
    }

    #[test]
    fn gauge_merge_takes_latest_stamp() {
        let mut g = Gauge {
            stamp: 3,
            value: 10,
        };
        g.merge(Gauge {
            stamp: 1,
            value: 99,
        });
        assert_eq!(g.value, 10);
        g.merge(Gauge {
            stamp: 4,
            value: -2,
        });
        assert_eq!(g.value, -2);
    }

    #[test]
    fn snapshot_merge_is_identity_on_empty() {
        let mut a = MetricsSnapshot::new();
        a.counter_add("x", 3);
        a.histogram_observe("h", 12);
        a.gauge_set("g", 1, 5);
        let before = a.clone();
        a.merge(&MetricsSnapshot::new());
        assert_eq!(a, before);
        let mut empty = MetricsSnapshot::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
