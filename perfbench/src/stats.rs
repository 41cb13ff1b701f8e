//! Sample statistics shared by every workload: medians, the tail rule,
//! per-layer accumulation and the residual arithmetic.

use std::collections::BTreeMap;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Fewest samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: which percentile, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (90, 99, 99.9, ...).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The tail rule: the highest percentile of the ladder p90, p99, p99.9, ...
/// that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, taken by
/// nearest rank. `None` when even p90 has fewer (under 100 samples), so a
/// single sample is never reported as a tail.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut best = None;
    // Percentile 1 - 10^-k, as an exact integer fraction (d - 1) / d.
    let mut d: usize = 10;
    for k in 1..=9 {
        // Nearest rank: ceil(n * (d - 1) / d), computed without rounding.
        let Some(scaled) = n.checked_mul(d - 1) else {
            break;
        };
        let rank = scaled.div_ceil(d);
        let beyond = n - rank;
        if rank == 0 || beyond < TAIL_MIN_BEYOND {
            break;
        }
        best = Some(Tail {
            percentile: 100.0 - 100.0 / 10f64.powi(k),
            value: sorted[rank - 1],
            beyond,
        });
        d *= 10;
    }
    best
}

/// The residual of a layer split: what is left of `total` once the named
/// `parts` are taken out. It is not clamped: a negative residual means the
/// separately timed parts cost more than the whole, which is worth seeing.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Per-layer time accumulated over the operations of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    ops: usize,
}

impl Layers {
    /// Adds `value` to layer `name` for the current operation.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Closes one operation.
    pub fn end_op(&mut self) {
        self.ops += 1;
    }

    /// Folds another accumulation (another thread's) into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (name, sum) in &other.sums {
            *self.sums.entry(name).or_insert(0.0) += sum;
        }
        self.ops += other.ops;
    }

    /// Operations closed so far.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Mean per operation of layer `name`, 0 when the layer never ran.
    pub fn mean(&self, name: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.sums.get(name).copied().unwrap_or(0.0) / self.ops as f64
    }
}

/// Elapsed nanoseconds of `start` as a float.
pub fn ns_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p90() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[5.0]), None);
        assert_eq!(tail(&ramp(99)), None);
        let t = tail(&ramp(100)).expect("100 samples support p90");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_climbs_the_ladder_only_with_enough_samples() {
        let t = tail(&ramp(999)).expect("p90");
        assert_eq!(t.percentile, 90.0);
        let t = tail(&ramp(1000)).expect("p99");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let t = tail(&ramp(25_000)).expect("p99.9");
        assert!((t.percentile - 99.9).abs() < 1e-9);
        assert_eq!(t.value, 24_975.0);
        assert_eq!(t.beyond, 25);
    }

    #[test]
    fn tail_rank_rounds_up() {
        // 150 samples: p90 rank is ceil(135) = 135, 15 beyond.
        let t = tail(&ramp(150)).expect("p90");
        assert_eq!(t.value, 135.0);
        assert_eq!(t.beyond, 15);
        // 155 samples: p90 rank is ceil(139.5) = 140, 15 beyond.
        let t = tail(&ramp(155)).expect("p90");
        assert_eq!(t.value, 140.0);
        assert_eq!(t.beyond, 15);
    }

    #[test]
    fn residuals_of_the_three_splits() {
        // net.transport = rtt - (encode + decode + parse + registry)
        assert_eq!(residual(600.0, &[10.0, 12.0, 3.0, 25.0]), 550.0);
        // graph.research = answer - whatif
        assert_eq!(residual(900.0, &[400.0]), 500.0);
        // serve.sched = batch - answer - json
        assert_eq!(residual(1000.0, &[900.0, 60.0]), 40.0);
        // Not clamped.
        assert_eq!(residual(5.0, &[4.0, 3.0]), -2.0);
        assert_eq!(residual(7.0, &[]), 7.0);
    }

    #[test]
    fn layers_average_per_operation() {
        let mut l = Layers::default();
        l.add("a", 10.0);
        l.end_op();
        l.add("a", 30.0);
        l.add("b", 4.0);
        l.end_op();
        assert_eq!(l.mean("a"), 20.0);
        assert_eq!(l.mean("b"), 2.0);
        assert_eq!(l.mean("never"), 0.0);
        assert_eq!(Layers::default().mean("a"), 0.0);
        let mut other = Layers::default();
        other.add("b", 8.0);
        other.end_op();
        l.merge(&other);
        assert_eq!(l.mean("a"), 40.0 / 3.0);
        assert_eq!(l.mean("b"), 4.0);
    }
}
