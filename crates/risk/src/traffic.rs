//! Connectivity + traffic risk (§4.3): the Fig. 9 CDFs and the assembly of
//! the traceroute-derived tables against the risk matrix.

use intertubes_map::FiberMap;
use intertubes_probes::Overlay;
use serde::{Deserialize, Serialize};

/// An empirical CDF over integer values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    /// Support values, ascending.
    pub values: Vec<usize>,
    /// `P(X <= values[i])`.
    pub cumulative: Vec<f64>,
}

impl Cdf {
    /// Builds an empirical CDF from samples.
    pub fn from_samples(mut samples: Vec<usize>) -> Cdf {
        samples.sort_unstable();
        let n = samples.len().max(1) as f64;
        let mut values = Vec::new();
        let mut cumulative = Vec::new();
        for (i, v) in samples.iter().enumerate() {
            // `values` and `cumulative` grow in lockstep.
            match cumulative.last_mut() {
                Some(last) if values.last() == Some(v) => *last = (i + 1) as f64 / n,
                _ => {
                    values.push(*v);
                    cumulative.push((i + 1) as f64 / n);
                }
            }
        }
        Cdf { values, cumulative }
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: usize) -> f64 {
        match self.values.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cumulative[i - 1],
        }
    }

    /// Mean of the underlying samples (from the CDF representation).
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (v, c) in self.values.iter().zip(self.cumulative.iter()) {
            mean += *v as f64 * (c - prev);
            prev = *c;
        }
        mean
    }
}

/// The Fig. 9 data: tenant-count CDFs before and after the traceroute
/// overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficRisk {
    /// CDF of providers per conduit from the physical map alone.
    pub map_only: Cdf,
    /// CDF after adding traceroute-observed providers.
    pub with_traffic: Cdf,
}

/// Computes the Fig. 9 comparison.
pub fn traffic_risk(map: &FiberMap, overlay: &Overlay) -> TrafficRisk {
    let counts = overlay.tenant_counts(map);
    let map_only = Cdf::from_samples(counts.iter().map(|(b, _)| *b).collect());
    let with_traffic = Cdf::from_samples(counts.iter().map(|(_, w)| *w).collect());
    TrafficRisk {
        map_only,
        with_traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::from_samples(vec![1, 1, 2, 4]);
        assert_eq!(cdf.values, vec![1, 2, 4]);
        assert!((cdf.at(0) - 0.0).abs() < 1e-12);
        assert!((cdf.at(1) - 0.5).abs() < 1e-12);
        assert!((cdf.at(2) - 0.75).abs() < 1e-12);
        assert!((cdf.at(3) - 0.75).abs() < 1e-12);
        assert!((cdf.at(4) - 1.0).abs() < 1e-12);
        assert!((cdf.at(99) - 1.0).abs() < 1e-12);
        assert!((cdf.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = Cdf::from_samples(vec![5, 3, 9, 3, 7, 1]);
        for w in cdf.cumulative.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for w in cdf.values.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn empty_cdf() {
        let cdf = Cdf::from_samples(vec![]);
        assert_eq!(cdf.at(10), 0.0);
        assert_eq!(cdf.mean(), 0.0);
    }
}
