//! Hamming-distance similarity of provider risk profiles (§4.2, Fig. 8).
//!
//! The paper compares every pair of risk-matrix rows: the smaller the
//! Hamming distance, the more similar (and more co-exposed) the two
//! providers' physical deployments are.

use serde::{Deserialize, Serialize};

use crate::matrix::RiskMatrix;

/// The pairwise Hamming-distance matrix (Fig. 8's heat map).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HammingHeatmap {
    /// Provider names (axis order).
    pub isps: Vec<String>,
    /// `distance[i][j]`: positions where rows i and j differ.
    pub distance: Vec<Vec<u32>>,
}

/// Hamming distance between two risk-matrix rows.
pub fn hamming_distance(a: &[u16], b: &[u16]) -> u32 {
    assert_eq!(a.len(), b.len(), "rows must have equal length");
    a.iter().zip(b.iter()).filter(|(x, y)| x != y).count() as u32
}

/// Computes the full pairwise heat map.
///
/// Row extraction and the upper-triangle distance computation fan out one
/// provider row at a time; the mirrored matrix is assembled serially, so
/// the result is identical to the serial double loop.
pub fn hamming_heatmap(rm: &RiskMatrix) -> HammingHeatmap {
    let mut span = intertubes_obs::stage("risk.hamming");
    span.items("isps", rm.isp_count());
    span.items(
        "pairs",
        rm.isp_count() * rm.isp_count().saturating_sub(1) / 2,
    );
    let indices: Vec<usize> = (0..rm.isp_count()).collect();
    let rows: Vec<Vec<u16>> = intertubes_parallel::par_map(&indices, |&i| rm.row(i));
    let n = rows.len();
    let upper: Vec<Vec<u32>> = intertubes_parallel::par_map(&indices, |&i| {
        (i + 1..n)
            .map(|j| hamming_distance(&rows[i], &rows[j]))
            .collect()
    });
    let mut distance = vec![vec![0u32; n]; n];
    for (i, strip) in upper.iter().enumerate() {
        for (off, &d) in strip.iter().enumerate() {
            let j = i + 1 + off;
            distance[i][j] = d;
            distance[j][i] = d;
        }
    }
    HammingHeatmap {
        isps: rm.isps.clone(),
        distance,
    }
}

impl HammingHeatmap {
    /// Mean distance from each provider to all others, ascending —
    /// providers at the top have risk profiles most similar to the rest of
    /// the field (the paper's "low risk profile" reading for EarthLink and
    /// Level 3 compares profile rows).
    pub fn mean_distances(&self) -> Vec<(String, f64)> {
        let n = self.isps.len();
        let mut out: Vec<(String, f64)> = (0..n)
            .map(|i| {
                let sum: u32 = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| self.distance[i][j])
                    .sum();
                (self.isps[i].clone(), sum as f64 / (n - 1).max(1) as f64)
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The most similar (smallest-distance) provider pair.
    pub fn most_similar_pair(&self) -> Option<(String, String, u32)> {
        let n = self.isps.len();
        let mut best: Option<(usize, usize)> = None;
        for i in 0..n {
            for j in i + 1..n {
                if best.map_or(true, |(bi, bj)| self.distance[i][j] < self.distance[bi][bj]) {
                    best = Some((i, j));
                }
            }
        }
        best.map(|(i, j)| {
            (
                self.isps[i].clone(),
                self.isps[j].clone(),
                self.distance[i][j],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_geo::{GeoPoint, Polyline};
    use intertubes_map::{FiberMap, MapConduit, Provenance, Tenancy, TenancySource};

    #[test]
    fn distance_basics() {
        assert_eq!(hamming_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(hamming_distance(&[1, 2, 3], &[1, 0, 3]), 1);
        assert_eq!(hamming_distance(&[0, 0], &[1, 1]), 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn distance_requires_equal_length() {
        hamming_distance(&[1], &[1, 2]);
    }

    fn toy_map() -> FiberMap {
        let mut m = FiberMap::default();
        let a = m.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
        let b = m.ensure_node("B, XX", GeoPoint::new_unchecked(41.0, -100.0));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        for tenants in [vec![t("X"), t("Y")], vec![t("X"), t("Y")], vec![t("Z")]] {
            m.conduits.push(MapConduit {
                a,
                b,
                geometry: Polyline::straight(
                    GeoPoint::new_unchecked(40.0, -100.0),
                    GeoPoint::new_unchecked(41.0, -100.0),
                ),
                tenants,
                provenance: Provenance::Step1,
                validated: true,
                row: None,
            });
        }
        m
    }

    #[test]
    fn identical_deployments_have_zero_distance() {
        let rm = RiskMatrix::build(&toy_map(), &["X".into(), "Y".into(), "Z".into()]);
        let hm = hamming_heatmap(&rm);
        assert_eq!(hm.distance[0][1], 0, "X and Y deploy identically");
        assert!(hm.distance[0][2] > 0);
        // Symmetry, zero diagonal.
        assert_eq!(hm.distance[1][0], hm.distance[0][1]);
        assert_eq!(hm.distance[2][2], 0);
        let (a, b, d) = hm.most_similar_pair().unwrap();
        assert_eq!(d, 0);
        assert!((a == "X" && b == "Y") || (a == "Y" && b == "X"));
    }

    #[test]
    fn mean_distances_sorted() {
        let rm = RiskMatrix::build(&toy_map(), &["X".into(), "Y".into(), "Z".into()]);
        let hm = hamming_heatmap(&rm);
        let means = hm.mean_distances();
        for w in means.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // Z differs from both X and Y in 3 positions each.
        let z = means.iter().find(|(n, _)| n == "Z").unwrap();
        assert!((z.1 - 3.0).abs() < 1e-12);
    }
}
