//! The risk matrix (§4.1).
//!
//! Rows are providers, columns are conduits; the entry for provider *i* and
//! conduit *c* is the number of providers sharing *c* if *i* is a tenant,
//! else 0 — exactly the counting scheme the paper illustrates with the
//! Level 3 / Sprint example.

use intertubes_degrade::{DegradationAction, DegradationPolicy, DegradationReport};
use intertubes_map::FiberMap;
use serde::{Deserialize, Serialize};

use crate::{RiskError, Roster};

/// The §4.1 risk matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RiskMatrix {
    /// Provider names (row order).
    pub isps: Vec<String>,
    /// `uses[i][c]`: provider `i` is a tenant of conduit `c`.
    pub uses: Vec<Vec<bool>>,
    /// `shared[c]`: number of row providers sharing conduit `c`.
    pub shared: Vec<u16>,
}

impl RiskMatrix {
    /// Builds the matrix for the given providers over a constructed map.
    ///
    /// Providers absent from the map get all-zero rows (and a zero share
    /// contribution), mirroring the paper's incremental construction.
    ///
    /// Equivalent to [`RiskMatrix::build_checked`] under the lenient
    /// policy, with the degradation report discarded.
    pub fn build(map: &FiberMap, isps: &[String]) -> RiskMatrix {
        match RiskMatrix::build_checked(map, isps, DegradationPolicy::Lenient) {
            Ok((rm, _)) => rm,
            // The lenient policy never returns an error by construction.
            Err(e) => unreachable!("lenient risk-matrix build cannot fail: {e}"),
        }
    }

    /// Builds the matrix with explicit degradation control.
    ///
    /// A provider name listed twice would double-count every conduit it
    /// shares, silently inflating the §4.2 sharing distribution. Under
    /// [`DegradationPolicy::Lenient`] later duplicates are dropped and
    /// counted (`"duplicate-provider"`); under strict the build aborts
    /// with [`RiskError::DuplicateProvider`]. A duplicate-free roster
    /// yields the same matrix as [`RiskMatrix::build`] and an empty
    /// report.
    pub fn build_checked(
        map: &FiberMap,
        isps: &[String],
        policy: DegradationPolicy,
    ) -> Result<(RiskMatrix, DegradationReport), RiskError> {
        let mut span = intertubes_obs::stage("risk.matrix");
        span.items("conduits", map.conduits.len());
        let roster = Roster::new(isps);
        if let Some(name) = roster.first_duplicate.filter(|_| policy.is_strict()) {
            span.failed();
            return Err(RiskError::DuplicateProvider { name: name.into() });
        }
        let duplicates = roster.duplicates;
        let mut report = DegradationReport::new();
        report.note(
            "risk.matrix",
            DegradationAction::Repaired,
            "duplicate-provider",
            duplicates,
        );
        span.items("isps", roster.names.len());
        span.items("duplicates", duplicates);
        if duplicates > 0 {
            span.degraded();
        }
        Ok((RiskMatrix::build_roster(map, &roster.names), report))
    }

    fn build_roster(map: &FiberMap, isps: &[String]) -> RiskMatrix {
        let n = map.conduits.len();
        // Each provider's tenancy row is independent of every other row:
        // fan out one row per ISP (the §4.1 matrix is built row-wise), then
        // derive the per-conduit share counts as column sums. Row order is
        // the roster order either way, so the result is byte-identical to
        // the serial nested loop.
        let uses: Vec<Vec<bool>> = intertubes_parallel::par_map(isps, |isp| {
            map.conduits.iter().map(|c| c.has_tenant(isp)).collect()
        });
        let mut shared = vec![0u16; n];
        for row in &uses {
            for (c, &used) in row.iter().enumerate() {
                shared[c] += used as u16;
            }
        }
        RiskMatrix {
            isps: isps.to_vec(),
            uses,
            shared,
        }
    }

    /// Number of conduits (columns).
    pub fn conduit_count(&self) -> usize {
        self.shared.len()
    }

    /// Number of providers (rows).
    pub fn isp_count(&self) -> usize {
        self.isps.len()
    }

    /// The matrix entry: shared count if the provider uses the conduit,
    /// else 0.
    pub fn value(&self, isp: usize, conduit: usize) -> u16 {
        if self.uses[isp][conduit] {
            self.shared[conduit]
        } else {
            0
        }
    }

    /// One full row of the matrix.
    pub fn row(&self, isp: usize) -> Vec<u16> {
        (0..self.conduit_count())
            .map(|c| self.value(isp, c))
            .collect()
    }

    /// Index of a provider by name.
    pub fn isp_index(&self, name: &str) -> Option<usize> {
        self.isps.iter().position(|n| n == name)
    }

    /// The conduits a provider uses.
    pub fn conduits_of(&self, isp: usize) -> Vec<usize> {
        (0..self.conduit_count())
            .filter(|&c| self.uses[isp][c])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_geo::{GeoPoint, Polyline};
    use intertubes_map::{MapConduit, Provenance, Tenancy, TenancySource};

    /// The paper's worked example: Level 3 on c1,c2,c3; Sprint on c1,c2.
    fn example_map() -> FiberMap {
        let mut m = FiberMap::default();
        let slc = m.ensure_node(
            "Salt Lake City, UT",
            GeoPoint::new_unchecked(40.76, -111.89),
        );
        let den = m.ensure_node("Denver, CO", GeoPoint::new_unchecked(39.74, -104.99));
        let sac = m.ensure_node("Sacramento, CA", GeoPoint::new_unchecked(38.58, -121.49));
        let pa = m.ensure_node("Palo Alto, CA", GeoPoint::new_unchecked(37.44, -122.14));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        let mk = |a: intertubes_map::MapNodeId,
                  b: intertubes_map::MapNodeId,
                  tenants: Vec<Tenancy>,
                  m: &FiberMap| MapConduit {
            a,
            b,
            geometry: Polyline::straight(m.nodes[a.index()].location, m.nodes[b.index()].location),
            tenants,
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        };
        let c1 = mk(slc, den, vec![t("Level 3"), t("Sprint")], &m);
        let c2 = mk(slc, sac, vec![t("Level 3"), t("Sprint")], &m);
        let c3 = mk(sac, pa, vec![t("Level 3")], &m);
        m.conduits.extend([c1, c2, c3]);
        m
    }

    #[test]
    fn papers_worked_example() {
        let m = example_map();
        let rm = RiskMatrix::build(&m, &["Level 3".into(), "Sprint".into()]);
        // Paper: Level 3 row = [2, 2, 1], Sprint row = [2, 2, 0].
        assert_eq!(rm.row(0), vec![2, 2, 1]);
        assert_eq!(rm.row(1), vec![2, 2, 0]);
        assert_eq!(rm.value(1, 2), 0);
        assert_eq!(rm.conduit_count(), 3);
        assert_eq!(rm.isp_count(), 2);
    }

    #[test]
    fn unknown_isp_row_is_zero() {
        let m = example_map();
        let rm = RiskMatrix::build(&m, &["Level 3".into(), "Nobody".into()]);
        assert_eq!(rm.row(1), vec![0, 0, 0]);
        // And it does not inflate the share counts.
        assert_eq!(rm.shared, vec![1, 1, 1]);
    }

    #[test]
    fn lookups() {
        let m = example_map();
        let rm = RiskMatrix::build(&m, &["Level 3".into(), "Sprint".into()]);
        assert_eq!(rm.isp_index("Sprint"), Some(1));
        assert_eq!(rm.isp_index("XO"), None);
        assert_eq!(rm.conduits_of(1), vec![0, 1]);
        assert_eq!(rm.conduits_of(0), vec![0, 1, 2]);
    }
}
