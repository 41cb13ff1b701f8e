//! The robustness-suggestion framework (§5.1, eq. 1).
//!
//! For each heavily-shared conduit and each of its tenants, find the
//! minimum-shared-risk alternate path over the *existing* infrastructure
//! (eq. 1: `OP = argmin over all paths of the summed shared risk`), then
//! report path inflation (PI — extra hops) and shared-risk reduction (SRR —
//! the drop in the worst sharing level the tenant is exposed to on that
//! route). The hops the optimized path borrows from other providers'
//! footprints yield the best-peering suggestions of Table 5.

use std::collections::HashMap;

use intertubes_graph::{csr_dijkstra, EdgeId, NodeId, SearchState};
use intertubes_map::{FiberMap, MapConduitId};
use intertubes_risk::RiskMatrix;
use serde::{Deserialize, Serialize};

/// PI / SRR aggregates for one provider (one bar group of Fig. 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IspRobustness {
    /// Provider name.
    pub isp: String,
    /// Optimized heavy links examined for this provider.
    pub cases: usize,
    /// Max / min / mean path inflation in hops.
    pub max_pi: f64,
    /// Minimum path inflation.
    pub min_pi: f64,
    /// Mean path inflation.
    pub avg_pi: f64,
    /// Max / min / mean shared-risk reduction.
    pub max_srr: f64,
    /// Minimum shared-risk reduction.
    pub min_srr: f64,
    /// Mean shared-risk reduction.
    pub avg_srr: f64,
}

/// The framework's full output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// The heavy conduits optimized.
    pub heavy_conduits: Vec<MapConduitId>,
    /// Per-provider PI/SRR aggregates (Fig. 10), roster order preserved.
    pub per_isp: Vec<IspRobustness>,
    /// Per-provider top-3 suggested peers (Table 5).
    pub peering: Vec<(String, Vec<String>)>,
}

/// The `k` most-shared conduits (the paper's "12 out of 542 shared by more
/// than 17 of the 20 ISPs").
pub fn heaviest_conduits(rm: &RiskMatrix, k: usize) -> Vec<MapConduitId> {
    let mut ids: Vec<usize> = (0..rm.conduit_count()).collect();
    ids.sort_by(|&x, &y| rm.shared[y].cmp(&rm.shared[x]).then(x.cmp(&y)));
    ids.into_iter()
        .take(k)
        .map(|i| MapConduitId(i as u32))
        .collect()
}

/// Runs the robustness-suggestion optimization for the given heavy
/// conduits, with unweighted peer voting.
pub fn robustness_suggestion(
    map: &FiberMap,
    rm: &RiskMatrix,
    heavy: &[MapConduitId],
) -> RobustnessReport {
    robustness_suggestion_weighted(map, rm, heavy, |_| 1.0)
}

/// Like [`robustness_suggestion`], with a caller-supplied weight on peer
/// candidates. Table 5's suggestions skew toward transit-grade providers —
/// weight tier-1 carriers above retail/regional footprints to reproduce
/// that (a provider can only *peer into* a carrier that sells transit).
pub fn robustness_suggestion_weighted(
    map: &FiberMap,
    rm: &RiskMatrix,
    heavy: &[MapConduitId],
    peer_weight: impl Fn(&str) -> f64,
) -> RobustnessReport {
    let mut span = intertubes_obs::stage("mitigation.robustness");
    span.items("heavy_conduits", heavy.len());
    span.items("isps", rm.isp_count());
    let csr = map.csr();
    // Shared-risk cost of traversing a conduit (eq. 1's SR term).
    let risk_of = |e: EdgeId| rm.shared[e.index()] as f64;

    let mut per_isp: Vec<IspRobustness> = Vec::new();
    let mut peer_votes: Vec<HashMap<String, f64>> =
        (0..rm.isp_count()).map(|_| HashMap::new()).collect();
    let mut pis: Vec<Vec<f64>> = vec![Vec::new(); rm.isp_count()];
    let mut srrs: Vec<Vec<f64>> = vec![Vec::new(); rm.isp_count()];

    let mut st = SearchState::new();
    for &hc in heavy {
        let conduit = &map.conduits[hc.index()];
        let original_risk = rm.shared[hc.index()] as f64;
        // Mask the heavy conduit itself; eq. 1 searches E_A, all alternate
        // paths over existing conduits. Edge ids equal conduit indices
        // (`FiberMap::csr` adds edges in conduit order).
        let masked = |e: EdgeId| {
            if e.index() == hc.index() {
                f64::INFINITY
            } else {
                risk_of(e)
            }
        };
        let alt = csr_dijkstra(
            &csr,
            &mut st,
            NodeId(conduit.a.0),
            NodeId(conduit.b.0),
            masked,
            None,
        );
        // Risk costs are non-negative by construction; a conduit is simply
        // skipped if a search somehow errored.
        let Ok(Some(alt)) = alt else { continue };
        let alt_max_risk = alt
            .edges
            .iter()
            .map(|e| rm.shared[e.index()] as f64)
            .fold(0.0, f64::max);
        let pi = (alt.hops() as f64 - 1.0).max(0.0);
        let srr = (original_risk - alt_max_risk).max(0.0);
        // Which tenants does this affect, and who could they peer with?
        for (i, _) in rm.isps.iter().enumerate() {
            if !rm.uses[i][hc.index()] {
                continue;
            }
            pis[i].push(pi);
            srrs[i].push(srr);
            // Peers: providers (other than i) present on the alternate
            // path's conduits — they are the ones to buy transit/IRU from.
            let mut seen: HashMap<usize, usize> = HashMap::new();
            for e in &alt.edges {
                let c = e.index();
                for (j, uses) in rm.uses.iter().enumerate() {
                    if j != i && uses[c] {
                        *seen.entry(j).or_insert(0) += 1;
                    }
                }
            }
            for (j, n) in seen {
                let w = peer_weight(&rm.isps[j]);
                *peer_votes[i].entry(rm.isps[j].clone()).or_insert(0.0) += n as f64 * w;
            }
        }
    }

    let mut peering = Vec::with_capacity(rm.isp_count());
    for i in 0..rm.isp_count() {
        let (pi_v, srr_v) = (&pis[i], &srrs[i]);
        let agg = |v: &[f64]| -> (f64, f64, f64) {
            if v.is_empty() {
                return (0.0, 0.0, 0.0);
            }
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            let min = v.iter().copied().fold(f64::MAX, f64::min);
            let avg = v.iter().sum::<f64>() / v.len() as f64;
            (max, min, avg)
        };
        let (max_pi, min_pi, avg_pi) = agg(pi_v);
        let (max_srr, min_srr, avg_srr) = agg(srr_v);
        per_isp.push(IspRobustness {
            isp: rm.isps[i].clone(),
            cases: pi_v.len(),
            max_pi,
            min_pi,
            avg_pi,
            max_srr,
            min_srr,
            avg_srr,
        });
        let mut votes: Vec<(String, f64)> = peer_votes[i].drain().collect();
        votes.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        peering.push((
            rm.isps[i].clone(),
            votes.into_iter().take(3).map(|(n, _)| n).collect(),
        ));
    }
    RobustnessReport {
        heavy_conduits: heavy.to_vec(),
        per_isp,
        peering,
    }
}

/// §5.1's whole-network scan: for every conduit, whether the existing
/// direct conduit is already the minimum-shared-risk route between its
/// endpoints. The paper found most existing paths already optimal, making
/// the 12 heavy links the profitable targets.
pub fn already_optimal_fraction(map: &FiberMap, rm: &RiskMatrix) -> f64 {
    let csr = map.csr();
    let risk_of = |e: EdgeId| rm.shared[e.index()] as f64;
    // One independent point query per conduit, masking only that conduit
    // via infinite cost (edge ids equal conduit indices).
    let indices: Vec<usize> = (0..map.conduits.len()).collect();
    let chunk = intertubes_parallel::chunk_len(indices.len());
    let verdicts = intertubes_parallel::par_chunks_map(&indices, chunk, |_, chunk_indices| {
        let mut st = SearchState::new();
        chunk_indices
            .iter()
            .map(|&i| {
                let c = &map.conduits[i];
                let own_risk = rm.shared[i] as f64;
                let masked = |e: EdgeId| {
                    if e.index() == i {
                        f64::INFINITY
                    } else {
                        risk_of(e)
                    }
                };
                let alt = csr_dijkstra(&csr, &mut st, NodeId(c.a.0), NodeId(c.b.0), masked, None);
                // The direct conduit is optimal unless a strictly
                // lower-risk alternate exists (errors cannot occur: risk
                // costs are non-negative by construction).
                !matches!(alt, Ok(Some(p)) if p.cost < own_risk)
            })
            .collect::<Vec<bool>>()
    });
    let optimal = verdicts.iter().flatten().filter(|&&v| v).count();
    optimal as f64 / map.conduits.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_geo::{GeoPoint, Polyline};
    use intertubes_map::{MapConduit, Provenance, Tenancy, TenancySource};

    /// Square A-B (heavy), plus A-C, C-B lightly shared detour.
    fn toy() -> (FiberMap, RiskMatrix) {
        let mut m = FiberMap::default();
        let a = m.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
        let b = m.ensure_node("B, XX", GeoPoint::new_unchecked(40.0, -99.0));
        let c = m.ensure_node("C, XX", GeoPoint::new_unchecked(40.5, -99.5));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        let line = |m: &FiberMap, x: intertubes_map::MapNodeId, y: intertubes_map::MapNodeId| {
            Polyline::straight(m.nodes[x.index()].location, m.nodes[y.index()].location)
        };
        let heavy = MapConduit {
            a,
            b,
            geometry: line(&m, a, b),
            tenants: vec![t("W"), t("X"), t("Y"), t("Z")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        };
        let ac = MapConduit {
            a,
            b: c,
            geometry: line(&m, a, c),
            tenants: vec![t("W")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        };
        let cb = MapConduit {
            a: c,
            b,
            geometry: line(&m, c, b),
            tenants: vec![t("W"), t("X")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        };
        m.conduits.extend([heavy, ac, cb]);
        let rm = RiskMatrix::build(&m, &["W".into(), "X".into(), "Y".into(), "Z".into()]);
        (m, rm)
    }

    #[test]
    fn heaviest_selects_by_share_count() {
        let (_, rm) = toy();
        let h = heaviest_conduits(&rm, 1);
        assert_eq!(h, vec![MapConduitId(0)]);
        assert_eq!(heaviest_conduits(&rm, 2).len(), 2);
    }

    #[test]
    fn reroute_reduces_risk_with_one_extra_hop() {
        let (m, rm) = toy();
        let report = robustness_suggestion(&m, &rm, &heaviest_conduits(&rm, 1));
        // Every tenant of the heavy conduit gets PI = 1 (2 hops vs 1) and
        // SRR = 4 - max(1, 2) = 2.
        for r in &report.per_isp {
            assert_eq!(r.cases, 1, "{}", r.isp);
            assert_eq!(r.avg_pi, 1.0, "{}", r.isp);
            assert_eq!(r.avg_srr, 2.0, "{}", r.isp);
        }
    }

    #[test]
    fn peering_suggests_detour_owners() {
        let (m, rm) = toy();
        let report = robustness_suggestion(&m, &rm, &heaviest_conduits(&rm, 1));
        // For tenants Y and Z (not on the detour), W covers both detour
        // conduits and X covers one — W must rank first.
        let y = report.peering.iter().find(|(n, _)| n == "Y").unwrap();
        assert_eq!(y.1[0], "W", "peering for Y: {:?}", y.1);
        assert!(y.1.contains(&"X".to_string()));
        // W's own suggestions must not include W.
        let w = report.peering.iter().find(|(n, _)| n == "W").unwrap();
        assert!(!w.1.contains(&"W".to_string()));
    }

    #[test]
    fn already_optimal_fraction_counts_detours() {
        let (m, rm) = toy();
        let frac = already_optimal_fraction(&m, &rm);
        // The heavy conduit (risk 4) has a cheaper alternate (1+2=3): not
        // optimal. The two detour conduits have no cheaper alternates.
        assert!((frac - 2.0 / 3.0).abs() < 1e-9, "{frac}");
    }

    #[test]
    fn isolated_heavy_conduit_is_skipped() {
        // Heavy conduit with no alternate path: no PI/SRR cases.
        let mut m = FiberMap::default();
        let a = m.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
        let b = m.ensure_node("B, XX", GeoPoint::new_unchecked(40.0, -99.0));
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        m.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -100.0),
                GeoPoint::new_unchecked(40.0, -99.0),
            ),
            tenants: vec![t("X"), t("Y")],
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
        let rm = RiskMatrix::build(&m, &["X".into(), "Y".into()]);
        let report = robustness_suggestion(&m, &rm, &heaviest_conduits(&rm, 1));
        assert!(report.per_isp.iter().all(|r| r.cases == 0));
    }
}
