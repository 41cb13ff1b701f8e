//! Conduit augmentation (§5.2, eq. 2): add up to *k* new city-to-city
//! conduits to maximize global shared-risk reduction against deployment
//! cost.
//!
//! Model: a candidate new conduit parallels an existing heavily-shared
//! conduit along the cheapest right-of-way between its endpoints (its
//! deployment cost is that ROW mileage). When built, the incumbent tenants
//! re-balance across the old and new trench — sharing splits roughly in
//! half, which is exactly why the paper finds that a *small* number of new
//! conduits captures most of the achievable risk reduction, and why
//! providers whose footprints concentrate on the chokepoints (Telia, Tata,
//! NTT, Deutsche Telekom) gain the most while diversely-deployed providers
//! (Level 3, CenturyLink) barely move.

use std::collections::HashMap;

use intertubes_atlas::{City, TransportNetwork};
use intertubes_graph::{csr_dijkstra, CsrGraph, EdgeId, NodeId, SearchState};
use intertubes_map::{FiberMap, MapConduitId};
use intertubes_risk::RiskMatrix;
use serde::{Deserialize, Serialize};

/// Parameters of the greedy augmentation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AugmentationConfig {
    /// Maximum number of new conduits to add (paper sweeps k = 1..10).
    pub max_new_conduits: usize,
    /// Candidate pool: the `n` most-shared conduits are eligible for a
    /// parallel relief trench.
    pub candidate_pool: usize,
    /// Deployment-cost weight λ (risk-reduction units per km). eq. 2 trades
    /// the summed SRR against DC; λ converts fiber miles into that scale.
    pub lambda_per_km: f64,
}

impl Default for AugmentationConfig {
    fn default() -> Self {
        AugmentationConfig {
            max_new_conduits: 10,
            candidate_pool: 40,
            lambda_per_km: 0.002,
        }
    }
}

/// One added conduit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddedConduit {
    /// The heavy conduit being relieved.
    pub parallels: MapConduitId,
    /// Endpoint labels.
    pub a: String,
    /// Endpoint labels.
    pub b: String,
    /// Deployment length along the cheapest ROW, km.
    pub row_km: f64,
    /// Global shared-risk reduction achieved by this addition.
    pub srr: f64,
}

/// Fig. 11's data: per provider, the improvement ratio after each k.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AugmentationReport {
    /// The additions, in greedy order.
    pub added: Vec<AddedConduit>,
    /// Provider names.
    pub isps: Vec<String>,
    /// `improvement[i][k-1]`: provider i's relative reduction in average
    /// shared risk after the first k additions
    /// (`(before − after) / before`, 0 = no improvement).
    pub improvement: Vec<Vec<f64>>,
}

/// Per-provider average shared risk under a tenant-count vector.
fn avg_risk(rm: &RiskMatrix, shared: &[f64]) -> Vec<f64> {
    (0..rm.isp_count())
        .map(|i| {
            let cs = rm.conduits_of(i);
            if cs.is_empty() {
                return 0.0;
            }
            cs.iter().map(|&c| shared[c]).sum::<f64>() / cs.len() as f64
        })
        .collect()
}

/// Cheapest ROW mileage between two map nodes, over the road network (the
/// deployment-cost term DC of eq. 2), searched on `csr` = `roads.graph`
/// frozen once per [`augment`] call; `city_of` maps a label to its city
/// (road node) id, built once per call too. Falls back to geodesic
/// distance when the endpoints are not road-connected. Corridor lengths
/// are finite and non-negative (fault injection only deletes corridors),
/// so no search error can hide behind the early exit.
fn row_distance_km(
    city_of: &HashMap<String, u32>,
    roads: &TransportNetwork,
    csr: &CsrGraph,
    st: &mut SearchState,
    a_label: &str,
    b_label: &str,
    fallback_km: f64,
) -> f64 {
    let (Some(&ai), Some(&bi)) = (city_of.get(a_label), city_of.get(b_label)) else {
        return fallback_km;
    };
    let cost = |e: EdgeId| roads.graph.edge(e).length_km;
    match csr_dijkstra(csr, st, NodeId(ai), NodeId(bi), cost, None) {
        Ok(Some(p)) => p.cost,
        _ => fallback_km,
    }
}

/// Runs the greedy eq.-2 augmentation.
pub fn augment(
    map: &FiberMap,
    rm: &RiskMatrix,
    cities: &[City],
    roads: &TransportNetwork,
    cfg: &AugmentationConfig,
) -> AugmentationReport {
    let mut span = intertubes_obs::stage("mitigation.augmentation");
    span.items("candidate_pool", cfg.candidate_pool.min(rm.conduit_count()));
    // Mutable copy of per-conduit sharing, updated as additions land.
    let mut shared: Vec<f64> = rm.shared.iter().map(|&s| s as f64).collect();
    let before = avg_risk(rm, &shared);

    // Candidate pool: most-shared conduits.
    let mut pool: Vec<usize> = (0..rm.conduit_count()).collect();
    pool.sort_by(|&x, &y| rm.shared[y].cmp(&rm.shared[x]).then(x.cmp(&y)));
    pool.truncate(cfg.candidate_pool);
    let road_csr = roads.graph.to_csr();
    let mut st = SearchState::new();
    // A label held by several cities names the first, as a scan would.
    let mut city_of: HashMap<String, u32> = HashMap::new();
    for (i, c) in cities.iter().enumerate() {
        city_of.entry(c.label()).or_insert(i as u32);
    }

    struct Candidate {
        conduit: usize,
        row_km: f64,
    }
    let candidates: Vec<Candidate> = pool
        .into_iter()
        .map(|ci| {
            let c = &map.conduits[ci];
            let a = &map.nodes[c.a.index()];
            let b = &map.nodes[c.b.index()];
            let fallback = a.location.distance_km(&b.location);
            let row_km = row_distance_km(
                &city_of, roads, &road_csr, &mut st, &a.label, &b.label, fallback,
            );
            Candidate {
                conduit: ci,
                row_km,
            }
        })
        .collect();

    let mut used = vec![false; candidates.len()];
    let mut added = Vec::new();
    let mut improvement: Vec<Vec<f64>> = vec![Vec::new(); rm.isp_count()];

    for _k in 0..cfg.max_new_conduits {
        // Greedy: maximize SRR − λ·DC (eq. 2's argmax over S).
        // Splitting a conduit with sharing s in half reduces each of its s
        // tenants' exposure by ~s/2: SRR = s·(s/2) aggregated.
        let best = candidates
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, cand)| {
                let s = shared[cand.conduit];
                let srr = s * (s / 2.0);
                (i, srr - cfg.lambda_per_km * cand.row_km * s.max(1.0))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let Some((bi, objective)) = best else { break };
        if objective <= 0.0 {
            break; // no remaining addition pays for itself
        }
        used[bi] = true;
        let cand = &candidates[bi];
        let c = &map.conduits[cand.conduit];
        let old = shared[cand.conduit];
        let new = (old / 2.0).ceil();
        shared[cand.conduit] = new;
        added.push(AddedConduit {
            parallels: MapConduitId(cand.conduit as u32),
            a: map.nodes[c.a.index()].label.clone(),
            b: map.nodes[c.b.index()].label.clone(),
            row_km: cand.row_km,
            srr: (old - new) * old,
        });
        // Record the cumulative improvement ratio per provider.
        let after = avg_risk(rm, &shared);
        for i in 0..rm.isp_count() {
            let ratio = if before[i] > 0.0 {
                ((before[i] - after[i]) / before[i]).max(0.0)
            } else {
                0.0
            };
            improvement[i].push(ratio);
        }
    }
    span.items("added", added.len());
    AugmentationReport {
        added,
        isps: rm.isps.clone(),
        improvement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_atlas::World;
    use intertubes_map::{build_map, PipelineConfig};
    use intertubes_records::{generate_corpus, CorpusConfig};

    fn setup() -> (World, FiberMap, RiskMatrix) {
        let w = World::reference();
        let corpus = generate_corpus(&w, &CorpusConfig::default());
        let built = build_map(
            &w.publish_maps(),
            &corpus,
            &w.cities,
            &w.roads,
            &w.rails,
            &PipelineConfig::default(),
        );
        let isps: Vec<String> = w
            .roster
            .iter()
            .take(intertubes_atlas::MAPPED_ISPS)
            .map(|p| p.name.clone())
            .collect();
        let rm = RiskMatrix::build(&built.map, &isps);
        (w, built.map, rm)
    }

    #[test]
    fn improvement_is_monotone_in_k() {
        let (w, map, rm) = setup();
        let report = augment(
            &map,
            &rm,
            &w.cities,
            &w.roads,
            &AugmentationConfig::default(),
        );
        assert!(!report.added.is_empty());
        for series in &report.improvement {
            for win in series.windows(2) {
                assert!(win[1] >= win[0] - 1e-12, "improvement must not regress");
            }
        }
        // Ratios live in [0, 1).
        for series in &report.improvement {
            for &v in series {
                assert!((0.0..1.0).contains(&v), "ratio {v}");
            }
        }
    }

    #[test]
    fn additions_target_heavy_conduits_first() {
        let (w, map, rm) = setup();
        let report = augment(
            &map,
            &rm,
            &w.cities,
            &w.roads,
            &AugmentationConfig::default(),
        );
        let first = &report.added[0];
        let first_shared = rm.shared[first.parallels.index()];
        let max_shared = rm.shared.iter().copied().max().unwrap();
        assert!(
            first_shared as f64 >= max_shared as f64 * 0.7,
            "first addition relieves a near-maximal conduit ({first_shared} vs max {max_shared})"
        );
    }

    #[test]
    fn concentrated_isps_gain_more_than_diverse_ones() {
        let (w, map, rm) = setup();
        let report = augment(
            &map,
            &rm,
            &w.cities,
            &w.roads,
            &AugmentationConfig::default(),
        );
        let last = report.improvement.iter().map(|s| *s.last().unwrap_or(&0.0));
        let gains: Vec<(String, f64)> = report.isps.iter().cloned().zip(last).collect();
        let get = |n: &str| gains.iter().find(|(i, _)| i == n).map(|(_, g)| *g).unwrap();
        // Paper's Fig. 11 shape: backbone-concentrated foreign carriers gain,
        // Level 3 / CenturyLink barely move.
        let concentrated =
            (get("TeliaSonera") + get("Tata") + get("NTT") + get("Deutsche Telekom")) / 4.0;
        let diverse = (get("Level 3") + get("CenturyLink") + get("EarthLink")) / 3.0;
        assert!(
            concentrated > diverse,
            "concentrated {concentrated:.3} must exceed diverse {diverse:.3}"
        );
    }

    #[test]
    fn deployment_costs_are_positive_row_distances() {
        let (w, map, rm) = setup();
        let report = augment(
            &map,
            &rm,
            &w.cities,
            &w.roads,
            &AugmentationConfig::default(),
        );
        for a in &report.added {
            assert!(a.row_km > 10.0, "ROW distance {} km", a.row_km);
            assert!(a.srr > 0.0);
        }
    }

    #[test]
    fn k_zero_adds_nothing() {
        let (w, map, rm) = setup();
        let cfg = AugmentationConfig {
            max_new_conduits: 0,
            ..AugmentationConfig::default()
        };
        let report = augment(&map, &rm, &w.cities, &w.roads, &cfg);
        assert!(report.added.is_empty());
        assert!(report.improvement.iter().all(|s| s.is_empty()));
    }
}
