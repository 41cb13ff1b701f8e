//! Propagation-delay analysis (§5.3, Fig. 12) and the route table behind
//! it.
//!
//! For every city pair joined by at least one conduit, four one-way delays
//! are compared:
//!
//! * **best existing path** — the minimum-delay route over deployed
//!   conduits (usually, but not always, the direct trench);
//! * **average of existing paths** — the mean over the k cheapest loopless
//!   conduit routes (parallel trenches and detours included);
//! * **best ROW path** — the cheapest route over road/rail rights-of-way,
//!   whether or not fiber is deployed there (what a new build could achieve
//!   without line-of-sight trenching);
//! * **LOS** — the great-circle lower bound.
//!
//! Delays use the fiber propagation constant (≈ 4.9 µs/km; the paper's
//! "100 µs ≈ 20 km").
//!
//! [`pair_paths`] is the one place that picks those pairs and their k
//! routes. It builds one [`PairPaths`] record per pair; the serving layer
//! freezes the records as its path index, and [`latency_study`] reduces
//! them to [`PairLatency`] rows. [`latency_routes`] returns both from a
//! single Yen batch.

use std::collections::HashMap;

use intertubes_atlas::{City, TransportNetwork};
use intertubes_geo::fiber_delay_us;
use intertubes_graph::{
    par_shortest_paths_csr, par_yen_k_shortest_csr, EdgeId, Landmarks, MultiGraph, NodeId,
    DEFAULT_LANDMARK_COUNT,
};
use intertubes_map::FiberMap;
use serde::{Deserialize, Serialize};

/// Parameters of the latency study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// How many loopless alternate paths feed the "average of existing
    /// paths" series.
    pub k_paths: usize,
    /// Alternate paths longer than this multiple of the best are not
    /// "paths between the two cities" in any practical sense and are
    /// excluded from the average.
    pub detour_cap: f64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            k_paths: 4,
            detour_cap: 3.0,
        }
    }
}

/// Delay comparison for one conduit-joined city pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairLatency {
    /// Endpoint label.
    pub a: String,
    /// Endpoint label.
    pub b: String,
    /// Best existing-conduit delay, µs.
    pub best_us: f64,
    /// Mean delay across existing paths, µs.
    pub avg_us: f64,
    /// Best right-of-way delay, µs.
    pub row_us: f64,
    /// Line-of-sight lower bound, µs.
    pub los_us: f64,
}

/// The full §5.3 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Per-pair comparisons.
    pub pairs: Vec<PairLatency>,
    /// Fraction of pairs whose best existing path is also the best ROW path
    /// (within 1 %; paper: "about 65 % of the best paths are also the best
    /// ROW paths").
    pub best_equals_row_fraction: f64,
}

/// One stored route: its length and the conduits it traverses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathSummary {
    /// Route length, km.
    pub km: f64,
    /// Map conduit ids the route traverses, in path order.
    pub conduits: Vec<u32>,
}

/// The stored routes and baselines for one conduit-joined node pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairPaths {
    /// Smaller map node id of the pair.
    pub a: u32,
    /// Larger map node id of the pair.
    pub b: u32,
    /// Up to k cheapest loopless routes, cheapest first. Empty only when
    /// the Yen batch returned none (k = 0).
    pub paths: Vec<PathSummary>,
    /// Best right-of-way delay, µs (§5.3 baseline).
    pub row_us: f64,
    /// Line-of-sight lower bound, µs.
    pub los_us: f64,
}

impl PairPaths {
    /// Best existing-route delay, µs.
    pub fn best_us(&self) -> Option<f64> {
        self.paths.first().map(|p| fiber_delay_us(p.km))
    }

    /// Mean delay over routes within `detour_cap` × best, µs — the §5.3
    /// "average of existing paths" series.
    pub fn avg_us(&self, detour_cap: f64) -> Option<f64> {
        let best_km = self.paths.first()?.km;
        let capped: Vec<f64> = self
            .paths
            .iter()
            .map(|p| p.km)
            .filter(|&km| km <= best_km * detour_cap)
            .collect();
        Some(fiber_delay_us(
            capped.iter().sum::<f64>() / capped.len() as f64,
        ))
    }

    /// Length of the cheapest stored route that avoids every severed
    /// conduit, km. `severed[c]` marks conduit `c` as cut; ids beyond the
    /// slice are intact. `None` when every stored route is hit: a k+1-th
    /// route may still survive, which only a live search can tell.
    pub fn surviving_km(&self, severed: &[bool]) -> Option<f64> {
        self.paths
            .iter()
            .find(|p| {
                p.conduits
                    .iter()
                    .all(|&c| !severed.get(c as usize).copied().unwrap_or(false))
            })
            .map(|p| p.km)
    }
}

/// Builds the ALT landmark tables for `map`'s conduit graph under the km
/// cost: the tables the route table's Yen batch prunes with and serving
/// snapshots freeze. The selection is deterministic, so a rebuild is
/// bit-identical.
pub fn build_landmarks(map: &FiberMap) -> Option<Landmarks> {
    let csr = map.csr();
    let km = map.conduit_km();
    // km costs are non-negative by construction; `None` (no pruning) is
    // the graceful fallback if that were ever violated.
    Landmarks::build(&csr, DEFAULT_LANDMARK_COUNT, |e: EdgeId| km[e.index()]).ok()
}

/// Builds the §5.3 route table: one [`PairPaths`] per conduit-joined node
/// pair, sorted by `(a, b)`, with the pair's `k` cheapest loopless conduit
/// routes and its LOS and ROW bounds.
///
/// Pair enumeration is serial (sorted and deduplicated, so pair order is
/// canonical). Yen's k paths fan out per pair in one batch over the frozen
/// CSR view, with `landmarks` (from [`build_landmarks`]) pruning the spur
/// searches; `None` finds the same routes, slower. Batch results come back
/// in input order, so the table is identical at any thread count.
///
/// `row_us` receives the pairs and returns each one's ROW delay in µs;
/// `None` falls back to the LOS bound. A pair without a route keeps the
/// LOS bound too, since the latency study measures no such pair.
pub fn pair_paths(
    map: &FiberMap,
    k: usize,
    landmarks: Option<&Landmarks>,
    row_us: impl FnOnce(&[(u32, u32)]) -> Vec<Option<f64>>,
) -> Vec<PairPaths> {
    let mut pairs: Vec<(u32, u32)> = map
        .conduits
        .iter()
        .map(|c| (c.a.0.min(c.b.0), c.a.0.max(c.b.0)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();

    let km = map.conduit_km();
    let queries: Vec<(NodeId, NodeId)> =
        pairs.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect();
    // Conduit `i` is edge `i` of the map graph, so an edge id indexes `km`
    // and names the conduit a route traverses.
    let yen = par_yen_k_shortest_csr(
        &map.csr(),
        &queries,
        k,
        |e: EdgeId| km[e.index()],
        landmarks,
    );
    let row = row_us(&pairs);
    pairs
        .iter()
        .zip(yen)
        .zip(row)
        .map(|((&(a, b), routes), row_us)| {
            // A non-negative cost function cannot produce a graph error;
            // a failed batch entry degrades to "no routes".
            let paths: Vec<PathSummary> = routes
                .unwrap_or_default()
                .into_iter()
                .map(|p| PathSummary {
                    km: p.cost,
                    conduits: p.edges.iter().map(|e| e.index() as u32).collect(),
                })
                .collect();
            let (node_a, node_b) = (&map.nodes[a as usize], &map.nodes[b as usize]);
            let los_us = fiber_delay_us(node_a.location.distance_km(&node_b.location));
            let row_us = row_us.filter(|_| !paths.is_empty()).unwrap_or(los_us);
            PairPaths {
                a,
                b,
                paths,
                row_us,
                los_us,
            }
        })
        .collect()
}

/// The shortest road ∪ rail distance between each pair's endpoints, km:
/// `None` where an endpoint is not a gazetteer city or no path joins
/// them. The searches fan out in one batch.
fn row_km(
    map: &FiberMap,
    cities: &[City],
    roads: &TransportNetwork,
    rails: &TransportNetwork,
    pairs: &[(u32, u32)],
) -> Vec<Option<f64>> {
    let mut row: MultiGraph<(), f64> = MultiGraph::with_capacity(cities.len(), 0);
    for _ in 0..cities.len() {
        row.add_node(());
    }
    for net in [roads, rails] {
        for e in net.graph.edge_refs() {
            row.add_edge(e.u, e.v, e.data.length_km);
        }
    }
    let city_index: HashMap<String, u32> = cities
        .iter()
        .enumerate()
        .map(|(i, c)| (c.label(), i as u32))
        .collect();
    let mut queries: Vec<(NodeId, NodeId)> = Vec::new();
    let slots: Vec<Option<usize>> = pairs
        .iter()
        .map(|&(a, b)| {
            let ia = city_index.get(&map.nodes[a as usize].label)?;
            let ib = city_index.get(&map.nodes[b as usize].label)?;
            queries.push((NodeId(*ia), NodeId(*ib)));
            Some(queries.len() - 1)
        })
        .collect();
    let found = par_shortest_paths_csr(&row.to_csr(), &queries, |e| *row.edge(e));
    slots
        .iter()
        .map(|slot| match found.get((*slot)?) {
            Some(Ok(Some(p))) => Some(p.cost),
            _ => None,
        })
        .collect()
}

/// Builds the route table with the world's rights-of-way as the ROW bound
/// (the shortest road ∪ rail path between the pair's gazetteer cities),
/// and derives the [`LatencyReport`] from it: one Yen batch for both.
pub fn latency_routes(
    map: &FiberMap,
    cities: &[City],
    roads: &TransportNetwork,
    rails: &TransportNetwork,
    cfg: &LatencyConfig,
    landmarks: Option<&Landmarks>,
) -> (Vec<PairPaths>, LatencyReport) {
    let mut span = intertubes_obs::stage("mitigation.latency");
    // The ROW km stays at hand: the best == ROW test compares km.
    let mut row = Vec::new();
    let pairs = pair_paths(map, cfg.k_paths, landmarks, |pairs| {
        row = row_km(map, cities, roads, rails, pairs);
        row.iter().map(|km| km.map(fiber_delay_us)).collect()
    });
    let mut rows = Vec::with_capacity(pairs.len());
    let mut agree = 0usize;
    for (pair, row_km) in pairs.iter().zip(row) {
        let (Some(best), Some(avg_us)) = (pair.paths.first(), pair.avg_us(cfg.detour_cap)) else {
            continue;
        };
        let (node_a, node_b) = (&map.nodes[pair.a as usize], &map.nodes[pair.b as usize]);
        let row_km = row_km.unwrap_or_else(|| node_a.location.distance_km(&node_b.location));
        if (best.km - row_km).abs() <= 0.01 * row_km.max(1e-9) || best.km <= row_km {
            agree += 1;
        }
        rows.push(PairLatency {
            a: node_a.label.clone(),
            b: node_b.label.clone(),
            best_us: fiber_delay_us(best.km),
            avg_us,
            row_us: pair.row_us,
            los_us: pair.los_us,
        });
    }
    span.items("node_pairs", pairs.len());
    span.items("measured_pairs", rows.len());
    let report = LatencyReport {
        best_equals_row_fraction: agree as f64 / rows.len().max(1) as f64,
        pairs: rows,
    };
    (pairs, report)
}

/// Runs the latency study over every conduit-joined city pair in the map.
pub fn latency_study(
    map: &FiberMap,
    cities: &[City],
    roads: &TransportNetwork,
    rails: &TransportNetwork,
    cfg: &LatencyConfig,
) -> LatencyReport {
    let landmarks = build_landmarks(map);
    latency_routes(map, cities, roads, rails, cfg, landmarks.as_ref()).1
}

impl LatencyReport {
    /// Sorted delays (ms) for one series — CDF inputs for Fig. 12.
    pub fn series_ms(&self, pick: impl Fn(&PairLatency) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.pairs.iter().map(|p| pick(p) / 1000.0).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Quantile of the LOS–ROW delay gap in µs (paper: < 100 µs for 50 % of
    /// pairs, > 500 µs for 25 %).
    pub fn los_row_gap_quantile(&self, q: f64) -> f64 {
        let mut gaps: Vec<f64> = self
            .pairs
            .iter()
            .map(|p| (p.row_us - p.los_us).max(0.0))
            .collect();
        gaps.sort_by(|a, b| a.total_cmp(b));
        if gaps.is_empty() {
            return 0.0;
        }
        let idx = ((q * (gaps.len() - 1) as f64).round() as usize).min(gaps.len() - 1);
        gaps[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_atlas::World;
    use intertubes_map::{build_map, PipelineConfig};
    use intertubes_records::{generate_corpus, CorpusConfig};

    fn report() -> LatencyReport {
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
        latency_study(
            &built.map,
            &w.cities,
            &w.roads,
            &w.rails,
            &LatencyConfig::default(),
        )
    }

    fn pair(kms: &[(f64, &[u32])]) -> PairPaths {
        PairPaths {
            a: 0,
            b: 1,
            paths: kms
                .iter()
                .map(|&(km, cs)| PathSummary {
                    km,
                    conduits: cs.to_vec(),
                })
                .collect(),
            row_us: 1.0,
            los_us: 1.0,
        }
    }

    #[test]
    fn best_and_avg_follow_latency_semantics() {
        let p = pair(&[(100.0, &[0]), (250.0, &[1, 2])]);
        assert_eq!(p.best_us(), Some(fiber_delay_us(100.0)));
        // Both routes are within the 3× detour cap.
        assert_eq!(p.avg_us(3.0), Some(fiber_delay_us(175.0)));
        // With a tight cap only the best survives the average.
        assert_eq!(p.avg_us(1.5), Some(fiber_delay_us(100.0)));
        // No route: no best, no average.
        let q = pair(&[]);
        assert_eq!(q.best_us(), None);
        assert_eq!(q.avg_us(3.0), None);
    }

    #[test]
    fn surviving_route_skips_severed_conduits() {
        let p = pair(&[(100.0, &[0]), (250.0, &[1, 2])]);
        let mut severed = vec![false; 3];
        assert_eq!(p.surviving_km(&severed), Some(100.0));
        severed[0] = true;
        assert_eq!(p.surviving_km(&severed), Some(250.0));
        severed[1] = true;
        assert_eq!(p.surviving_km(&severed), None);
        // Ids beyond the severed slice are intact.
        assert_eq!(p.surviving_km(&[true]), Some(250.0));
    }

    #[test]
    fn ordering_invariants_hold() {
        let r = report();
        assert!(r.pairs.len() > 200, "pairs: {}", r.pairs.len());
        for p in &r.pairs {
            // LOS is the absolute lower bound.
            assert!(
                p.los_us <= p.row_us + 1e-6,
                "{} - {}: row below LOS",
                p.a,
                p.b
            );
            assert!(
                p.los_us <= p.best_us + 1e-6,
                "{} - {}: best below LOS",
                p.a,
                p.b
            );
            // The average over paths can't beat the best path.
            assert!(p.best_us <= p.avg_us + 1e-6, "{} - {}", p.a, p.b);
            // All delays are in a sane range for adjacent long-haul pairs.
            assert!(p.best_us > 0.0 && p.best_us < 40_000.0);
        }
    }

    #[test]
    fn avg_exceeds_best_substantially_somewhere() {
        let r = report();
        // Paper: "average delays ... often substantially higher than the
        // best existing link".
        let frac_worse = r
            .pairs
            .iter()
            .filter(|p| p.avg_us > p.best_us * 1.25)
            .count() as f64
            / r.pairs.len() as f64;
        assert!(
            frac_worse > 0.2,
            "only {frac_worse:.2} of pairs show real detours"
        );
    }

    #[test]
    fn best_equals_row_for_majority() {
        let r = report();
        // Paper: ~65 %. Window: 45–95 %.
        assert!(
            (0.45..=0.95).contains(&r.best_equals_row_fraction),
            "best==ROW fraction {}",
            r.best_equals_row_fraction
        );
    }

    #[test]
    fn los_row_gap_has_heavy_tail() {
        let r = report();
        let median = r.los_row_gap_quantile(0.5);
        let p75 = r.los_row_gap_quantile(0.75);
        assert!(median < p75 || p75 == 0.0);
        assert!(median < 500.0, "median LOS-ROW gap {median} µs too large");
    }

    #[test]
    fn series_are_sorted_ms() {
        let r = report();
        let s = r.series_ms(|p| p.best_us);
        for w in s.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Fig. 12's x-range: mostly below ~4 ms for adjacent pairs.
        let idx = (s.len() as f64 * 0.9) as usize;
        assert!(s[idx] < 10.0, "90th percentile best delay {} ms", s[idx]);
    }
}
