//! Precomputed k-shortest-path index (DESIGN.md §9.2).
//!
//! The §5.3 latency study enumerates every conduit-joined city pair and
//! runs Yen's algorithm per pair — far too expensive per query. The index
//! runs that enumeration once at freeze time and stores, per pair, the k
//! cheapest loopless conduit routes (cost plus the conduit ids each route
//! traverses) and the right-of-way / line-of-sight baselines. Latency
//! queries then reduce to a binary search, and conduit-cut what-ifs can
//! re-evaluate "best surviving route" by filtering stored routes against
//! the cut set — no graph search at query time.
//!
//! Pair enumeration, Yen fan-out, and assembly follow
//! `intertubes_mitigation::latency_study` exactly (sorted, deduplicated,
//! input-order batch results), so building the index is deterministic at
//! any thread count.

use std::collections::BTreeMap;

use intertubes_geo::fiber_delay_us;
use intertubes_graph::{
    par_yen_k_shortest_csr, CsrGraph, EdgeId, Landmarks, NodeId, DEFAULT_LANDMARK_COUNT,
};
use intertubes_map::FiberMap;
use serde::{Deserialize, Serialize};

/// Per-conduit lengths in km, hoisted once (summing a polyline's haversine
/// segments per edge relaxation was the old hot spot). Conduit `i` is edge
/// `i` of [`FiberMap::graph`], so this doubles as the edge-cost table.
pub(crate) fn conduit_km(map: &FiberMap) -> Vec<f64> {
    map.conduits
        .iter()
        .map(|c| c.geometry.length_km())
        .collect()
}

/// Builds the ALT landmark tables for `map`'s conduit graph under the km
/// cost — the tables frozen into snapshots and rebuilt (bit-identical:
/// the selection is deterministic) when a container has no landmarks
/// section.
pub fn build_landmarks(map: &FiberMap) -> Option<Landmarks> {
    let csr = map.graph().to_csr();
    let km = conduit_km(map);
    // km costs are non-negative by construction; `None` (no pruning) is
    // the graceful fallback if that were ever violated.
    Landmarks::build(&csr, DEFAULT_LANDMARK_COUNT, |e: EdgeId| km[e.index()]).ok()
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
    /// Up to k cheapest loopless routes, cheapest first. Empty when the
    /// pair was disconnected at freeze time.
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
        Some(fiber_delay_us(capped.iter().sum::<f64>() / capped.len() as f64))
    }

    /// Best delay over stored routes that avoid every severed conduit, µs.
    /// `severed[c]` marks conduit `c` as cut; ids beyond the slice are
    /// treated as intact. `None` when every stored route is hit — the pair
    /// has no surviving *precomputed* route (an approximation: a k+1-th
    /// route might survive, which the snapshot does not know about).
    pub fn best_surviving_us(&self, severed: &[bool]) -> Option<f64> {
        self.paths
            .iter()
            .find(|p| {
                p.conduits
                    .iter()
                    .all(|&c| !severed.get(c as usize).copied().unwrap_or(false))
            })
            .map(|p| fiber_delay_us(p.km))
    }
}

/// The frozen path index: every conduit-joined pair, sorted by
/// `(a, b)` for binary-search lookup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathIndex {
    /// Routes stored per pair (Yen's k).
    pub k: usize,
    /// Detour cap used by the average-delay series.
    pub detour_cap: f64,
    /// Per-pair entries, sorted by `(a, b)`.
    pub pairs: Vec<PairPaths>,
}

impl PathIndex {
    /// Builds the index over every conduit-joined pair of `map`.
    ///
    /// `row_us_by_pair` supplies the §5.3 right-of-way baseline, keyed by
    /// the pair's node labels in `(a, b)` order (as `LatencyReport` emits
    /// them); pairs without an entry fall back to the line-of-sight bound.
    ///
    /// `landmarks` (from [`build_landmarks`] or a loaded snapshot) prunes
    /// the Yen spur searches; `None` builds the same index, slower.
    pub fn build(
        map: &FiberMap,
        k: usize,
        detour_cap: f64,
        row_us_by_pair: &BTreeMap<(String, String), f64>,
        landmarks: Option<&Landmarks>,
    ) -> PathIndex {
        let graph = map.graph();
        let csr: CsrGraph = graph.to_csr();
        let lengths = conduit_km(map);
        let km = |e: EdgeId| lengths[graph.edge(e).index()];

        let mut node_pairs: Vec<(u32, u32)> = map
            .conduits
            .iter()
            .map(|c| (c.a.0.min(c.b.0), c.a.0.max(c.b.0)))
            .collect();
        node_pairs.sort_unstable();
        node_pairs.dedup();

        let queries: Vec<(NodeId, NodeId)> = node_pairs
            .iter()
            .map(|&(a, b)| (NodeId(a), NodeId(b)))
            .collect();
        let yen = par_yen_k_shortest_csr(&csr, &queries, k, km, landmarks);

        let pairs = node_pairs
            .iter()
            .zip(&yen)
            .map(|(&(a, b), result)| {
                // A non-negative cost function cannot produce a graph
                // error; a failed batch entry degrades to "no routes".
                let routes = match result {
                    Ok(paths) => paths
                        .iter()
                        .map(|p| PathSummary {
                            km: p.cost,
                            conduits: p
                                .edges
                                .iter()
                                .map(|&e| graph.edge(e).index() as u32)
                                .collect(),
                        })
                        .collect(),
                    Err(_) => Vec::new(),
                };
                let node_a = &map.nodes[a as usize];
                let node_b = &map.nodes[b as usize];
                let los_us = fiber_delay_us(node_a.location.distance_km(&node_b.location));
                let row_us = row_us_by_pair
                    .get(&(node_a.label.clone(), node_b.label.clone()))
                    .copied()
                    .unwrap_or(los_us);
                PairPaths {
                    a,
                    b,
                    paths: routes,
                    row_us,
                    los_us,
                }
            })
            .collect();
        PathIndex {
            k,
            detour_cap,
            pairs,
        }
    }

    /// Looks up the entry for a node pair (order-insensitive).
    pub fn lookup(&self, a: u32, b: u32) -> Option<&PairPaths> {
        let key = (a.min(b), a.max(b));
        self.pairs
            .binary_search_by_key(&key, |p| (p.a, p.b))
            .ok()
            .map(|i| &self.pairs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(a: u32, b: u32, kms: &[(f64, &[u32])]) -> PairPaths {
        PairPaths {
            a,
            b,
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

    fn index() -> PathIndex {
        PathIndex {
            k: 4,
            detour_cap: 3.0,
            pairs: vec![
                entry(0, 1, &[(100.0, &[0]), (250.0, &[1, 2])]),
                entry(0, 2, &[]),
                entry(1, 2, &[(50.0, &[2])]),
            ],
        }
    }

    #[test]
    fn lookup_is_order_insensitive() {
        let idx = index();
        assert_eq!(idx.lookup(1, 0).map(|p| (p.a, p.b)), Some((0, 1)));
        assert_eq!(idx.lookup(2, 1).map(|p| (p.a, p.b)), Some((1, 2)));
        assert!(idx.lookup(0, 3).is_none());
    }

    #[test]
    fn best_and_avg_follow_latency_semantics() {
        let idx = index();
        let p = idx.lookup(0, 1).unwrap();
        assert_eq!(p.best_us(), Some(fiber_delay_us(100.0)));
        // Both routes are within the 3× detour cap.
        assert_eq!(p.avg_us(3.0), Some(fiber_delay_us(175.0)));
        // With a tight cap only the best survives the average.
        assert_eq!(p.avg_us(1.5), Some(fiber_delay_us(100.0)));
        // Disconnected pair: no best, no average.
        let q = idx.lookup(0, 2).unwrap();
        assert_eq!(q.best_us(), None);
        assert_eq!(q.avg_us(3.0), None);
    }

    #[test]
    fn surviving_route_skips_severed_conduits() {
        let idx = index();
        let p = idx.lookup(0, 1).unwrap();
        let mut severed = vec![false; 3];
        assert_eq!(p.best_surviving_us(&severed), Some(fiber_delay_us(100.0)));
        severed[0] = true;
        assert_eq!(p.best_surviving_us(&severed), Some(fiber_delay_us(250.0)));
        severed[1] = true;
        assert_eq!(p.best_surviving_us(&severed), None);
        // Ids beyond the severed slice are intact.
        assert_eq!(
            p.best_surviving_us(&[true]),
            Some(fiber_delay_us(250.0))
        );
    }
}
