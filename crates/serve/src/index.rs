//! The frozen path index (DESIGN.md §9.2).
//!
//! The §5.3 route table, one [`PairPaths`] record per conduit-joined city
//! pair, is built at freeze time by `intertubes_mitigation::pair_paths`,
//! the same function the latency study reduces to its report. The index
//! stores those records sorted by `(a, b)`: the k cheapest loopless
//! conduit routes (cost plus the conduit ids each traverses) and the
//! right-of-way / line-of-sight baselines. Latency queries reduce to a
//! binary search. Cut what-ifs take from the index the pairs a cut can
//! affect and each pair's pre-cut best route; the post-cut route comes
//! from a live search.

use std::collections::BTreeMap;

use intertubes_graph::Landmarks;
use intertubes_map::FiberMap;
use intertubes_mitigation::{pair_paths, PairPaths};
use serde::{Deserialize, Serialize};

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
    /// them); pairs without an entry or without a route fall back to the
    /// line-of-sight bound.
    /// `intertubes_mitigation::latency_routes` builds the same records
    /// without the detour through labels.
    ///
    /// `landmarks` (from [`build_landmarks`](crate::build_landmarks) or a
    /// loaded snapshot) prunes the Yen spur searches; `None` builds the
    /// same index, slower.
    pub fn build(
        map: &FiberMap,
        k: usize,
        detour_cap: f64,
        row_us_by_pair: &BTreeMap<(String, String), f64>,
        landmarks: Option<&Landmarks>,
    ) -> PathIndex {
        let pairs = pair_paths(map, k, landmarks, |pairs| {
            pairs
                .iter()
                .map(|&(a, b)| {
                    let key = (
                        map.nodes[a as usize].label.clone(),
                        map.nodes[b as usize].label.clone(),
                    );
                    row_us_by_pair.get(&key).copied()
                })
                .collect()
        });
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
    use intertubes_mitigation::PathSummary;

    fn entry(a: u32, b: u32, kms: &[f64]) -> PairPaths {
        PairPaths {
            a,
            b,
            paths: kms
                .iter()
                .map(|&km| PathSummary {
                    km,
                    conduits: Vec::new(),
                })
                .collect(),
            row_us: 1.0,
            los_us: 1.0,
        }
    }

    #[test]
    fn lookup_is_order_insensitive() {
        let idx = PathIndex {
            k: 4,
            detour_cap: 3.0,
            pairs: vec![
                entry(0, 1, &[100.0, 250.0]),
                entry(0, 2, &[]),
                entry(1, 2, &[50.0]),
            ],
        };
        assert_eq!(idx.lookup(1, 0).map(|p| (p.a, p.b)), Some((0, 1)));
        assert_eq!(idx.lookup(2, 1).map(|p| (p.a, p.b)), Some((1, 2)));
        assert!(idx.lookup(0, 3).is_none());
    }
}
