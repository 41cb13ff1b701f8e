//! Batch path enumeration over independent source/target pairs.
//!
//! All-pairs analyses (the §5.3 latency study, mitigation scans) query the
//! same read-only graph for many unrelated pairs; each query is a pure
//! function of the graph and the pair, so the batch fans out over worker
//! chunks and returns results in input order. Output is byte-identical to
//! mapping the serial routine over the slice (DESIGN.md §7, §10).
//!
//! The batches run on the [`CsrGraph`] hot path: pairs are grouped by
//! source so one shortest-path tree serves every target of that source,
//! and each worker chunk reuses a single [`SearchState`] /
//! [`YenWorkspace`] scratch across its queries.
//!
//! Note on invalid costs: point queries stop as soon as their target
//! settles, so a NaN/negative cost on an edge the search never reaches is
//! not observed (a full tree, which shared-source groups build, would
//! report it). Well-formed cost functions are unaffected.

use std::collections::BTreeMap;

use crate::{
    csr_dijkstra, csr_shortest_path_tree, yen_k_shortest_csr, CsrGraph, EdgeId, GraphError,
    Landmarks, NodeId, Path, SearchState, YenWorkspace,
};

/// Shortest path for every pair, in input order.
///
/// Each element is exactly what [`csr_dijkstra`] returns for that pair
/// (see the module note on invalid costs). Pairs sharing a source are
/// answered from one shortest-path tree; the tree is identical to the
/// per-pair search, so results (and their input order) are unchanged.
pub fn par_shortest_paths_csr(
    csr: &CsrGraph,
    pairs: &[(NodeId, NodeId)],
    cost: impl Fn(EdgeId) -> f64 + Sync,
) -> Vec<Result<Option<Path>, GraphError>> {
    intertubes_obs::counter("graph.shortest_path_queries", pairs.len() as u64);
    let n = csr.node_count();
    let oob = |id: NodeId| GraphError::NodeOutOfBounds {
        index: id.0,
        nodes: n,
    };
    // Group pair indices by source; BTreeMap keeps grouping deterministic.
    let mut by_source: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, &(s, _)) in pairs.iter().enumerate() {
        by_source.entry(s.0).or_default().push(i);
    }
    let groups: Vec<(u32, Vec<usize>)> = by_source.into_iter().collect();
    let chunk = intertubes_parallel::chunk_len(groups.len());
    let scattered = intertubes_parallel::par_chunks_map(&groups, chunk, |_, gs| {
        let mut st = SearchState::new();
        let mut out: Vec<(usize, Result<Option<Path>, GraphError>)> = Vec::new();
        for (s, idxs) in gs {
            let source = NodeId(*s);
            if let [i] = idxs[..] {
                // Lone target: early-exit point query.
                let path = csr_dijkstra(csr, &mut st, source, pairs[i].1, &cost, None);
                out.push((i, path));
                continue;
            }
            // Shared source: one full tree answers every target. Per-pair
            // error precedence matches `csr_dijkstra`: target bounds
            // first, then source bounds / search errors.
            let tree = if source.index() >= n {
                Err(oob(source))
            } else {
                csr_shortest_path_tree(csr, &mut st, source, &cost)
            };
            for &i in idxs {
                let t = pairs[i].1;
                let r = if t.index() >= n {
                    Err(oob(t))
                } else {
                    match &tree {
                        Ok(_) => Ok(st.path_to(t)),
                        Err(e) => Err(e.clone()),
                    }
                };
                out.push((i, r));
            }
        }
        out
    });
    let mut results: Vec<Result<Option<Path>, GraphError>> = vec![Ok(None); pairs.len()];
    for chunk in scattered {
        for (i, r) in chunk {
            results[i] = r;
        }
    }
    results
}

/// Yen's k cheapest loopless paths for every pair, in input order.
///
/// Each element is exactly what [`yen_k_shortest_csr`] returns for that
/// pair; `lm`, when given, must match the graph + cost function.
pub fn par_yen_k_shortest_csr(
    csr: &CsrGraph,
    pairs: &[(NodeId, NodeId)],
    k: usize,
    cost: impl Fn(EdgeId) -> f64 + Sync,
    lm: Option<&Landmarks>,
) -> Vec<Result<Vec<Path>, GraphError>> {
    intertubes_obs::counter("graph.yen_queries", pairs.len() as u64);
    let chunk = intertubes_parallel::chunk_len(pairs.len());
    let chunks = intertubes_parallel::par_chunks_map(pairs, chunk, |_, ps| {
        let mut ws = YenWorkspace::new();
        ps.iter()
            .map(|&(s, t)| yen_k_shortest_csr(csr, &mut ws, s, t, k, &cost, lm))
            .collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiGraph;

    /// A ring of `n` nodes with unit edges plus one heavy chord.
    fn ring(n: u32) -> MultiGraph<(), f64> {
        let mut g = MultiGraph::with_capacity(n as usize, n as usize + 1);
        for _ in 0..n {
            g.add_node(());
        }
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0);
        }
        g.add_edge(NodeId(0), NodeId(n / 2), 10.0);
        g
    }

    #[test]
    fn batch_matches_serial_dijkstra() {
        let g = ring(12);
        let csr = g.to_csr();
        let pairs: Vec<(NodeId, NodeId)> = (0..12u32)
            .flat_map(|a| (0..12u32).map(move |b| (NodeId(a), NodeId(b))))
            .collect();
        let cost = |e: EdgeId| *g.edge(e);
        let batch = par_shortest_paths_csr(&csr, &pairs, cost);
        let mut st = SearchState::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let serial = csr_dijkstra(&csr, &mut st, s, t, cost, None);
            assert_eq!(batch[i], serial, "pair {s:?}->{t:?}");
        }
    }

    #[test]
    fn batch_matches_serial_yen() {
        let g = ring(8);
        let csr = g.to_csr();
        let pairs: Vec<(NodeId, NodeId)> = (1..8u32).map(|b| (NodeId(0), NodeId(b))).collect();
        let cost = |e: EdgeId| *g.edge(e);
        let lm = Landmarks::build(&csr, 4, cost).ok();
        let batch = par_yen_k_shortest_csr(&csr, &pairs, 3, cost, lm.as_ref());
        let mut ws = YenWorkspace::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let serial = yen_k_shortest_csr(&csr, &mut ws, s, t, 3, cost, None);
            assert_eq!(batch[i], serial, "pair {s:?}->{t:?}");
        }
    }

    #[test]
    fn out_of_bounds_errors_propagate_in_order() {
        let g = ring(4);
        let pairs = [(NodeId(0), NodeId(99)), (NodeId(0), NodeId(1))];
        let batch = par_shortest_paths_csr(&g.to_csr(), &pairs, |e| *g.edge(e));
        assert!(matches!(
            batch[0],
            Err(GraphError::NodeOutOfBounds { index: 99, .. })
        ));
        assert_eq!(
            batch[1].as_ref().map(|p| p.as_ref().map(|p| p.cost)),
            Ok(Some(1.0))
        );
    }

    #[test]
    fn grouped_sources_and_lone_sources_agree_with_serial() {
        let g = ring(10);
        let csr = g.to_csr();
        // A mix: several targets for source 2, one lone pair for source 7,
        // an out-of-bounds source, and an out-of-bounds target mid-group.
        let pairs = [
            (NodeId(2), NodeId(5)),
            (NodeId(2), NodeId(99)),
            (NodeId(7), NodeId(1)),
            (NodeId(42), NodeId(3)),
            (NodeId(2), NodeId(8)),
        ];
        let cost = |e: EdgeId| *g.edge(e);
        let batch = par_shortest_paths_csr(&csr, &pairs, cost);
        let mut st = SearchState::new();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let serial = csr_dijkstra(&csr, &mut st, s, t, cost, None);
            assert_eq!(batch[i], serial, "pair {s:?}->{t:?}");
        }
    }
}
