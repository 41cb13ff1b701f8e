//! Property-based tests: algorithms vs brute-force references on random
//! multigraphs.

mod common;

use common::dijkstra;
use intertubes_graph::{
    bridges, connected_components, csr_dijkstra, csr_shortest_path_tree, stoer_wagner_min_cut,
    yen_k_shortest_csr, MultiGraph, NodeId, SearchState, YenWorkspace,
};
use proptest::prelude::*;

/// A random multigraph with `n` nodes and explicit weighted edges
/// (parallel edges and self-loops possible).
fn arb_graph() -> impl Strategy<Value = (MultiGraph<(), f64>, usize)> {
    (2usize..9).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 0.1f64..50.0), 1..20).prop_map(move |edges| {
            let mut g = MultiGraph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for (u, v, w) in edges {
                g.add_edge(ns[u], ns[v], w);
            }
            (g, n)
        })
    })
}

/// Bellman–Ford reference for shortest-path distance.
fn bellman_ford(g: &MultiGraph<(), f64>, src: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.node_count()];
    dist[src.index()] = 0.0;
    for _ in 0..g.node_count() {
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let w = *g.edge(e);
            if dist[u.index()] + w < dist[v.index()] {
                dist[v.index()] = dist[u.index()] + w;
            }
            if dist[v.index()] + w < dist[u.index()] {
                dist[u.index()] = dist[v.index()] + w;
            }
        }
    }
    dist
}

proptest! {
    #[test]
    fn dijkstra_matches_bellman_ford((g, n) in arb_graph(), s in 0usize..8, t in 0usize..8) {
        let s = NodeId((s % n) as u32);
        let t = NodeId((t % n) as u32);
        let reference = bellman_ford(&g, s);
        let found = csr_dijkstra(&g.to_csr(), &mut SearchState::new(), s, t, |e| *g.edge(e), None)
            .unwrap();
        match found {
            Some(p) => {
                prop_assert!((p.cost - reference[t.index()]).abs() < 1e-9,
                    "dijkstra {} vs reference {}", p.cost, reference[t.index()]);
                prop_assert!(p.is_valid_in(&g));
                // Path cost must equal the sum of its edge weights.
                let sum: f64 = p.edges.iter().map(|e| *g.edge(*e)).sum();
                prop_assert!((sum - p.cost).abs() < 1e-9);
            }
            None => prop_assert!(reference[t.index()].is_infinite()),
        }
    }

    #[test]
    fn yen_paths_ascending_distinct_simple((g, n) in arb_graph(), s in 0usize..8, t in 0usize..8, k in 1usize..6) {
        let s = NodeId((s % n) as u32);
        let t = NodeId((t % n) as u32);
        prop_assume!(s != t);
        let mut ws = YenWorkspace::new();
        let ps = yen_k_shortest_csr(&g.to_csr(), &mut ws, s, t, k, |e| *g.edge(e), None).unwrap();
        prop_assert!(ps.len() <= k);
        for w in ps.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-9);
        }
        for (i, p) in ps.iter().enumerate() {
            prop_assert!(p.is_valid_in(&g));
            prop_assert!(p.is_simple());
            let sum: f64 = p.edges.iter().map(|e| *g.edge(*e)).sum();
            prop_assert!((sum - p.cost).abs() < 1e-9);
            for q in &ps[i + 1..] {
                prop_assert!(p.edges != q.edges, "duplicate path returned");
            }
        }
        // First path must be optimal.
        if let Some(best) = dijkstra(&g, s, t, |e| *g.edge(e)).unwrap() {
            prop_assert!(!ps.is_empty());
            prop_assert!((ps[0].cost - best.cost).abs() < 1e-9);
        } else {
            prop_assert!(ps.is_empty());
        }
    }

    #[test]
    fn bridges_match_removal_definition((g, _n) in arb_graph()) {
        let found = bridges(&g);
        let (_, base_components) = connected_components(&g);
        for e in g.edge_ids() {
            // Rebuild the graph without edge e.
            let mut h: MultiGraph<(), f64> = MultiGraph::new();
            for _ in 0..g.node_count() {
                h.add_node(());
            }
            for e2 in g.edge_ids() {
                if e2 != e {
                    let (u, v) = g.endpoints(e2);
                    h.add_edge(u, v, *g.edge(e2));
                }
            }
            let (_, comps) = connected_components(&h);
            let is_bridge_by_def = comps > base_components;
            prop_assert_eq!(found.contains(&e), is_bridge_by_def,
                "edge {:?}: bridges() says {}, removal says {}", e, found.contains(&e), is_bridge_by_def);
        }
    }

    #[test]
    fn min_cut_never_beats_any_bipartition((g, n) in arb_graph()) {
        prop_assume!(intertubes_graph::is_connected(&g));
        let (w, side) = stoer_wagner_min_cut(&g, |e| *g.edge(e));
        prop_assert!(!side.is_empty() && side.len() < n);
        // Check against every bipartition (n ≤ 8 so ≤ 2^8 subsets).
        let cut_weight = |mask: u32| -> f64 {
            let mut s = 0.0;
            for e in g.edge_ids() {
                let (u, v) = g.endpoints(e);
                if u == v { continue; }
                let su = mask >> u.index() & 1;
                let sv = mask >> v.index() & 1;
                if su != sv {
                    s += *g.edge(e);
                }
            }
            s
        };
        let mut best = f64::INFINITY;
        for mask in 1..(1u32 << n) - 1 {
            best = best.min(cut_weight(mask));
        }
        prop_assert!((w - best).abs() < 1e-9, "stoer–wagner {w} vs exhaustive {best}");
        // And the returned side realizes the weight.
        let mut mask = 0u32;
        for s in &side {
            mask |= 1 << s.index();
        }
        prop_assert!((cut_weight(mask) - w).abs() < 1e-9);
    }
}

/// Brute-force articulation check: removing the node increases components
/// among the remaining nodes.
fn is_articulation_by_removal(g: &MultiGraph<(), f64>, victim: NodeId) -> bool {
    // Components among nodes != victim, using edges avoiding victim.
    let n = g.node_count();
    let mut comp: Vec<u32> = vec![u32::MAX; n];
    let mut count = 0u32;
    for start in 0..n {
        if start == victim.index() || comp[start] != u32::MAX {
            continue;
        }
        comp[start] = count;
        let mut stack = vec![NodeId(start as u32)];
        while let Some(x) = stack.pop() {
            for (_, y) in g.neighbors(x) {
                if y != victim && comp[y.index()] == u32::MAX {
                    comp[y.index()] = count;
                    stack.push(y);
                }
            }
        }
        count += 1;
    }
    // Baseline components (victim excluded from counting on both sides):
    let (base_comp, _) = connected_components(g);
    let mut base_ids: Vec<u32> = (0..n)
        .filter(|&i| i != victim.index())
        .map(|i| base_comp[i])
        .collect();
    base_ids.sort_unstable();
    base_ids.dedup();
    // Also ignore components the victim formed alone.
    count as usize > base_ids.len()
}

proptest! {
    #[test]
    fn articulation_points_match_removal_definition((g, _n) in arb_graph()) {
        let found = intertubes_graph::articulation_points(&g);
        for v in g.node_ids() {
            let by_def = is_articulation_by_removal(&g, v);
            prop_assert_eq!(
                found.contains(&v),
                by_def,
                "node {:?}: articulation_points() says {}, removal says {}",
                v, found.contains(&v), by_def
            );
        }
    }

    #[test]
    fn shortest_path_tree_satisfies_relaxation((g, _n) in arb_graph(), s in 0usize..8) {
        let s = NodeId((s % g.node_count()) as u32);
        let mut tree = SearchState::new();
        csr_shortest_path_tree(&g.to_csr(), &mut tree, s, |e| *g.edge(e)).unwrap();
        // No edge can relax any distance further (Bellman optimality).
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let w = *g.edge(e);
            let du = tree.distance(u);
            let dv = tree.distance(v);
            prop_assert!(dv <= du + w + 1e-9, "edge {:?} relaxes {} > {} + {}", e, dv, du, w);
            prop_assert!(du <= dv + w + 1e-9);
        }
    }
}
