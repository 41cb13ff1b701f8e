//! Property-based tests pinning the CSR search stack to the textbook
//! `MultiGraph` Dijkstra in `common/`: same paths, same order, same cost
//! bits — only the cost of computing them may differ (DESIGN.md §10).
//!
//! The generator includes zero-weight edges, parallel edges, self-loops
//! and disconnected components — exactly the shapes where a divergent
//! tie-break or reset bug would surface.

mod common;

use common::{dijkstra, dijkstra_filtered, shortest_path_tree};
use intertubes_graph::{
    csr_dijkstra, csr_nearest_member, csr_shortest_path_tree, yen_k_shortest_csr, EdgeId,
    Landmarks, MultiGraph, NodeId, SearchState, YenWorkspace,
};
use proptest::prelude::*;

/// A random multigraph: parallel edges, self-loops and zero-weight edges
/// possible, plus isolated nodes (node count can exceed edge coverage).
fn arb_graph() -> impl Strategy<Value = (MultiGraph<(), f64>, usize)> {
    (2usize..9).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 0.0f64..50.0), 1..20).prop_map(move |edges| {
            let mut g = MultiGraph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for (u, v, w) in edges {
                // Snap the low end of the weight range to exactly zero so
                // zero-weight ties get real coverage.
                let w = if w < 5.0 { 0.0 } else { w };
                g.add_edge(ns[u], ns[v], w);
            }
            (g, n)
        })
    })
}

/// A random multigraph with small positive integer weights, so that
/// equal-cost paths and equal distances to several nodes are common.
/// Parallel edges, self-loops and isolated nodes are possible.
fn arb_tied_graph() -> impl Strategy<Value = (MultiGraph<(), f64>, usize)> {
    (2usize..10).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n, 1u32..4), 1..24).prop_map(move |edges| {
            let mut g = MultiGraph::new();
            let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for (u, v, w) in edges {
                g.add_edge(ns[u], ns[v], f64::from(w));
            }
            (g, n)
        })
    })
}

proptest! {
    /// The counting-sort CSR lists each node's half-edges exactly as the
    /// graph's own adjacency does: same degree, same (edge, neighbour)
    /// sequence, same endpoints, on graphs with parallel edges, self-loops
    /// and isolated nodes.
    #[test]
    fn csr_mirrors_the_adjacency_lists((g, _n) in arb_graph()) {
        let csr = g.to_csr();
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        for n in g.node_ids() {
            prop_assert_eq!(csr.degree(n), g.degree(n));
            let want: Vec<_> = g.neighbors(n).collect();
            prop_assert_eq!(csr.neighbors(n).collect::<Vec<_>>(), want, "node {:?}", n);
        }
        for e in g.edge_ids() {
            prop_assert_eq!(csr.endpoints(e), g.endpoints(e));
        }
    }

    /// The CSR point query returns bit-identical paths to `dijkstra` for
    /// every pair, across repeated reuses of one scratch state.
    #[test]
    fn csr_dijkstra_is_byte_identical((g, _n) in arb_graph()) {
        let csr = g.to_csr();
        let mut st = SearchState::new();
        for s in g.node_ids() {
            for t in g.node_ids() {
                let old = dijkstra(&g, s, t, |e| *g.edge(e)).unwrap();
                let new = csr_dijkstra(&csr, &mut st, s, t, |e| *g.edge(e), None).unwrap();
                prop_assert_eq!(&old, &new, "pair {:?}->{:?}", s, t);
                if let Some(p) = &new {
                    prop_assert_eq!(p.cost.to_bits(), old.as_ref().unwrap().cost.to_bits());
                }
            }
        }
    }

    /// Full CSR trees agree with `shortest_path_tree` on every distance
    /// and every reconstructed path.
    #[test]
    fn csr_tree_is_byte_identical((g, _n) in arb_graph(), s in 0usize..8) {
        let s = NodeId((s % g.node_count()) as u32);
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let old = shortest_path_tree(&g, s, |e| *g.edge(e)).unwrap();
        csr_shortest_path_tree(&csr, &mut st, s, |e| *g.edge(e)).unwrap();
        for t in g.node_ids() {
            prop_assert_eq!(old.distance(t).to_bits(), st.distance(t).to_bits());
            prop_assert_eq!(old.path_to(t), st.path_to(t));
        }
    }

    /// Point queries whose cost masks banned nodes' edges and banned
    /// edges with `f64::INFINITY` agree with the reference's real masks —
    /// with and without ALT pruning, which must never change the result,
    /// only skip work. A banned node reaches nothing, so only a search
    /// from a banned node to itself differs: the reference answers `None`,
    /// the point query the trivial path. Yen never bans its spur node.
    #[test]
    fn csr_filtered_is_byte_identical_with_and_without_alt(
        (g, _n) in arb_graph(),
        nodes in prop::collection::vec(0usize..8, 1..4),
        edges in prop::collection::vec(0usize..19, 1..4),
    ) {
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 4, |e| *g.edge(e)).unwrap();
        let mut st = SearchState::new();
        let mut banned_nodes = vec![false; g.node_count()];
        nodes.iter().for_each(|&n| banned_nodes[n % g.node_count()] = true);
        let mut banned_edges = vec![false; g.edge_count()];
        edges.iter().for_each(|&e| banned_edges[e % g.edge_count()] = true);
        let masked = |e: EdgeId| {
            let (u, v) = csr.endpoints(e);
            if banned_edges[e.index()] || banned_nodes[u.index()] || banned_nodes[v.index()] {
                f64::INFINITY
            } else {
                *g.edge(e)
            }
        };
        for s in g.node_ids() {
            for t in g.node_ids() {
                if s == t && banned_nodes[s.index()] {
                    continue;
                }
                let old = dijkstra_filtered(
                    &g, s, t, |e| *g.edge(e), &banned_nodes, &banned_edges,
                ).unwrap();
                for alt in [None, Some(&lm)] {
                    let new = csr_dijkstra(&csr, &mut st, s, t, masked, alt).unwrap();
                    prop_assert_eq!(&old, &new, "pair {:?}->{:?} alt={}", s, t, alt.is_some());
                }
            }
        }
    }

    /// CSR Yen over a reused workspace, pruned or not, returns exactly the
    /// ranking of a fresh workspace without pruning.
    #[test]
    fn csr_yen_is_byte_identical((g, n) in arb_graph(), s in 0usize..8, t in 0usize..8, k in 1usize..6) {
        let s = NodeId((s % n) as u32);
        let t = NodeId((t % n) as u32);
        prop_assume!(s != t);
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 4, |e| *g.edge(e)).unwrap();
        let mut ws = YenWorkspace::new();
        let old = yen_k_shortest_csr(&csr, &mut YenWorkspace::new(), s, t, k, |e| *g.edge(e), None)
            .unwrap();
        for alt in [None, Some(&lm)] {
            let new = yen_k_shortest_csr(&csr, &mut ws, s, t, k, |e| *g.edge(e), alt).unwrap();
            prop_assert_eq!(&old, &new, "alt={}", alt.is_some());
        }
    }

    /// ALT admissibility: the landmark bound never exceeds the true
    /// shortest-path distance (infinite bounds only when truly separated).
    #[test]
    fn landmark_bound_is_admissible((g, _n) in arb_graph(), count in 1usize..6) {
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, count, |e| *g.edge(e)).unwrap();
        for s in g.node_ids() {
            let tree = shortest_path_tree(&g, s, |e| *g.edge(e)).unwrap();
            for t in g.node_ids() {
                let truth = tree.distance(t);
                let bound = lm.lower_bound(s, t);
                prop_assert!(
                    bound <= truth + 1e-9 || (bound.is_infinite() && truth.is_infinite()),
                    "{:?}->{:?}: bound {} exceeds true distance {}", s, t, bound, truth
                );
            }
        }
    }

    /// A frozen `PathTree` answers every target with exactly the nodes and
    /// edges of the point query from its source, with banned edges
    /// (`f64::INFINITY`) masked alike: `None` when unreachable, one node
    /// when the target is the source. The tree must not alias the scratch
    /// it was built in, so the point queries reuse that same scratch.
    #[test]
    fn path_tree_matches_csr_dijkstra(
        (g, _n) in arb_graph(),
        ban in prop::collection::vec(0usize..4, 20..21),
    ) {
        let csr = g.to_csr();
        // About one edge in four is banned.
        let cost = |e: EdgeId| if ban[e.index()] == 0 { f64::INFINITY } else { *g.edge(e) };
        let mut st = SearchState::new();
        for s in g.node_ids() {
            let tree = csr_shortest_path_tree(&csr, &mut st, s, cost).unwrap();
            prop_assert_eq!(tree.source(), s);
            for t in g.node_ids() {
                let point = csr_dijkstra(&csr, &mut st, s, t, cost, None).unwrap();
                let routed = tree.path_to(&csr, t);
                if s == t {
                    prop_assert_eq!(&routed, &Some((vec![s], Vec::new())));
                }
                prop_assert_eq!(routed, point.map(|p| (p.nodes, p.edges)), "pair {:?}->{:?}", s, t);
            }
            prop_assert_eq!(tree.path_to(&csr, NodeId(g.node_count() as u32)), None);
        }
    }

    /// A tree grown over an edge-filtered view is the tree grown over the
    /// whole graph with every dropped edge masked by `f64::INFINITY`: the
    /// same route to every target, with zero-weight ties, parallel edges
    /// and self-loops dropped or kept. Walking a route back from its
    /// target without allocating yields `path_to`'s edges and nodes in
    /// reverse, and nothing for an unreached target.
    #[test]
    fn filtered_view_trees_match_infinity_masked_trees(
        (g, _n) in arb_graph(),
        drop in prop::collection::vec(0usize..3, 20..21),
    ) {
        let csr = g.to_csr();
        // About one edge in three is dropped.
        let keep: Vec<bool> = drop.iter().map(|&d| d != 0).collect();
        let view = csr.filtered(&keep);
        let weight = |e: EdgeId| *g.edge(e);
        let masked = |e: EdgeId| if keep[e.index()] { *g.edge(e) } else { f64::INFINITY };
        let mut st = SearchState::new();
        for s in g.node_ids() {
            let filtered = csr_shortest_path_tree(&view, &mut st, s, weight).unwrap();
            let full = csr_shortest_path_tree(&csr, &mut st, s, masked).unwrap();
            for t in g.node_ids() {
                let routed = filtered.path_to(&view, t);
                prop_assert_eq!(&routed, &full.path_to(&csr, t), "pair {:?}->{:?}", s, t);
                let walked = filtered.walk_back(&view, t).map(|walk| {
                    let (mut edges, mut nodes): (Vec<EdgeId>, Vec<NodeId>) = walk.unzip();
                    nodes.insert(0, t);
                    nodes.reverse();
                    edges.reverse();
                    (nodes, edges)
                });
                prop_assert_eq!(walked, routed, "walk {:?}->{:?}", s, t);
            }
            prop_assert!(filtered.walk_back(&view, NodeId(g.node_count() as u32)).is_none());
        }
    }

    /// The nearest-member search returns the node and path that a full
    /// tree followed by an index-order `min_by` over the members picks:
    /// the lowest-index member at the minimum distance. Weights are small
    /// integers to force ties; about one edge in four is masked with
    /// `f64::INFINITY`; member sets may be empty, unreachable, or contain
    /// the source itself.
    #[test]
    fn nearest_member_matches_full_tree_and_min_by(
        (g, n) in arb_tied_graph(),
        ban in prop::collection::vec(0usize..4, 24..25),
        flags in prop::collection::vec(0usize..3, 10..11),
    ) {
        let csr = g.to_csr();
        let cost = |e: EdgeId| if ban[e.index()] == 0 { f64::INFINITY } else { *g.edge(e) };
        // About one node in three is a member.
        let members: Vec<bool> = flags[..n].iter().map(|&f| f == 0).collect();
        let mut st = SearchState::new();
        for s in g.node_ids() {
            csr_shortest_path_tree(&csr, &mut st, s, cost).unwrap();
            let nearest = (0..n)
                .filter(|&i| members[i])
                .min_by(|&a, &b| {
                    st.distance(NodeId(a as u32)).total_cmp(&st.distance(NodeId(b as u32)))
                });
            let expected = nearest.and_then(|m| st.path_to(NodeId(m as u32)));
            let found = csr_nearest_member(&csr, &mut st, s, &members, cost).unwrap();
            prop_assert_eq!(&found, &expected, "source {:?}, members {:?}", s, &members);
            if let Some(p) = &found {
                prop_assert_eq!(p.cost.to_bits(), expected.as_ref().unwrap().cost.to_bits());
            }
            // A short member slice leaves the rest out of the set.
            let none = csr_nearest_member(&csr, &mut st, s, &[], cost).unwrap();
            prop_assert_eq!(none, None);
        }
    }
}
