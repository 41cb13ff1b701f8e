//! Yen's k-shortest loopless paths.
//!
//! Used for the "average delay across all physical paths" series in the
//! paper's Fig. 12, where multiple existing conduit paths join a city pair.
//!
//! The algorithm runs over the frozen [`CsrGraph`] view with a reusable
//! [`YenWorkspace`]: the spur searches share one [`SearchState`] scratch,
//! and the ban masks — applied as an infinite cost on every banned edge
//! and on every edge touching a banned node — are cleared via
//! touched-lists instead of being reallocated per spur, so a reused
//! workspace returns the same paths, in the same order, to the cost bit,
//! as a fresh one (DESIGN.md §10).

use crate::{csr_dijkstra, CsrGraph, EdgeId, GraphError, Landmarks};
use crate::{NodeId, Path, SearchState};

/// Reusable scratch for [`yen_k_shortest_csr`]: the spur-search state plus
/// ban masks with touched-lists for O(dirty) clearing.
///
/// One workspace serves any number of sequential queries, even over
/// different graphs (masks regrow as needed).
#[derive(Debug, Default)]
pub struct YenWorkspace {
    st: SearchState,
    banned_nodes: Vec<bool>,
    banned_edges: Vec<bool>,
    set_nodes: Vec<u32>,
    set_edges: Vec<u32>,
}

impl YenWorkspace {
    /// A fresh workspace; buffers grow lazily to the largest graph used.
    pub fn new() -> YenWorkspace {
        YenWorkspace::default()
    }

    fn begin(&mut self, nodes: usize, edges: usize) {
        if self.banned_nodes.len() < nodes {
            self.banned_nodes.resize(nodes, false);
        }
        if self.banned_edges.len() < edges {
            self.banned_edges.resize(edges, false);
        }
        self.clear_masks();
    }

    fn clear_masks(&mut self) {
        for &i in &self.set_nodes {
            self.banned_nodes[i as usize] = false;
        }
        for &i in &self.set_edges {
            self.banned_edges[i as usize] = false;
        }
        self.set_nodes.clear();
        self.set_edges.clear();
    }

    fn ban_node(&mut self, n: NodeId) {
        if !self.banned_nodes[n.index()] {
            self.banned_nodes[n.index()] = true;
            self.set_nodes.push(n.0);
        }
    }

    fn ban_edge(&mut self, e: EdgeId) {
        if !self.banned_edges[e.index()] {
            self.banned_edges[e.index()] = true;
            self.set_edges.push(e.0);
        }
    }
}

/// Returns up to `k` cheapest *loopless* paths from `source` to `target`,
/// sorted by ascending cost, reusing `ws` as scratch and optionally
/// pruning the spur searches with ALT landmarks.
///
/// Parallel edges are handled correctly: two paths through the same node
/// sequence but different parallel conduits are distinct.
///
/// `cost` must be non-negative and finite for present edges
/// (`f64::INFINITY` masks an edge, as in [`crate::csr_dijkstra`]).
///
/// `lm`, when given, must have been built over the same graph and cost
/// function (the spur searches' masks are fine — masking only lengthens
/// distances, so the landmark bound stays admissible).
///
/// Note on invalid costs: searches stop as soon as the target settles, so
/// a NaN/negative cost on an edge the search never reaches is not
/// observed; a full-tree search would have reported it.
/// Well-formed cost functions are unaffected.
pub fn yen_k_shortest_csr(
    csr: &CsrGraph,
    ws: &mut YenWorkspace,
    source: NodeId,
    target: NodeId,
    k: usize,
    cost: impl Fn(EdgeId) -> f64,
    lm: Option<&Landmarks>,
) -> Result<Vec<Path>, GraphError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    ws.begin(csr.node_count(), csr.edge_count());
    let first = match csr_dijkstra(csr, &mut ws.st, source, target, &cost, lm)? {
        Some(p) => p,
        None => return Ok(Vec::new()),
    };
    let mut accepted: Vec<Path> = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

    'outer: while accepted.len() < k {
        // Each node of the last accepted path except the target is a spur.
        for j in 0..accepted[accepted.len() - 1].nodes.len() - 1 {
            let last = &accepted[accepted.len() - 1];
            let spur_node = last.nodes[j];
            let root_nodes = &last.nodes[..=j];
            let root_edges = &last.edges[..j];

            ws.clear_masks();
            let mut to_ban_edges: Vec<EdgeId> = Vec::new();
            for p in accepted.iter().chain(candidates.iter()) {
                if p.edges.len() > j
                    && p.nodes.len() > j
                    && p.nodes[..=j] == *root_nodes
                    && p.edges[..j] == *root_edges
                {
                    to_ban_edges.push(p.edges[j]);
                }
            }
            // Ban the root's interior nodes so spur paths are loopless.
            let to_ban_nodes: Vec<NodeId> = root_nodes[..j].to_vec();
            for e in to_ban_edges {
                ws.ban_edge(e);
            }
            for n in to_ban_nodes {
                ws.ban_node(n);
            }

            // The spur node is never banned: the bans cover the root
            // before it.
            let (bn, be) = (&ws.banned_nodes, &ws.banned_edges);
            let masked = |e: EdgeId| {
                let (u, v) = csr.endpoints(e);
                if be[e.index()] || bn[u.index()] || bn[v.index()] {
                    f64::INFINITY
                } else {
                    cost(e)
                }
            };
            let spur = csr_dijkstra(csr, &mut ws.st, spur_node, target, masked, lm)?;
            if let Some(spur) = spur {
                let last = &accepted[accepted.len() - 1];
                let root_nodes = &last.nodes[..=j];
                let root_edges = &last.edges[..j];
                let root_cost: f64 = root_edges.iter().map(|e| cost(*e)).sum();
                let mut nodes = Vec::with_capacity(root_nodes.len() + spur.nodes.len() - 1);
                nodes.extend_from_slice(root_nodes);
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut edges = Vec::with_capacity(root_edges.len() + spur.edges.len());
                edges.extend_from_slice(root_edges);
                edges.extend_from_slice(&spur.edges);
                let cand = Path {
                    nodes,
                    edges,
                    cost: root_cost + spur.cost,
                };
                let dup = accepted
                    .iter()
                    .chain(candidates.iter())
                    .any(|p| p.edges == cand.edges);
                if !dup {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break 'outer;
        }
        // Pop the cheapest candidate into the accepted list.
        let Some((best_idx, _)) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.cost.total_cmp(&b.cost))
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best_idx));
    }
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{csr_dijkstra, MultiGraph};

    /// Yen over a fresh workspace, without pruning.
    fn yen(g: &MultiGraph<impl Sized, f64>, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
        let mut ws = YenWorkspace::new();
        yen_k_shortest_csr(&g.to_csr(), &mut ws, s, t, k, |e| *g.edge(e), None).unwrap()
    }

    /// Classic Yen example topology plus a parallel edge.
    ///
    /// c(0) -3- d(1) -4- f(2)
    /// c -2- e(3) -1- d ; e -2- f ; e -3- g(4) ; f -2- h(5) ; g -2- h ; d -1- g(absent)
    fn g() -> MultiGraph<&'static str, f64> {
        let mut g = MultiGraph::new();
        let c = g.add_node("c");
        let d = g.add_node("d");
        let f = g.add_node("f");
        let e = g.add_node("e");
        let gg = g.add_node("g");
        let h = g.add_node("h");
        g.add_edge(c, d, 3.0);
        g.add_edge(d, f, 4.0);
        g.add_edge(c, e, 2.0);
        g.add_edge(e, d, 1.0);
        g.add_edge(e, f, 2.0);
        g.add_edge(e, gg, 3.0);
        g.add_edge(f, h, 2.0);
        g.add_edge(gg, h, 2.0);
        g
    }

    #[test]
    fn finds_k_paths_in_ascending_cost() {
        let g = g();
        // c(0) → h(5)
        let ps = yen(&g, NodeId(0), NodeId(5), 4);
        assert!(ps.len() >= 3, "found {}", ps.len());
        for w in ps.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-12);
        }
        // Best: c-e-f-h = 2+2+2 = 6.
        assert!((ps[0].cost - 6.0).abs() < 1e-9, "best cost {}", ps[0].cost);
        for p in &ps {
            assert!(p.is_valid_in(&g));
            assert!(p.is_simple(), "path not loopless: {:?}", p.nodes);
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.target(), NodeId(5));
        }
        // All distinct edge sequences.
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                assert_ne!(ps[i].edges, ps[j].edges);
            }
        }
    }

    #[test]
    fn parallel_edges_yield_distinct_paths() {
        let mut g: MultiGraph<(), f64> = MultiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, b, 2.0);
        let ps = yen(&g, a, b, 5);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].cost, 1.0);
        assert_eq!(ps[1].cost, 2.0);
        assert_ne!(ps[0].edges, ps[1].edges);
    }

    #[test]
    fn k_zero_and_disconnected() {
        let g = g();
        assert!(yen(&g, NodeId(0), NodeId(5), 0).is_empty());
        let mut g2 = g.clone();
        let lonely = g2.add_node("x");
        assert!(yen(&g2, NodeId(0), lonely, 3).is_empty());
    }

    #[test]
    fn exhausts_when_fewer_than_k_paths_exist() {
        let mut g: MultiGraph<(), f64> = MultiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        let ps = yen(&g, a, b, 10);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn k_one_matches_dijkstra() {
        let g = g();
        let ps = yen(&g, NodeId(0), NodeId(2), 1);
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let dj = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(2), |e| *g.edge(e), None).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(Some(&ps[0]), dj.as_ref());
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_with_and_without_alt() {
        let g = g();
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 4, |e| *g.edge(e)).unwrap();
        let mut ws = YenWorkspace::new();
        let fresh = yen(&g, NodeId(0), NodeId(5), 4);
        for _ in 0..3 {
            let plain =
                yen_k_shortest_csr(&csr, &mut ws, NodeId(0), NodeId(5), 4, |e| *g.edge(e), None)
                    .unwrap();
            assert_eq!(plain, fresh);
            let pruned = yen_k_shortest_csr(
                &csr,
                &mut ws,
                NodeId(0),
                NodeId(5),
                4,
                |e| *g.edge(e),
                Some(&lm),
            )
            .unwrap();
            assert_eq!(pruned, fresh);
        }
    }
}
