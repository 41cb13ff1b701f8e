//! Allocation-free searches over [`CsrGraph`] with reusable scratch state.
//!
//! A textbook Dijkstra allocates `vec![f64::INFINITY; n]`, `vec![None; n]`,
//! and a fresh heap on every query; batch analyses issue hundreds of
//! thousands of queries over the same few-hundred-node graph, so those
//! allocations dominate. [`SearchState`] keeps the arrays alive
//! across queries and resets only the entries the previous search touched
//! (a "touched list"), making per-query setup O(nodes settled), not
//! O(graph).
//!
//! Three search flavours share one core loop, differing only in when it
//! stops:
//!
//! * [`csr_shortest_path_tree`] — full single-source tree; like the
//!   textbook engine it reports an invalid cost on *any* edge it relaxes,
//!   so callers whose costs may be NaN use it to reject a whole component.
//!   It also returns the tree frozen as a [`PathTree`] (4 B per node) for
//!   callers that route many targets from one source;
//! * [`csr_dijkstra`] — s→t point queries that stop the moment the target
//!   settles, optionally pruned by an ALT landmark bound ([`Landmarks`]);
//! * [`csr_nearest_member`] — stops at the first settled node of a member
//!   set: the cheapest way from a source into a set, without the full
//!   tree and the scan over the set that would otherwise find it.
//!
//! A search removes an edge in one of two ways: its cost function returns
//! `f64::INFINITY` for it (a cut conduit, a spur search's banned root), or
//! it runs over a [`CsrGraph::filtered`] view that leaves the edge out.
//! Both relax the same edges in the same order and grow the same tree.
//!
//! DESIGN.md §10 spells out why the early exit and the ALT pruning return
//! byte-identical paths to the full tree: once a node settles its
//! distance and predecessor are final, and a pruned relaxation can never
//! be part of the target's predecessor chain (the margin in
//! [`prune_margin`] covers float rounding in the landmark bound).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CsrGraph, EdgeId, GraphError, Landmarks, NodeId, Path};

/// A total-ordering wrapper for finite non-negative `f64` costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sentinel for "no predecessor" in the flat prev arrays.
const NONE: u32 = u32::MAX;

/// Reusable scratch for the CSR searches: distance/predecessor arrays, the
/// binary heap, and the touched list that makes resets cheap.
///
/// One `SearchState` serves any number of sequential queries (even over
/// different graphs); it is not `Sync` — parallel batches keep one per
/// worker chunk.
#[derive(Debug, Default)]
pub struct SearchState {
    dist: Vec<f64>,
    prev_edge: Vec<u32>,
    prev_node: Vec<u32>,
    /// Node ids whose entries the last search dirtied.
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
}

impl SearchState {
    /// A fresh scratch; arrays grow lazily to the largest graph searched.
    pub fn new() -> SearchState {
        SearchState::default()
    }

    /// Resets dirty entries from the previous search and ensures capacity
    /// for an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev_edge.resize(n, NONE);
            self.prev_node.resize(n, NONE);
        }
        for &t in &self.touched {
            self.dist[t as usize] = f64::INFINITY;
            self.prev_edge[t as usize] = NONE;
            self.prev_node[t as usize] = NONE;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Cost of the cheapest path found to `n` by the last search, or
    /// `f64::INFINITY` if unreached (including out-of-bounds ids).
    pub fn distance(&self, n: NodeId) -> f64 {
        self.dist.get(n.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// Reconstructs the cheapest path found to `target` by the last
    /// search, or `None` if unreached. The path follows the predecessor
    /// chain back to the search source.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target);
        if !cost.is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target.index();
        while self.prev_edge[cur] != NONE {
            edges.push(EdgeId(self.prev_edge[cur]));
            nodes.push(NodeId(self.prev_node[cur]));
            cur = self.prev_node[cur] as usize;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }
}

/// A frozen single-source shortest-path tree: the search source and one
/// predecessor edge per node, 4 bytes per node.
///
/// Built by [`csr_shortest_path_tree`]. Distances are deliberately not
/// kept: callers that reuse a tree across many targets need only the
/// route, and a tree per (provider, source) or per gap-fill source stays
/// small enough to keep thousands alive. A predecessor *node* is the
/// predecessor edge's other endpoint, so it is recovered from the
/// [`CsrGraph`] instead of stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTree {
    source: NodeId,
    /// Edge entering each node on its cheapest path; [`NONE`] for the
    /// source and for every unreached node.
    prev_edge: Vec<u32>,
}

impl PathTree {
    /// The node the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Nodes and edges of the cheapest `source → target` path, exactly as
    /// [`csr_dijkstra`] returns them, or `None` if `target` is unreached
    /// (including out-of-bounds ids). `csr` must be the graph the tree was
    /// built over.
    pub fn path_to(&self, csr: &CsrGraph, target: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        for (e, n) in self.walk_back(csr, target)? {
            edges.push(e);
            nodes.push(n);
        }
        nodes.reverse();
        edges.reverse();
        Some((nodes, edges))
    }

    /// The cheapest `source → target` path walked back from `target`
    /// without allocating: [`PathTree::path_to`]'s edges and nodes after
    /// `target`, in reverse. `None` if `target` is unreached (including
    /// out-of-bounds ids); an empty walk if it is the source. `csr` must
    /// be the graph the tree was built over, or a view of it with the
    /// same endpoint table ([`CsrGraph::filtered`]).
    pub fn walk_back<'t>(&'t self, csr: &'t CsrGraph, target: NodeId) -> Option<TreeWalk<'t>> {
        let entering = *self.prev_edge.get(target.index())?;
        if entering == NONE && target != self.source {
            return None;
        }
        Some(TreeWalk {
            prev_edge: &self.prev_edge,
            csr,
            cur: target,
        })
    }
}

/// A [`PathTree`] route walked from its target back to the source, built
/// by [`PathTree::walk_back`]. Each item is one hop: the edge entering the
/// current node and the node it leads back to.
#[derive(Debug, Clone)]
pub struct TreeWalk<'t> {
    prev_edge: &'t [u32],
    csr: &'t CsrGraph,
    cur: NodeId,
}

impl Iterator for TreeWalk<'_> {
    type Item = (EdgeId, NodeId);

    fn next(&mut self) -> Option<(EdgeId, NodeId)> {
        let e = self.prev_edge[self.cur.index()];
        if e == NONE {
            return None;
        }
        let e = EdgeId(e);
        // A tree edge is never a self-loop (a loop cannot strictly lower
        // its own endpoint's distance), so this is the parent.
        self.cur = self.csr.other_endpoint(e, self.cur);
        Some((e, self.cur))
    }
}

/// Slack added to the ALT pruning bound so float rounding in the landmark
/// lookup can never prune a relaxation that exact arithmetic would keep.
#[inline]
fn prune_margin(ub: f64) -> f64 {
    1e-9 + 1e-12 * ub
}

/// When the shared search core stops.
#[derive(Clone, Copy)]
enum Stop<'a> {
    /// Never: the search grows the full tree.
    Never,
    /// When this node settles.
    At(NodeId),
    /// When the first node flagged `true` here settles (ids past the end
    /// are not members).
    AnyOf(&'a [bool]),
}

/// The shared search core. It grows the tree from `source` until `stop`
/// says so and returns the node whose settling stopped it, if any. An
/// edge of infinite cost is never relaxed; `lm` enables ALT pruning
/// toward a [`Stop::At`] target.
fn run(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    stop: Stop<'_>,
    cost: &mut dyn FnMut(EdgeId) -> f64,
    lm: Option<&Landmarks>,
) -> Result<Option<NodeId>, GraphError> {
    let n = csr.node_count();
    if source.index() >= n {
        return Err(GraphError::NodeOutOfBounds {
            index: source.0,
            nodes: n,
        });
    }
    st.begin(n);
    st.dist[source.index()] = 0.0;
    st.touched.push(source.0);
    st.heap.push(Reverse((OrdF64(0.0), source.0)));
    let alt = match (lm, stop) {
        (Some(l), Stop::At(t)) => Some((l, t)),
        _ => None,
    };
    while let Some(Reverse((OrdF64(d), nu))) = st.heap.pop() {
        if d > st.dist[nu as usize] {
            continue; // stale entry
        }
        // A settled node's distance and predecessor chain are final.
        let settled_stop = match stop {
            Stop::Never => false,
            Stop::At(t) => nu == t.0,
            Stop::AnyOf(members) => members.get(nu as usize).copied().unwrap_or(false),
        };
        if settled_stop {
            return Ok(Some(NodeId(nu)));
        }
        if let Some((l, t)) = alt {
            // The node was pushed before the upper bound tightened; if the
            // landmark bound now rules it out, skip the expansion.
            let ub = st.dist[t.index()];
            if ub.is_finite() && d + l.lower_bound(NodeId(nu), t) > ub + prune_margin(ub) {
                continue;
            }
        }
        let (eids, tgts) = csr.neighbors_raw(NodeId(nu));
        for i in 0..eids.len() {
            let e = EdgeId(eids[i]);
            let c = cost(e);
            if c.is_nan() || c < 0.0 {
                return Err(GraphError::InvalidCost { edge: e });
            }
            if c.is_infinite() {
                continue;
            }
            let m = tgts[i] as usize;
            let nd = d + c;
            if nd < st.dist[m] {
                if let Some((l, t)) = alt {
                    let ub = st.dist[t.index()];
                    if ub.is_finite()
                        && nd + l.lower_bound(NodeId(tgts[i]), t) > ub + prune_margin(ub)
                    {
                        continue;
                    }
                }
                if st.dist[m].is_infinite() {
                    st.touched.push(tgts[i]);
                }
                st.dist[m] = nd;
                st.prev_edge[m] = e.0;
                st.prev_node[m] = nu;
                st.heap.push(Reverse((OrdF64(nd), tgts[i])));
            }
        }
    }
    Ok(None)
}

/// Full single-source tree. Costs must be non-negative: the first NaN or
/// negative cost relaxed anywhere in the source's component is an error,
/// even on an edge no cheapest path uses; `f64::INFINITY` masks an edge.
///
/// The returned [`PathTree`] keeps the routes for reuse across targets;
/// `st` also holds the search until its next use, so
/// [`SearchState::distance`] / [`SearchState::path_to`] read the same
/// tree with distances and costs.
pub fn csr_shortest_path_tree(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<PathTree, GraphError> {
    run(csr, st, source, Stop::Never, &mut cost, None)?;
    Ok(PathTree {
        source,
        prev_edge: st.prev_edge[..csr.node_count()].to_vec(),
    })
}

/// Cheapest `source → target` path, or `Ok(None)` if disconnected.
/// Stops as soon as `target` settles; the returned path (nodes, edges,
/// cost bits) is exactly what a full [`csr_shortest_path_tree`] from
/// `source` reconstructs, but an invalid cost is only reported if the
/// search relaxes it before `target` settles.
///
/// `lm` enables ALT pruning with a [`Landmarks`] table built over the
/// *same* cost function. A cost that masks edges with `f64::INFINITY`
/// keeps the table admissible — masking can only lengthen true distances
/// — so the pruned search returns the same path the unpruned one would.
pub fn csr_dijkstra(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    lm: Option<&Landmarks>,
) -> Result<Option<Path>, GraphError> {
    if target.index() >= csr.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: csr.node_count(),
        });
    }
    run(csr, st, source, Stop::At(target), &mut cost, lm)?;
    Ok(st.path_to(target))
}

/// Cheapest path from `source` to the nearest node flagged in `members`,
/// or `Ok(None)` if no member is reachable (or none is flagged). Ids past
/// the end of `members` are not members; a member `source` is its own
/// nearest, at cost 0.
///
/// The search stops at the first member it settles. The heap pops equal
/// distances in node-id order, so with strictly positive costs that node
/// is the lowest-index member at the minimum distance: the node a full
/// [`csr_shortest_path_tree`] followed by an index-order `min_by` over the
/// members picks, with the same path and cost bits. (A zero-cost edge can
/// reach an equal-distance member after a higher-index one has settled;
/// the result is then still a nearest member.) As with [`csr_dijkstra`],
/// an invalid cost is only reported if it is relaxed before the stop.
pub fn csr_nearest_member(
    csr: &CsrGraph,
    st: &mut SearchState,
    source: NodeId,
    members: &[bool],
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<Option<Path>, GraphError> {
    let found = run(csr, st, source, Stop::AnyOf(members), &mut cost, None)?;
    Ok(found.and_then(|m| st.path_to(m)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiGraph;

    /// a(0) -1- b(1) -1- c(2) -1- d(3); a -5- d direct.
    fn g() -> MultiGraph<(), f64> {
        let mut g = MultiGraph::new();
        let ns: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(ns[0], ns[1], 1.0);
        g.add_edge(ns[1], ns[2], 1.0);
        g.add_edge(ns[2], ns[3], 1.0);
        g.add_edge(ns[0], ns[3], 5.0);
        g
    }

    /// One point query over `g` with its stored edge weights.
    fn query(g: &MultiGraph<(), f64>, s: u32, t: u32) -> Result<Option<Path>, GraphError> {
        csr_dijkstra(
            &g.to_csr(),
            &mut SearchState::new(),
            NodeId(s),
            NodeId(t),
            |e| *g.edge(e),
            None,
        )
    }

    /// A point query from a(0) to d(3) over `g` with the given nodes and
    /// edges masked by an infinite cost.
    fn masked(g: &MultiGraph<(), f64>, nodes: &[u32], edges: &[u32]) -> Option<Path> {
        let csr = g.to_csr();
        let cost = |e: EdgeId| {
            let (u, v) = csr.endpoints(e);
            if edges.contains(&e.0) || nodes.contains(&u.0) || nodes.contains(&v.0) {
                f64::INFINITY
            } else {
                *g.edge(e)
            }
        };
        csr_dijkstra(
            &csr,
            &mut SearchState::new(),
            NodeId(0),
            NodeId(3),
            cost,
            None,
        )
        .unwrap()
    }

    #[test]
    fn csr_dijkstra_finds_every_cheapest_path() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        // Cheapest costs on the unit line with a heavy chord.
        let expected = [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0],
        ];
        for s in 0..4u32 {
            for t in 0..4u32 {
                let p = csr_dijkstra(&csr, &mut st, NodeId(s), NodeId(t), |e| *g.edge(e), None)
                    .unwrap()
                    .unwrap();
                assert_eq!(p.cost, expected[s as usize][t as usize], "{s}->{t}");
                assert_eq!(p.hops(), s.abs_diff(t) as usize, "{s}->{t}");
                assert!(p.is_valid_in(&g));
                assert_eq!((p.source(), p.target()), (NodeId(s), NodeId(t)));
            }
        }
        let p = query(&g, 0, 3).unwrap().unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn source_to_self_is_trivial() {
        let p = query(&g(), 2, 2).unwrap().unwrap();
        assert_eq!(p.nodes, vec![NodeId(2)]);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn parallel_edge_choice_prefers_cheaper() {
        let mut g = g();
        let cheap = g.add_edge(NodeId(0), NodeId(3), 0.5);
        let p = query(&g, 0, 3).unwrap().unwrap();
        assert_eq!(p.cost, 0.5);
        assert_eq!(p.edges, vec![cheap]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = g();
        let lonely = g.add_node(());
        assert_eq!(query(&g, 0, lonely.0), Ok(None));
    }

    #[test]
    fn infinite_cost_masks_edge() {
        let g = g();
        // The direct edge is masked: the path must go the long way.
        let p = csr_dijkstra(
            &g.to_csr(),
            &mut SearchState::new(),
            NodeId(0),
            NodeId(3),
            |e| {
                if e == EdgeId(3) {
                    f64::INFINITY
                } else {
                    5.0 * *g.edge(e)
                }
            },
            None,
        )
        .unwrap()
        .unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.cost, 15.0);
    }

    #[test]
    fn tree_distances_are_consistent() {
        let g = g();
        let mut st = SearchState::new();
        csr_shortest_path_tree(&g.to_csr(), &mut st, NodeId(0), |e| *g.edge(e)).unwrap();
        assert_eq!(st.distance(NodeId(0)), 0.0);
        assert_eq!(st.distance(NodeId(2)), 2.0);
        assert_eq!(st.distance(NodeId(3)), 3.0);
        assert_eq!(st.distance(NodeId(42)), f64::INFINITY);
        let p = st.path_to(NodeId(2)).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!((p.source(), p.target()), (NodeId(0), NodeId(2)));
        assert_eq!(st.path_to(NodeId(42)), None);
    }

    #[test]
    fn path_tree_keeps_one_u32_per_node() {
        let mut g = g();
        let lonely = g.add_node(());
        let csr = g.to_csr();
        let tree = csr_shortest_path_tree(&csr, &mut SearchState::new(), NodeId(0), |e| *g.edge(e))
            .unwrap();
        assert_eq!(tree.prev_edge.len(), csr.node_count());
        assert_eq!(std::mem::size_of_val(&tree.prev_edge[0]), 4);
        let (nodes, edges) = tree.path_to(&csr, NodeId(3)).unwrap();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(edges, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        assert_eq!(tree.path_to(&csr, lonely), None);
    }

    #[test]
    fn scratch_reuse_is_clean_across_queries() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        let first = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| *g.edge(e), None)
            .unwrap()
            .unwrap();
        // A second, unrelated query must not see the first one's state.
        let second = csr_dijkstra(&csr, &mut st, NodeId(3), NodeId(0), |e| *g.edge(e), None)
            .unwrap()
            .unwrap();
        assert_eq!(first.cost, second.cost);
        let again = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |e| *g.edge(e), None)
            .unwrap()
            .unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn masked_node_forces_detour() {
        // Mask b's edges: the search must take the direct a-d edge.
        let p = masked(&g(), &[1], &[]).unwrap();
        assert_eq!(p.cost, 5.0);
        assert_eq!(p.edges, vec![EdgeId(3)]);
    }

    #[test]
    fn masked_edges_are_never_relaxed() {
        let g = g();
        // Mask the direct a-d edge: the long way remains.
        let p = masked(&g, &[], &[3]).unwrap();
        assert_eq!(p.edges, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        // Mask b-c as well: now unreachable.
        assert_eq!(masked(&g, &[], &[3, 1]), None);
    }

    #[test]
    fn out_of_bounds_ids_error() {
        let g = g();
        let r = query(&g, 0, 42);
        assert!(matches!(
            r,
            Err(GraphError::NodeOutOfBounds { index: 42, .. })
        ));
        let r = query(&g, 42, 0);
        assert!(matches!(
            r,
            Err(GraphError::NodeOutOfBounds { index: 42, .. })
        ));
        let r = csr_shortest_path_tree(&g.to_csr(), &mut SearchState::new(), NodeId(42), |_| 1.0);
        assert!(matches!(
            r,
            Err(GraphError::NodeOutOfBounds { index: 42, .. })
        ));
    }

    #[test]
    fn invalid_costs_error() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        for bad in [-1.0, f64::NAN] {
            let r = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(3), |_| bad, None);
            assert!(matches!(r, Err(GraphError::InvalidCost { .. })));
            let r = csr_shortest_path_tree(&csr, &mut st, NodeId(0), |_| bad);
            assert!(matches!(r, Err(GraphError::InvalidCost { .. })));
        }
    }

    #[test]
    fn only_the_full_tree_sees_an_invalid_cost_past_the_target() {
        let g = g();
        let csr = g.to_csr();
        let mut st = SearchState::new();
        // Edge c-d is NaN; a->b settles b before c-d is ever relaxed.
        let cost = |e: EdgeId| if e == EdgeId(2) { f64::NAN } else { *g.edge(e) };
        let p = csr_dijkstra(&csr, &mut st, NodeId(0), NodeId(1), cost, None).unwrap();
        assert_eq!(p.map(|p| p.cost), Some(1.0));
        let r = csr_shortest_path_tree(&csr, &mut st, NodeId(0), cost);
        assert_eq!(r, Err(GraphError::InvalidCost { edge: EdgeId(2) }));
    }
}
