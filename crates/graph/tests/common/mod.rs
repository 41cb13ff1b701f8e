//! The textbook `MultiGraph` Dijkstra: the reference the property
//! batteries hold the `CsrGraph` search stack to.
//!
//! Every search allocates fresh distance and predecessor arrays and builds
//! the full single-source tree before answering, so an invalid cost on
//! any edge it relaxes is reported, however far from the target. The
//! production engine (`csr_*` over a frozen `CsrGraph`) must return the
//! same paths, to the cost bit.

#![allow(dead_code)] // each test binary uses a different subset

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use intertubes_graph::{EdgeId, GraphError, MultiGraph, NodeId, Path};

/// A total-ordering wrapper for finite non-negative `f64` costs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

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

/// Result of a single-source search: distances and predecessor links.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[n]` = cost of the cheapest path source→n, or `f64::INFINITY`.
    dist: Vec<f64>,
    /// `prev[n]` = (edge into n, previous node) on a cheapest path.
    prev: Vec<Option<(EdgeId, NodeId)>>,
}

impl ShortestPathTree {
    /// Cost of the cheapest path to `n`. `f64::INFINITY` if unreachable —
    /// including nodes outside the tree's graph, which a caller probing
    /// with foreign ids should see as "unreachable", not a panic.
    pub fn distance(&self, n: NodeId) -> f64 {
        self.dist.get(n.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether `n` is reachable from the source (out-of-bounds ids are not).
    pub fn reachable(&self, n: NodeId) -> bool {
        self.distance(n).is_finite()
    }

    /// Reconstructs the cheapest path to `target`, or `None` if unreachable
    /// (including out-of-bounds targets).
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        let cost = self.distance(target);
        if !cost.is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((e, p)) = self.prev.get(cur.index()).copied().flatten() {
            edges.push(e);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path { nodes, edges, cost })
    }
}

/// Runs Dijkstra from `source` over all edges, using `cost` per edge.
///
/// Costs must be non-negative and finite; otherwise an error is returned the
/// first time an offending edge is relaxed. `f64::INFINITY` is allowed and
/// treated as "edge absent".
pub fn shortest_path_tree<N, E>(
    g: &MultiGraph<N, E>,
    source: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
) -> Result<ShortestPathTree, GraphError> {
    if source.index() >= g.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            index: source.0,
            nodes: g.node_count(),
        });
    }
    let mut dist = vec![f64::INFINITY; g.node_count()];
    let mut prev: Vec<Option<(EdgeId, NodeId)>> = vec![None; g.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Reverse((OrdF64(0.0), source)));
    while let Some(Reverse((OrdF64(d), n))) = heap.pop() {
        if d > dist[n.index()] {
            continue; // stale entry
        }
        for (e, m) in g.neighbors(n) {
            let c = cost(e);
            if c.is_nan() || c < 0.0 {
                return Err(GraphError::InvalidCost { edge: e });
            }
            if c.is_infinite() {
                continue;
            }
            let nd = d + c;
            if nd < dist[m.index()] {
                dist[m.index()] = nd;
                prev[m.index()] = Some((e, n));
                heap.push(Reverse((OrdF64(nd), m)));
            }
        }
    }
    Ok(ShortestPathTree { dist, prev })
}

/// Cheapest path from `source` to `target`, or `Ok(None)` if disconnected.
pub fn dijkstra<N, E>(
    g: &MultiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    cost: impl FnMut(EdgeId) -> f64,
) -> Result<Option<Path>, GraphError> {
    if target.index() >= g.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: g.node_count(),
        });
    }
    Ok(shortest_path_tree(g, source, cost)?.path_to(target))
}

/// Like [`dijkstra`], but with explicit node and edge masks: banned nodes
/// and edges are skipped entirely, and a banned source reaches nothing.
/// The reference for point queries whose cost masks edges with
/// `f64::INFINITY`, as Yen's spur searches and the cut what-ifs do.
pub fn dijkstra_filtered<N, E>(
    g: &MultiGraph<N, E>,
    source: NodeId,
    target: NodeId,
    mut cost: impl FnMut(EdgeId) -> f64,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Result<Option<Path>, GraphError> {
    if banned_nodes.get(source.index()).copied().unwrap_or(false) {
        return Ok(None);
    }
    let masked = |e: EdgeId, c: f64, g: &MultiGraph<N, E>| {
        let (u, v) = g.endpoints(e);
        if banned_edges.get(e.index()).copied().unwrap_or(false)
            || banned_nodes.get(u.index()).copied().unwrap_or(false)
            || banned_nodes.get(v.index()).copied().unwrap_or(false)
        {
            f64::INFINITY
        } else {
            c
        }
    };
    let mut err = None;
    let tree = shortest_path_tree(g, source, |e| {
        let c = cost(e);
        if c.is_nan() || c < 0.0 {
            err = Some(GraphError::InvalidCost { edge: e });
            return f64::INFINITY;
        }
        masked(e, c, g)
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    if target.index() >= g.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            index: target.0,
            nodes: g.node_count(),
        });
    }
    Ok(tree.path_to(target))
}
