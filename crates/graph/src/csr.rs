//! Compact CSR (compressed sparse row) adjacency.
//!
//! [`MultiGraph`] stores adjacency as one heap-allocated `Vec` per node —
//! fine for construction, but every Dijkstra relaxation chases a pointer
//! into a separate allocation. [`CsrGraph`] freezes that adjacency into
//! three flat `u32` arrays (offsets, neighbour targets, incident edge ids)
//! plus a flat endpoint table, so a whole search touches a handful of
//! contiguous allocations. Node and edge payloads stay behind in the
//! `MultiGraph` arena; the CSR view carries topology only, which is all
//! the search stack needs (costs come from caller closures keyed by
//! [`EdgeId`]).
//!
//! Half-edge order is exactly the `MultiGraph` adjacency order, so every
//! search over the CSR view relaxes edges in the same sequence as a search
//! over the `MultiGraph` itself — the byte-identity arguments in DESIGN.md
//! §10 lean on that.

use crate::{EdgeId, MultiGraph, NodeId};

/// A frozen, cache-friendly view of a [`MultiGraph`]'s topology.
///
/// Build one with [`MultiGraph::to_csr`] and share it read-only across as
/// many searches as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[n]..offsets[n + 1]` indexes node `n`'s half-edges.
    offsets: Vec<u32>,
    /// Neighbour node id per half-edge.
    targets: Vec<u32>,
    /// Incident edge id per half-edge.
    edge_ids: Vec<u32>,
    /// `(u, v)` endpoint pair per edge, in `add_edge` order.
    endpoints: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over `(edge, neighbour)` pairs incident to `n`, in the same
    /// order as [`MultiGraph::neighbors`].
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let (edges, targets) = self.neighbors_raw(n);
        edges
            .iter()
            .zip(targets)
            .map(|(&e, &t)| (EdgeId(e), NodeId(t)))
    }

    /// The raw half-edge slices for node `n`: `(edge ids, targets)`.
    #[inline]
    pub(crate) fn neighbors_raw(&self, n: NodeId) -> (&[u32], &[u32]) {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        (&self.edge_ids[lo..hi], &self.targets[lo..hi])
    }

    /// Degree of `n` (self-loops count once).
    pub fn degree(&self, n: NodeId) -> usize {
        (self.offsets[n.index() + 1] - self.offsets[n.index()]) as usize
    }

    /// The two endpoints of edge `e` (in insertion order).
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints[e.index()];
        (NodeId(u), NodeId(v))
    }

    /// Given edge `e` incident to node `n`, the endpoint that is not `n`.
    /// For self-loops returns `n` itself.
    pub fn other_endpoint(&self, e: EdgeId, n: NodeId) -> NodeId {
        let (u, v) = self.endpoints(e);
        if u == n {
            v
        } else {
            u
        }
    }

    /// The CSR of the undirected multigraph on `node_count` nodes whose
    /// edge `i` joins `endpoints[i]`, built by counting sort: each node's
    /// half-edges by ascending edge id, a self-loop once. That is the
    /// adjacency order [`MultiGraph::add_edge`] appends, so a caller that
    /// holds only endpoints (a map's conduits) gets the graph's CSR
    /// without building the graph.
    ///
    /// # Panics
    /// Panics if an endpoint is not below `node_count`, as
    /// [`MultiGraph::add_edge`] does.
    pub fn from_endpoints(node_count: usize, endpoints: Vec<(u32, u32)>) -> CsrGraph {
        let mut offsets = vec![0u32; node_count + 1];
        for &(u, v) in &endpoints {
            assert!(
                (u.max(v) as usize) < node_count,
                "edge endpoint out of bounds"
            );
            offsets[u as usize + 1] += 1;
            if u != v {
                offsets[v as usize + 1] += 1;
            }
        }
        for n in 0..node_count {
            offsets[n + 1] += offsets[n];
        }
        let half_edges = offsets[node_count] as usize;
        let mut targets = vec![0u32; half_edges];
        let mut edge_ids = vec![0u32; half_edges];
        let mut next = offsets[..node_count].to_vec();
        let mut place = |n: u32, e: usize, target: u32| {
            let slot = next[n as usize] as usize;
            next[n as usize] += 1;
            targets[slot] = target;
            edge_ids[slot] = e as u32;
        };
        for (e, &(u, v)) in endpoints.iter().enumerate() {
            place(u, e, v);
            if u != v {
                place(v, e, u);
            }
        }
        CsrGraph {
            offsets,
            targets,
            edge_ids,
            endpoints,
        }
    }

    /// An edge-filtered view: only the half-edges of edges flagged in
    /// `keep` (ids past its end are dropped), each node's in this graph's
    /// order. Node ids, edge ids and the endpoint table are unchanged, so
    /// a search over the view relaxes exactly the edges a search over this
    /// graph relaxes when it masks every dropped edge with
    /// `f64::INFINITY`, in the same sequence, and grows the same tree.
    pub fn filtered(&self, keep: &[bool]) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut targets = Vec::new();
        let mut edge_ids = Vec::new();
        offsets.push(0);
        for n in 0..self.node_count() {
            let (edges, tgts) = self.neighbors_raw(NodeId(n as u32));
            for (&e, &t) in edges.iter().zip(tgts) {
                if keep.get(e as usize).copied().unwrap_or(false) {
                    edge_ids.push(e);
                    targets.push(t);
                }
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            offsets,
            targets,
            edge_ids,
            endpoints: self.endpoints.clone(),
        }
    }
}

impl<N, E> MultiGraph<N, E> {
    /// Freezes this graph's topology into a [`CsrGraph`] for the search
    /// stack. Payloads stay in this arena; costs reach searches through
    /// closures keyed by [`EdgeId`].
    ///
    /// The half-edge order is exactly this graph's adjacency order: edges
    /// are only ever appended, so each node's list is by ascending edge
    /// id, with a self-loop once, which [`CsrGraph::from_endpoints`]
    /// rebuilds from the endpoint table.
    pub fn to_csr(&self) -> CsrGraph {
        let endpoints = self
            .edge_ids()
            .map(|e| {
                let (u, v) = self.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        CsrGraph::from_endpoints(self.node_count(), endpoints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> MultiGraph<&'static str, f64> {
        let mut g = MultiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 2.0);
        g.add_edge(a, c, 2.5);
        g.add_edge(c, d, 1.0);
        g.add_edge(a, b, 9.0); // parallel edge
        g.add_edge(d, d, 0.5); // self-loop
        g
    }

    #[test]
    fn csr_mirrors_multigraph_adjacency() {
        let g = diamond();
        let csr = g.to_csr();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for n in g.node_ids() {
            assert_eq!(csr.degree(n), g.degree(n));
            let a: Vec<_> = g.neighbors(n).collect();
            let b: Vec<_> = csr.neighbors(n).collect();
            assert_eq!(a, b, "adjacency order diverged at {n:?}");
        }
        for e in g.edge_ids() {
            assert_eq!(csr.endpoints(e), g.endpoints(e));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_endpoints_checks_bounds() {
        CsrGraph::from_endpoints(2, vec![(0, 2)]);
    }

    #[test]
    fn self_loop_appears_once() {
        let g = diamond();
        let csr = g.to_csr();
        let d = NodeId(3);
        let loops = csr.neighbors(d).filter(|&(_, m)| m == d).count();
        assert_eq!(loops, 1);
        assert_eq!(csr.other_endpoint(EdgeId(5), d), d);
    }

    #[test]
    fn filtered_view_keeps_flagged_half_edges_in_order() {
        let g = diamond();
        let csr = g.to_csr();
        // Drop a→c (edge 2) and, past the mask's end, the self-loop.
        let view = csr.filtered(&[true, true, false, true, true]);
        assert_eq!(view.node_count(), csr.node_count());
        assert_eq!(view.edge_count(), csr.edge_count());
        for n in g.node_ids() {
            let want: Vec<_> = csr
                .neighbors(n)
                .filter(|&(e, _)| e.index() < 2 || e.index() == 3 || e.index() == 4)
                .collect();
            assert_eq!(view.neighbors(n).collect::<Vec<_>>(), want, "{n:?}");
        }
        assert_eq!(view.endpoints(EdgeId(2)), csr.endpoints(EdgeId(2)));
        assert_eq!(csr.filtered(&[true; 6]), csr);
    }

    #[test]
    fn empty_graph_is_empty_csr() {
        let g: MultiGraph<(), ()> = MultiGraph::new();
        let csr = g.to_csr();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(CsrGraph::from_endpoints(0, Vec::new()), csr);
    }
}
