//! ALT landmark tables: precomputed distance rows that lower-bound any
//! point-to-point distance via the triangle inequality.
//!
//! For a landmark `L` and undirected distances `d`, the triangle
//! inequality gives `d(n, t) >= |d(L, n) - d(L, t)|`; the bound over a
//! set of landmarks is the max over rows. The search core uses it purely
//! as a *pruning* bound against the best-known target distance — never to
//! reorder the heap — so the settled order, and with it the returned
//! path, is unchanged (DESIGN.md §10).
//!
//! Landmarks are chosen by farthest-point selection: start from node 0,
//! repeatedly add the node farthest from the current set (preferring
//! uncovered components), which spreads landmarks to the graph periphery
//! where the bounds are tightest.
//!
//! Distance rows are frozen into `intertubes-snapshot/v4` containers
//! through [`Landmarks::from_parts`] and the accessors, and stay
//! serialisable for JSON reports. Unreachable entries are stored as `-1.0`
//! rather than `f64::INFINITY` because JSON cannot represent infinities.

use serde::{Deserialize, Serialize};

use crate::{CsrGraph, EdgeId, GraphError, NodeId, SearchState};

/// Default landmark count: enough rows to tighten bounds on a
/// few-hundred-node conduit graph without bloating snapshots.
pub const DEFAULT_LANDMARK_COUNT: usize = 16;

/// Stored sentinel for "unreachable from this landmark".
const UNREACHABLE: f64 = -1.0;

/// Precomputed landmark distance tables for a fixed graph + cost function.
///
/// Row `i` holds `d(landmark_i, n)` for every node `n`, flattened into
/// `dist[i * node_count + n]`. Bounds from a table are only valid for
/// searches over the *same* graph and the *same* edge costs it was built
/// with; masked (filtered) searches are fine, because masking can only
/// lengthen distances and the bound stays admissible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Landmarks {
    node_count: u32,
    /// Chosen landmark node ids, in selection order.
    nodes: Vec<u32>,
    /// Flattened distance rows, `-1.0` meaning unreachable.
    dist: Vec<f64>,
}

impl Landmarks {
    /// Builds up to `count` landmark tables over `csr` with the given
    /// edge costs, via deterministic farthest-point selection.
    ///
    /// Errors only if `cost` yields NaN or a negative value. An empty
    /// graph produces an empty (but valid) table.
    pub fn build(
        csr: &CsrGraph,
        count: usize,
        mut cost: impl FnMut(EdgeId) -> f64,
    ) -> Result<Landmarks, GraphError> {
        let n = csr.node_count();
        let mut lm = Landmarks {
            node_count: n as u32,
            nodes: Vec::new(),
            dist: Vec::new(),
        };
        if n == 0 || count == 0 {
            return Ok(lm);
        }
        let mut st = SearchState::new();
        // min over existing landmark rows of d(L, n); INFINITY = uncovered.
        let mut min_dist = vec![f64::INFINITY; n];
        // Seed the selection from node 0: its farthest reachable node is
        // the first landmark (or node 0 itself in a singleton component).
        crate::csr_shortest_path_tree(csr, &mut st, NodeId(0), &mut cost)?;
        let mut next = (0..n as u32)
            .filter(|&i| st.distance(NodeId(i)).is_finite())
            .max_by(|&a, &b| {
                st.distance(NodeId(a))
                    .total_cmp(&st.distance(NodeId(b)))
                    .then(b.cmp(&a)) // prefer the smaller id on ties
            })
            .unwrap_or(0);
        while lm.nodes.len() < count.min(n) {
            crate::csr_shortest_path_tree(csr, &mut st, NodeId(next), &mut cost)?;
            lm.nodes.push(next);
            for i in 0..n {
                let d = st.distance(NodeId(i as u32));
                lm.dist.push(if d.is_finite() { d } else { UNREACHABLE });
                if d < min_dist[i] {
                    min_dist[i] = d;
                }
            }
            // Next landmark: an uncovered node if any component remains
            // unseen (smallest id), else the node farthest from the set.
            let uncovered = (0..n as u32).find(|&i| min_dist[i as usize].is_infinite());
            next = match uncovered {
                Some(i) => i,
                None => {
                    let far = (0..n as u32).max_by(|&a, &b| {
                        min_dist[a as usize]
                            .total_cmp(&min_dist[b as usize])
                            .then(b.cmp(&a))
                    });
                    match far {
                        Some(i) if min_dist[i as usize] > 0.0 => i,
                        _ => break, // every node is a landmark-distance 0
                    }
                }
            };
        }
        Ok(lm)
    }

    /// Reassembles a table from its parts, as [`Landmarks::node_count`],
    /// [`Landmarks::landmark_nodes`] and [`Landmarks::distances`] return
    /// them.
    ///
    /// Errors if a landmark id is not below `node_count`, or if `dist`
    /// does not hold exactly one row of `node_count` entries per landmark.
    pub fn from_parts(
        node_count: u32,
        nodes: Vec<u32>,
        dist: Vec<f64>,
    ) -> Result<Landmarks, GraphError> {
        if let Some(&index) = nodes.iter().find(|&&i| i >= node_count) {
            return Err(GraphError::NodeOutOfBounds {
                index,
                nodes: node_count as usize,
            });
        }
        let expected = nodes.len().saturating_mul(node_count as usize);
        if dist.len() != expected {
            return Err(GraphError::LandmarkTable {
                expected,
                found: dist.len(),
            });
        }
        Ok(Landmarks {
            node_count,
            nodes,
            dist,
        })
    }

    /// The flattened distance rows: `d(landmark_i, n)` at
    /// `i * node_count + n`, `-1.0` meaning unreachable.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Number of landmarks in the table.
    pub fn count(&self) -> usize {
        self.nodes.len()
    }

    /// The chosen landmark node ids, in selection order.
    pub fn landmark_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|&i| NodeId(i))
    }

    /// Number of nodes in the graph the table was built over.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Admissible lower bound on `d(n, t)`: never exceeds the true
    /// shortest-path distance under the build costs (or any edge-masked
    /// restriction of them). Returns `f64::INFINITY` when some landmark
    /// proves `n` and `t` lie in different components, and `0.0` when no
    /// landmark can separate them (including out-of-bounds ids).
    #[inline]
    pub fn lower_bound(&self, n: NodeId, t: NodeId) -> f64 {
        let nc = self.node_count as usize;
        if n.index() >= nc || t.index() >= nc {
            return 0.0;
        }
        let mut best = 0.0f64;
        for row in self.dist.chunks_exact(nc.max(1)) {
            let (dn, dt) = (row[n.index()], row[t.index()]);
            match (dn < 0.0, dt < 0.0) {
                (false, false) => {
                    let b = (dn - dt).abs();
                    if b > best {
                        best = b;
                    }
                }
                // One endpoint reachable from the landmark, the other not:
                // they sit in different components, so d(n, t) = INFINITY.
                (true, false) | (false, true) => return f64::INFINITY,
                (true, true) => {}
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiGraph;

    fn line(n: u32) -> MultiGraph<(), f64> {
        let mut g = MultiGraph::new();
        let ns: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
        for w in ns.windows(2) {
            g.add_edge(w[0], w[1], 1.0);
        }
        g
    }

    #[test]
    fn bounds_are_admissible_and_tight_on_a_line() {
        let g = line(6);
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 4, |e| *g.edge(e)).unwrap();
        assert!(lm.count() >= 2);
        for s in 0..6u32 {
            for t in 0..6u32 {
                // Unit edges on a line: the true distance is the hop gap.
                let truth = s.abs_diff(t) as f64;
                let lb = lm.lower_bound(NodeId(s), NodeId(t));
                assert!(lb <= truth + 1e-12, "{s}->{t}: bound {lb} > true {truth}");
            }
        }
        // On a line with endpoints as landmarks the bound is exact.
        assert_eq!(lm.lower_bound(NodeId(0), NodeId(5)), 5.0);
    }

    #[test]
    fn disconnected_components_each_get_a_landmark() {
        let mut g = line(3);
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 2.0);
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 8, |e| *g.edge(e)).unwrap();
        let picked: Vec<u32> = lm.landmark_nodes().map(|n| n.0).collect();
        assert!(
            picked.iter().any(|&i| i >= 3),
            "second component uncovered: {picked:?}"
        );
        // Cross-component bound is provably infinite.
        assert_eq!(lm.lower_bound(NodeId(0), a), f64::INFINITY);
        assert_eq!(lm.lower_bound(a, b), 2.0);
    }

    #[test]
    fn serde_round_trip_preserves_unreachable_sentinels() {
        let mut g = line(3);
        g.add_node(()); // isolated
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 2, |e| *g.edge(e)).unwrap();
        let json = serde_json::to_string(&lm).unwrap();
        let back: Landmarks = serde_json::from_str(&json).unwrap();
        assert_eq!(lm, back);
        assert_eq!(back.lower_bound(NodeId(0), NodeId(3)), f64::INFINITY);
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_tables() {
        let g = line(4);
        let lm = Landmarks::build(&g.to_csr(), 2, |e| *g.edge(e)).unwrap();
        let n = lm.node_count() as u32;
        let ids: Vec<u32> = lm.landmark_nodes().map(|id| id.0).collect();
        let back = Landmarks::from_parts(n, ids.clone(), lm.distances().to_vec());
        assert_eq!(back, Ok(lm.clone()));
        let short = lm.distances()[1..].to_vec();
        assert_eq!(
            Landmarks::from_parts(n, ids, short),
            Err(GraphError::LandmarkTable {
                expected: 8,
                found: 7
            })
        );
        assert_eq!(
            Landmarks::from_parts(n, vec![0, 4], lm.distances().to_vec()),
            Err(GraphError::NodeOutOfBounds { index: 4, nodes: 4 })
        );
    }

    #[test]
    fn empty_graph_and_zero_count_are_fine() {
        let g: MultiGraph<(), f64> = MultiGraph::new();
        let csr = g.to_csr();
        let lm = Landmarks::build(&csr, 16, |e| *g.edge(e)).unwrap();
        assert_eq!(lm.count(), 0);
        assert_eq!(lm.lower_bound(NodeId(0), NodeId(1)), 0.0);
        let g2 = line(4);
        let lm2 = Landmarks::build(&g2.to_csr(), 0, |e| *g2.edge(e)).unwrap();
        assert_eq!(lm2.count(), 0);
        assert_eq!(lm2.lower_bound(NodeId(0), NodeId(3)), 0.0);
    }
}
