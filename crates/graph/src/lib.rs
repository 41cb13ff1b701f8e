//! Graph substrate for the InterTubes reproduction.
//!
//! Every network in the paper — the physical conduit map, the synthetic
//! road/rail networks, per-ISP footprints, and the candidate-augmentation
//! graphs of §5 — is an undirected multigraph: multiple parallel conduits may
//! connect the same city pair, and roads/rails routinely run in parallel.
//!
//! This crate provides:
//!
//! * [`MultiGraph`] — an arena-based undirected multigraph with typed ids
//!   ([`NodeId`], [`EdgeId`]) and arbitrary node/edge payloads, frozen
//!   for search with [`MultiGraph::to_csr`].
//! * One path engine over the frozen [`CsrGraph`], with a caller-supplied
//!   edge cost function, so the same engine serves km-cost routing
//!   (latency, §5.3), hop-cost routing (path inflation, §5.1) and
//!   shared-risk-cost routing (eq. 1): reusable [`SearchState`] scratch,
//!   full trees ([`csr_shortest_path_tree`], frozen for reuse as a
//!   4 B-per-node [`PathTree`]), early-exit point queries
//!   ([`csr_dijkstra`], optionally pruned by ALT [`Landmarks`]), loopless
//!   k-shortest paths ([`yen_k_shortest_csr`], for the "average of
//!   existing paths" series of Fig. 12) and order-preserving batches
//!   ([`par_shortest_paths_csr`], [`par_yen_k_shortest_csr`]). Every
//!   search runs one core loop; an edge leaves a search by costing
//!   `f64::INFINITY` or by being absent from a [`CsrGraph::filtered`]
//!   view.
//! * [`connected_components`], [`bridges`], [`articulation_points`],
//!   [`stoer_wagner_min_cut`] — robustness primitives ("number of fiber cuts
//!   needed to partition", §4).
//!
//! The textbook `MultiGraph` Dijkstra the engine replaced lives on only as
//! a test reference (`tests/common/`): the property batteries hold every
//! CSR search to its paths, byte for byte (DESIGN.md §10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod connectivity;
mod csr;
mod landmarks;
mod multigraph;
mod path;
mod search;
mod yen;

pub use batch::{par_shortest_paths_csr, par_yen_k_shortest_csr};
pub use connectivity::{
    articulation_points, bridges, connected_components, is_connected, stoer_wagner_min_cut,
};
pub use csr::CsrGraph;
pub use landmarks::{Landmarks, DEFAULT_LANDMARK_COUNT};
pub use multigraph::{EdgeId, EdgeRef, MultiGraph, NodeId};
pub use path::Path;
pub use search::{
    csr_dijkstra, csr_nearest_member, csr_shortest_path_tree, PathTree, SearchState, TreeWalk,
};
pub use yen::{yen_k_shortest_csr, YenWorkspace};

/// Errors produced by graph queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id was not present in the graph.
    NodeOutOfBounds {
        /// The offending id's index.
        index: u32,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// An edge id was not present in the graph.
    EdgeOutOfBounds {
        /// The offending id's index.
        index: u32,
        /// Number of edges in the graph.
        edges: usize,
    },
    /// A cost function returned a negative or NaN cost for an edge.
    InvalidCost {
        /// The offending edge.
        edge: EdgeId,
    },
    /// A landmark table's distance rows do not match its landmark and
    /// node counts.
    LandmarkTable {
        /// Entries the counts call for: landmarks × nodes.
        expected: usize,
        /// Entries present.
        found: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { index, nodes } => {
                write!(f, "node id {index} out of bounds (graph has {nodes} nodes)")
            }
            GraphError::EdgeOutOfBounds { index, edges } => {
                write!(f, "edge id {index} out of bounds (graph has {edges} edges)")
            }
            GraphError::InvalidCost { edge } => {
                write!(
                    f,
                    "cost function returned a negative or NaN cost for edge {edge:?}"
                )
            }
            GraphError::LandmarkTable { expected, found } => write!(
                f,
                "landmark table holds {found} distances, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}
