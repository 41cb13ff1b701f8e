//! Long-haul fiber-map construction (the paper's §2 and §3).
//!
//! Consumes only *public* artifacts — provider-published maps, the public
//! records corpus, a city gazetteer and transportation layers — and
//! reconstructs the US long-haul map: nodes, conduits, tenants, validation
//! status, and right-of-way attribution. The four-step pipeline mirrors the
//! paper exactly; see [`pipeline::build_map`].
//!
//! Also provides the §3 co-location analysis (`colocation`), map
//! summaries / Table 1 extraction and GeoJSON export (`stats`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotate;
mod cluster;
mod colocation;
mod model;
mod pipeline;
mod stats;

pub use annotate::{to_annotated_geojson, MapAnnotations};
pub use cluster::{geometry_separation_km, same_conduit};
pub use colocation::{analyze_colocation, corridor_index, ColocationHistogram, ColocationReport};
pub use model::{
    FiberMap, LongHaulPolicy, MapConduit, MapConduitId, MapNode, MapNodeId, Provenance, Tenancy,
    TenancySource,
};
pub use pipeline::{build_map, build_map_checked, BuiltMap, PipelineConfig, StepReport};
pub use stats::{summarize, table1_rows, to_geojson, MapSummary, ProviderRow};

/// Errors of the map-construction layer. Raised only under
/// [`DegradationPolicy::Strict`](intertubes_degrade::DegradationPolicy):
/// the lenient pipeline degrades (drops, repairs, flags) instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// A geocoded link arrived without geometry and neither endpoint pair
    /// could be repaired from the gazetteer.
    MissingGeometry {
        /// Publishing provider.
        isp: String,
        /// One endpoint label.
        a: String,
        /// The other endpoint label.
        b: String,
    },
    /// A link's geometry carries non-finite or out-of-range coordinates.
    InvalidGeometry {
        /// Publishing provider.
        isp: String,
        /// One endpoint label.
        a: String,
        /// The other endpoint label.
        b: String,
    },
    /// One provider published the same link twice, geometry and all.
    DuplicateLink {
        /// Publishing provider.
        isp: String,
        /// One endpoint label.
        a: String,
        /// The other endpoint label.
        b: String,
    },
    /// A POP-only link names an endpoint absent from the gazetteer.
    UnknownEndpoint {
        /// Publishing provider.
        isp: String,
        /// The unresolvable endpoint label.
        label: String,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::MissingGeometry { isp, a, b } => {
                write!(f, "{isp}: geocoded link {a} — {b} has no geometry")
            }
            MapError::InvalidGeometry { isp, a, b } => {
                write!(f, "{isp}: link {a} — {b} has invalid coordinates")
            }
            MapError::DuplicateLink { isp, a, b } => {
                write!(f, "{isp}: link {a} — {b} published twice")
            }
            MapError::UnknownEndpoint { isp, label } => {
                write!(f, "{isp}: endpoint {label:?} is not in the gazetteer")
            }
        }
    }
}

impl std::error::Error for MapError {}
