//! Synthetic US long-haul infrastructure atlas.
//!
//! The paper's raw inputs — Internet Atlas fiber maps, National Atlas
//! road/rail layers, and the ground truth of who rents fiber where — are not
//! publicly redistributable (and partly never were public). This crate
//! builds a deterministic synthetic substitute with the same *shape*:
//!
//! * an embedded table of ~200 real CONUS cities ([`cities`]),
//! * synthetic roadway / railway / pipeline corridor networks
//!   ([`transport`]),
//! * a ground-truth conduit system along those corridors ([`conduits`]),
//!   calibrated to the paper's 542 conduits,
//! * per-provider footprints ([`tenancy`]) calibrated to the paper's
//!   Table 1 / §2.3 link counts and its sharing distribution, and
//! * the *published artifacts* (geocoded maps, POP-only maps) that the
//!   map-construction pipeline in `intertubes-map` is allowed to observe
//!   ([`world`]).
//!
//! Everything is a pure function of a `u64` seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cities;
pub mod conduits;
pub mod isps;
pub mod tenancy;
pub mod transport;
pub mod world;

pub use cities::{find_city, load_cities, City, CityId, CITY_TABLE};
pub use conduits::{
    build_conduit_system, Conduit, ConduitConfig, ConduitId, ConduitSystem, RowType,
};
pub use isps::{
    geocoded_isps, isp_roster, pop_only_isps, unpublished_isps, IspId, IspProfile, IspTier,
    MapKind, MAPPED_ISPS,
};
pub use tenancy::{assign_footprints, tenant_counts, Footprint};
pub use transport::{
    build_pipeline_network, build_rail_network, build_road_network, gabriel_pairs, jittered_route,
    knn_pairs, CorridorEdge, TransportNetwork,
};
pub use world::{PublishedLink, PublishedMap, World, WorldConfig};

/// Errors of the atlas layer. Raised only under the strict degradation
/// policy; lenient validation reports and continues instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtlasError {
    /// A transportation layer is fragmented into multiple components.
    DisconnectedTransport {
        /// The affected layer.
        layer: intertubes_geo::CorridorLayer,
        /// How many connected components it splits into.
        components: usize,
    },
}

impl std::fmt::Display for AtlasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtlasError::DisconnectedTransport { layer, components } => write!(
                f,
                "{layer:?} transport layer splits into {components} components"
            ),
        }
    }
}

impl std::error::Error for AtlasError {}
