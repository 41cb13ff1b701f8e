//! Synthetic traceroute campaigns and physical-map overlay (§4.3).
//!
//! The paper infers relative traffic volumes from route popularity in a
//! 4.9 M-probe Edgescope traceroute data set, overlaying layer-3 paths onto
//! the constructed physical map via geolocation and DNS naming hints. This
//! crate simulates the campaign (with MPLS-tunnel opacity, geolocation
//! failures, and partial DNS hints) over the ground-truth world, then
//! implements the overlay against the *constructed* map — including the
//! inference of additional carriers that publish no fiber map at all.
//!
//! DNS hints are roster ids and the overlay accumulates provider sets as
//! bitsets over them, naming providers only once at the end.
//! [`fold_campaign`] overlays each chunk of probes as it is drawn, so a
//! paper-scale campaign runs in memory that does not grow with its size;
//! every overlay consumer uses it. [`run_campaign`] collects the traces
//! for the fault harness, which corrupts them before overlaying them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod overlay;

pub use campaign::{run_campaign, Campaign, Hop, ProbeConfig, Traceroute};
pub use overlay::{
    classify_direction, fold_campaign, overlay_campaign, overlay_campaign_checked,
    overlay_campaign_with_chunk_size, ConduitRow, Direction, Overlay,
};

/// Errors of the probe layer. Raised only under the strict degradation
/// policy; the lenient overlay degrades (drops and counts) instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// A trace endpoint references a city id outside the gazetteer.
    EndpointOutOfRange {
        /// Index of the offending trace in the campaign.
        trace: usize,
        /// The unresolvable city id.
        city: u32,
        /// Gazetteer size at lookup time.
        cities: usize,
    },
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeError::EndpointOutOfRange {
                trace,
                city,
                cities,
            } => write!(
                f,
                "trace {trace}: endpoint city id {city} out of range (gazetteer has {cities})"
            ),
        }
    }
}

impl std::error::Error for ProbeError {}
