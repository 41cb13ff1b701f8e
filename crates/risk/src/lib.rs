//! Shared-risk assessment (the paper's §4).
//!
//! Builds the §4.1 risk matrix over a constructed fiber map and computes:
//! the conduit-sharing distribution and provider ranking (§4.2, Figs. 6–7),
//! Hamming-distance risk-profile similarity (Fig. 8), and the
//! traffic-weighted view obtained by overlaying traceroute campaigns
//! (§4.3, Fig. 9 and Tables 2–4, via `intertubes-probes`). The
//! [`map_resilience`]/[`isp_resilience`] extension quantifies the §4
//! future-work question — how many fiber cuts partition the
//! infrastructure — via bridges and Stoer–Wagner minimum cuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hamming;
mod matrix;
mod metrics;
mod resilience;
mod roster;
mod traffic;

pub use hamming::{hamming_distance, hamming_heatmap, HammingHeatmap};
pub use matrix::RiskMatrix;
pub use metrics::{
    conduits_shared_by_at_least, isp_sharing_ranking, raw_shared_conduits, sharing_fraction,
    SharingStats,
};
pub use resilience::{isp_resilience, map_resilience, IspResilience, ResilienceReport};
pub use roster::Roster;
pub use traffic::{traffic_risk, Cdf, TrafficRisk};

/// Errors of the risk layer. Raised only under the strict degradation
/// policy; the lenient builder repairs (deduplicates) instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RiskError {
    /// The provider roster lists the same name twice, which would
    /// double-count shared conduits.
    DuplicateProvider {
        /// The duplicated provider name.
        name: String,
    },
}

impl std::fmt::Display for RiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RiskError::DuplicateProvider { name } => {
                write!(f, "provider {name:?} appears twice in the roster")
            }
        }
    }
}

impl std::error::Error for RiskError {}
