//! Risk and latency mitigation frameworks (the paper's §5).
//!
//! * `robustness` — §5.1's robustness-suggestion framework (eq. 1):
//!   minimum-shared-risk rerouting of the most heavily shared conduits,
//!   path-inflation / shared-risk-reduction metrics, and best-peering
//!   suggestions.
//! * `augmentation` — §5.2's budgeted conduit-addition framework (eq. 2):
//!   greedy selection of up to k new conduits trading global shared-risk
//!   reduction against right-of-way deployment cost.
//! * `latency` — §5.3's propagation-delay study: best existing vs average
//!   existing vs best right-of-way vs line-of-sight delays, over the
//!   per-pair route table the serving layer also freezes.
//! * `exchange` — §6.3's "link exchange" proposal quantified: consortium
//!   economics (break-even membership, required subsidy) for the conduits
//!   the augmentation framework would add.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augmentation;
mod exchange;
mod latency;
mod robustness;
mod whatif;

pub use augmentation::{augment, AddedConduit, AugmentationConfig, AugmentationReport};
pub use exchange::{exchange_analysis, ExchangeConfig, ExchangeOffer, ExchangeReport};
pub use latency::{
    build_landmarks, latency_routes, latency_study, pair_paths, LatencyConfig, LatencyReport,
    PairLatency, PairPaths, PathSummary,
};
pub use robustness::{
    already_optimal_fraction, heaviest_conduits, robustness_suggestion,
    robustness_suggestion_weighted, IspRobustness, RobustnessReport,
};
pub use whatif::{
    apply_augmentation, apply_cut, what_if, what_if_cut, CutEvaluator, CutReport, WhatIfReport,
};
