//! Probabilistic geofenced failure scenarios with seeded ensembles
//! (DESIGN.md §12).
//!
//! The paper's risk analysis (§5–§6) cuts one conduit at a time; real
//! hazards — earthquakes, hurricanes, backhoe corridors — sever
//! geographically *correlated* sets. This crate closes that gap:
//!
//! * [`ScenarioPlan`] — a JSON DSL (the `FaultPlan` idiom: serde
//!   round-trip, parse-time validation with typed [`ScenarioError`]s,
//!   infallible pretty printer, built-in scenarios) describing a
//!   geofenced hazard: a [`Footprint`] (polygon ring or geodesic disc)
//!   over the conduit grid plus a [`HazardModel`] (fixed,
//!   distance-decayed, or Weibull-intensity failure probability).
//! * [`exposures`] — the pure footprint→conduit exposure table:
//!   conduits whose sampled geometry enters the footprint, with their
//!   modeled failure probabilities.
//! * [`evaluate`] — seeded ensemble sampling: N correlated failure sets
//!   drawn from per-draw RNG streams (`seed ⊕ (i+1)·φ`), each evaluated
//!   over the [`RouteIndex`] postings (only the pairs whose best route
//!   the draw severs) with an exact ALT-pruned CSR search fallback, and
//!   tallied into an integer-only
//!   [`EnsembleAccumulator`] whose merge is associative and commutative
//!   — so serial and parallel evaluation produce byte-identical
//!   [`ConditionalRisk`] reports at any thread count.
//!
//! The serve layer exposes this as its `Ensemble` query family (cached
//! by canonical plan JSON, which includes the seed), and the CLI as the
//! `scenario` subcommand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsl;
mod engine;
mod geometry;
mod report;

pub use dsl::{Footprint, HazardModel, ScenarioError, ScenarioPlan};
pub use engine::{evaluate, EvalContext, RouteIndex, CRITICALITY_TOP, DRAW_CHUNK};
pub use geometry::{exposures, Exposure, SAMPLE_STEP_KM};
pub use report::{ConditionalRisk, ConduitCriticality, EnsembleAccumulator, PPM};
