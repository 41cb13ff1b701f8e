//! The scenario DSL (DESIGN.md §12.1): JSON plans describing one
//! geofenced hazard plus the ensemble to sample from it.
//!
//! The format mirrors the `FaultPlan` idiom (`intertubes_faults`): serde
//! round-trip, parse-time validation with a typed error enum, a
//! hand-written infallible pretty printer, and named built-in scenarios
//! for tests and docs.

#![deny(clippy::indexing_slicing)]

use intertubes_geo::GeoPoint;
use serde::{Deserialize, Serialize};

/// Geographic footprint of a hazard over the conduit grid.
///
/// A conduit is *exposed* when any of its sampled geometry points falls
/// inside the footprint (see [`crate::exposures`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Footprint {
    /// A closed polygon ring: at least four vertices with the last
    /// repeating the first (GeoJSON-style closure). Containment is
    /// even-odd ray casting in the lat/lon plane — adequate for CONUS
    /// footprints, which never straddle the antimeridian.
    Polygon {
        /// Ring vertices, first == last.
        vertices: Vec<GeoPoint>,
    },
    /// A geodesic disc: all points within `radius_km` of `center`.
    Disc {
        /// Disc center.
        center: GeoPoint,
        /// Disc radius, km (strictly positive).
        radius_km: f64,
    },
}

/// Per-conduit failure-probability model, evaluated at the conduit's
/// closest approach to the hazard center (DESIGN.md §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HazardModel {
    /// Every exposed conduit fails with the same probability `p`.
    Fixed {
        /// Failure probability in `[0, 1]` (values above 1 are clamped
        /// on use, matching `FaultPlan::rate`).
        p: f64,
    },
    /// Exponential distance decay: `p = p0 * exp(-d / scale_km)` where
    /// `d` is the conduit's closest distance (km) to the hazard center.
    DistanceDecay {
        /// Probability at the hazard center.
        p0: f64,
        /// e-folding distance, km (strictly positive).
        scale_km: f64,
    },
    /// Weibull-intensity fragility: `p = 1 - exp(-(x / scale)^shape)`
    /// where `x ∈ [0, 1]` is the normalized proximity (1 at the hazard
    /// center, 0 at the footprint edge).
    Weibull {
        /// Weibull shape `k` (strictly positive).
        shape: f64,
        /// Weibull scale `λ` (strictly positive).
        scale: f64,
    },
}

/// A full scenario plan: the hazard, its probability model, and the
/// seeded ensemble to draw.
///
/// Round-trips through JSON, which is what the CLI's
/// `scenario <plan.json>` subcommand and the serve layer's `Ensemble`
/// query family parse. The canonical serialization (including `seed`)
/// doubles as the serve cache key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPlan {
    /// Scenario name, echoed in the report.
    pub name: String,
    /// Base RNG seed; each ensemble draw derives its own stream from it,
    /// so sampling is independent of chunking and thread count.
    pub seed: u64,
    /// Ensemble size (number of correlated failure sets to draw, ≥ 1).
    pub draws: u64,
    /// Where the hazard lands.
    pub footprint: Footprint,
    /// How exposure translates into failure probability.
    pub model: HazardModel,
}

/// A typed parse/validation error for [`ScenarioPlan::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text was not a syntactically valid plan.
    Parse(String),
    /// A probability parameter was non-finite or negative.
    InvalidProbability {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A strictly-positive model/geometry parameter was not.
    InvalidParameter {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A polygon ring whose last vertex does not repeat the first.
    UnclosedPolygon,
    /// A polygon ring with fewer than four vertices.
    DegeneratePolygon {
        /// Number of vertices supplied.
        vertices: usize,
    },
    /// A vertex or center outside WGS84 bounds (or non-finite).
    InvalidCoordinate {
        /// Offending latitude, degrees.
        lat: f64,
        /// Offending longitude, degrees.
        lon: f64,
    },
    /// An ensemble of zero draws.
    EmptyEnsemble,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(msg) => write!(f, "scenario parse error: {msg}"),
            ScenarioError::InvalidProbability { what, value } => write!(
                f,
                "scenario: invalid probability {value} for `{what}` (must be finite and >= 0)"
            ),
            ScenarioError::InvalidParameter { what, value } => {
                write!(f, "scenario: parameter `{what}` must be > 0, got {value}")
            }
            ScenarioError::UnclosedPolygon => {
                write!(
                    f,
                    "scenario: polygon ring must close (last vertex == first)"
                )
            }
            ScenarioError::DegeneratePolygon { vertices } => write!(
                f,
                "scenario: polygon ring needs at least 4 vertices (closed), got {vertices}"
            ),
            ScenarioError::InvalidCoordinate { lat, lon } => {
                write!(f, "scenario: invalid coordinate lat={lat}, lon={lon}")
            }
            ScenarioError::EmptyEnsemble => {
                write!(f, "scenario: ensemble needs at least 1 draw")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

fn check_coord(p: &GeoPoint) -> Result<(), ScenarioError> {
    let ok = p.lat.is_finite()
        && p.lon.is_finite()
        && (-90.0..=90.0).contains(&p.lat)
        && (-180.0..=180.0).contains(&p.lon);
    if ok {
        Ok(())
    } else {
        Err(ScenarioError::InvalidCoordinate {
            lat: p.lat,
            lon: p.lon,
        })
    }
}

fn check_probability(what: &'static str, value: f64) -> Result<(), ScenarioError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::InvalidProbability { what, value })
    }
}

fn check_positive(what: &'static str, value: f64) -> Result<(), ScenarioError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::InvalidParameter { what, value })
    }
}

impl ScenarioPlan {
    /// Validates the plan: probabilities finite and non-negative (values
    /// above 1 are clamped on use, mirroring `FaultPlan::rate`), scale
    /// parameters strictly positive, polygon rings closed with ≥ 4
    /// vertices, coordinates inside WGS84 bounds, ensemble non-empty.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.draws == 0 {
            return Err(ScenarioError::EmptyEnsemble);
        }
        match &self.footprint {
            Footprint::Polygon { vertices } => {
                if vertices.len() < 4 {
                    return Err(ScenarioError::DegeneratePolygon {
                        vertices: vertices.len(),
                    });
                }
                for v in vertices {
                    check_coord(v)?;
                }
                // Bitwise closure: the parser round-trips exact values, so
                // "first == last" is well-defined on the parsed floats.
                if vertices.first() != vertices.last() {
                    return Err(ScenarioError::UnclosedPolygon);
                }
            }
            Footprint::Disc { center, radius_km } => {
                check_coord(center)?;
                check_positive("radius_km", *radius_km)?;
            }
        }
        match self.model {
            HazardModel::Fixed { p } => check_probability("p", p)?,
            HazardModel::DistanceDecay { p0, scale_km } => {
                check_probability("p0", p0)?;
                check_positive("scale_km", scale_km)?;
            }
            HazardModel::Weibull { shape, scale } => {
                check_positive("shape", shape)?;
                check_positive("scale", scale)?;
            }
        }
        Ok(())
    }

    /// Parses a plan from JSON text, rejecting malformed plans at parse
    /// time with a typed [`ScenarioError`].
    pub fn from_json(text: &str) -> Result<ScenarioPlan, ScenarioError> {
        let plan: ScenarioPlan =
            serde_json::from_str(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Serializes the plan to pretty JSON (the CLI's plan-file format).
    /// Infallible by construction: every field is emitted directly.
    /// Non-finite parameters (only constructible in code) serialize as
    /// `null`, which [`ScenarioPlan::from_json`] rejects — such plans are
    /// invalid and do not round-trip by design.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        }
        fn point(p: &GeoPoint) -> String {
            format!("{{ \"lat\": {}, \"lon\": {} }}", num(p.lat), num(p.lon))
        }
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": {:?},\n", self.name));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"draws\": {},\n", self.draws));
        match &self.footprint {
            Footprint::Polygon { vertices } => {
                out.push_str("  \"footprint\": { \"Polygon\": { \"vertices\": [");
                for (i, v) in vertices.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("\n    ");
                    out.push_str(&point(v));
                }
                out.push_str("\n  ] } },\n");
            }
            Footprint::Disc { center, radius_km } => {
                out.push_str(&format!(
                    "  \"footprint\": {{ \"Disc\": {{ \"center\": {}, \"radius_km\": {} }} }},\n",
                    point(center),
                    num(*radius_km)
                ));
            }
        }
        match self.model {
            HazardModel::Fixed { p } => {
                out.push_str(&format!(
                    "  \"model\": {{ \"Fixed\": {{ \"p\": {} }} }}\n",
                    num(p)
                ));
            }
            HazardModel::DistanceDecay { p0, scale_km } => {
                out.push_str(&format!(
                    "  \"model\": {{ \"DistanceDecay\": {{ \"p0\": {}, \"scale_km\": {} }} }}\n",
                    num(p0),
                    num(scale_km)
                ));
            }
            HazardModel::Weibull { shape, scale } => {
                out.push_str(&format!(
                    "  \"model\": {{ \"Weibull\": {{ \"shape\": {}, \"scale\": {} }} }}\n",
                    num(shape),
                    num(scale)
                ));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Named built-in scenarios over the default synthetic world, used by
    /// tests and documented in EXPERIMENTS.md: a hurricane landfall
    /// corridor across the southeastern grid and an earthquake disc over
    /// the central grid.
    pub fn built_in_scenarios() -> Vec<(&'static str, ScenarioPlan)> {
        fn pt(lat: f64, lon: f64) -> GeoPoint {
            GeoPoint::new(lat, lon).unwrap_or(GeoPoint { lat: 0.0, lon: 0.0 })
        }
        vec![
            (
                "hurricane-corridor",
                ScenarioPlan {
                    name: "hurricane-corridor".to_string(),
                    seed: 20150817,
                    draws: 10_000,
                    footprint: Footprint::Polygon {
                        vertices: vec![
                            pt(28.0, -98.0),
                            pt(28.0, -84.0),
                            pt(36.0, -84.0),
                            pt(36.0, -98.0),
                            pt(28.0, -98.0),
                        ],
                    },
                    model: HazardModel::DistanceDecay {
                        p0: 0.85,
                        scale_km: 400.0,
                    },
                },
            ),
            (
                "earthquake-disc",
                ScenarioPlan {
                    name: "earthquake-disc".to_string(),
                    seed: 1811,
                    draws: 10_000,
                    footprint: Footprint::Disc {
                        center: pt(36.5, -89.5),
                        radius_km: 450.0,
                    },
                    model: HazardModel::Weibull {
                        shape: 1.8,
                        scale: 0.6,
                    },
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disc_plan(p: f64) -> ScenarioPlan {
        ScenarioPlan {
            name: "t".to_string(),
            seed: 1,
            draws: 4,
            footprint: Footprint::Disc {
                center: GeoPoint {
                    lat: 40.0,
                    lon: -100.0,
                },
                radius_km: 100.0,
            },
            model: HazardModel::Fixed { p },
        }
    }

    #[test]
    fn round_trips_through_json() {
        for (_, plan) in ScenarioPlan::built_in_scenarios() {
            let text = plan.to_json();
            let back = ScenarioPlan::from_json(&text).expect("round trip");
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn rejects_nan_and_negative_probability() {
        assert!(matches!(
            disc_plan(f64::NAN).validate(),
            Err(ScenarioError::InvalidProbability { what: "p", .. })
        ));
        assert!(matches!(
            disc_plan(-0.25).validate(),
            Err(ScenarioError::InvalidProbability { what: "p", .. })
        ));
        assert!(disc_plan(0.0).validate().is_ok());
        // Above 1 is legal (clamped on use, like FaultPlan::rate).
        assert!(disc_plan(1.5).validate().is_ok());
    }

    #[test]
    fn rejects_unclosed_and_degenerate_polygons() {
        let mut plan = disc_plan(0.5);
        let pt = |lat, lon| GeoPoint { lat, lon };
        plan.footprint = Footprint::Polygon {
            vertices: vec![
                pt(30.0, -90.0),
                pt(31.0, -90.0),
                pt(31.0, -89.0),
                pt(30.5, -89.5),
            ],
        };
        assert_eq!(plan.validate(), Err(ScenarioError::UnclosedPolygon));
        plan.footprint = Footprint::Polygon {
            vertices: vec![pt(30.0, -90.0), pt(31.0, -90.0), pt(30.0, -90.0)],
        };
        assert_eq!(
            plan.validate(),
            Err(ScenarioError::DegeneratePolygon { vertices: 3 })
        );
    }

    #[test]
    fn rejects_empty_ensemble_and_bad_geometry() {
        let mut plan = disc_plan(0.5);
        plan.draws = 0;
        assert_eq!(plan.validate(), Err(ScenarioError::EmptyEnsemble));
        let mut plan = disc_plan(0.5);
        plan.footprint = Footprint::Disc {
            center: GeoPoint {
                lat: 95.0,
                lon: -100.0,
            },
            radius_km: 100.0,
        };
        assert!(matches!(
            plan.validate(),
            Err(ScenarioError::InvalidCoordinate { .. })
        ));
        let mut plan = disc_plan(0.5);
        plan.footprint = Footprint::Disc {
            center: GeoPoint {
                lat: 40.0,
                lon: -100.0,
            },
            radius_km: 0.0,
        };
        assert!(matches!(
            plan.validate(),
            Err(ScenarioError::InvalidParameter {
                what: "radius_km",
                ..
            })
        ));
    }
}
