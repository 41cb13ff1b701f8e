//! Corridor co-location analysis (paper §3, Fig. 4).
//!
//! The paper used ArcGIS "polygon overlap" between fiber routes and the
//! National Atlas road/rail layers to compute, per fiber link, the fraction
//! of the path co-located with transportation infrastructure. We reproduce
//! the computation directly: sample the fiber polyline at a fixed step and
//! test each sample against a buffer around each corridor layer.

use serde::{Deserialize, Serialize};

use crate::{GeoError, Polyline, SegmentGrid};

/// A transportation / right-of-way layer, mirroring the paper's data sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CorridorLayer {
    /// Roadways (National Atlas roadway layer, Fig. 2).
    Road,
    /// Railways (National Atlas railway layer, Fig. 3).
    Rail,
    /// Other rights-of-way: natural gas / refined-products pipelines, which
    /// the paper uses to explain conduits on neither road nor rail (Fig. 5).
    Pipeline,
}

impl CorridorLayer {
    /// All layers, in presentation order.
    pub const ALL: [CorridorLayer; 3] = [
        CorridorLayer::Road,
        CorridorLayer::Rail,
        CorridorLayer::Pipeline,
    ];
}

impl std::fmt::Display for CorridorLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorridorLayer::Road => write!(f, "road"),
            CorridorLayer::Rail => write!(f, "rail"),
            CorridorLayer::Pipeline => write!(f, "pipeline"),
        }
    }
}

/// Parameters of the overlap analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapParams {
    /// Corridor buffer half-width in km. A fiber sample within this distance
    /// of a corridor segment counts as co-located. The paper does not state
    /// its buffer; 5 km absorbs digitization error in both layers.
    pub buffer_km: f64,
    /// Spacing of samples along the fiber route, km.
    pub sample_step_km: f64,
}

impl Default for OverlapParams {
    fn default() -> Self {
        OverlapParams {
            buffer_km: 5.0,
            sample_step_km: 1.0,
        }
    }
}

impl OverlapParams {
    /// Validates that both parameters are strictly positive.
    pub fn validate(&self) -> Result<(), GeoError> {
        if self.buffer_km <= 0.0 || self.buffer_km.is_nan() {
            return Err(GeoError::NonPositiveParameter {
                name: "buffer_km",
                value: self.buffer_km,
            });
        }
        if self.sample_step_km <= 0.0 || self.sample_step_km.is_nan() {
            return Err(GeoError::NonPositiveParameter {
                name: "sample_step_km",
                value: self.sample_step_km,
            });
        }
        Ok(())
    }
}

/// Per-route co-location result: the fraction of route samples lying inside
/// each layer's buffer (the quantity histogrammed in Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ColocationBreakdown {
    /// Fraction co-located with roadways.
    pub road: f64,
    /// Fraction co-located with railways.
    pub rail: f64,
    /// Fraction co-located with roadways or railways ("rail and road" series
    /// in Fig. 4 — the union, per the paper's "some combination" wording).
    pub road_or_rail: f64,
    /// Fraction co-located with pipeline rights-of-way.
    pub pipeline: f64,
    /// Fraction co-located with none of the layers.
    pub unexplained: f64,
    /// Number of samples tested.
    pub samples: usize,
}

/// Spatial index over the corridor layers.
#[derive(Debug, Clone)]
pub struct CorridorIndex {
    road: SegmentGrid,
    rail: SegmentGrid,
    pipeline: SegmentGrid,
}

impl CorridorIndex {
    /// Creates an empty index with grid cells sized to `cell_km`.
    ///
    /// Use a cell size close to the query buffer for best performance.
    pub fn new(cell_km: f64) -> Result<Self, GeoError> {
        Ok(CorridorIndex {
            road: SegmentGrid::new(cell_km)?,
            rail: SegmentGrid::new(cell_km)?,
            pipeline: SegmentGrid::new(cell_km)?,
        })
    }

    fn layer_mut(&mut self, layer: CorridorLayer) -> &mut SegmentGrid {
        match layer {
            CorridorLayer::Road => &mut self.road,
            CorridorLayer::Rail => &mut self.rail,
            CorridorLayer::Pipeline => &mut self.pipeline,
        }
    }

    fn layer(&self, layer: CorridorLayer) -> &SegmentGrid {
        match layer {
            CorridorLayer::Road => &self.road,
            CorridorLayer::Rail => &self.rail,
            CorridorLayer::Pipeline => &self.pipeline,
        }
    }

    /// Adds a corridor polyline to a layer. `tag` identifies the corridor for
    /// nearest-corridor queries (e.g. an index into the caller's edge table).
    pub fn add_corridor(&mut self, layer: CorridorLayer, pl: &Polyline, tag: u32) {
        self.layer_mut(layer).insert_polyline(pl, tag);
    }

    /// Number of indexed segments in `layer`.
    pub fn layer_len(&self, layer: CorridorLayer) -> usize {
        self.layer(layer).len()
    }

    /// The tag of the nearest corridor in `layer` within `radius_km` of the
    /// midpoint-sampled route, or `None`. Used by map-construction step 3 to
    /// snap a logical (POP-to-POP) link onto the closest known right-of-way.
    pub fn nearest_corridor(
        &self,
        layer: CorridorLayer,
        pl: &Polyline,
        radius_km: f64,
    ) -> Option<(u32, f64)> {
        // One bump per query: safe from worker threads (shards merge by
        // addition), and the total is the same at every thread count.
        intertubes_obs::counter("geo.corridor_queries", 1);
        // Score candidate corridors by mean distance over a few route samples.
        let samples = pl.points_at_fractions([0.25, 0.5, 0.75]);
        let grid = self.layer(layer);
        let mut best: Option<(u32, f64)> = None;
        for s in &samples {
            if let Some(hit) = grid.nearest_within(s, radius_km) {
                if best.map_or(true, |(_, d)| hit.distance_km < d) {
                    best = Some((hit.tag, hit.distance_km));
                }
            }
        }
        best
    }

    /// Computes the co-location breakdown of a fiber route against all
    /// layers (the Fig. 4 statistic).
    pub fn colocation(
        &self,
        route: &Polyline,
        params: &OverlapParams,
    ) -> Result<ColocationBreakdown, GeoError> {
        params.validate()?;
        intertubes_obs::counter("geo.overlap_queries", 1);
        let samples = route.sample_every_km(params.sample_step_km)?;
        let mut road = 0usize;
        let mut rail = 0usize;
        let mut either = 0usize;
        let mut pipe = 0usize;
        let mut none = 0usize;
        for s in &samples {
            let on_road = self.road.any_within(s, params.buffer_km);
            let on_rail = self.rail.any_within(s, params.buffer_km);
            let on_pipe = self.pipeline.any_within(s, params.buffer_km);
            road += on_road as usize;
            rail += on_rail as usize;
            either += (on_road || on_rail) as usize;
            pipe += on_pipe as usize;
            none += (!on_road && !on_rail && !on_pipe) as usize;
        }
        let n = samples.len().max(1) as f64;
        Ok(ColocationBreakdown {
            road: road as f64 / n,
            rail: rail as f64 / n,
            road_or_rail: either as f64 / n,
            pipeline: pipe as f64 / n,
            unexplained: none as f64 / n,
            samples: samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeoPoint;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new_unchecked(lat, lon)
    }

    fn east_west_road() -> Polyline {
        Polyline::straight(p(40.0, -105.0), p(40.0, -100.0))
    }

    #[test]
    fn route_on_road_is_fully_colocated() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        idx.add_corridor(CorridorLayer::Road, &east_west_road(), 0);
        // Fiber route hugging the road 1 km to the north.
        let route = Polyline::straight(p(40.009, -105.0), p(40.009, -100.0));
        let b = idx.colocation(&route, &OverlapParams::default()).unwrap();
        assert!(b.road > 0.99, "road fraction {}", b.road);
        assert_eq!(b.rail, 0.0);
        assert!((b.road_or_rail - b.road).abs() < 1e-12);
        assert!(b.unexplained < 0.01);
    }

    #[test]
    fn distant_route_is_unexplained() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        idx.add_corridor(CorridorLayer::Road, &east_west_road(), 0);
        let route = Polyline::straight(p(42.0, -105.0), p(42.0, -100.0));
        let b = idx.colocation(&route, &OverlapParams::default()).unwrap();
        assert_eq!(b.road, 0.0);
        assert_eq!(b.unexplained, 1.0);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        // Road covers only the western half of the route.
        idx.add_corridor(
            CorridorLayer::Road,
            &Polyline::straight(p(40.0, -105.0), p(40.0, -102.5)),
            0,
        );
        let route = Polyline::straight(p(40.0, -105.0), p(40.0, -100.0));
        let b = idx.colocation(&route, &OverlapParams::default()).unwrap();
        assert!(b.road > 0.4 && b.road < 0.6, "road fraction {}", b.road);
    }

    #[test]
    fn union_counts_either_layer() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        idx.add_corridor(
            CorridorLayer::Road,
            &Polyline::straight(p(40.0, -105.0), p(40.0, -102.5)),
            0,
        );
        idx.add_corridor(
            CorridorLayer::Rail,
            &Polyline::straight(p(40.0, -102.5), p(40.0, -100.0)),
            1,
        );
        let route = Polyline::straight(p(40.0, -105.0), p(40.0, -100.0));
        let b = idx.colocation(&route, &OverlapParams::default()).unwrap();
        assert!(b.road_or_rail > 0.95, "union {}", b.road_or_rail);
        assert!(b.road < 0.65 && b.rail < 0.65);
    }

    #[test]
    fn pipeline_layer_explains_off_road_routes() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        idx.add_corridor(CorridorLayer::Pipeline, &east_west_road(), 0);
        let route = Polyline::straight(p(40.01, -105.0), p(40.01, -100.0));
        let b = idx.colocation(&route, &OverlapParams::default()).unwrap();
        assert!(b.pipeline > 0.99);
        assert_eq!(b.road_or_rail, 0.0);
        assert!(b.unexplained < 0.01);
    }

    #[test]
    fn nearest_corridor_snaps_to_closest() {
        let mut idx = CorridorIndex::new(5.0).unwrap();
        idx.add_corridor(CorridorLayer::Road, &east_west_road(), 10);
        idx.add_corridor(
            CorridorLayer::Road,
            &Polyline::straight(p(40.5, -105.0), p(40.5, -100.0)),
            11,
        );
        let link = Polyline::straight(p(40.05, -104.0), p(40.05, -101.0));
        let (tag, d) = idx
            .nearest_corridor(CorridorLayer::Road, &link, 60.0)
            .unwrap();
        assert_eq!(tag, 10);
        assert!(d < 7.0);
    }

    #[test]
    fn invalid_params_rejected() {
        let idx = CorridorIndex::new(5.0).unwrap();
        let route = east_west_road();
        let bad = OverlapParams {
            buffer_km: 0.0,
            sample_step_km: 1.0,
        };
        assert!(idx.colocation(&route, &bad).is_err());
        let bad = OverlapParams {
            buffer_km: 5.0,
            sample_step_km: -1.0,
        };
        assert!(idx.colocation(&route, &bad).is_err());
    }
}
