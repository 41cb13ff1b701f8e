use serde::{Deserialize, Serialize};

use crate::distance::{haversine_km_cos, lat_cos};
use crate::{GeoError, GeoPoint};

/// A geographic path: the geometry of a fiber route, road, or railway.
///
/// Invariant: at least two points (enforced by [`Polyline::new`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<GeoPoint>,
}

impl Polyline {
    /// Creates a polyline from at least two points.
    pub fn new(points: Vec<GeoPoint>) -> Result<Self, GeoError> {
        if points.len() < 2 {
            return Err(GeoError::DegeneratePolyline {
                points: points.len(),
            });
        }
        Ok(Polyline { points })
    }

    /// A straight (great-circle) two-point polyline.
    pub fn straight(a: GeoPoint, b: GeoPoint) -> Self {
        Polyline { points: vec![a, b] }
    }

    /// The vertices of the polyline.
    pub fn points(&self) -> &[GeoPoint] {
        &self.points
    }

    /// First vertex.
    pub fn start(&self) -> GeoPoint {
        self.points[0]
    }

    /// Last vertex.
    pub fn end(&self) -> GeoPoint {
        self.points[self.points.len() - 1]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: a polyline has at least two vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over consecutive vertex pairs (the segments).
    pub fn segments(&self) -> impl Iterator<Item = (&GeoPoint, &GeoPoint)> {
        self.points.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Total geodesic length in kilometers.
    pub fn length_km(&self) -> f64 {
        self.segment_km().sum()
    }

    /// Each segment's [`haversine_km`](crate::haversine_km), in order,
    /// computing each vertex's latitude cosine once for the two segments
    /// that meet there.
    fn segment_km(&self) -> impl Iterator<Item = f64> + '_ {
        let mut cos_a = lat_cos(&self.points[0]);
        self.segments().map(move |(a, b)| {
            let cos_b = lat_cos(b);
            let km = haversine_km_cos(a, b, cos_a, cos_b);
            cos_a = cos_b;
            km
        })
    }

    /// The point at fraction `t ∈ [0, 1]` of the total length.
    ///
    /// Values outside `[0, 1]` are clamped.
    pub fn point_at_fraction(&self, t: f64) -> GeoPoint {
        let total = self.length_km();
        self.point_at_distance(t.clamp(0.0, 1.0) * total)
    }

    /// The points at each fraction of `ts`, bit for bit what
    /// [`Polyline::point_at_fraction`] returns for each, from one pass of
    /// segment lengths instead of one per fraction.
    pub fn points_at_fractions<const N: usize>(&self, ts: [f64; N]) -> [GeoPoint; N] {
        let seg_km: Vec<f64> = self.segment_km().collect();
        let total: f64 = seg_km.iter().sum();
        ts.map(|t| self.walk(t.clamp(0.0, 1.0) * total, seg_km.iter().copied()))
    }

    /// The point `km` kilometers along the polyline from its start.
    ///
    /// Clamped to the endpoints.
    pub fn point_at_distance(&self, km: f64) -> GeoPoint {
        self.walk(km, self.segment_km())
    }

    /// [`Polyline::point_at_distance`] over given segment lengths (`seg_km`
    /// in segment order): the same comparisons and subtractions.
    fn walk(&self, km: f64, seg_km: impl IntoIterator<Item = f64>) -> GeoPoint {
        if km <= 0.0 {
            return self.start();
        }
        let mut remaining = km;
        for ((a, b), seg) in self.segments().zip(seg_km) {
            if remaining <= seg {
                if seg < 1e-12 {
                    return *a;
                }
                return a.interpolate(b, remaining / seg);
            }
            remaining -= seg;
        }
        self.end()
    }

    /// Evenly spaced sample points along the polyline, `step_km` apart,
    /// always including both endpoints.
    ///
    /// Used by the corridor co-location analysis: each sample is tested
    /// against the transport-layer buffer, and the co-located fraction is the
    /// fraction of samples inside the buffer.
    pub fn sample_every_km(&self, step_km: f64) -> Result<Vec<GeoPoint>, GeoError> {
        if step_km <= 0.0 || step_km.is_nan() {
            return Err(GeoError::NonPositiveParameter {
                name: "step_km",
                value: step_km,
            });
        }
        let total = self.length_km();
        let n = (total / step_km).ceil().max(1.0) as usize;
        let mut out = Vec::with_capacity(n + 1);
        for i in 0..=n {
            out.push(self.point_at_distance(total * i as f64 / n as f64));
        }
        Ok(out)
    }

    /// Returns a polyline with the same geometry but vertices no more than
    /// `max_seg_km` apart (splitting long segments along the great circle).
    pub fn densify(&self, max_seg_km: f64) -> Result<Polyline, GeoError> {
        if max_seg_km <= 0.0 || max_seg_km.is_nan() {
            return Err(GeoError::NonPositiveParameter {
                name: "max_seg_km",
                value: max_seg_km,
            });
        }
        let mut out = vec![self.start()];
        for (a, b) in self.segments() {
            let d = a.distance_km(b);
            let pieces = (d / max_seg_km).ceil().max(1.0) as usize;
            for i in 1..=pieces {
                out.push(a.interpolate(b, i as f64 / pieces as f64));
            }
        }
        Ok(Polyline { points: out })
    }

    /// Reverses the direction of the polyline in place.
    pub fn reverse(&mut self) {
        self.points.reverse();
    }

    /// Returns a copy displaced laterally by `km` (positive = right of the
    /// direction of travel), keeping the endpoints fixed and tapering the
    /// offset near them.
    ///
    /// Used to synthesize *parallel* infrastructure: a second trench dug a
    /// few kilometers from an existing conduit along the same corridor.
    pub fn offset_parallel(&self, km: f64) -> Polyline {
        let n = self.points.len();
        let mut out = Vec::with_capacity(n);
        for (i, p) in self.points.iter().enumerate() {
            if i == 0 || i == n - 1 {
                out.push(*p);
                continue;
            }
            // Local direction from the previous to the next vertex.
            let dir = self.points[i - 1].bearing_deg(&self.points[i + 1]);
            let t = i as f64 / (n - 1) as f64;
            let envelope = (std::f64::consts::PI * t).sin().max(0.25);
            let side = if km >= 0.0 { 90.0 } else { -90.0 };
            out.push(p.destination(dir + side, km.abs() * envelope));
        }
        Polyline { points: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new_unchecked(lat, lon)
    }

    fn l_shape() -> Polyline {
        Polyline::new(vec![p(40.0, -100.0), p(40.0, -99.0), p(41.0, -99.0)]).unwrap()
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Polyline::new(vec![]).is_err());
        assert!(Polyline::new(vec![p(0.0, 0.0)]).is_err());
    }

    #[test]
    fn length_is_sum_of_segments() {
        let pl = l_shape();
        let expected = p(40.0, -100.0).distance_km(&p(40.0, -99.0))
            + p(40.0, -99.0).distance_km(&p(41.0, -99.0));
        assert!((pl.length_km() - expected).abs() < 1e-9);
    }

    #[test]
    fn point_at_distance_clamps() {
        let pl = l_shape();
        assert_eq!(pl.point_at_distance(-5.0), pl.start());
        let past = pl.point_at_distance(pl.length_km() + 100.0);
        assert!(past.distance_km(&pl.end()) < 1e-9);
    }

    #[test]
    fn point_at_fraction_half_is_on_path() {
        let pl = l_shape();
        let mid = pl.point_at_fraction(0.5);
        // Must lie within a small buffer of one of the segments.
        let proj = crate::LocalProjection::new(mid);
        let dmin = pl
            .segments()
            .map(|(a, b)| proj.point_segment_distance_km(&mid, a, b))
            .fold(f64::INFINITY, f64::min);
        assert!(dmin < 0.5, "midpoint {mid} is {dmin} km off the path");
    }

    #[test]
    fn sampling_includes_endpoints_and_respects_step() {
        let pl = l_shape();
        let samples = pl.sample_every_km(10.0).unwrap();
        assert!(samples.first().unwrap().distance_km(&pl.start()) < 1e-9);
        assert!(samples.last().unwrap().distance_km(&pl.end()) < 1e-9);
        for w in samples.windows(2) {
            assert!(w[0].distance_km(&w[1]) <= 10.5);
        }
        assert!(pl.sample_every_km(0.0).is_err());
        assert!(pl.sample_every_km(-1.0).is_err());
    }

    #[test]
    fn densify_preserves_length_and_endpoints() {
        let pl = Polyline::straight(p(40.0, -100.0), p(40.0, -95.0));
        let dense = pl.densify(10.0).unwrap();
        assert!(dense.len() > pl.len());
        assert!((dense.length_km() - pl.length_km()).abs() / pl.length_km() < 1e-3);
        assert!(dense.start().distance_km(&pl.start()) < 1e-9);
        assert!(dense.end().distance_km(&pl.end()) < 1e-9);
        for (a, b) in dense.segments() {
            assert!(a.distance_km(b) <= 10.01);
        }
    }

    #[test]
    fn offset_parallel_keeps_endpoints_and_displaces_interior() {
        let pl = Polyline::straight(p(40.0, -105.0), p(40.0, -100.0))
            .densify(40.0)
            .unwrap();
        let off = pl.offset_parallel(6.0);
        assert!(off.start().distance_km(&pl.start()) < 1e-9);
        assert!(off.end().distance_km(&pl.end()) < 1e-9);
        // Interior vertices move by 1.5–6 km (sin envelope, floor 0.25).
        let mid_orig = pl.points()[pl.len() / 2];
        let mid_off = off.points()[off.len() / 2];
        let d = mid_orig.distance_km(&mid_off);
        assert!(d > 3.0 && d < 6.5, "midpoint displaced {d} km");
        // Opposite sign goes the other way.
        let off2 = pl.offset_parallel(-6.0);
        let mid_off2 = off2.points()[off2.len() / 2];
        assert!(mid_off.distance_km(&mid_off2) > 6.0);
    }

    #[test]
    fn reverse_swaps_endpoints() {
        let mut pl = l_shape();
        let (s, e) = (pl.start(), pl.end());
        pl.reverse();
        assert_eq!(pl.start(), e);
        assert_eq!(pl.end(), s);
    }
}
