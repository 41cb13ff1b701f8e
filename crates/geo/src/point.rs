use serde::{Deserialize, Serialize};

use crate::{haversine_km, GeoError, EARTH_RADIUS_KM};

/// A WGS84 position: latitude and longitude in degrees.
///
/// Latitude is positive north, longitude positive east. Continental-US
/// longitudes are therefore negative (e.g. Madison, WI ≈ `(43.07, -89.40)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating the coordinate ranges.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) || lat.is_nan() {
            return Err(GeoError::InvalidCoordinate { lat, lon });
        }
        Ok(GeoPoint { lat, lon })
    }

    /// Creates a point without range validation.
    ///
    /// Use only for compile-time constants known to be valid (e.g. the
    /// embedded city table).
    pub const fn new_unchecked(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle (haversine) distance to `other` in kilometers.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(self, other)
    }

    /// Initial great-circle bearing towards `other`, degrees clockwise from
    /// north in `[0, 360)`.
    pub fn bearing_deg(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_km` along the great circle
    /// with initial bearing `bearing_deg` (degrees clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_km: f64) -> GeoPoint {
        let delta = distance_km / EARTH_RADIUS_KM;
        let theta = bearing_deg.to_radians();
        let lat1 = self.lat.to_radians();
        let lon1 = self.lon.to_radians();
        let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
        let lon2 = lon1
            + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
        let lon2 = (lon2.to_degrees() + 540.0) % 360.0 - 180.0;
        GeoPoint {
            lat: lat2.to_degrees(),
            lon: lon2,
        }
    }

    /// Great-circle midpoint between `self` and `other`.
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        self.interpolate(other, 0.5)
    }

    /// Point at fraction `t ∈ [0,1]` along the great circle from `self`
    /// (`t = 0`) to `other` (`t = 1`), using spherical linear interpolation.
    pub fn interpolate(&self, other: &GeoPoint, t: f64) -> GeoPoint {
        let d = self.distance_km(other) / EARTH_RADIUS_KM;
        if d < 1e-12 {
            return *self;
        }
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let a = ((1.0 - t) * d).sin() / d.sin();
        let b = (t * d).sin() / d.sin();
        let x = a * lat1.cos() * lon1.cos() + b * lat2.cos() * lon2.cos();
        let y = a * lat1.cos() * lon1.sin() + b * lat2.cos() * lon2.sin();
        let z = a * lat1.sin() + b * lat2.sin();
        let lat = z.atan2((x * x + y * y).sqrt());
        let lon = y.atan2(x);
        GeoPoint {
            lat: lat.to_degrees(),
            lon: lon.to_degrees(),
        }
    }
}

/// Even-odd (ray-casting) containment test of `p` against a polygon ring
/// in the lat/lon plane.
///
/// `ring` lists the vertices without requiring the closing repeat (a
/// trailing vertex equal to the first is harmless: the zero-length edge
/// never toggles the crossing parity). The test is planar — adequate for
/// regional (e.g. CONUS) footprints away from the poles and the
/// antimeridian, where treating degrees as planar coordinates preserves
/// topology. Points exactly on an edge may land on either side; callers
/// needing closed semantics should buffer the ring.
pub fn point_in_ring(p: &GeoPoint, ring: &[GeoPoint]) -> bool {
    if ring.len() < 3 {
        return false;
    }
    let mut inside = false;
    let mut j = ring.len() - 1;
    for i in 0..ring.len() {
        let (vi, vj) = (&ring[i], &ring[j]);
        // Half-open vertical test per edge: each crossing of the
        // horizontal ray through `p.lat` toggles parity exactly once,
        // including at shared vertices.
        if (vi.lat > p.lat) != (vj.lat > p.lat) {
            let t = (p.lat - vi.lat) / (vj.lat - vi.lat);
            let lon_at = vi.lon + t * (vj.lon - vi.lon);
            if p.lon < lon_at {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.4}, {:.4})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MADISON: GeoPoint = GeoPoint::new_unchecked(43.0731, -89.4012);
    const CHICAGO: GeoPoint = GeoPoint::new_unchecked(41.8781, -87.6298);

    #[test]
    fn new_validates_ranges() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(-91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, 181.0).is_err());
        assert!(GeoPoint::new(0.0, -181.0).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(43.07, -89.40).is_ok());
    }

    #[test]
    fn madison_chicago_distance_is_about_196_km() {
        let d = MADISON.distance_km(&CHICAGO);
        assert!((d - 196.0).abs() < 5.0, "got {d}");
    }

    /// Bit-for-bit symmetry, not just closeness: a distance table may
    /// store one order of each pair and mirror it. Every city pair of the
    /// pinned worlds is checked in `tests/determinism.rs`.
    #[test]
    fn distance_is_bit_symmetric_and_zero_on_self() {
        let d = |a: &GeoPoint, b: &GeoPoint| a.distance_km(b).to_bits();
        assert_eq!(d(&MADISON, &CHICAGO), d(&CHICAGO, &MADISON));
        let grid: Vec<GeoPoint> = (0..12)
            .flat_map(|i| (0..12).map(move |j| (i, j)))
            .map(|(i, j)| GeoPoint::new_unchecked(24.3 + 2.17 * i as f64, -124.7 + 4.93 * j as f64))
            .collect();
        for a in &grid {
            for b in &grid {
                assert_eq!(d(a, b), d(b, a), "{a:?} / {b:?}");
            }
        }
        assert!(MADISON.distance_km(&MADISON) < 1e-9);
    }

    #[test]
    fn destination_round_trip() {
        let b = MADISON.bearing_deg(&CHICAGO);
        let d = MADISON.distance_km(&CHICAGO);
        let reached = MADISON.destination(b, d);
        assert!(reached.distance_km(&CHICAGO) < 0.5, "reached {reached}");
    }

    #[test]
    fn interpolate_endpoints_and_midpoint() {
        let p0 = MADISON.interpolate(&CHICAGO, 0.0);
        let p1 = MADISON.interpolate(&CHICAGO, 1.0);
        assert!(p0.distance_km(&MADISON) < 1e-6);
        assert!(p1.distance_km(&CHICAGO) < 1e-6);
        let mid = MADISON.midpoint(&CHICAGO);
        let d0 = mid.distance_km(&MADISON);
        let d1 = mid.distance_km(&CHICAGO);
        assert!((d0 - d1).abs() < 0.01, "midpoint skewed: {d0} vs {d1}");
    }

    #[test]
    fn interpolate_degenerate_pair_returns_self() {
        let p = MADISON.interpolate(&MADISON, 0.7);
        assert_eq!(p, MADISON);
    }

    #[test]
    fn bearing_east_is_about_90() {
        let a = GeoPoint::new_unchecked(40.0, -100.0);
        let b = GeoPoint::new_unchecked(40.0, -99.0);
        let brg = a.bearing_deg(&b);
        assert!((brg - 90.0).abs() < 1.0, "got {brg}");
    }
}
