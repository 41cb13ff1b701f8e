//! Geodesic distance and fiber-latency constants.
//!
//! The paper reports propagation delays in milliseconds and converts between
//! distance and delay at roughly 5 µs/km ("100 microseconds, i.e.,
//! approximately 20 km", §5.3). We use the physically-derived value for
//! standard single-mode fiber (refractive index ≈ 1.468): 4.9 µs/km.

use crate::GeoPoint;

/// Mean Earth radius in kilometers (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Speed of light in vacuum, km/s.
pub const SPEED_OF_LIGHT_KM_PER_S: f64 = 299_792.458;

/// One-way propagation delay along single-mode fiber, microseconds per km.
///
/// `1e6 * n / c` with refractive index `n = 1.468`; ≈ 4.897 µs/km. The paper's
/// "100 µs ≈ 20 km" equivalence corresponds to 5 µs/km.
pub const FIBER_US_PER_KM: f64 = 1e6 * 1.468 / SPEED_OF_LIGHT_KM_PER_S;

/// Great-circle (haversine) distance between two points, in kilometers.
///
/// Accurate to ~0.5 % against the WGS84 ellipsoid, which is far below the
/// geographic uncertainty of any fiber-route data; the paper's analysis
/// tolerates tens of kilometers.
pub fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    haversine_km_cos(a, b, lat_cos(a), lat_cos(b))
}

/// The cosine of `p`'s latitude, as [`haversine_km`] computes it.
pub(crate) fn lat_cos(p: &GeoPoint) -> f64 {
    p.lat.to_radians().cos()
}

/// [`haversine_km`] given each endpoint's [`lat_cos`], so a path can
/// compute each vertex's cosine once: the same operations in the same
/// order, hence the same bits.
pub(crate) fn haversine_km_cos(a: &GeoPoint, b: &GeoPoint, cos_a: f64, cos_b: f64) -> f64 {
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + cos_a * cos_b * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// One-way propagation delay over `km` kilometers of fiber, in microseconds.
pub fn fiber_delay_us(km: f64) -> f64 {
    km * FIBER_US_PER_KM
}

/// One-way line-of-sight (great-circle) delay between two points assuming
/// fiber laid exactly along the geodesic — the paper's LOS lower bound.
pub fn los_delay_us(a: &GeoPoint, b: &GeoPoint) -> f64 {
    fiber_delay_us(haversine_km(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_constant_matches_papers_rule_of_thumb() {
        // Paper: 100 µs ≈ 20 km → 5 µs/km. Physical value is within 3 %.
        assert!((FIBER_US_PER_KM - 5.0).abs() < 0.15, "{FIBER_US_PER_KM}");
    }

    #[test]
    fn nyc_la_is_about_3940_km() {
        let nyc = GeoPoint::new_unchecked(40.7128, -74.0060);
        let la = GeoPoint::new_unchecked(34.0522, -118.2437);
        let d = haversine_km(&nyc, &la);
        assert!((d - 3940.0).abs() < 30.0, "got {d}");
    }

    #[test]
    fn transcontinental_los_delay_is_about_19_ms() {
        let nyc = GeoPoint::new_unchecked(40.7128, -74.0060);
        let la = GeoPoint::new_unchecked(34.0522, -118.2437);
        let us = los_delay_us(&nyc, &la);
        assert!((us - 19_300.0).abs() < 500.0, "got {us} µs");
    }

    #[test]
    fn delay_is_linear_in_distance() {
        assert!((fiber_delay_us(200.0) - 2.0 * fiber_delay_us(100.0)).abs() < 1e-9);
        assert_eq!(fiber_delay_us(0.0), 0.0);
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new_unchecked(0.0, 0.0);
        let b = GeoPoint::new_unchecked(0.0, 180.0);
        let d = haversine_km(&a, &b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }
}
