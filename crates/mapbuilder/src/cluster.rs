//! Geometry clustering: deciding whether two published link geometries
//! describe the *same* physical conduit.
//!
//! Two providers publishing maps of the same trench digitize it slightly
//! differently; a genuinely parallel second trench runs kilometers away.
//! The separation statistic below (mean distance between aligned samples)
//! separates the two regimes.

use intertubes_geo::Polyline;

/// Sample fractions used for the separation statistic.
const FRACTIONS: [f64; 5] = [0.2, 0.35, 0.5, 0.65, 0.8];

/// Mean separation in km between two polylines that nominally join the same
/// endpoints. Orientation is normalized first (published maps draw links in
/// arbitrary direction).
pub fn geometry_separation_km(g1: &Polyline, g2: &Polyline) -> f64 {
    // Align orientation: if g2 runs the other way, mirror its fractions.
    let fwd = g1.start().distance_km(&g2.start()) + g1.end().distance_km(&g2.end());
    let rev = g1.start().distance_km(&g2.end()) + g1.end().distance_km(&g2.start());
    let flip = rev < fwd;
    let p1 = g1.points_at_fractions(FRACTIONS);
    let p2 = g2.points_at_fractions(FRACTIONS.map(|t| if flip { 1.0 - t } else { t }));
    let mut total = 0.0;
    for (a, b) in p1.iter().zip(&p2) {
        total += a.distance_km(b);
    }
    total / FRACTIONS.len() as f64
}

/// Whether two geometries describe the same conduit under `threshold_km`.
pub fn same_conduit(g1: &Polyline, g2: &Polyline, threshold_km: f64) -> bool {
    geometry_separation_km(g1, g2) <= threshold_km
}

#[cfg(test)]
mod tests {
    use super::*;
    use intertubes_geo::GeoPoint;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new_unchecked(lat, lon)
    }

    fn base() -> Polyline {
        Polyline::new(vec![p(40.0, -105.0), p(40.1, -103.0), p(40.0, -101.0)]).unwrap()
    }

    #[test]
    fn identical_geometries_have_zero_separation() {
        let g = base();
        assert!(geometry_separation_km(&g, &g) < 1e-9);
        assert!(same_conduit(&g, &g, 1.0));
    }

    #[test]
    fn reversed_geometry_still_matches() {
        let g = base();
        let mut r = g.clone();
        r.reverse();
        assert!(geometry_separation_km(&g, &r) < 1e-6);
    }

    #[test]
    fn small_noise_matches_parallel_does_not() {
        let g = base().densify(40.0).unwrap();
        // Digitization noise scale (≤ ~1 km).
        let noisy = g.offset_parallel(0.7);
        assert!(
            same_conduit(&g, &noisy, 2.5),
            "noise sep {}",
            geometry_separation_km(&g, &noisy)
        );
        // Parallel-trench scale (≥ 5 km).
        let parallel = g.offset_parallel(6.5);
        assert!(
            !same_conduit(&g, &parallel, 2.5),
            "parallel sep {}",
            geometry_separation_km(&g, &parallel)
        );
    }

    #[test]
    fn different_corridors_are_far() {
        let g1 = Polyline::straight(p(40.0, -105.0), p(40.0, -101.0));
        let g2 = Polyline::new(vec![p(40.0, -105.0), p(41.0, -103.0), p(40.0, -101.0)]).unwrap();
        assert!(geometry_separation_km(&g1, &g2) > 30.0);
    }
}
