//! Property-based tests for the geospatial substrate.

use intertubes_geo::{
    haversine_km, GeoPoint, LocalProjection, OverlapParams, Polyline, SegmentGrid,
};
use proptest::prelude::*;

/// Strategy: points inside a generous CONUS box (the library's usage
/// domain), which lies inside the valid coordinate range.
fn conus_point() -> impl Strategy<Value = GeoPoint> {
    (25.0f64..49.0, -124.0f64..-67.0).prop_map(|(lat, lon)| GeoPoint::new_unchecked(lat, lon))
}

/// Strategy: points anywhere on the globe, a tenth of them exactly at
/// each pole (latitudes drawn past ±90° clamp to it).
fn any_point() -> impl Strategy<Value = GeoPoint> {
    (-100.0f64..100.0, -180.0f64..180.0)
        .prop_map(|(lat, lon)| GeoPoint::new_unchecked(lat.clamp(-90.0, 90.0), lon))
}

/// Bit patterns of a point, for exact comparison.
fn bits(p: GeoPoint) -> (u64, u64) {
    (p.lat.to_bits(), p.lon.to_bits())
}

proptest! {
    /// `length_km` computes each vertex's latitude cosine once for the two
    /// segments meeting there, yet returns the bits of summing each
    /// segment's own `haversine_km` in order: with repeated vertices, both
    /// ways round, and at the poles.
    #[test]
    fn length_is_the_in_order_sum_of_segment_haversines(
        pts in prop::collection::vec((any_point(), 0usize..3), 1..9),
    ) {
        let pts: Vec<GeoPoint> =
            pts.into_iter().flat_map(|(p, k)| std::iter::repeat_n(p, k + 1)).collect();
        let reversed: Vec<GeoPoint> = pts.iter().rev().copied().collect();
        for pts in [pts, reversed] {
            let Ok(pl) = Polyline::new(pts) else { return Ok(()) };
            let sum: f64 = pl.segments().map(|(a, b)| haversine_km(a, b)).sum();
            prop_assert_eq!(pl.length_km().to_bits(), sum.to_bits());
        }
    }

    /// One pass of segment lengths serves every fraction exactly as a
    /// fresh `point_at_fraction` would: on polylines with zero-length
    /// segments (repeated vertices), both ways round, at both ends, at the
    /// clustering fractions and their mirrors, and clamped outside [0, 1].
    #[test]
    fn one_walk_samples_equal_point_at_fraction(
        pts in prop::collection::vec((conus_point(), 0usize..3), 1..9),
        t in 0.0f64..1.0,
        u in 0.0f64..1.0,
    ) {
        let pts: Vec<GeoPoint> =
            pts.into_iter().flat_map(|(p, k)| std::iter::repeat_n(p, k + 1)).collect();
        let Ok(mut pl) = Polyline::new(pts) else { return Ok(()) };
        let ts = [0.0, 1.0, t, u, 1.0 - t, 0.2, 0.35, 0.5, 0.65, 0.8, -0.5, 1.5];
        for _ in 0..2 {
            let walked = pl.points_at_fractions(ts);
            let mirrored = pl.points_at_fractions(ts.map(|t| 1.0 - t));
            for (i, &t) in ts.iter().enumerate() {
                prop_assert_eq!(bits(walked[i]), bits(pl.point_at_fraction(t)), "t = {}", t);
                prop_assert_eq!(bits(mirrored[i]), bits(pl.point_at_fraction(1.0 - t)), "1 - t = {}", 1.0 - t);
            }
            pl.reverse();
        }
    }

    #[test]
    fn distance_symmetric(a in conus_point(), b in conus_point()) {
        let d1 = haversine_km(&a, &b);
        let d2 = haversine_km(&b, &a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 >= 0.0);
    }

    #[test]
    fn triangle_inequality(a in conus_point(), b in conus_point(), c in conus_point()) {
        // Great-circle distances on a sphere obey the triangle inequality.
        let ab = haversine_km(&a, &b);
        let bc = haversine_km(&b, &c);
        let ac = haversine_km(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6, "ac={ac} ab={ab} bc={bc}");
    }

    #[test]
    fn interpolation_stays_between(a in conus_point(), b in conus_point(), t in 0.0f64..1.0) {
        let p = a.interpolate(&b, t);
        let total = a.distance_km(&b);
        let da = a.distance_km(&p);
        let db = b.distance_km(&p);
        // The interpolated point splits the geodesic: da + db == total.
        prop_assert!((da + db - total).abs() < 1e-3, "da={da} db={db} total={total}");
        // And the split matches t.
        prop_assert!((da - t * total).abs() < 1e-3_f64.max(total * 1e-6));
    }

    #[test]
    fn destination_distance_matches(a in conus_point(), bearing in 0.0f64..360.0, d in 0.0f64..2000.0) {
        let q = a.destination(bearing, d);
        prop_assert!((a.distance_km(&q) - d).abs() < 0.5, "asked {d}, got {}", a.distance_km(&q));
    }

    #[test]
    fn projection_round_trip(origin in conus_point(), q in conus_point()) {
        let proj = LocalProjection::new(origin);
        let (x, y) = proj.to_xy(&q);
        let back = proj.from_xy(x, y);
        prop_assert!((back.lat - q.lat).abs() < 1e-9);
        prop_assert!((back.lon - q.lon).abs() < 1e-9);
    }

    #[test]
    fn polyline_length_at_least_endpoint_distance(pts in prop::collection::vec(conus_point(), 2..8)) {
        let pl = Polyline::new(pts.clone()).unwrap();
        let straight = pts[0].distance_km(pts.last().unwrap());
        prop_assert!(pl.length_km() + 1e-6 >= straight);
    }

    #[test]
    fn densify_preserves_length(a in conus_point(), b in conus_point(), step in 5.0f64..100.0) {
        let pl = Polyline::straight(a, b);
        let dense = pl.densify(step).unwrap();
        let (l1, l2) = (pl.length_km(), dense.length_km());
        prop_assert!((l1 - l2).abs() <= l1 * 1e-3 + 1e-6, "{l1} vs {l2}");
        for (u, v) in dense.segments() {
            prop_assert!(u.distance_km(v) <= step * 1.001);
        }
    }

    #[test]
    fn point_at_distance_monotone(pts in prop::collection::vec(conus_point(), 2..6), f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        let pl = Polyline::new(pts).unwrap();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let total = pl.length_km();
        let p_lo = pl.point_at_distance(lo * total);
        // Distance from start along the chain to p_lo should be <= hi*total reachpoint.
        let p_hi = pl.point_at_distance(hi * total);
        let d_start_lo = pl.start().distance_km(&p_lo);
        let along_hi = hi * total;
        prop_assert!(d_start_lo <= along_hi + 1e-3 || (lo - hi).abs() < 1e-12,
            "start→p(lo) straight-line {d_start_lo} exceeds along-path {along_hi}");
        let _ = p_hi;
    }

    #[test]
    fn grid_agrees_with_brute_force(
        segs in prop::collection::vec((conus_point(), conus_point()), 1..12),
        q in conus_point(),
        radius in 1.0f64..120.0,
    ) {
        let mut grid = SegmentGrid::new(10.0).unwrap();
        for (i, (a, b)) in segs.iter().enumerate() {
            grid.insert_segment(*a, *b, i as u32);
        }
        // Brute force mirrors the grid's semantics: distance to a segment is
        // the minimum over its ≤ DENSIFY_KM great-circle pieces, measured in
        // a projection centered at the query point.
        let proj = LocalProjection::new(q);
        let brute: Vec<(u32, f64)> = segs
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let dense = Polyline::straight(*a, *b)
                    .densify(SegmentGrid::DENSIFY_KM)
                    .unwrap();
                let d = dense
                    .segments()
                    .map(|(u, v)| proj.point_segment_distance_km(&q, u, v))
                    .fold(f64::INFINITY, f64::min);
                (i as u32, d)
            })
            .filter(|(_, d)| *d <= radius)
            .collect();
        let hit = grid.nearest_within(&q, radius);
        match (brute.iter().cloned().reduce(|x, y| if x.1 <= y.1 { x } else { y }), hit) {
            (None, None) => {}
            (Some((_, bd)), Some(h)) => {
                prop_assert!((h.distance_km - bd).abs() < 1e-6,
                    "grid found {} vs brute {}", h.distance_km, bd);
            }
            (b, g) => prop_assert!(false, "mismatch brute={b:?} grid={g:?}"),
        }
    }

    #[test]
    fn colocation_fractions_are_consistent(
        a in conus_point(), b in conus_point(),
        buffer in 1.0f64..20.0,
    ) {
        prop_assume!(a.distance_km(&b) > 30.0);
        let mut idx = intertubes_geo::CorridorIndex::new(10.0).unwrap();
        idx.add_corridor(intertubes_geo::CorridorLayer::Road, &Polyline::straight(a, b), 0);
        let route = Polyline::straight(a, b);
        let br = idx
            .colocation(&route, &OverlapParams { buffer_km: buffer, sample_step_km: 5.0 })
            .unwrap();
        prop_assert!(br.road >= 0.0 && br.road <= 1.0);
        prop_assert!(br.road_or_rail >= br.road.max(br.rail) - 1e-12);
        prop_assert!(br.road_or_rail <= br.road + br.rail + 1e-12);
        prop_assert!((br.road_or_rail.max(br.pipeline) + br.unexplained) <= 1.0 + 1e-12);
        // A route identical to the corridor must be fully co-located.
        prop_assert!(br.road > 0.999, "self-overlap should be 1.0, got {}", br.road);
    }
}
