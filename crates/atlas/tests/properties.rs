//! Property-based tests for the synthetic-world substrates.

use intertubes_atlas::{gabriel_pairs, knn_pairs, load_cities, City};
use intertubes_geo::GeoPoint;
use proptest::prelude::*;

fn mk_cities(points: Vec<(f64, f64)>) -> Vec<City> {
    points
        .into_iter()
        .enumerate()
        .map(|(i, (lat, lon))| City {
            name: format!("P{i}"),
            state: "XX".into(),
            location: GeoPoint::new_unchecked(lat, lon),
            population: 100_000,
        })
        .collect()
}

/// Distinct CONUS points (coincident points break Gabriel assumptions).
fn arb_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((26.0f64..48.0, -122.0f64..-70.0), 3..14).prop_filter(
        "points must be pairwise distinct-ish",
        |pts| {
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    if (pts[i].0 - pts[j].0).abs() < 0.05 && (pts[i].1 - pts[j].1).abs() < 0.05 {
                        return false;
                    }
                }
            }
            true
        },
    )
}

/// Random CONUS points plus the shapes that stress a pruned Gabriel scan:
/// near-duplicates of random points (offsets under 1e-6°), points spaced
/// around a small circle (every diametral pair then has the others on its
/// circle's boundary), and points spaced along a great-circle segment
/// (each interior point sits inside its neighbours' diametral circles).
fn arb_degenerate_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let point = || (26.0f64..48.0, -122.0f64..-70.0);
    (
        prop::collection::vec(point(), 2..9),
        prop::collection::vec((0usize..64, -1e-6f64..1e-6, -1e-6f64..1e-6), 0..4),
        (
            (30.0f64..44.0, -115.0f64..-80.0),
            20.0f64..600.0,
            3usize..9,
            0.0f64..90.0,
        ),
        (point(), point(), 1usize..5),
    )
        .prop_map(|(mut pts, dups, (center, radius, k, phase), (a, b, m))| {
            for (i, dlat, dlon) in dups {
                let (lat, lon) = pts[i % pts.len()];
                pts.push((lat + dlat, lon + dlon));
            }
            let center = GeoPoint::new_unchecked(center.0, center.1);
            for i in 0..k {
                let p = center.destination(phase + 360.0 * i as f64 / k as f64, radius);
                pts.push((p.lat, p.lon));
            }
            let (a, b) = (
                GeoPoint::new_unchecked(a.0, a.1),
                GeoPoint::new_unchecked(b.0, b.1),
            );
            for i in 0..=m + 1 {
                let p = a.interpolate(&b, i as f64 / (m + 1) as f64);
                pts.push((p.lat, p.lon));
            }
            pts
        })
}

/// The textbook O(n³) Gabriel scan: every pair against every third city
/// with the exact midpoint predicate. The reference the pruned scan must
/// match pair for pair.
fn brute_force_gabriel(cities: &[City]) -> Vec<(usize, usize)> {
    let n = cities.len();
    let mut out = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let mid = cities[u].location.midpoint(&cities[v].location);
            let r = cities[u].location.distance_km(&cities[v].location) / 2.0;
            let blocked =
                (0..n).any(|w| w != u && w != v && cities[w].location.distance_km(&mid) < r - 1e-9);
            if !blocked {
                out.push((u, v));
            }
        }
    }
    out
}

/// Each city's `k` nearest neighbours by a stable full sort of all
/// distances (ties to the lower index), normalized, sorted, deduplicated.
fn full_sort_knn(cities: &[City], k: usize) -> Vec<(usize, usize)> {
    let n = cities.len();
    let mut out = Vec::new();
    for u in 0..n {
        let mut dists: Vec<(usize, f64)> = (0..n)
            .filter(|&v| v != u)
            .map(|v| (v, cities[u].location.distance_km(&cities[v].location)))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (v, _) in dists.into_iter().take(k) {
            out.push((u.min(v), u.max(v)));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A `rows × cols` lattice, `step`° apart: every east–west neighbour pair
/// on one row is exactly as far apart as every other, so nearest-neighbour
/// distances tie.
fn grid_points(rows: usize, cols: usize, step: f64) -> Vec<(f64, f64)> {
    (0..rows)
        .flat_map(|i| (0..cols).map(move |j| (30.0 + step * i as f64, -100.0 + step * j as f64)))
        .collect()
}

#[test]
fn pruned_gabriel_matches_brute_force_on_the_city_table() {
    let cities = load_cities();
    assert_eq!(gabriel_pairs(&cities), brute_force_gabriel(&cities));
}

#[test]
fn knn_matches_full_sort_on_the_city_table() {
    let cities = load_cities();
    for k in 1..4 {
        assert_eq!(knn_pairs(&cities, k), full_sort_knn(&cities, k), "k = {k}");
    }
}

/// `k` points evenly spaced on the circle of `radius_km` about `center`,
/// the first at bearing `phase`°.
fn on_circle(center: (f64, f64), radius_km: f64, k: usize, phase: f64) -> Vec<(f64, f64)> {
    let center = GeoPoint::new_unchecked(center.0, center.1);
    (0..k)
        .map(|i| {
            let p = center.destination(phase + 360.0 * i as f64 / k as f64, radius_km);
            (p.lat, p.lon)
        })
        .collect()
}

/// Co-circular cities sit on a diametral circle's rim, where the
/// unit-vector test's two sides agree to rounding: the pruned scan must
/// hand them to the midpoint predicate, which lets the pair through.
#[test]
fn co_circular_cities_reach_the_exact_predicate() {
    let centers = [(30.5, -97.7), (39.7, -104.9), (41.9, -87.6), (47.6, -122.3)];
    for (i, &center) in centers.iter().enumerate() {
        for (radius, phase) in [(5.0, 0.0), (60.0, 17.0), (250.0, 45.0), (700.0, 71.5)] {
            // The four corners of a square: each diagonal's circle passes
            // through the other two corners.
            let cities = mk_cities(on_circle(center, radius, 4, phase + i as f64));
            let pairs = gabriel_pairs(&cities);
            assert_eq!(
                pairs,
                brute_force_gabriel(&cities),
                "square {center:?} r {radius}"
            );
            assert!(
                pairs.contains(&(0, 2)) && pairs.contains(&(1, 3)),
                "{pairs:?}"
            );

            // A third city placed on the diametral circle of a pair.
            let (a, b) = (cities[0].location, cities[1].location);
            let mid = a.midpoint(&b);
            let rim = mid.destination(phase + 90.0, a.distance_km(&b) / 2.0);
            let cities = mk_cities(vec![(a.lat, a.lon), (b.lat, b.lon), (rim.lat, rim.lon)]);
            assert_eq!(
                gabriel_pairs(&cities),
                brute_force_gabriel(&cities),
                "rim point {center:?} r {radius}"
            );
        }
    }
}

/// Union-find connectivity over index pairs.
fn connected(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        parent[ru] = rv;
    }
    let r0 = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == r0)
}

proptest! {
    #[test]
    fn pruned_gabriel_matches_brute_force(points in arb_degenerate_points()) {
        let cities = mk_cities(points);
        prop_assert_eq!(gabriel_pairs(&cities), brute_force_gabriel(&cities));
    }

    #[test]
    fn knn_matches_full_sort_on_tied_grids(
        rows in 1usize..5,
        cols in 2usize..6,
        step in 0.1f64..3.0,
        k in 1usize..5,
    ) {
        let cities = mk_cities(grid_points(rows, cols, step));
        prop_assert_eq!(knn_pairs(&cities, k), full_sort_knn(&cities, k));
    }

    #[test]
    fn gabriel_graph_is_connected_and_supersets_nn(points in arb_points()) {
        let cities = mk_cities(points);
        let pairs = gabriel_pairs(&cities);
        prop_assert!(connected(cities.len(), &pairs), "Gabriel graph must be connected");
        // Contains every point's nearest neighbour.
        for e in knn_pairs(&cities, 1) {
            prop_assert!(pairs.contains(&e), "NN pair {e:?} missing");
        }
    }

    #[test]
    fn gabriel_edges_have_empty_diametral_circles(points in arb_points()) {
        let cities = mk_cities(points);
        let pairs = gabriel_pairs(&cities);
        for (u, v) in pairs {
            let mid = cities[u].location.midpoint(&cities[v].location);
            let r = cities[u].location.distance_km(&cities[v].location) / 2.0;
            for (w, c) in cities.iter().enumerate() {
                if w == u || w == v {
                    continue;
                }
                prop_assert!(
                    c.location.distance_km(&mid) >= r - 1e-6,
                    "point {w} inside the diametral circle of ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn knn_pairs_are_normalized_and_bounded(points in arb_points(), k in 1usize..4) {
        let cities = mk_cities(points);
        let pairs = knn_pairs(&cities, k);
        for (u, v) in &pairs {
            prop_assert!(u < v, "pairs must be normalized");
            prop_assert!(*v < cities.len());
        }
        // Each node appears in at least min(k, n-1) pairs.
        for i in 0..cities.len() {
            let deg = pairs.iter().filter(|(u, v)| *u == i || *v == i).count();
            prop_assert!(deg >= k.min(cities.len() - 1));
        }
        // Deduplicated.
        let mut sorted = pairs.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), pairs.len());
    }
}

mod config_sweep {
    use intertubes_atlas::{tenant_counts, ConduitConfig, World, WorldConfig};

    #[test]
    fn conduit_target_is_respected_across_targets() {
        for target in [480usize, 542, 600] {
            let cfg = WorldConfig {
                seed: 99,
                conduits: ConduitConfig {
                    target_conduits: target,
                    ..ConduitConfig::default()
                },
            };
            let w = World::generate(cfg);
            let got = w.system.conduits.len();
            assert!(
                (got as i64 - target as i64).unsigned_abs() <= 3,
                "target {target}, got {got}"
            );
            // Tenancy calibration still lands.
            let counts = tenant_counts(&w.system, w.mapped_footprints());
            let ge2 = counts.iter().filter(|&&c| c >= 2).count() as f64 / counts.len() as f64;
            assert!(ge2 > 0.75, "target {target}: ge2 {ge2}");
        }
    }

    #[test]
    fn higher_rail_preference_means_more_rail_conduits() {
        use intertubes_atlas::RowType;
        let count_rail = |pref: f64| {
            let cfg = WorldConfig {
                seed: 5,
                conduits: ConduitConfig {
                    rail_preference: pref,
                    ..ConduitConfig::default()
                },
            };
            let w = World::generate(cfg);
            w.system
                .conduits
                .iter()
                .filter(|c| c.row == RowType::Rail)
                .count()
        };
        let low = count_rail(0.05);
        let high = count_rail(0.7);
        assert!(
            high > low * 2,
            "rail preference must matter: {low} vs {high}"
        );
    }
}
