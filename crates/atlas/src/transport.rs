//! Synthetic transportation networks (the paper's Fig. 2 / Fig. 3 layers).
//!
//! The paper compares fiber-route geography against the National Atlas
//! roadway and railway layers and explains off-road conduits with pipeline
//! rights-of-way. Those shapefiles are not available here, so we synthesize
//! plausible corridor networks over the embedded city table:
//!
//! * **Roads** — the Gabriel graph over cities, unioned with each city's two
//!   nearest neighbours. Gabriel graphs are a standard proxy for road-like
//!   spatial networks: planar-ish, connected, denser where cities cluster.
//! * **Rails** — a seeded ~60 % subset of the road corridors with a bias
//!   toward long east–west corridors (rail followed settlement).
//! * **Pipelines** — a hand-picked set of Gulf-centric and mountain-west
//!   corridors, including the Houston→Atlanta chain through Laurel, MS and
//!   Anaheim→Las Vegas that the paper calls out (Fig. 5, §3).
//!
//! Corridor geometry is a jittered great-circle path (roads are nearly
//! direct; rails meander a little more), so the corridor-overlap analysis
//! has realistic, non-identical polylines to work with.
//!
//! Cost: the road layer reads one all-pairs distance table (n²/2
//! haversines, each city's neighbours sorted nearest-first). The Gabriel
//! test of a pair only tries cities the triangle inequality lets through,
//! and its first blocker usually ends the test; each try is a dot product
//! of unit vectors, with a midpoint only when a city sits on the circle's
//! rim. The 2-nearest links are a prefix of the sorted lists.

use intertubes_geo::{CorridorLayer, GeoPoint, Polyline};
use intertubes_graph::{csr_dijkstra, MultiGraph, NodeId, SearchState};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::cities::{find_city, City, CityId};

/// Payload of one corridor edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorridorEdge {
    /// The corridor's geographic path.
    pub geometry: Polyline,
    /// Cached geodesic length of `geometry`, km.
    pub length_km: f64,
}

/// One transportation layer: a multigraph whose nodes are all cities (node
/// ids equal [`CityId`] indices) and whose edges carry corridor geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportNetwork {
    /// Which layer this is.
    pub layer: CorridorLayer,
    /// The corridor graph. Node payloads are [`CityId`]s matching node ids.
    pub graph: MultiGraph<CityId, CorridorEdge>,
}

impl TransportNetwork {
    /// Total corridor mileage of the layer, km.
    pub fn total_length_km(&self) -> f64 {
        self.graph.edge_refs().map(|e| e.data.length_km).sum()
    }

    /// Validates the layer's connectivity with explicit degradation
    /// control.
    ///
    /// A fragmented layer (missing shapefile tiles, in our synthetic world
    /// the `disconnect-transport` fault) starves ROW snapping of
    /// corridors. Under [`DegradationPolicy::Lenient`] stranded components
    /// beyond the largest are counted (`"disconnected-component"`) and the
    /// layer is used as-is — corridor lookups simply miss more pairs.
    /// Under strict, validation aborts with
    /// [`AtlasError::DisconnectedTransport`](crate::AtlasError). A
    /// connected layer yields an empty report.
    pub fn validate(
        &self,
        policy: intertubes_degrade::DegradationPolicy,
    ) -> Result<intertubes_degrade::DegradationReport, crate::AtlasError> {
        use intertubes_degrade::{DegradationAction, DegradationReport};
        let (_, components) = intertubes_graph::connected_components(&self.graph);
        let stranded = components.saturating_sub(1);
        if stranded > 0 && policy.is_strict() {
            return Err(crate::AtlasError::DisconnectedTransport {
                layer: self.layer,
                components,
            });
        }
        let mut report = DegradationReport::new();
        report.note(
            "atlas.transport",
            DegradationAction::Unvalidated,
            "disconnected-component",
            stranded,
        );
        Ok(report)
    }

    /// Iterator over corridor geometries with their edge indices.
    pub fn geometries(&self) -> impl Iterator<Item = (u32, &Polyline)> {
        self.graph.edge_refs().map(|e| (e.id.0, &e.data.geometry))
    }
}

/// Slack on the triangle-inequality bound of [`gabriel_pairs`], km. It
/// absorbs rounding in the haversine and midpoint arithmetic, which is
/// many orders of magnitude smaller, so the bound never drops a city that
/// the exact predicate would count as a blocker.
const PRUNE_SLACK_KM: f64 = 1e-3;

/// Band around a diametral circle's rim where [`Proximity::gabriel`]'s
/// unit-vector test defers to the midpoint predicate: outside it a city is
/// over 5e-11 rad (0.3 mm) off the rim, beyond either test's rounding.
const DOT_MARGIN: f64 = 1e-10;

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn unit_vector(p: GeoPoint) -> [f64; 3] {
    let (lat, lon) = (p.lat.to_radians(), p.lon.to_radians());
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

/// Great-circle distances between every ordered pair of cities, with each
/// city's neighbours sorted nearest-first. Built once per road network and
/// read by both [`gabriel_pairs`] and [`knn_pairs`]; the world keeps the
/// order as [`World::nearest_first`](crate::World).
struct Proximity {
    n: usize,
    /// `dist[u * n + v]` is exactly `cities[u].location.distance_km(&cities[v].location)`.
    dist: Vec<f64>,
    /// Each city's position as a unit vector.
    unit: Vec<[f64; 3]>,
    /// Row `u` (`n` entries) holds `u`, then every other city ordered by
    /// (distance from `u`, index).
    order: Vec<u32>,
}

impl Proximity {
    fn new(cities: &[City]) -> Proximity {
        let n = cities.len();
        // Haversine is bit-symmetric over the gazetteer (`tests/determinism.rs`).
        let mut dist = vec![0.0; n * n];
        for (u, a) in cities.iter().enumerate() {
            for (v, b) in cities.iter().enumerate().skip(u + 1) {
                let d = a.location.distance_km(&b.location);
                dist[u * n + v] = d;
                dist[v * n + u] = d;
            }
        }
        // Distances are finite and non-negative, where the bit patterns
        // order as the values do.
        let mut order = Vec::with_capacity(n * n);
        let mut keys: Vec<(u64, u32)> = Vec::with_capacity(n);
        for (u, row) in dist.chunks_exact(n.max(1)).enumerate() {
            keys.clear();
            keys.extend(row.iter().zip(0..).map(|(d, v)| (d.to_bits(), v)));
            keys.swap_remove(u);
            keys.sort_unstable();
            order.push(u as u32);
            order.extend(keys.iter().map(|&(_, v)| v));
        }
        Proximity {
            n,
            dist,
            unit: cities.iter().map(|c| unit_vector(c.location)).collect(),
            order,
        }
    }

    fn d(&self, u: usize, v: usize) -> f64 {
        self.dist[u * self.n + v]
    }

    /// Every city but `u`, nearest to `u` first.
    fn nearest(&self, u: usize) -> &[u32] {
        &self.order[u * self.n + 1..(u + 1) * self.n]
    }

    /// The prefix of [`Proximity::nearest`] closer to `u` than `reach` km.
    fn within(&self, u: usize, reach: f64) -> &[u32] {
        let row = self.nearest(u);
        &row[..row.partition_point(|&w| self.d(u, w as usize) < reach)]
    }

    /// Gabriel pairs: `(u, v)` is an edge iff no third city lies strictly
    /// inside the circle with diameter `uv` (by `1e-9` km).
    ///
    /// A blocker `w` lies within `r` of the midpoint, so by the triangle
    /// inequality both `d(u, w)` and `d(v, w)` are below `d(u, v)` (plus
    /// [`PRUNE_SLACK_KM`]). Only cities that pass that bound, read from the
    /// shorter of the two endpoints' sorted lists, reach the test. On unit
    /// vectors `w` is inside iff `p_w·(p_u+p_v) > 1 + p_u·p_v`; within
    /// [`DOT_MARGIN`] of equality the midpoint predicate decides, the
    /// midpoint computed only if some city needs it.
    fn gabriel(&self, cities: &[City]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for v in u + 1..self.n {
                let duv = self.d(u, v);
                let reach = duv + PRUNE_SLACK_KM;
                let (from_u, from_v) = (self.within(u, reach), self.within(v, reach));
                let (other, candidates) = if from_u.len() <= from_v.len() {
                    (v, from_u)
                } else {
                    (u, from_v)
                };
                let (pu, pv) = (self.unit[u], self.unit[v]);
                let sum = [pu[0] + pv[0], pu[1] + pv[1], pu[2] + pv[2]];
                let rim = 1.0 + dot(pu, pv);
                let r = duv / 2.0;
                let mut mid = None;
                let blocked = candidates.iter().any(|&w| {
                    let w = w as usize;
                    if w == other || self.d(other, w) >= reach {
                        return false;
                    }
                    let gap = dot(self.unit[w], sum) - rim;
                    if gap.abs() > DOT_MARGIN {
                        return gap > 0.0;
                    }
                    let mid = *mid
                        .get_or_insert_with(|| cities[u].location.midpoint(&cities[v].location));
                    cities[w].location.distance_km(&mid) < r - 1e-9
                });
                if !blocked {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// Each city's `k` nearest-neighbour pairs, normalized to `u < v`,
    /// sorted and deduplicated. Ties in distance go to the lower index.
    fn knn(&self, k: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for u in 0..self.n {
            for &v in self.nearest(u).iter().take(k) {
                let v = v as usize;
                out.push((u.min(v), u.max(v)));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Returns all Gabriel-graph pairs over the cities: `(u, v)` is an edge iff
/// no third city lies inside the circle with diameter `uv`.
pub fn gabriel_pairs(cities: &[City]) -> Vec<(usize, usize)> {
    Proximity::new(cities).gabriel(cities)
}

/// Returns each city's `k` nearest-neighbour pairs (deduplicated,
/// normalized to `u < v`). Ties in distance go to the lower index.
pub fn knn_pairs(cities: &[City], k: usize) -> Vec<(usize, usize)> {
    Proximity::new(cities).knn(k)
}

/// A corridor path between `a` and `b`: the great circle with `waypoints`
/// intermediate vertices, each displaced perpendicular to the path by up to
/// `amplitude` × path length.
pub fn jittered_route(
    rng: &mut StdRng,
    a: GeoPoint,
    b: GeoPoint,
    amplitude: f64,
    waypoints: usize,
) -> Polyline {
    let length = a.distance_km(&b);
    let mut pts = vec![a];
    for i in 1..=waypoints {
        let t = i as f64 / (waypoints + 1) as f64;
        let base = a.interpolate(&b, t);
        let bearing = a.bearing_deg(&b);
        // Taper the displacement towards the endpoints (sin envelope).
        let envelope = (std::f64::consts::PI * t).sin();
        let offset: f64 = rng.gen_range(-1.0..1.0) * amplitude * length * envelope;
        let side = if offset >= 0.0 { 90.0 } else { -90.0 };
        pts.push(base.destination(bearing + side, offset.abs()));
    }
    pts.push(b);
    // `pts` holds both endpoints, so `new` cannot fail; the straight route
    // is the graceful fallback regardless.
    Polyline::new(pts).unwrap_or_else(|_| Polyline::straight(a, b))
}

/// Samples a corridor's *circuity overhead* (extra length as a fraction of
/// the geodesic). Real rights-of-way are rarely geodesics: terrain, land
/// ownership, and town-to-town doglegs stretch them. The distribution is
/// right-skewed to match the paper's §5.3 observation — the LOS-to-ROW gap
/// is under ~100 µs (≈ 20 km) for half the city pairs but exceeds 500 µs
/// (> 100 km) for a quarter, with some beyond 2 ms.
fn sample_circuity(rng: &mut StdRng, base: f64) -> f64 {
    let u: f64 = rng.gen();
    let extra = if u < 0.5 {
        rng.gen_range(0.0..0.08)
    } else if u < 0.75 {
        rng.gen_range(0.08..0.25)
    } else {
        rng.gen_range(0.25..0.60)
    };
    extra + base
}

/// Stretches a route to `target_km` by weaving small alternating
/// perpendicular offsets into a densified copy — length grows without the
/// path straying more than a few km laterally (how real corridors
/// accumulate mileage).
fn stretch_route(pl: &Polyline, target_km: f64) -> Polyline {
    let current = pl.length_km();
    if target_km <= current * 1.001 {
        return pl.clone();
    }
    // densify only fails on a non-positive step; the unstretched route is
    // the graceful fallback.
    let Ok(dense) = pl.densify(12.0) else {
        return pl.clone();
    };
    let pts = dense.points();
    let n = pts.len();
    if n < 3 {
        return pl.clone();
    }
    // Per-segment inflation ratio r: each ~12 km chord becomes
    // sqrt(s² + 4h²), so h = s·sqrt(r² − 1)/2 at alternating sides.
    let r = (target_km / current).min(2.0);
    let mut out = Vec::with_capacity(n);
    out.push(pts[0]);
    for i in 1..n - 1 {
        let s = pts[i - 1].distance_km(&pts[i + 1]) / 2.0;
        let h = s * (r * r - 1.0).max(0.0).sqrt() / 2.0;
        let dir = pts[i - 1].bearing_deg(&pts[i + 1]);
        let side = if i % 2 == 0 { 90.0 } else { -90.0 };
        out.push(pts[i].destination(dir + side, h));
    }
    out.push(pts[n - 1]);
    // Same arity as the (>= 3 point) input, so `new` cannot fail.
    Polyline::new(out).unwrap_or_else(|_| pl.clone())
}

fn build_network(
    cities: &[City],
    layer: CorridorLayer,
    pairs: &[(usize, usize)],
    rng: &mut StdRng,
    amplitude: f64,
) -> TransportNetwork {
    let mut graph: MultiGraph<CityId, CorridorEdge> =
        MultiGraph::with_capacity(cities.len(), pairs.len());
    for i in 0..cities.len() {
        graph.add_node(CityId(i as u32));
    }
    // Rail rights-of-way are systematically more circuitous than highways.
    let circuity_base = match layer {
        CorridorLayer::Road => 0.0,
        CorridorLayer::Rail => 0.06,
        CorridorLayer::Pipeline => 0.02,
    };
    for &(u, v) in pairs {
        let a = cities[u].location;
        let b = cities[v].location;
        let length = a.distance_km(&b);
        // Longer corridors get more waypoints.
        let waypoints = 1 + (length / 150.0).floor().min(4.0) as usize;
        let base = jittered_route(rng, a, b, amplitude, waypoints);
        let extra = sample_circuity(rng, circuity_base);
        let geometry = stretch_route(&base, length * (1.0 + extra));
        let length_km = geometry.length_km();
        graph.add_edge(
            NodeId(u as u32),
            NodeId(v as u32),
            CorridorEdge {
                geometry,
                length_km,
            },
        );
    }
    TransportNetwork { layer, graph }
}

/// Builds the roadway network: Gabriel graph ∪ 2-nearest-neighbour links.
/// Also returns the nearest-first order it sorted, laid out as
/// [`World::nearest_first`](crate::World).
pub fn build_road_network(cities: &[City], rng: &mut StdRng) -> (TransportNetwork, Vec<u32>) {
    let proximity = Proximity::new(cities);
    let mut pairs = proximity.gabriel(cities);
    pairs.extend(proximity.knn(2));
    pairs.sort_unstable();
    pairs.dedup();
    let roads = build_network(cities, CorridorLayer::Road, &pairs, rng, 0.03);
    (roads, proximity.order)
}

/// Builds the railway network: a seeded subset of road corridors, biased
/// toward long corridors, with more meander.
pub fn build_rail_network(
    cities: &[City],
    road: &TransportNetwork,
    rng: &mut StdRng,
) -> TransportNetwork {
    let mut pairs = Vec::new();
    for e in road.graph.edge_refs() {
        let (u, v) = (e.u.0 as usize, e.v.0 as usize);
        let length = e.data.length_km;
        // Selection probability grows with corridor length: short suburban
        // hops rarely get a parallel railway, long plains corridors do.
        let p = (0.35 + length / 900.0).min(0.85);
        if rng.gen_bool(p) {
            pairs.push((u.min(v), u.max(v)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    build_network(cities, CorridorLayer::Rail, &pairs, rng, 0.05)
}

/// City-name pairs hosting pipeline rights-of-way, including the paper's
/// Laurel, MS and Anaheim→Las Vegas examples.
#[rustfmt::skip]
const PIPELINE_PAIRS: &[((&str, &str), (&str, &str))] = &[
    (("El Paso", "TX"), ("San Antonio", "TX")),
    (("San Antonio", "TX"), ("Houston", "TX")),
    (("Houston", "TX"), ("New Orleans", "LA")),
    (("Houston", "TX"), ("Dallas", "TX")),
    (("New Orleans", "LA"), ("Jackson", "MS")),
    (("Jackson", "MS"), ("Laurel", "MS")),
    (("Laurel", "MS"), ("Mobile", "AL")),
    (("Mobile", "AL"), ("Montgomery", "AL")),
    (("Montgomery", "AL"), ("Atlanta", "GA")),
    (("Anaheim", "CA"), ("Las Vegas", "NV")),
    (("Wichita", "KS"), ("Denver", "CO")),
    (("Tulsa", "OK"), ("Wichita", "KS")),
    (("Oklahoma City", "OK"), ("Amarillo", "TX")),
    (("Billings", "MT"), ("Casper", "WY")),
    (("Casper", "WY"), ("Cheyenne", "WY")),
    (("Salt Lake City", "UT"), ("Las Vegas", "NV")),
];

/// Builds the pipeline right-of-way network.
///
/// Each hand-picked pipeline runs city-to-city along the *road-graph*
/// shortest path between its terminals, so pipeline hops coincide with
/// candidate conduit pairs (pipelines and conduits compete for the same
/// inter-city corridors; the paper's Anaheim→Las Vegas example is exactly a
/// conduit following a products pipeline between road-served cities).
pub fn build_pipeline_network(
    cities: &[City],
    road: &TransportNetwork,
    rng: &mut StdRng,
) -> TransportNetwork {
    let csr = road.graph.to_csr();
    let mut st = SearchState::new();
    let mut pairs = Vec::new();
    for ((an, as_), (bn, bs)) in PIPELINE_PAIRS {
        let (Some(a), Some(b)) = (find_city(cities, an, as_), find_city(cities, bn, bs)) else {
            continue; // every pipeline terminal is in the city table
        };
        // Corridor lengths are finite and non-negative, so the search
        // cannot fail; a failure would just mean "no road path".
        let length = |e| road.graph.edge(e).length_km;
        let path = csr_dijkstra(&csr, &mut st, NodeId(a.0), NodeId(b.0), length, None);
        match path.ok().flatten() {
            Some(p) => {
                for w in p.nodes.windows(2) {
                    let (u, v) = (w[0].index(), w[1].index());
                    pairs.push((u.min(v), u.max(v)));
                }
            }
            None => {
                pairs.push((a.index().min(b.index()), a.index().max(b.index())));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    // Pipelines stray far from highways (they run cross-country through
    // easements); the large amplitude keeps pipeline-following conduits
    // outside the road-corridor buffer, as in the paper's Fig. 5 cases.
    build_network(cities, CorridorLayer::Pipeline, &pairs, rng, 0.12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::load_cities;
    use intertubes_graph::is_connected;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1504)
    }

    #[test]
    fn every_pipeline_terminal_is_in_the_city_table() {
        // `build_pipeline_network` skips a pair whose terminal is missing,
        // so a renamed or dropped city must fail here, not reshape the world.
        let cities = load_cities();
        for ((an, as_), (bn, bs)) in PIPELINE_PAIRS {
            for (name, state) in [(an, as_), (bn, bs)] {
                assert!(
                    find_city(&cities, name, state).is_some(),
                    "pipeline terminal {name}, {state} missing from the city table"
                );
            }
        }
    }

    #[test]
    fn gabriel_contains_nearest_neighbour_links() {
        let cities = load_cities();
        let pairs = gabriel_pairs(&cities);
        // The Gabriel graph always contains each point's nearest neighbour.
        let nn = knn_pairs(&cities, 1);
        for e in nn {
            assert!(
                pairs.contains(&e),
                "nearest-neighbour pair {e:?} missing from Gabriel graph"
            );
        }
    }

    #[test]
    fn road_network_is_connected_and_planar_scale() {
        let cities = load_cities();
        let (road, _) = build_road_network(&cities, &mut rng());
        assert!(is_connected(&road.graph), "road network must be connected");
        let m = road.graph.edge_count();
        let n = road.graph.node_count();
        // Gabriel graphs are planar: m <= 3n - 6; union with 2-NN stays close.
        assert!(m <= 3 * n, "m={m} n={n}");
        assert!(m >= n, "road net too sparse: m={m} n={n}");
    }

    #[test]
    fn rail_is_subset_scale_of_road() {
        let cities = load_cities();
        let mut r = rng();
        let (road, _) = build_road_network(&cities, &mut r);
        let rail = build_rail_network(&cities, &road, &mut r);
        assert!(rail.graph.edge_count() < road.graph.edge_count());
        assert!(rail.graph.edge_count() > road.graph.edge_count() / 4);
    }

    #[test]
    fn corridor_geometry_endpoints_match_cities() {
        let cities = load_cities();
        let (road, _) = build_road_network(&cities, &mut rng());
        for e in road.graph.edge_refs() {
            let a = cities[e.u.index()].location;
            let b = cities[e.v.index()].location;
            let g = &e.data.geometry;
            let ok_fwd = g.start().distance_km(&a) < 0.1 && g.end().distance_km(&b) < 0.1;
            let ok_rev = g.start().distance_km(&b) < 0.1 && g.end().distance_km(&a) < 0.1;
            assert!(
                ok_fwd || ok_rev,
                "corridor geometry detached from endpoints"
            );
        }
    }

    #[test]
    fn circuity_is_bounded_and_skewed() {
        let cities = load_cities();
        let (road, _) = build_road_network(&cities, &mut rng());
        let mut ratios = Vec::new();
        for e in road.graph.edge_refs() {
            let direct = cities[e.u.index()]
                .location
                .distance_km(&cities[e.v.index()].location);
            assert!(
                e.data.length_km < direct * 1.75 + 2.0,
                "corridor {:.0} km vs direct {:.0} km",
                e.data.length_km,
                direct
            );
            assert!(e.data.length_km >= direct - 1e-6);
            ratios.push(e.data.length_km / direct.max(1.0));
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let median = ratios[ratios.len() / 2];
        let p75 = ratios[3 * ratios.len() / 4];
        // Right-skewed: the median corridor is fairly direct, the 75th
        // percentile is distinctly circuitous.
        assert!(median < 1.15, "median circuity {median}");
        assert!(p75 > median + 0.03, "p75 {p75} vs median {median}");
    }

    #[test]
    fn pipeline_network_includes_papers_examples() {
        let cities = load_cities();
        let mut r = rng();
        let (road, _) = build_road_network(&cities, &mut r);
        let pipe = build_pipeline_network(&cities, &road, &mut r);
        let laurel = find_city(&cities, "Laurel", "MS").unwrap();
        assert!(
            pipe.graph.degree(NodeId(laurel.0)) >= 2,
            "Laurel, MS should be on the pipeline chain"
        );
        let anaheim = find_city(&cities, "Anaheim", "CA").unwrap();
        assert!(pipe.graph.degree(NodeId(anaheim.0)) >= 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let cities = load_cities();
        let (a, _) = build_road_network(&cities, &mut rng());
        let (b, _) = build_road_network(&cities, &mut rng());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        for (ea, eb) in a.graph.edge_refs().zip(b.graph.edge_refs()) {
            assert_eq!(ea.data.geometry, eb.data.geometry);
        }
    }

    #[test]
    fn total_length_is_positive_sum() {
        let cities = load_cities();
        let (road, _) = build_road_network(&cities, &mut rng());
        let total = road.total_length_km();
        let sum: f64 = road.graph.edge_refs().map(|e| e.data.length_km).sum();
        assert!((total - sum).abs() < 1e-6);
        assert!(total > 10_000.0, "a national road network spans >10k km");
    }
}
