//! Top-level synthetic world: the ground truth every pipeline stage is
//! evaluated against, plus the *published* artifacts the map-construction
//! pipeline is allowed to see.

use intertubes_geo::{GeoPoint, Polyline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cities::{find_city, load_cities, City, CityId};
use crate::conduits::{build_conduit_system, ConduitConfig, ConduitSystem};
use crate::isps::{isp_roster, IspProfile, MapKind, MAPPED_ISPS};
use crate::tenancy::{assign_footprints, Footprint};
use crate::transport::{
    build_pipeline_network, build_rail_network, build_road_network, TransportNetwork,
};

/// Generation parameters. The default seed (1504) produces the reference
/// world used throughout the test suite and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master RNG seed; everything downstream is a pure function of it.
    pub seed: u64,
    /// Conduit-system parameters.
    pub conduits: ConduitConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 1504,
            conduits: ConduitConfig::default(),
        }
    }
}

/// One link in a provider's published map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedLink {
    /// Endpoint label, `"City, ST"`.
    pub a: String,
    /// Endpoint label, `"City, ST"`.
    pub b: String,
    /// Link geometry as digitized from the provider's map — present only
    /// for geocoded maps, and perturbed by digitization noise.
    pub geometry: Option<Polyline>,
}

/// A provider's published fiber map — the only footprint information the
/// map-construction pipeline may read directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedMap {
    /// Provider name.
    pub isp: String,
    /// Publication style.
    pub kind: MapKind,
    /// Published links.
    pub links: Vec<PublishedLink>,
}

/// The complete synthetic world.
#[derive(Debug, Clone)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// City table.
    pub cities: Vec<City>,
    /// Roadway layer (Fig. 2 analogue).
    pub roads: TransportNetwork,
    /// Railway layer (Fig. 3 analogue).
    pub rails: TransportNetwork,
    /// Pipeline rights-of-way.
    pub pipelines: TransportNetwork,
    /// Ground-truth conduit system.
    pub system: ConduitSystem,
    /// Provider roster (mapped ISPs first, then unpublished).
    pub roster: Vec<IspProfile>,
    /// Ground-truth footprints, aligned with `roster`.
    pub footprints: Vec<Footprint>,
    /// Row `id * cities.len()` holds every city id by great-circle distance
    /// from `id`: `id` itself, then the others nearest first, ties in id
    /// order. The road builder sorts it.
    pub nearest_first: Vec<u32>,
}

impl World {
    /// Generates the world deterministically from `config`.
    pub fn generate(config: WorldConfig) -> World {
        let mut span = intertubes_obs::stage("world.generate");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cities = load_cities();
        let (roads, nearest_first) = build_road_network(&cities, &mut rng);
        let rails = build_rail_network(&cities, &roads, &mut rng);
        let pipelines = build_pipeline_network(&cities, &roads, &mut rng);
        let system = build_conduit_system(
            &cities,
            &roads,
            &rails,
            &pipelines,
            &config.conduits,
            &mut rng,
        );
        let roster = isp_roster();
        let (mut footprints, reserved) = assign_footprints(&cities, &system, &roster, &mut rng);
        let geocoded = crate::isps::geocoded_isps(&roster).len();
        crate::tenancy::calibrate_sharing(
            &system,
            &mut footprints,
            MAPPED_ISPS,
            geocoded,
            &reserved,
            &crate::tenancy::SharingTargets::default(),
            &mut rng,
        );
        span.items("cities", cities.len());
        span.items("conduits", system.conduits.len());
        span.items("providers", roster.len());
        World {
            config,
            cities,
            roads,
            rails,
            pipelines,
            system,
            roster,
            footprints,
            nearest_first,
        }
    }

    /// Shorthand: the default reference world.
    pub fn reference() -> World {
        World::generate(WorldConfig::default())
    }

    /// The footprints of the 20 mapped providers (the paper's analysis set).
    pub fn mapped_footprints(&self) -> &[Footprint] {
        &self.footprints[..MAPPED_ISPS]
    }

    /// `"City, ST"` label of a city.
    pub fn city_label(&self, id: CityId) -> String {
        self.cities[id.index()].label()
    }

    /// City location.
    pub fn city_location(&self, id: CityId) -> GeoPoint {
        self.cities[id.index()].location
    }

    /// Finds a city by name/state.
    pub fn find_city(&self, name: &str, state: &str) -> Option<CityId> {
        find_city(&self.cities, name, state)
    }

    /// Produces the published maps for all *mapped* providers, with
    /// per-provider digitization noise on geocoded geometry.
    ///
    /// Deterministic: noise derives from the world seed and the provider
    /// index, not from generation-time RNG state.
    pub fn publish_maps(&self) -> Vec<PublishedMap> {
        let mut span = intertubes_obs::stage("world.publish");
        let mut out = Vec::with_capacity(MAPPED_ISPS);
        for (i, isp) in self.roster.iter().take(MAPPED_ISPS).enumerate() {
            let mut rng = StdRng::seed_from_u64(self.config.seed ^ (0x9e37_79b9 + i as u64));
            let fp = &self.footprints[i];
            let mut links = Vec::new();
            let mut seen_pairs = std::collections::HashSet::new();
            for cid in &fp.conduits {
                let c = self.system.conduit(*cid);
                let (a, b) = (self.city_label(c.a), self.city_label(c.b));
                match isp.map_kind {
                    MapKind::Geocoded => {
                        let geometry = perturb_geometry(&mut rng, &c.geometry, 0.8);
                        links.push(PublishedLink {
                            a,
                            b,
                            geometry: Some(geometry),
                        });
                    }
                    MapKind::PopOnly => {
                        // POP maps list each city pair once, no geometry.
                        let pair_key = (c.a.min(c.b), c.a.max(c.b));
                        if seen_pairs.insert(pair_key) {
                            links.push(PublishedLink {
                                a,
                                b,
                                geometry: None,
                            });
                        }
                    }
                    MapKind::Unpublished => unreachable!("mapped ISPs only"),
                }
            }
            out.push(PublishedMap {
                isp: isp.name.clone(),
                kind: isp.map_kind,
                links,
            });
        }
        span.items("maps", out.len());
        span.items("links", out.iter().map(|m| m.links.len()).sum());
        out
    }
}

/// Adds digitization noise: each interior vertex moves up to `max_km` in a
/// random direction; endpoints stay pinned to their cities.
fn perturb_geometry(rng: &mut StdRng, geometry: &Polyline, max_km: f64) -> Polyline {
    // The 60 km step is a positive constant, so densify cannot fail; fall
    // back to the undensified geometry rather than panicking regardless.
    let dense = geometry.densify(60.0).unwrap_or_else(|_| geometry.clone());
    let pts = dense.points();
    let n = pts.len();
    let mut out = Vec::with_capacity(n);
    for (i, p) in pts.iter().enumerate() {
        if i == 0 || i == n - 1 {
            out.push(*p);
        } else {
            let bearing: f64 = rng.gen_range(0.0..360.0);
            let d: f64 = rng.gen_range(0.0..max_km);
            out.push(p.destination(bearing, d));
        }
    }
    // Same arity as the (valid) densified input, so construction cannot
    // fail; keep the unperturbed geometry rather than panicking regardless.
    Polyline::new(out).unwrap_or(dense)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::reference()
    }

    #[test]
    fn reference_world_has_paper_scale() {
        let w = world();
        assert_eq!(w.system.conduits.len(), 542);
        assert!(w.cities.len() >= 180);
        let mapped_links: usize = w.mapped_footprints().iter().map(|f| f.conduits.len()).sum();
        // Paper: 2411 links over the 20 mapped ISPs. Allow ±10 % slack for
        // footprints that could not hit their exact target.
        assert!(
            (2170..=2660).contains(&mapped_links),
            "mapped links {mapped_links} should be near 2411"
        );
    }

    #[test]
    fn published_maps_cover_mapped_isps_only() {
        let w = world();
        let maps = w.publish_maps();
        assert_eq!(maps.len(), MAPPED_ISPS);
        let geocoded = maps.iter().filter(|m| m.kind == MapKind::Geocoded).count();
        let pop_only = maps.iter().filter(|m| m.kind == MapKind::PopOnly).count();
        assert_eq!(geocoded, 9);
        assert_eq!(pop_only, 11);
    }

    #[test]
    fn geocoded_maps_have_geometry_pop_maps_do_not() {
        let w = world();
        for m in w.publish_maps() {
            match m.kind {
                MapKind::Geocoded => {
                    assert!(!m.links.is_empty());
                    assert!(m.links.iter().all(|l| l.geometry.is_some()), "{}", m.isp);
                }
                MapKind::PopOnly => {
                    assert!(!m.links.is_empty());
                    assert!(m.links.iter().all(|l| l.geometry.is_none()), "{}", m.isp);
                }
                MapKind::Unpublished => panic!("unpublished ISP in publish_maps"),
            }
        }
    }

    #[test]
    fn digitization_noise_is_small() {
        let w = world();
        let maps = w.publish_maps();
        // Find a geocoded map and verify its geometry stays within ~1 km of
        // the true conduit (sampled).
        let level3_idx = w.roster.iter().position(|p| p.name == "Level 3").unwrap();
        let m = &maps[level3_idx];
        let fp = &w.footprints[level3_idx];
        for (link, cid) in m.links.iter().zip(fp.conduits.iter()).take(10) {
            let truth = &w.system.conduit(*cid).geometry;
            let published = link.geometry.as_ref().unwrap();
            // Compare midpoints: digitization noise ≤ 0.8 km plus densify
            // discretization.
            let d = truth
                .point_at_fraction(0.5)
                .distance_km(&published.point_at_fraction(0.5));
            assert!(d < 5.0, "published geometry {d} km off the trench");
        }
    }

    #[test]
    fn publish_is_deterministic() {
        let w = world();
        assert_eq!(w.publish_maps(), w.publish_maps());
    }

    #[test]
    fn two_worlds_same_seed_identical_footprints() {
        let a = world();
        let b = world();
        assert_eq!(a.footprints, b.footprints);
    }

    #[test]
    fn different_seeds_differ() {
        let a = world();
        let b = World::generate(WorldConfig {
            seed: 7,
            ..WorldConfig::default()
        });
        // Same city table, but tenancy should differ somewhere.
        assert_eq!(a.cities.len(), b.cities.len());
        assert_ne!(a.footprints, b.footprints);
    }
}
