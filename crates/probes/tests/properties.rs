//! Property-based tests for the traceroute substrate.

use intertubes_geo::GeoPoint;
use intertubes_probes::{classify_direction, Direction};
use proptest::prelude::*;

/// Points inside a CONUS box, which lies inside the valid coordinate range.
fn conus() -> impl Strategy<Value = GeoPoint> {
    (25.0f64..49.0, -124.0f64..-67.0).prop_map(|(lat, lon)| GeoPoint::new_unchecked(lat, lon))
}

proptest! {
    #[test]
    fn direction_is_antisymmetric(a in conus(), b in conus()) {
        let fwd = classify_direction(&a, &b);
        let rev = classify_direction(&b, &a);
        match fwd {
            Direction::WestToEast => prop_assert_eq!(rev, Direction::EastToWest),
            Direction::EastToWest => prop_assert_eq!(rev, Direction::WestToEast),
            Direction::Meridional => prop_assert_eq!(rev, Direction::Meridional),
        }
    }

    #[test]
    fn direction_matches_dominant_axis(a in conus(), b in conus()) {
        let d = classify_direction(&a, &b);
        let dlon = (b.lon - a.lon).abs();
        let dlat = (b.lat - a.lat).abs();
        if dlat > dlon {
            prop_assert_eq!(d, Direction::Meridional);
        } else if b.lon > a.lon {
            prop_assert_eq!(d, Direction::WestToEast);
        } else if b.lon < a.lon {
            prop_assert_eq!(d, Direction::EastToWest);
        }
    }
}

mod shard_merge {
    //! The overlay's shard merge (DESIGN.md §7): the overlay is
    //! independent of shard boundaries, and out-of-range input degrades
    //! to absent data. The merge's grouping and order are checked on the
    //! private tallies in `overlay.rs`.

    use std::sync::OnceLock;

    use intertubes_atlas::{CityId, IspId, World};
    use intertubes_degrade::DegradationPolicy;
    use intertubes_map::{build_map, FiberMap, PipelineConfig};
    use intertubes_probes::{
        overlay_campaign, overlay_campaign_with_chunk_size, run_campaign, Campaign, Overlay,
        ProbeConfig,
    };
    use intertubes_records::{generate_corpus, CorpusConfig};
    use proptest::prelude::*;

    struct Fixture {
        world: World,
        map: FiberMap,
        campaign: Campaign,
        baseline: Overlay,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let world = World::reference();
            let corpus = generate_corpus(&world, &CorpusConfig::default());
            let built = build_map(
                &world.publish_maps(),
                &corpus,
                &world.cities,
                &world.roads,
                &world.rails,
                &PipelineConfig::default(),
            );
            let campaign = run_campaign(
                &world,
                &ProbeConfig {
                    probes: 1_500,
                    ..ProbeConfig::default()
                },
            );
            let baseline = overlay_campaign(&world, &built.map, &campaign);
            Fixture {
                world,
                map: built.map,
                campaign,
                baseline,
            }
        })
    }

    fn canon(ov: &Overlay) -> String {
        serde_json::to_string(ov).unwrap_or_else(|e| panic!("overlay serializes: {e}"))
    }

    /// A hint id past the roster, or a hop city past the gazetteer, is
    /// the same as no hint or an unresolved hop: no panic, no new report
    /// entry, and the overlay of the campaign with those fields cleared.
    #[test]
    fn out_of_range_hints_and_hop_cities_count_as_absent() {
        let f = fixture();
        let roster = f.world.roster.len() as u32;
        let cities = f.world.cities.len() as u32;
        let mut corrupt = f.campaign.clone();
        let mut cleared = f.campaign.clone();
        for (t, (bad, clear)) in corrupt
            .traces
            .iter_mut()
            .zip(&mut cleared.traces)
            .enumerate()
        {
            for (h, (bad, clear)) in bad.hops.iter_mut().zip(&mut clear.hops).enumerate() {
                match (t + h) % 5 {
                    0 => bad.isp_hint = Some(IspId(roster)),
                    1 => bad.isp_hint = Some(IspId(u32::MAX)),
                    2 => bad.city = Some(CityId(cities)),
                    3 => bad.city = Some(CityId(u32::MAX)),
                    _ => continue,
                }
                if (t + h) % 5 < 2 {
                    clear.isp_hint = None;
                } else {
                    clear.city = None;
                }
            }
        }
        let n = corrupt.traces.len();
        for chunk in [1, 64, n + 1] {
            let overlay = |c: &Campaign| {
                overlay_campaign_with_chunk_size(
                    &f.world,
                    &f.map,
                    c,
                    DegradationPolicy::Strict,
                    chunk,
                )
                .expect("in-range endpoints")
            };
            let (got, report) = overlay(&corrupt);
            let (want, _) = overlay(&cleared);
            assert_eq!(canon(&got), canon(&want), "chunk {chunk}");
            assert!(report.is_clean());
        }
    }

    proptest! {
        #[test]
        fn chunk_boundaries_never_change_the_overlay(chunk in 1usize..2_000) {
            let f = fixture();
            let (ov, report) = overlay_campaign_with_chunk_size(
                &f.world,
                &f.map,
                &f.campaign,
                DegradationPolicy::Strict,
                chunk,
            )
            .expect("clean campaign");
            prop_assert_eq!(canon(&ov), canon(&f.baseline));
            prop_assert!(report.is_clean());
        }
    }
}

mod campaign_invariants {
    use intertubes_atlas::World;
    use intertubes_probes::{run_campaign, ProbeConfig};

    /// Campaign-level invariants on the reference world at several noise
    /// settings: hop sequences start at the source, end at the destination
    /// unless geolocation dropped it, and all hints are roster names.
    #[test]
    fn hop_sequences_are_well_formed_under_noise() {
        let world = World::reference();
        for (mpls, geo) in [(0.0, 0.0), (0.5, 0.3)] {
            let cfg = ProbeConfig {
                probes: 2_000,
                mpls_rate: mpls,
                geolocation_failure_rate: geo,
                ..ProbeConfig::default()
            };
            let campaign = run_campaign(&world, &cfg);
            for t in &campaign.traces {
                assert!(!t.hops.is_empty());
                if let Some(first) = t.hops.first().and_then(|h| h.city) {
                    assert_eq!(first, t.src, "first resolved hop is the source");
                }
                if geo == 0.0 && mpls == 0.0 {
                    // With zero noise the last hop is always the destination.
                    assert_eq!(t.hops.last().unwrap().city, Some(t.dst));
                }
            }
        }
    }
}
