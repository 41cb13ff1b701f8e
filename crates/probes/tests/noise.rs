//! Measurement-noise injection: the §4.3 overlay must degrade gracefully —
//! and predictably — as MPLS opacity, geolocation failures and DNS-hint
//! scarcity increase.

use std::sync::OnceLock;

use intertubes_atlas::World;
use intertubes_map::{build_map, FiberMap, PipelineConfig};
use intertubes_probes::{fold_campaign, ProbeConfig};
use intertubes_records::{generate_corpus, CorpusConfig};

fn fixture() -> &'static (World, FiberMap) {
    static F: OnceLock<(World, FiberMap)> = OnceLock::new();
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
        (world, built.map)
    })
}

fn overlay_with(cfg: ProbeConfig) -> intertubes_probes::Overlay {
    let (world, map) = fixture();
    fold_campaign(world, map, &cfg)
}

const BASE: ProbeConfig = ProbeConfig {
    probes: 8_000,
    seed: 2014,
    mpls_rate: 0.2,
    geolocation_failure_rate: 0.08,
    dns_hint_rate: 0.7,
    single_carrier_rate: 0.3,
};

#[test]
fn no_hints_means_no_observed_carriers() {
    let ov = overlay_with(ProbeConfig {
        dns_hint_rate: 0.0,
        ..BASE
    });
    assert!(
        ov.isp_conduits.is_empty(),
        "no DNS hints → no carrier attribution"
    );
    assert!(ov.observed_isps.iter().all(|s| s.is_empty()));
    // Conduit frequencies still accumulate (geolocation still works).
    assert!(ov.conduit_freq.iter().sum::<u64>() > 1_000);
}

#[test]
fn full_hints_reveal_more_carriers_than_partial() {
    let partial = overlay_with(BASE);
    let full = overlay_with(ProbeConfig {
        dns_hint_rate: 1.0,
        ..BASE
    });
    let count =
        |ov: &intertubes_probes::Overlay| ov.observed_isps.iter().map(|s| s.len()).sum::<usize>();
    assert!(
        count(&full) > count(&partial),
        "full hints {} vs partial {}",
        count(&full),
        count(&partial)
    );
}

#[test]
fn heavy_geolocation_failure_skips_more_traces() {
    let clean = overlay_with(ProbeConfig {
        geolocation_failure_rate: 0.0,
        ..BASE
    });
    let dirty = overlay_with(ProbeConfig {
        geolocation_failure_rate: 0.7,
        ..BASE
    });
    let skip_rate = |ov: &intertubes_probes::Overlay| {
        ov.skipped as f64 / (ov.overlaid + ov.skipped).max(1) as f64
    };
    assert!(
        skip_rate(&dirty) > skip_rate(&clean),
        "dirty {} vs clean {}",
        skip_rate(&dirty),
        skip_rate(&clean)
    );
    // Even at 70 % failure, most traces have ≥ 2 surviving hops somewhere.
    assert!(dirty.overlaid > 0);
}

#[test]
fn mpls_shifts_attribution_to_gap_paths_not_off_the_map() {
    // With aggressive tunnelling, hops disappear but the overlay bridges
    // the gaps over the map: total traversal mass must not collapse.
    let open = overlay_with(ProbeConfig {
        mpls_rate: 0.0,
        ..BASE
    });
    let tunnelled = overlay_with(ProbeConfig {
        mpls_rate: 0.95,
        ..BASE
    });
    let mass_open: u64 = open.conduit_freq.iter().sum();
    let mass_tun: u64 = tunnelled.conduit_freq.iter().sum();
    assert!(
        mass_tun > mass_open / 2,
        "tunnelling should not halve overlay mass: {mass_tun} vs {mass_open}"
    );
}

#[test]
fn direction_split_is_roughly_symmetric() {
    let ov = overlay_with(BASE);
    let we: u64 = ov.west_east.iter().sum();
    let ew: u64 = ov.east_west.iter().sum();
    let ratio = we as f64 / ew.max(1) as f64;
    // Sources and destinations are drawn from the same distribution.
    assert!((0.7..1.4).contains(&ratio), "W→E/E→W ratio {ratio}");
}

#[test]
fn overlay_mass_scales_with_campaign_size() {
    let small = overlay_with(ProbeConfig {
        probes: 2_000,
        ..BASE
    });
    let large = overlay_with(ProbeConfig {
        probes: 8_000,
        ..BASE
    });
    let (ms, ml): (u64, u64) = (
        small.conduit_freq.iter().sum(),
        large.conduit_freq.iter().sum(),
    );
    let ratio = ml as f64 / ms.max(1) as f64;
    assert!(
        (3.0..5.5).contains(&ratio),
        "4× probes should give ~4× mass, got {ratio:.2}×"
    );
}

#[test]
fn observed_carriers_are_plausible_tenants_mostly() {
    // Hint-based attribution should usually name carriers that genuinely
    // ride the conduit in the ground truth (the hint *is* the segment
    // owner), with a tolerated minority of gap-path smearing.
    let (world, map) = fixture();
    let ov = fold_campaign(world, map, &BASE);
    let mut attributions = 0usize;
    let mut correct = 0usize;
    for (ci, observed) in ov.observed_isps.iter().enumerate() {
        let mc = &map.conduits[ci];
        let (a, b) = (
            &map.nodes[mc.a.index()].label,
            &map.nodes[mc.b.index()].label,
        );
        // Ground truth: tenants of any conduit between the same pair.
        for isp in observed {
            attributions += 1;
            let i = world.roster.iter().position(|p| &p.name == isp);
            let Some(i) = i else { continue };
            let fp = &world.footprints[i];
            let on_pair = fp.conduits.iter().any(|c| {
                let cd = world.system.conduit(*c);
                let (ta, tb) = (world.city_label(cd.a), world.city_label(cd.b));
                (&ta == a && &tb == b) || (&ta == b && &tb == a)
            });
            correct += on_pair as usize;
        }
    }
    let precision = correct as f64 / attributions.max(1) as f64;
    assert!(
        precision > 0.5,
        "hint attribution should beat a coin flip: {precision:.2} over {attributions}"
    );
}
