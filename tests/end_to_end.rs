//! Cross-crate integration tests: the full paper pipeline, end to end.

use std::sync::OnceLock;

use intertubes::risk::{sharing_fraction, traffic_risk};
use intertubes::Study;

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(Study::reference)
}

#[test]
fn headline_map_statistics_match_paper_scale() {
    let s = study();
    let map = &s.built.map;
    // Paper: 273 nodes, 2411 links, 542 conduits. Our world has ~215
    // candidate cities, so nodes land lower; links/conduits are calibrated.
    assert!(
        (190..=280).contains(&map.nodes.len()),
        "nodes {}",
        map.nodes.len()
    );
    assert!(
        (2100..=2700).contains(&map.link_count()),
        "links {}",
        map.link_count()
    );
    assert!(
        (480..=560).contains(&map.conduits.len()),
        "conduits {}",
        map.conduits.len()
    );
}

#[test]
fn sharing_distribution_matches_paper() {
    let rm = study().risk_matrix();
    let ge2 = sharing_fraction(&rm, 2);
    let ge3 = sharing_fraction(&rm, 3);
    let ge4 = sharing_fraction(&rm, 4);
    assert!((0.80..=0.95).contains(&ge2), ">=2 {ge2}");
    assert!((0.52..=0.72).contains(&ge3), ">=3 {ge3}");
    assert!((0.43..=0.63).contains(&ge4), ">=4 {ge4}");
    // A heavily-shared tail exists.
    let heavy = rm.shared.iter().filter(|&&c| c >= 16).count();
    assert!(heavy >= 6, "heavy tail {heavy}");
}

#[test]
fn step_reports_tell_papers_story() {
    let s = study();
    let [r1, r2, r3, r4]: [_; 4] = s.built.reports.clone().try_into().expect("four steps");
    // Step 2 validates without changing the topology.
    assert_eq!(r1.conduits, r2.conduits);
    assert!(r2.validated_conduits > r1.validated_conduits);
    // Step 3 adds mostly tenancies, few conduits (paper: +30 conduits).
    assert!(r3.conduits - r2.conduits < 100);
    assert!(
        r3.links - r2.links > 700,
        "step 3 adds the POP-only ISPs' links"
    );
    // Step 4 only validates and infers.
    assert_eq!(r3.conduits, r4.conduits);
    assert!(r4.validated_conduits >= r3.validated_conduits);
}

#[test]
fn traceroute_overlay_increases_perceived_risk() {
    let s = study();
    let overlay = s.overlay(Some(20_000));
    let tr = traffic_risk(&s.built.map, &overlay);
    assert!(
        tr.with_traffic.mean() > tr.map_only.mean() + 0.5,
        "overlay should reveal additional carriers: {} vs {}",
        tr.with_traffic.mean(),
        tr.map_only.mean()
    );
    // Unpublished carriers show up.
    let ranking = overlay.isp_usage_ranking();
    assert!(ranking.iter().any(|(n, _)| n == "SoftLayer" || n == "MFN"));
    // Level 3 dominates usage (Table 4's headline).
    let level3 = ranking.iter().position(|(n, _)| n == "Level 3").unwrap();
    assert!(level3 <= 2, "Level 3 rank {level3}");
}

#[test]
fn mitigation_beats_status_quo() {
    let s = study();
    let rob = s.robustness(12);
    // Rerouting the heavy links must yield positive SRR for most affected
    // providers at modest path inflation.
    let affected: Vec<_> = rob.per_isp.iter().filter(|r| r.cases > 0).collect();
    assert!(affected.len() >= 15, "most providers use the heavy dozen");
    for r in &affected {
        assert!(r.avg_srr > 0.0, "{} gains nothing", r.isp);
        assert!(
            r.avg_pi < 15.0,
            "{} pays absurd inflation {}",
            r.isp,
            r.avg_pi
        );
    }
    let aug = s.augmentation();
    assert!(!aug.added.is_empty());
    let any_gain = aug
        .improvement
        .iter()
        .any(|series| series.last().copied().unwrap_or(0.0) > 0.05);
    assert!(any_gain, "augmentation should help somebody substantially");
}

#[test]
fn latency_figures_are_internally_consistent() {
    let s = study();
    let lat = s.latency();
    assert!((0.45..=0.95).contains(&lat.best_equals_row_fraction));
    // The LOS-ROW gap tail: median modest, p90 heavy (paper's qualitative
    // shape).
    let p50 = lat.los_row_gap_quantile(0.5);
    let p90 = lat.los_row_gap_quantile(0.9);
    assert!(
        p90 > p50,
        "gap distribution should be skewed: p50 {p50}, p90 {p90}"
    );
    assert!(p90 > 100.0, "a heavy tail exists (µs): {p90}");
}

#[test]
fn whole_study_is_deterministic() {
    let a = Study::reference();
    let b = Study::reference();
    assert_eq!(a.built.reports, b.built.reports);
    assert_eq!(a.built.map.link_count(), b.built.map.link_count());
    let ca = a.campaign(Some(2_000));
    let cb = b.campaign(Some(2_000));
    assert_eq!(ca.traces, cb.traces);
}

#[test]
fn geojson_export_round_trips() {
    let s = study();
    let gj = intertubes::map::to_geojson(&s.built.map);
    let text = serde_json::to_string(&gj).unwrap();
    let back: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(back["type"], "FeatureCollection");
    let features = back["features"].as_array().unwrap();
    assert_eq!(
        features.len(),
        s.built.map.nodes.len() + s.built.map.conduits.len()
    );
}

#[test]
fn annotated_geojson_and_what_if_extensions_work() {
    let s = study();
    let overlay = s.overlay(Some(5_000));
    let gj = s.annotated_geojson(&overlay);
    let line = gj["features"]
        .as_array()
        .unwrap()
        .iter()
        .find(|f| f["geometry"]["type"] == "LineString")
        .expect("conduit features exist");
    assert!(line["properties"]["delay_us"].as_f64().unwrap() > 0.0);
    assert!(line["properties"].get("traffic_probes").is_some());
    assert!(line["properties"].get("shared_risk").is_some());

    let wi = s.what_if_augmented();
    assert!(wi.conduits_added > 0);
    assert!(wi.mean_avg_risk_after < wi.mean_avg_risk_before);
    assert!(wi.max_sharing_after <= wi.max_sharing_before);
}
