//! Fault-injection integration tests: every fault family is injected into
//! a real study build and the degradation report is matched against the
//! injection ledger.
//!
//! Count-exactness holds for *single-family* plans (composed families
//! interact: a dropped link can carry the NaN another family injected, so
//! combined ledgers over-count what survives to the detector).

use std::sync::OnceLock;

use intertubes::degrade::{DegradationPolicy, DegradationReport};
use intertubes::faults::{inject_campaign, FaultFamily, FaultPlan, InjectionLedger, Injector};
use intertubes::probes::Campaign;
use intertubes::{IntertubesError, Study, StudyConfig};

const PLAN_SEED: u64 = 77;

fn plan(family: FaultFamily, rate: f64) -> FaultPlan {
    FaultPlan::new(PLAN_SEED).with(family, rate)
}

fn faulted(family: FaultFamily, rate: f64) -> (Study, DegradationReport, InjectionLedger) {
    Study::new_faulted(StudyConfig::default(), &plan(family, rate))
        .unwrap_or_else(|e| panic!("lenient faulted build failed for {family}: {e}"))
}

fn strict_config() -> StudyConfig {
    let mut cfg = StudyConfig::default();
    cfg.policy = DegradationPolicy::Strict;
    cfg
}

/// Shared clean baseline: the reference study plus a 5000-probe campaign.
fn baseline() -> &'static (Study, DegradationReport, Campaign) {
    static S: OnceLock<(Study, DegradationReport, Campaign)> = OnceLock::new();
    S.get_or_init(|| {
        let (study, report) =
            Study::new_checked(StudyConfig::default()).expect("clean build succeeds");
        let campaign = study.campaign(Some(5_000));
        (study, report, campaign)
    })
}

#[test]
fn clean_input_reports_clean_under_both_policies() {
    let (_, report, _) = baseline();
    assert!(report.is_clean(), "clean world must degrade nothing: {report:?}");
    let (_, strict_report) = Study::new_checked(strict_config()).expect("strict on clean input");
    assert!(strict_report.is_clean());
}

#[test]
fn lenient_checked_build_is_byte_identical_to_default() {
    let default = Study::new(StudyConfig::default());
    let checked = &baseline().0;
    assert_eq!(default.built.reports, checked.built.reports);
    let a = serde_json::to_string(&intertubes::map::to_geojson(&default.built.map))
        .expect("serializes");
    let b = serde_json::to_string(&intertubes::map::to_geojson(&checked.built.map))
        .expect("serializes");
    assert_eq!(a, b, "lenient checked map must match the default path byte for byte");
}

#[test]
fn nan_coordinates_are_dropped_and_counted() {
    let (_, report, ledger) = faulted(FaultFamily::NanCoordinates, 0.05);
    let injected = ledger.count(FaultFamily::NanCoordinates);
    assert!(injected > 0, "rate 0.05 must land some faults");
    assert_eq!(report.total_for_reason("invalid-geometry"), injected);
}

#[test]
fn out_of_range_coordinates_are_dropped_and_counted() {
    let (_, report, ledger) = faulted(FaultFamily::OutOfRangeCoordinates, 0.05);
    let injected = ledger.count(FaultFamily::OutOfRangeCoordinates);
    assert!(injected > 0);
    assert_eq!(report.total_for_reason("invalid-geometry"), injected);
}

#[test]
fn stripped_geometry_is_repaired_or_dropped_and_counted() {
    let (_, report, ledger) = faulted(FaultFamily::StripGeometry, 0.08);
    let injected = ledger.count(FaultFamily::StripGeometry);
    assert!(injected > 0);
    let handled = report.total_for_reason("missing-geometry")
        + report.total_for_reason("missing-geometry-unresolvable");
    assert_eq!(handled, injected);
    // The gazetteer covers published endpoints, so repair dominates.
    assert!(report.total_for_reason("missing-geometry") > 0);
}

#[test]
fn duplicate_links_are_deduplicated_and_counted() {
    let (_, report, ledger) = faulted(FaultFamily::DuplicateLinks, 0.1);
    let injected = ledger.count(FaultFamily::DuplicateLinks);
    assert!(injected > 0);
    assert_eq!(report.total_for_reason("duplicate-link"), injected);
}

#[test]
fn dropped_links_shrink_the_map_silently() {
    let (study, report, ledger) = faulted(FaultFamily::DropLinks, 0.1);
    assert!(ledger.count(FaultFamily::DropLinks) > 0);
    // Absent links are undetectable — the map is smaller, not dirtier.
    assert!(report.is_clean(), "{report:?}");
    let (clean, _, _) = baseline();
    assert!(study.built.map.link_count() < clean.built.map.link_count());
}

#[test]
fn corrupt_documents_are_dropped_and_counted() {
    let (study, report, ledger) = faulted(FaultFamily::CorruptDocuments, 0.05);
    let injected = ledger.count(FaultFamily::CorruptDocuments);
    assert!(injected > 0);
    assert_eq!(report.total_for_reason("corrupt-city-label"), injected);
    let (clean, _, _) = baseline();
    assert_eq!(study.corpus.len() + injected, clean.corpus.len());
}

#[test]
fn contradictory_documents_are_flagged_and_counted() {
    let (_, clean_report, _) = baseline();
    let natural = clean_report.total_for_reason("contradictory-row-claim");
    let (_, report, ledger) = faulted(FaultFamily::ContradictoryDocuments, 0.05);
    let injected = ledger.count(FaultFamily::ContradictoryDocuments);
    assert!(injected > 0);
    assert_eq!(
        report.total_for_reason("contradictory-row-claim") - natural,
        injected
    );
}

#[test]
fn disconnected_transport_degrades_but_builds() {
    let (study, report, ledger) = faulted(FaultFamily::DisconnectTransport, 0.35);
    assert!(ledger.count(FaultFamily::DisconnectTransport) > 0);
    assert!(
        report.total_for_reason("disconnected-component") >= 1,
        "removing a third of road corridors must strand components: {report:?}"
    );
    // ROW snapping degrades but the pipeline still produces a map.
    assert!(study.built.map.conduits.len() > 100);
}

#[test]
fn corrupt_trace_endpoints_are_dropped_and_counted() {
    let (study, _, campaign) = baseline();
    let mut campaign = campaign.clone();
    let mut injector = Injector::new(plan(FaultFamily::CorruptTraceEndpoints, 0.02));
    inject_campaign(&mut campaign, study.world.cities.len(), &mut injector);
    let ledger = injector.ledger;
    let injected = ledger.count(FaultFamily::CorruptTraceEndpoints);
    assert!(injected > 0);
    let (overlay, report) = study.overlay_checked(&campaign).expect("lenient overlay");
    assert_eq!(report.total_for_reason("endpoint-out-of-range"), injected);
    // Conservation: every trace is overlaid, skipped, or dropped.
    assert_eq!(
        overlay.overlaid + overlay.skipped + injected,
        campaign.traces.len()
    );
}

#[test]
fn truncated_traces_only_lose_coverage() {
    let (study, _, campaign) = baseline();
    let clean_overlay = study.overlay(campaign);
    let mut faulty = campaign.clone();
    let mut injector = Injector::new(plan(FaultFamily::TruncateTraces, 0.3));
    inject_campaign(&mut faulty, study.world.cities.len(), &mut injector);
    let ledger = injector.ledger;
    assert!(ledger.count(FaultFamily::TruncateTraces) > 0);
    let (overlay, report) = study.overlay_checked(&faulty).expect("lenient overlay");
    assert!(report.is_clean(), "truncation is invisible, not an input error");
    // Removing hops can only remove conduit observations.
    assert!(overlay.overlaid <= clean_overlay.overlaid);
    assert_eq!(overlay.overlaid + overlay.skipped, faulty.traces.len());
}

#[test]
fn misgeolocated_hops_never_panic_and_conserve_traces() {
    let (study, _, campaign) = baseline();
    let mut faulty = campaign.clone();
    let mut injector = Injector::new(plan(FaultFamily::MisgeolocateHops, 0.2));
    inject_campaign(&mut faulty, study.world.cities.len(), &mut injector);
    let ledger = injector.ledger;
    assert!(ledger.count(FaultFamily::MisgeolocateHops) > 0);
    let (overlay, _) = study.overlay_checked(&faulty).expect("lenient overlay");
    assert_eq!(overlay.overlaid + overlay.skipped, faulty.traces.len());
}

#[test]
fn strict_mode_fails_with_the_right_layer() {
    let cfg = strict_config();
    let err = Study::new_faulted(cfg, &plan(FaultFamily::NanCoordinates, 0.05)).unwrap_err();
    assert!(matches!(err, IntertubesError::Map(_)), "{err}");
    let err = Study::new_faulted(cfg, &plan(FaultFamily::CorruptDocuments, 0.05)).unwrap_err();
    assert!(matches!(err, IntertubesError::Records(_)), "{err}");
    let err = Study::new_faulted(cfg, &plan(FaultFamily::DisconnectTransport, 0.35)).unwrap_err();
    assert!(matches!(err, IntertubesError::Atlas(_)), "{err}");
}

#[test]
fn strict_overlay_rejects_corrupt_endpoints() {
    let (study, _) = Study::new_checked(strict_config()).expect("clean strict build");
    let campaign = study.campaign(Some(2_000));
    let mut faulty = campaign.clone();
    let mut injector = Injector::new(plan(FaultFamily::CorruptTraceEndpoints, 0.05));
    inject_campaign(&mut faulty, study.world.cities.len(), &mut injector);
    let ledger = injector.ledger;
    assert!(ledger.count(FaultFamily::CorruptTraceEndpoints) > 0);
    let err = study.overlay_checked(&faulty).unwrap_err();
    assert!(matches!(err, IntertubesError::Probe(_)), "{err}");
    // The clean campaign still overlays fine under strict.
    study.overlay_checked(&campaign).expect("clean campaign");
}

#[test]
fn strict_risk_matrix_rejects_duplicate_providers() {
    use intertubes::risk::{RiskError, RiskMatrix};
    let (study, _, _) = baseline();
    let mut isps = study.mapped_isp_names();
    isps.push(isps[0].clone());
    let err =
        RiskMatrix::build_checked(&study.built.map, &isps, DegradationPolicy::Strict).unwrap_err();
    assert!(matches!(err, RiskError::DuplicateProvider { .. }));
    let (rm, report) =
        RiskMatrix::build_checked(&study.built.map, &isps, DegradationPolicy::Lenient)
            .expect("lenient dedups");
    assert_eq!(report.total_for_reason("duplicate-provider"), 1);
    assert_eq!(rm.isp_count(), study.mapped_isp_names().len());
    // Deduplication keeps the matrix identical to the clean-roster one.
    let clean_rm = study.risk_matrix();
    assert_eq!(rm.shared, clean_rm.shared);
}

#[test]
fn every_built_in_scenario_completes_leniently() {
    for (name, plan) in FaultPlan::built_in_scenarios() {
        let (study, report, mut ledger) = Study::new_faulted(StudyConfig::default(), &plan)
            .unwrap_or_else(|e| panic!("scenario {name} failed: {e}"));
        // Probe-family faults land on the campaign, not the build — run the
        // full lifecycle so every scenario exercises its whole plan.
        let mut campaign = study.campaign(Some(2_000));
        let mut injector = Injector::new(plan.clone());
        inject_campaign(&mut campaign, study.world.cities.len(), &mut injector);
        ledger.merge(&injector.ledger);
        let (overlay, overlay_report) = study
            .overlay_checked(&campaign)
            .unwrap_or_else(|e| panic!("scenario {name} overlay failed: {e}"));
        if plan.is_empty() {
            assert!(report.is_clean(), "scenario {name} injects nothing");
            assert!(overlay_report.is_clean());
            assert_eq!(ledger.total(), 0);
        } else {
            assert!(ledger.total() > 0, "scenario {name} must land faults");
        }
        assert!(
            study.built.map.conduits.len() > 50,
            "scenario {name} should still yield a usable map"
        );
        assert!(
            overlay.overlaid + overlay.skipped <= campaign.traces.len(),
            "scenario {name} must conserve traces"
        );
    }
}

#[test]
fn faulted_builds_are_deterministic() {
    let p = FaultPlan::built_in_scenarios()
        .into_iter()
        .find(|(name, _)| *name == "everything")
        .map(|(_, p)| p)
        .expect("everything scenario exists");
    let (a, ra, la) = Study::new_faulted(StudyConfig::default(), &p).expect("first run");
    let (b, rb, lb) = Study::new_faulted(StudyConfig::default(), &p).expect("second run");
    assert_eq!(ra, rb);
    assert_eq!(la.render(), lb.render());
    assert_eq!(a.built.reports, b.built.reports);
    assert_eq!(a.built.map.link_count(), b.built.map.link_count());
}
