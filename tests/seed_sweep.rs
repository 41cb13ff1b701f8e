//! Seed robustness: the paper's qualitative findings must hold across
//! synthetic worlds, not just the reference seed. (The reference seed's
//! numbers are pinned in `end_to_end.rs`; here we assert the *shape*
//! invariants on other seeds.)

use intertubes::degrade::DegradationPolicy;
use intertubes::risk::{sharing_fraction, traffic_risk};
use intertubes::scenario::ScenarioPlan;
use intertubes::serve::QueryEngine;
use intertubes::{Study, StudyConfig};

fn shape_invariants(seed: u64) {
    let study = Study::with_seed(seed);
    let map = &study.built.map;

    // Scale: the calibrated world always lands near the paper's counts.
    assert!(
        (450..=600).contains(&map.conduits.len()),
        "seed {seed}: conduits {}",
        map.conduits.len()
    );
    assert!(
        (2_000..=2_800).contains(&map.link_count()),
        "seed {seed}: links {}",
        map.link_count()
    );

    // §4.2 sharing monotonicity and rough level.
    let rm = study.risk_matrix();
    let (ge2, ge3, ge4) = (
        sharing_fraction(&rm, 2),
        sharing_fraction(&rm, 3),
        sharing_fraction(&rm, 4),
    );
    assert!(ge2 > ge3 && ge3 > ge4, "seed {seed}");
    assert!(ge2 > 0.7, "seed {seed}: ge2 {ge2}");
    assert!(ge4 > 0.35, "seed {seed}: ge4 {ge4}");

    // Diverse domestic giants sit below backbone renters in the ranking.
    let ranking = intertubes::risk::isp_sharing_ranking(&rm);
    let rank = |name: &str| {
        let Some(rank) = ranking.iter().position(|r| r.isp == name) else {
            panic!("seed {seed}: {name} is not ranked");
        };
        rank
    };
    assert!(
        rank("EarthLink") < rank("Deutsche Telekom"),
        "seed {seed}: EarthLink {} vs DT {}",
        rank("EarthLink"),
        rank("Deutsche Telekom")
    );
    assert!(rank("Level 3") < rank("Inteliquent"), "seed {seed}");

    // §4.3: traffic overlay only raises perceived sharing.
    let overlay = study.overlay(Some(10_000));
    let tr = traffic_risk(map, &overlay);
    assert!(tr.with_traffic.mean() >= tr.map_only.mean(), "seed {seed}");

    // §5.1: rerouting the heavy dozen always produces positive SRR.
    let rob = study.robustness(12);
    let affected = rob.per_isp.iter().filter(|r| r.cases > 0).count();
    assert!(
        affected >= 12,
        "seed {seed}: only {affected} providers affected"
    );
    assert!(
        rob.per_isp
            .iter()
            .filter(|r| r.cases > 0)
            .all(|r| r.avg_srr > 0.0),
        "seed {seed}"
    );

    // §5.3: the CDF ordering LOS ≤ ROW and best ≤ avg per pair.
    let lat = study.latency();
    for p in lat.pairs.iter().take(200) {
        assert!(
            p.los_us <= p.row_us + 1e-6,
            "seed {seed}: {} – {}",
            p.a,
            p.b
        );
        assert!(
            p.best_us <= p.avg_us + 1e-6,
            "seed {seed}: {} – {}",
            p.a,
            p.b
        );
    }
}

#[test]
fn shapes_hold_on_seed_7() {
    shape_invariants(7);
}

/// Scenario-engine seed sweep (DESIGN.md §12.5): for a fixed frozen
/// snapshot, the ensemble digest is a pure function of the plan seed —
/// stable under re-evaluation, identical whether the study was built
/// under the strict or the lenient degradation policy (clean input makes
/// them equivalent), and distinct across seeds (different seeds sample
/// different failure sets, not just a different label).
#[test]
fn scenario_digests_sweep_seeds_across_both_policies() {
    let mut strict_cfg = StudyConfig::default();
    strict_cfg.policy = DegradationPolicy::Strict;
    let (strict, _) = Study::new_checked(strict_cfg).expect("clean input builds strictly");
    let (lenient, _) =
        Study::new_checked(StudyConfig::default()).expect("lenient build never fails");
    let strict_engine = QueryEngine::new(strict.snapshot(Some(2_000)));
    let lenient_engine = QueryEngine::new(lenient.snapshot(Some(2_000)));

    // The hurricane corridor at a sweep-friendly ensemble size.
    let mut plan = ScenarioPlan::built_in_scenarios()[0].1.clone();
    plan.draws = 500;

    let seeds = [11u64, 22, 33, 44, 55];
    let mut digests = Vec::new();
    let mut means = Vec::new();
    for seed in seeds {
        plan.seed = seed;
        let report = lenient_engine.conditional_risk(&plan).expect("valid plan");
        let digest = report.digest();
        let again = lenient_engine.conditional_risk(&plan).expect("valid plan");
        assert_eq!(again.digest(), digest, "seed {seed}: re-evaluation drifted");
        let strict_report = strict_engine.conditional_risk(&plan).expect("valid plan");
        assert_eq!(
            strict_report.digest(),
            digest,
            "seed {seed}: strict and lenient snapshots disagree"
        );
        digests.push(digest);
        means.push(report.mean_conduits_cut);
    }
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(
                digests[i], digests[j],
                "seeds {} and {} collided",
                seeds[i], seeds[j]
            );
        }
    }
    // Distinctness must come from the sampling, not merely the seed field
    // echoed into the report.
    assert!(
        means.windows(2).any(|w| w[0] != w[1]),
        "every seed sampled identical ensembles: {means:?}"
    );
}

#[test]
fn shapes_hold_on_seed_20150817() {
    // The paper's presentation date.
    shape_invariants(20_150_817);
}
