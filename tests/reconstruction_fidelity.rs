//! Fidelity of the constructed map against the hidden ground truth — the
//! evaluation the paper could not run (it had no ground truth; we do).
//!
//! Besides the statistical precision/recall checks, this file pins the
//! reference study's headline numbers to a golden snapshot
//! (`tests/goldens/reference.json`). Any drift — an accidental behavior
//! change in the pipeline, overlay, or risk analyses — fails the build
//! with a diff. After an *intentional* change, regenerate with:
//!
//! ```text
//! REGENERATE_GOLDENS=1 cargo test --test reconstruction_fidelity
//! ```

mod common;

use std::collections::HashSet;
use std::sync::OnceLock;

use intertubes::risk::{conduits_shared_by_at_least, isp_sharing_ranking};
use intertubes::Study;
use serde_json::json;

use common::golden;

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(Study::reference)
}

type PairTenancy = (String, String, String); // (isp, city_a, city_b) normalized

fn truth_tenancies(s: &Study) -> HashSet<PairTenancy> {
    let mut out = HashSet::new();
    for (i, fp) in s.world.mapped_footprints().iter().enumerate() {
        let isp = s.world.roster[i].name.clone();
        for c in &fp.conduits {
            let cd = s.world.system.conduit(*c);
            let (a, b) = (s.world.city_label(cd.a), s.world.city_label(cd.b));
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            out.insert((isp.clone(), a, b));
        }
    }
    out
}

fn built_tenancies(s: &Study) -> HashSet<PairTenancy> {
    let mut out = HashSet::new();
    let map = &s.built.map;
    for c in &map.conduits {
        let (a, b) = (
            map.nodes[c.a.index()].label.clone(),
            map.nodes[c.b.index()].label.clone(),
        );
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        for t in &c.tenants {
            out.insert((t.isp.clone(), a.clone(), b.clone()));
        }
    }
    out
}

#[test]
fn tenancy_reconstruction_has_high_precision_and_recall() {
    let s = study();
    let truth = truth_tenancies(s);
    let built = built_tenancies(s);
    let tp = built.intersection(&truth).count() as f64;
    let precision = tp / built.len() as f64;
    let recall = tp / truth.len() as f64;
    println!("pair-level tenancy: precision {precision:.3} recall {recall:.3}");
    assert!(precision > 0.9, "precision {precision}");
    assert!(recall > 0.8, "recall {recall}");
}

#[test]
fn conduit_count_reconstruction_is_close() {
    let s = study();
    let truth = s.world.system.conduits.len() as i64;
    let built = s.built.map.conduits.len() as i64;
    let err = (truth - built).abs() as f64 / truth as f64;
    println!("conduits: truth {truth}, built {built} (relative error {err:.3})");
    assert!(err < 0.08, "conduit count off by {err:.3}");
}

#[test]
fn parallel_conduits_are_partially_recovered() {
    // Ground truth has parallel conduits between some pairs; clustering on
    // published geometry should recover a meaningful share of them.
    let s = study();
    let count_parallel = |pairs: Vec<(String, String)>| -> usize {
        let mut sorted = pairs;
        sorted.sort();
        let mut parallel = 0;
        let mut i = 0;
        while i < sorted.len() {
            let j = sorted[i..].iter().take_while(|p| **p == sorted[i]).count();
            if j > 1 {
                parallel += j - 1;
            }
            i += j;
        }
        parallel
    };
    let truth_pairs: Vec<(String, String)> = s
        .world
        .system
        .conduits
        .iter()
        .map(|c| {
            let (a, b) = (s.world.city_label(c.a), s.world.city_label(c.b));
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    let built_pairs: Vec<(String, String)> = s
        .built
        .map
        .conduits
        .iter()
        .map(|c| {
            let a = s.built.map.nodes[c.a.index()].label.clone();
            let b = s.built.map.nodes[c.b.index()].label.clone();
            if a <= b {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();
    let truth_parallel = count_parallel(truth_pairs);
    let built_parallel = count_parallel(built_pairs);
    println!("parallel conduits: truth {truth_parallel}, reconstructed {built_parallel}");
    assert!(
        truth_parallel > 0,
        "world should contain parallel deployments"
    );
    assert!(
        built_parallel * 3 >= truth_parallel,
        "clustering should recover a meaningful share ({built_parallel}/{truth_parallel})"
    );
}

#[test]
fn validation_flags_reflect_corpus_coverage() {
    let s = study();
    let validated = s.built.map.conduits.iter().filter(|c| c.validated).count() as f64;
    let frac = validated / s.built.map.conduits.len() as f64;
    // Corpus coverage is 92 % per conduit; validation lands near it.
    assert!((0.80..=1.00).contains(&frac), "validated fraction {frac}");
}

#[test]
fn records_inferred_tenants_are_mostly_correct() {
    let s = study();
    let truth = truth_tenancies(s);
    let map = &s.built.map;
    let mut inferred = 0usize;
    let mut correct = 0usize;
    for c in &map.conduits {
        let (a, b) = (
            map.nodes[c.a.index()].label.clone(),
            map.nodes[c.b.index()].label.clone(),
        );
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        for t in &c.tenants {
            if t.source == intertubes::map::TenancySource::Records {
                inferred += 1;
                correct += truth.contains(&(t.isp.clone(), a.clone(), b.clone())) as usize;
            }
        }
    }
    println!("records-inferred tenancies: {inferred}, correct {correct}");
    if inferred > 20 {
        let precision = correct as f64 / inferred as f64;
        assert!(precision > 0.8, "records inference precision {precision}");
    }
}

/// Probe volume for the golden overlay tables; fixed forever — changing it
/// changes the snapshot.
const GOLDEN_PROBES: usize = 20_000;

/// Computes the golden snapshot of the reference study: topology counts,
/// the §4.2 sharing distribution, the per-ISP risk ranking, and the
/// overlay's Table 3/4 reconstructions.
fn golden_snapshot(s: &Study) -> serde_json::Value {
    let map = &s.built.map;
    let rm = s.risk_matrix();
    let ranking: Vec<serde_json::Value> = isp_sharing_ranking(&rm)
        .into_iter()
        .map(|r| {
            json!({
                "isp": r.isp,
                "mean": format!("{:.6}", r.mean),
                "conduits": r.conduits,
            })
        })
        .collect();
    let overlay = s.overlay(Some(GOLDEN_PROBES));
    let table = |dir| -> Vec<serde_json::Value> {
        overlay
            .top_conduits(map, Some(dir), 10)
            .into_iter()
            .map(|row| json!({ "a": row.a, "b": row.b, "probes": row.probes }))
            .collect()
    };
    let table4: Vec<serde_json::Value> = overlay
        .isp_usage_ranking()
        .into_iter()
        .take(15)
        .map(|(isp, conduits)| json!({ "isp": isp, "conduits": conduits }))
        .collect();
    json!({
        "topology": {
            "nodes": map.nodes.len(),
            "conduits": map.conduits.len(),
            "links": map.link_count(),
            "validated": map.conduits.iter().filter(|c| c.validated).count(),
        },
        "sharing_bars": conduits_shared_by_at_least(&rm),
        "risk_ranking": ranking,
        "table3_west_east": table(intertubes::probes::Direction::WestToEast),
        "table3_east_west": table(intertubes::probes::Direction::EastToWest),
        "table4_isp_usage": table4,
    })
}

#[test]
fn reference_study_matches_golden_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/reference.json");
    let computed =
        serde_json::to_string_pretty(&golden_snapshot(study())).expect("snapshot serializes");
    let Some(stored) = golden(path, "golden snapshot", &format!("{computed}\n")) else {
        return;
    };
    assert_eq!(
        stored.trim_end(),
        computed,
        "reference study drifted from {path}; if the change is intentional, \
         regenerate with REGENERATE_GOLDENS=1 cargo test --test reconstruction_fidelity"
    );
}
