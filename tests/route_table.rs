//! The §5.3 route table is built once and read in two places: the latency
//! study reduces it to `LatencyReport` rows, and the serving snapshot
//! freezes it as the `PathIndex`. Both must see the same records, bit for
//! bit, and the snapshot's single build must equal the two-step
//! composition external callers use (`latency_study`, then
//! `PathIndex::build` over its ROW column with `build_landmarks`).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use intertubes::mitigation::{latency_study, LatencyReport};
use intertubes::serve::{build_landmarks, PathIndex, StudySnapshot};
use intertubes::Study;

/// The reference seed and one more world.
const SEEDS: [u64; 2] = [1504, 7];

/// Probe count of the snapshots; the stored routes do not depend on it.
const PROBES: usize = 20;

struct World {
    study: Study,
    report: LatencyReport,
    snap: StudySnapshot,
}

fn worlds() -> &'static [World] {
    static W: OnceLock<Vec<World>> = OnceLock::new();
    W.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let study = Study::with_seed(seed);
                World {
                    report: study.latency(),
                    snap: study.snapshot(Some(PROBES)),
                    study,
                }
            })
            .collect()
    })
}

#[test]
fn latency_rows_equal_their_path_index_entries() {
    for (seed, w) in SEEDS.iter().zip(worlds()) {
        let index = &w.snap.paths;
        let node = |label: &str| {
            w.snap
                .map
                .find_node(label)
                .unwrap_or_else(|| panic!("seed {seed}: {label:?} is not a map node"))
                .0
        };
        let routed = index.pairs.iter().filter(|p| !p.paths.is_empty()).count();
        assert_eq!(w.report.pairs.len(), routed, "seed {seed}: pair count");
        assert!(routed > 200, "seed {seed}: only {routed} pairs");
        for row in &w.report.pairs {
            let entry = index
                .lookup(node(&row.a), node(&row.b))
                .unwrap_or_else(|| panic!("seed {seed}: {} – {} not indexed", row.a, row.b));
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            let pair = format!("seed {seed}: {} – {}", row.a, row.b);
            assert_eq!(
                bits(entry.best_us()),
                bits(Some(row.best_us)),
                "{pair}: best"
            );
            assert_eq!(
                bits(entry.avg_us(index.detour_cap)),
                bits(Some(row.avg_us)),
                "{pair}: avg"
            );
            assert_eq!(entry.row_us.to_bits(), row.row_us.to_bits(), "{pair}: row");
            assert_eq!(entry.los_us.to_bits(), row.los_us.to_bits(), "{pair}: los");
        }
    }
}

#[test]
fn snapshot_paths_equal_the_composed_build() {
    for (seed, w) in SEEDS.iter().zip(worlds()) {
        let (study, map) = (&w.study, &w.study.built.map);
        let latency = latency_study(
            map,
            &study.world.cities,
            &study.world.roads,
            &study.world.rails,
            &study.config.latency,
        );
        let row_us_by_pair: BTreeMap<(String, String), f64> = latency
            .pairs
            .iter()
            .map(|p| ((p.a.clone(), p.b.clone()), p.row_us))
            .collect();
        let landmarks = build_landmarks(map);
        let composed = PathIndex::build(
            map,
            study.config.latency.k_paths,
            study.config.latency.detour_cap,
            &row_us_by_pair,
            landmarks.as_ref(),
        );
        let json = |index: &PathIndex| serde_json::to_string(index).expect("index serializes");
        assert_eq!(
            json(&w.snap.paths),
            json(&composed),
            "seed {seed}: path index"
        );
        assert_eq!(w.snap.landmarks, landmarks, "seed {seed}: landmarks");
    }
}
