//! Differential tests for the frozen cut evaluator (DESIGN.md §9.3).
//!
//! `CutEvaluator::cut` answers a conduit cut as a subtraction from the
//! map's frozen sharing profile. The reference below is the full
//! rebuild it replaced: `apply_cut` materializes the severed map, and the
//! §4.2 profile (per-conduit share counts, per-provider conduit lists) is
//! recomputed on both maps with roster × conduit `has_tenant` scans. The
//! two must agree byte for byte on the serialized `CutReport`, for random
//! cuts with duplicate and out-of-range ids, on toy maps with awkward
//! rosters and on the reference snapshot.
//!
//! The conduit → hit-pair postings of `RouteIndex` are checked the same
//! way, against a scan of every pair's best route.

use std::sync::OnceLock;

use intertubes::geo::{GeoPoint, Polyline};
use intertubes::map::{FiberMap, MapConduit, MapConduitId, Provenance, Tenancy, TenancySource};
use intertubes::mitigation::{apply_cut, what_if_cut, CutEvaluator, CutReport};
use intertubes::scenario::RouteIndex;
use intertubes::serve::StudySnapshot;
use intertubes::Study;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Share counts and provider conduit lists by full rebuild: duplicate
/// roster names dropped (first wins), one `has_tenant` scan per provider.
fn rebuild(map: &FiberMap, roster: &[&String]) -> (Vec<u16>, Vec<Vec<usize>>) {
    let mut shared = vec![0u16; map.conduits.len()];
    let conduits_of = roster
        .iter()
        .map(|isp| {
            let mut mine = Vec::new();
            for (c, conduit) in map.conduits.iter().enumerate() {
                if conduit.has_tenant(isp) {
                    shared[c] += 1;
                    mine.push(c);
                }
            }
            mine
        })
        .collect();
    (shared, conduits_of)
}

fn frac_ge4(shared: &[u16]) -> f64 {
    shared.iter().filter(|&&s| s >= 4).count() as f64 / shared.len().max(1) as f64
}

fn mean_avg_risk(shared: &[u16], conduits_of: &[Vec<usize>]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for cs in conduits_of {
        if cs.is_empty() {
            continue;
        }
        total += cs.iter().map(|&c| shared[c] as f64).sum::<f64>() / cs.len() as f64;
        n += 1;
    }
    total / n.max(1) as f64
}

/// The full-rebuild reference for a cut.
fn reference_cut(map: &FiberMap, isps: &[String], cut: &[MapConduitId]) -> CutReport {
    let mut roster: Vec<&String> = Vec::new();
    for isp in isps {
        if !roster.contains(&isp) {
            roster.push(isp);
        }
    }
    let (before, before_of) = rebuild(map, &roster);
    let (after, after_of) = rebuild(&apply_cut(map, cut), &roster);
    let mut in_cut = vec![false; map.conduits.len()];
    for id in cut {
        if let Some(s) = in_cut.get_mut(id.index()) {
            *s = true;
        }
    }
    let mut links_lost = 0;
    let mut affected_isps = Vec::new();
    for isp in &roster {
        let lost = map
            .conduits
            .iter()
            .zip(&in_cut)
            .filter(|(c, &s)| s && c.has_tenant(isp))
            .count();
        links_lost += lost;
        if lost > 0 {
            affected_isps.push((*isp).clone());
        }
    }
    CutReport {
        conduits_cut: in_cut.iter().filter(|&&s| s).count(),
        affected_isps,
        links_lost,
        ge4_before: frac_ge4(&before),
        ge4_after: frac_ge4(&after),
        max_sharing_before: before.iter().copied().max().unwrap_or(0),
        max_sharing_after: after.iter().copied().max().unwrap_or(0),
        mean_avg_risk_before: mean_avg_risk(&before, &before_of),
        mean_avg_risk_after: mean_avg_risk(&after, &after_of),
    }
}

fn bytes(report: &CutReport) -> String {
    serde_json::to_string(report).unwrap_or_else(|e| panic!("a CutReport serializes: {e}"))
}

/// A random cut over `n` conduits: 0–8 ids, some repeated, some past the
/// end of the map.
fn random_cut(rng: &mut StdRng, n: usize) -> Vec<MapConduitId> {
    let len = rng.gen_range(0..9usize);
    let mut cut: Vec<MapConduitId> = (0..len)
        .map(|_| MapConduitId(rng.gen_range(0..n as u32 + 4)))
        .collect();
    if let (true, Some(&first)) = (rng.gen_bool(0.3), cut.first()) {
        cut.push(first);
    }
    cut
}

/// The evaluator, the one-shot `what_if_cut` and the reference agree on
/// the empty cut, the cut of every conduit, and `draws` random cuts.
fn check_map(map: &FiberMap, isps: &[String], seed: u64, draws: usize) {
    let eval = CutEvaluator::new(map, isps);
    let n = map.conduits.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts = vec![Vec::new(), (0..n as u32).map(MapConduitId).collect()];
    cuts.extend((0..draws).map(|_| random_cut(&mut rng, n)));
    for cut in &cuts {
        let expected = bytes(&reference_cut(map, isps, cut));
        assert_eq!(bytes(&eval.cut(cut)), expected, "cut {cut:?}");
        assert_eq!(
            bytes(&what_if_cut(map, isps, cut)),
            expected,
            "one-shot cut {cut:?}"
        );
    }
}

/// A small random map: up to 12 conduits, tenants drawn from A–F plus Q
/// (never in a roster), some tenancies listed twice.
fn toy_map(rng: &mut StdRng) -> FiberMap {
    let mut map = FiberMap::default();
    let a = map.ensure_node("A, XX", GeoPoint::new_unchecked(40.0, -100.0));
    let b = map.ensure_node("B, XX", GeoPoint::new_unchecked(40.0, -98.0));
    let names = ["A", "B", "C", "D", "E", "F", "Q"];
    for _ in 0..rng.gen_range(0..13usize) {
        let tenants = (0..rng.gen_range(0..9usize))
            .map(|_| Tenancy {
                isp: names[rng.gen_range(0..names.len())].to_string(),
                source: TenancySource::PublishedMap,
            })
            .collect();
        map.conduits.push(MapConduit {
            a,
            b,
            geometry: Polyline::straight(
                GeoPoint::new_unchecked(40.0, -100.0),
                GeoPoint::new_unchecked(40.0, -98.0),
            ),
            tenants,
            provenance: Provenance::Step1,
            validated: true,
            row: None,
        });
    }
    map
}

#[test]
fn evaluator_matches_full_rebuild_on_toy_maps() {
    let mut rng = StdRng::seed_from_u64(16);
    // A duplicate roster name (B), and Z, which no map ever carries.
    let roster: Vec<String> = ["B", "A", "B", "C", "D", "Z", "E"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for round in 0..200 {
        let map = toy_map(&mut rng);
        check_map(&map, &roster, round, 10);
        check_map(&map, &[], round, 2);
    }
}

fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(2_000)))
}

#[test]
fn evaluator_matches_full_rebuild_on_the_reference_snapshot() {
    let snap = snapshot();
    check_map(&snap.map, &snap.isps, 7, 300);
}

#[test]
fn hit_postings_match_a_scan_of_every_best_route() {
    let snap = snapshot();
    let n = snap.map.conduits.len();
    let pairs = &snap.paths.pairs;
    let index = RouteIndex::new(pairs, n);
    let mut rng = StdRng::seed_from_u64(3);
    let mut hits = Vec::new();
    for _ in 0..500 {
        let cut: Vec<usize> = random_cut(&mut rng, n).iter().map(|c| c.index()).collect();
        let mut severed = vec![false; n];
        for &c in &cut {
            if let Some(s) = severed.get_mut(c) {
                *s = true;
            }
        }
        let scanned: Vec<u32> = (0..pairs.len() as u32)
            .filter(|&i| {
                pairs[i as usize].paths.first().is_some_and(|best| {
                    best.conduits
                        .iter()
                        .any(|&c| severed.get(c as usize).copied().unwrap_or(false))
                })
            })
            .collect();
        index.hit_pairs(cut.iter().copied(), &mut hits);
        assert_eq!(hits, scanned, "cut {cut:?}");
    }
}
