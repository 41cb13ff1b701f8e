//! Property battery for the scenario engine (DESIGN.md §12.5), pinning
//! the four contracts the ensemble rests on:
//!
//! 1. footprint containment agrees with an independent brute-force point
//!    check (half-plane test for convex polygons, direct distance for
//!    discs) on random footprints;
//! 2. same-seed evaluation is bit-identical across runs *and* across
//!    1/2/8 threads — the sampling streams depend only on
//!    `(seed, draw index)`, never on chunking;
//! 3. the `EnsembleAccumulator` merge is associative, commutative, and
//!    shard-split invariant (fold of the whole == fold of any split);
//! 4. a probability-1.0 footprint over exactly one conduit reproduces
//!    `what_if_cut` for that conduit bit-for-bit.
//!
//! The full study is far too slow per proptest case, so the evaluation
//! properties drive a toy map shaped like the mitigation crate's whatif
//! fixtures; the full-map path is covered by `tests/scenario_goldens.rs`.

use std::sync::{Mutex, OnceLock};

use intertubes::geo::{GeoPoint, Polyline};
use intertubes::map::{FiberMap, MapConduit, MapConduitId, Provenance, Tenancy, TenancySource};
use intertubes::mitigation::{what_if_cut, CutEvaluator, PairPaths, PathSummary};
use intertubes::parallel::with_threads;
use intertubes::scenario::{
    evaluate, EnsembleAccumulator, EvalContext, Footprint, HazardModel, RouteIndex, ScenarioPlan,
};
use proptest::prelude::*;

/// Serializes the thread-count property: `with_threads` pins the
/// process-global pool (lock ordering as in tests/serve.rs).
static BATTERY: Mutex<()> = Mutex::new(());

/// Toy fixture: a conduit square A–B–C–D with an A–C diagonal, plus a
/// remote, geographically isolated conduit E–F that a small footprint can
/// cover alone (the probability-1.0 property needs exactly one exposed
/// conduit).
struct Fixture {
    map: FiberMap,
    isps: Vec<String>,
    pairs: Vec<PairPaths>,
    km: Vec<f64>,
    shared: Vec<u16>,
}

fn straight(a: (f64, f64), b: (f64, f64)) -> Polyline {
    Polyline::straight(
        GeoPoint::new_unchecked(a.0, a.1),
        GeoPoint::new_unchecked(b.0, b.1),
    )
    .densify(40.0)
    .unwrap_or_else(|e| panic!("a positive step densifies: {e}"))
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let mut map = FiberMap::default();
        let coords = [
            ("A, XX", (40.0, -100.0)),
            ("B, XX", (40.0, -98.0)),
            ("C, XX", (38.0, -98.0)),
            ("D, XX", (38.0, -100.0)),
            ("E, YY", (45.0, -80.0)),
            ("F, YY", (45.0, -78.0)),
        ];
        let ids: Vec<_> = coords
            .iter()
            .map(|(label, (lat, lon))| map.ensure_node(label, GeoPoint::new_unchecked(*lat, *lon)))
            .collect();
        let t = |isp: &str| Tenancy {
            isp: isp.into(),
            source: TenancySource::PublishedMap,
        };
        let spans: [(usize, usize, Vec<Tenancy>); 6] = [
            (0, 1, vec![t("W"), t("X"), t("Y"), t("Z")]), // 0: A–B
            (1, 2, vec![t("W"), t("X")]),                 // 1: B–C
            (2, 3, vec![t("X"), t("Y")]),                 // 2: C–D
            (3, 0, vec![t("W")]),                         // 3: D–A
            (0, 2, vec![t("Z")]),                         // 4: A–C diagonal
            (4, 5, vec![t("W"), t("X"), t("Y")]),         // 5: E–F (remote)
        ];
        for (a, b, tenants) in spans {
            map.conduits.push(MapConduit {
                a: ids[a],
                b: ids[b],
                geometry: straight(coords[a].1, coords[b].1),
                tenants,
                provenance: Provenance::Step1,
                validated: true,
                row: None,
            });
        }
        let km = map.conduit_km();
        let shared: Vec<u16> = map
            .conduits
            .iter()
            .map(|c| c.tenants.len() as u16)
            .collect();
        let route = |conduits: Vec<u32>| PathSummary {
            km: conduits.iter().map(|&c| km[c as usize]).sum(),
            conduits,
        };
        // The ROW and LOS baselines play no part in an ensemble.
        let pair = |a: u32, b: u32, paths: Vec<PathSummary>| PairPaths {
            a,
            b,
            paths,
            row_us: 0.0,
            los_us: 0.0,
        };
        // Stored routes, cheapest first (the diagonal beats the two-hop
        // detour; E–F has exactly one route, so severing conduit 5
        // disconnects the pair).
        let pairs = vec![
            pair(ids[0].0, ids[2].0, vec![route(vec![4]), route(vec![0, 1])]),
            pair(
                ids[1].0,
                ids[3].0,
                vec![route(vec![1, 2]), route(vec![0, 3])],
            ),
            pair(ids[4].0, ids[5].0, vec![route(vec![5])]),
        ];
        Fixture {
            map,
            isps: ["W", "X", "Y", "Z"].iter().map(|s| s.to_string()).collect(),
            pairs,
            km,
            shared,
        }
    })
}

/// Evaluates `plan` over the toy fixture at the given thread count.
fn eval_at(threads: usize, plan: &ScenarioPlan) -> intertubes::scenario::ConditionalRisk {
    let f = fixture();
    let csr = f.map.csr();
    let postings = RouteIndex::new(&f.pairs, f.map.conduits.len());
    let cuts = CutEvaluator::new(&f.map, &f.isps);
    let ctx = EvalContext {
        map: &f.map,
        pairs: &f.pairs,
        postings: &postings,
        cuts: &cuts,
        csr: &csr,
        km: &f.km,
        shared: &f.shared,
        landmarks: None,
    };
    with_threads(threads, || evaluate(&ctx, plan))
        .unwrap_or_else(|e| panic!("valid plan evaluates: {e}"))
}

/// Brute-force convex containment: `p` is inside when the cross products
/// of every directed edge with the edge-to-point vector share a sign.
fn convex_contains(ring: &[GeoPoint], p: &GeoPoint) -> bool {
    let n = ring.len();
    let mut sign = 0.0f64;
    for i in 0..n {
        let (a, b) = (&ring[i], &ring[(i + 1) % n]);
        let cross = (b.lon - a.lon) * (p.lat - a.lat) - (b.lat - a.lat) * (p.lon - a.lon);
        if cross == 0.0 {
            continue;
        }
        if sign == 0.0 {
            sign = cross.signum();
        } else if cross.signum() != sign {
            return false;
        }
    }
    true
}

/// A random convex ring: vertices of a squashed circle around `(lat,
/// lon)` in angular order (convex by construction), plus the closing
/// repeat.
fn convex_ring(lat: f64, lon: f64, r: f64, squash: f64, k: usize) -> Vec<GeoPoint> {
    let mut ring: Vec<GeoPoint> = (0..k)
        .map(|i| {
            let theta = std::f64::consts::TAU * i as f64 / k as f64;
            GeoPoint {
                lat: lat + r * squash * theta.sin(),
                lon: lon + r * theta.cos(),
            }
        })
        .collect();
    ring.push(ring[0]);
    ring
}

proptest! {
    #[test]
    fn polygon_containment_agrees_with_half_plane_check(
        lat in 30.0f64..42.0,
        lon in -110.0f64..-85.0,
        r in 1.0f64..6.0,
        squash in 0.3f64..1.0,
        k in 3usize..9,
        pu in 0.0f64..1.0,
        pv in 0.0f64..1.0,
    ) {
        let ring = convex_ring(lat, lon, r, squash, k);
        let probe = GeoPoint {
            lat: lat + (pu * 4.0 - 2.0) * r,
            lon: lon + (pv * 4.0 - 2.0) * r,
        };
        let expected = convex_contains(&ring[..ring.len() - 1], &probe);
        // Discard probes within ~1e-9 deg of an edge, where the two
        // formulations may legitimately disagree on the boundary.
        let clearance = (0..ring.len() - 1)
            .map(|i| {
                let (a, b) = (&ring[i], &ring[i + 1]);
                let cross = (b.lon - a.lon) * (probe.lat - a.lat)
                    - (b.lat - a.lat) * (probe.lon - a.lon);
                let len = ((b.lon - a.lon).powi(2) + (b.lat - a.lat).powi(2)).sqrt();
                (cross / len.max(1e-12)).abs()
            })
            .fold(f64::INFINITY, f64::min);
        prop_assume!(clearance > 1e-9);
        let poly = Footprint::Polygon { vertices: ring };
        prop_assert_eq!(poly.contains(&probe), expected);
    }

    #[test]
    fn disc_containment_agrees_with_distance(
        lat in 25.0f64..48.0,
        lon in -120.0f64..-70.0,
        radius_km in 1.0f64..800.0,
        plat in 25.0f64..48.0,
        plon in -120.0f64..-70.0,
    ) {
        let center = GeoPoint { lat, lon };
        let probe = GeoPoint { lat: plat, lon: plon };
        let disc = Footprint::Disc { center, radius_km };
        prop_assert_eq!(
            disc.contains(&probe),
            center.distance_km(&probe) <= radius_km
        );
    }

    #[test]
    fn same_seed_evaluation_is_bit_identical_across_runs_and_threads(
        seed in 0u64..u64::MAX,
        p in 0.0f64..1.5,
        draws in 1u64..200,
        lat in 37.0f64..41.0,
        lon in -101.0f64..-97.0,
        radius_km in 50.0f64..500.0,
    ) {
        let _guard = BATTERY.lock().unwrap_or_else(|e| e.into_inner());
        let plan = ScenarioPlan {
            name: "prop".to_string(),
            seed,
            draws,
            footprint: Footprint::Disc {
                center: GeoPoint { lat, lon },
                radius_km,
            },
            model: HazardModel::Fixed { p },
        };
        let baseline = eval_at(1, &plan);
        prop_assert_eq!(&eval_at(1, &plan), &baseline, "same-seed rerun drifted");
        let bytes = serde_json::to_string(&baseline).expect("serializes");
        for threads in [2usize, 8] {
            let report = eval_at(threads, &plan);
            prop_assert_eq!(&report, &baseline, "diverged at {} threads", threads);
            prop_assert_eq!(
                serde_json::to_string(&report).expect("serializes"),
                bytes.clone(),
                "bytes diverged at {} threads",
                threads
            );
            prop_assert_eq!(report.digest(), baseline.digest());
        }
    }

    #[test]
    fn accumulator_merge_is_associative_commutative_and_shard_splittable(
        raw in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000, 9..12),
            2..8
        ),
        split_frac in 0.0f64..1.0,
    ) {
        let accs: Vec<EnsembleAccumulator> = raw
            .iter()
            .map(|vals| {
                let mut a = EnsembleAccumulator::identity(2);
                a.draws = vals[0];
                a.severed_total = vals[1];
                a.disconnected_total = vals[2];
                a.max_disconnected = vals[3];
                a.affected_total = vals[4];
                a.survived_total = vals[5];
                a.inflation_ppm_total = vals[6];
                a.failures = vec![vals[7], vals[8]];
                a.disconnect_weight = vec![vals[8], vals[7]];
                a
            })
            .collect();
        // Associativity and commutativity on the first pair/triple.
        let (a, b) = (&accs[0], &accs[1]);
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        prop_assert_eq!(&ab, &ba, "merge is not commutative");
        if let Some(c) = accs.get(2) {
            let mut left = ab.clone();
            left.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right, "merge is not associative");
        }
        // Shard-split equivalence: folding everything equals folding two
        // arbitrary shards and merging the shard results.
        let fold = |items: &[EnsembleAccumulator]| {
            let mut acc = EnsembleAccumulator::identity(2);
            for item in items {
                acc.merge(item);
            }
            acc
        };
        let whole = fold(&accs);
        let split = ((accs.len() as f64) * split_frac) as usize;
        let mut sharded = fold(&accs[..split]);
        sharded.merge(&fold(&accs[split..]));
        prop_assert_eq!(whole, sharded, "shard split changed the fold");
    }

    #[test]
    fn probability_one_single_conduit_reproduces_what_if_cut(
        seed in 0u64..u64::MAX,
        draws in 1u64..100,
    ) {
        let _guard = BATTERY.lock().unwrap_or_else(|e| e.into_inner());
        let f = fixture();
        // A disc over the remote E–F conduit only: every sampled point of
        // conduit 5 is within 200 km of (45, -79); every other conduit is
        // hundreds of km away.
        let plan = ScenarioPlan {
            name: "certain".to_string(),
            seed,
            draws,
            footprint: Footprint::Disc {
                center: GeoPoint { lat: 45.0, lon: -79.0 },
                radius_km: 200.0,
            },
            model: HazardModel::Fixed { p: 1.0 },
        };
        let report = eval_at(1, &plan);
        prop_assert_eq!(report.exposed_conduits, 1, "footprint must cover exactly conduit 5");
        prop_assert_eq!(report.certain_conduits, 1);
        // Probability 1 severs the conduit in every draw, and the E–F
        // pair's only route dies with it.
        prop_assert_eq!(report.mean_conduits_cut, 1.0);
        prop_assert_eq!(report.mean_pairs_disconnected, 1.0);
        prop_assert_eq!(report.max_pairs_disconnected, 1);
        prop_assert_eq!(report.criticality[0].conduit, 5);
        prop_assert_eq!(report.criticality[0].failures, draws);
        // The embedded certain-cut report is what_if_cut, bit for bit.
        let direct = what_if_cut(&f.map, &f.isps, &[MapConduitId(5)]);
        let embedded = report.certain_cut.as_ref().expect("certain cut present");
        prop_assert_eq!(embedded, &direct);
        prop_assert_eq!(
            serde_json::to_string(embedded).expect("serializes"),
            serde_json::to_string(&direct).expect("serializes"),
            "certain_cut bytes diverged from what_if_cut"
        );
    }
}
