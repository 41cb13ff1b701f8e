//! The determinism contract (DESIGN.md §7): every parallel hot path must
//! produce output byte-identical to the serial formulation, at any thread
//! count, for clean and faulted inputs alike.
//!
//! One thread is the serial baseline — `intertubes_parallel` short-circuits
//! every fan-out to an inline loop at `threads == 1` — so comparing
//! serialized stage outputs across 1, 2, and 8 threads exercises both the
//! code-path equivalence and the shard-merge algebra.

mod common;

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::{inject_campaign, FaultPlan, Injector};
use intertubes::mitigation::already_optimal_fraction;
use intertubes::obs;
use intertubes::parallel::with_threads;
use intertubes::risk::hamming_heatmap;
use intertubes::serve::{fnv1a64, Query, QueryEngine};
use intertubes::{Study, StudyConfig};

use common::golden;

/// Serializes every test in this binary. The observability session is
/// process-exclusive, and an instrumented `Study` build in one test would
/// otherwise bleed spans and counters into another test's run record.
/// Lock ordering everywhere: `BATTERY` → `with_threads` → `Session::begin`.
static BATTERY: Mutex<()> = Mutex::new(());

fn battery_lock() -> std::sync::MutexGuard<'static, ()> {
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Probe volume for the overlay stage — small enough to keep the battery
/// fast, large enough to touch every accumulator field.
const PROBES: usize = 5_000;

/// A helper's result: the failure of a build, overlay or serialization
/// that the calling test reports.
type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Serialized outputs of every parallel stage, computed at `threads`.
fn stage_snapshot(threads: usize) -> Res<BTreeMap<&'static str, String>> {
    with_threads(threads, || {
        let mut out = BTreeMap::new();
        let (study, report) = Study::new_checked(StudyConfig::default())?;
        out.insert("pipeline.map", serde_json::to_string(&study.built.map)?);
        out.insert("pipeline.report", serde_json::to_string(&report)?);
        let campaign = study.campaign(Some(PROBES));
        let (overlay, overlay_report) = study.overlay_checked(&campaign)?;
        out.insert("overlay", serde_json::to_string(&overlay)?);
        out.insert("overlay.report", serde_json::to_string(&overlay_report)?);
        let rm = study.risk_matrix();
        out.insert("risk.matrix", serde_json::to_string(&rm)?);
        out.insert(
            "risk.hamming",
            serde_json::to_string(&hamming_heatmap(&rm))?,
        );
        out.insert(
            "risk.already_optimal",
            format!("{:.17}", already_optimal_fraction(&study.built.map, &rm)),
        );
        out.insert(
            "mitigation.latency",
            serde_json::to_string(&study.latency())?,
        );
        Ok(out)
    })
}

#[test]
fn all_stages_are_thread_count_invariant() {
    let _guard = battery_lock();
    let serial = stage_snapshot(1).expect("every stage runs at 1 thread");
    for threads in [2, 8] {
        let parallel = stage_snapshot(threads).expect("every stage runs");
        assert_eq!(
            serial.keys().collect::<Vec<_>>(),
            parallel.keys().collect::<Vec<_>>()
        );
        for (stage, expected) in &serial {
            let got = &parallel[stage];
            assert_eq!(
                expected, got,
                "stage {stage} diverged between 1 and {threads} threads"
            );
        }
    }
}

/// Probe volume for the faulted overlay: enough traces that `dirty-maps`
/// NaN geometry reaches the overlay's gap-fill path searches.
const FAULTED_PROBES: usize = 1_000;

/// One faulted build's observable output, serialized: either the full
/// (map, report, ledger, overlay) record or the error's display string.
/// The overlay runs a faulted campaign over the faulted map under the
/// same policy; its own failure is recorded in place of the overlay.
fn faulted_snapshot(plan: &FaultPlan, policy: DegradationPolicy, threads: usize) -> Res<String> {
    with_threads(threads, || {
        let mut cfg = StudyConfig::default();
        cfg.policy = policy;
        match Study::new_faulted(cfg, plan) {
            Ok((study, report, mut ledger)) => {
                let mut campaign = study.campaign(Some(FAULTED_PROBES));
                let mut injector = Injector::new(plan.clone());
                inject_campaign(&mut campaign, study.world.cities.len(), &mut injector);
                ledger.merge(&injector.ledger);
                let overlay = match study.overlay_checked(&campaign) {
                    Ok((overlay, report)) => format!(
                        "{}\noverlay.report:{}",
                        serde_json::to_string(&overlay)?,
                        serde_json::to_string(&report)?,
                    ),
                    Err(e) => format!("error:{e}"),
                };
                Ok(format!(
                    "map:{}\nreport:{}\nledger:{}\noverlay:{overlay}",
                    serde_json::to_string(&study.built.map)?,
                    serde_json::to_string(&report)?,
                    serde_json::to_string(&ledger)?,
                ))
            }
            Err(e) => Ok(format!("error:{e}")),
        }
    })
}

/// The 1-thread faulted snapshot of every built-in scenario × policy,
/// keyed `"{scenario}/{policy}"`. Built once per test binary: both the
/// thread-invariance check and the golden digests read it.
fn serial_faulted_snapshots() -> Result<&'static BTreeMap<String, String>, String> {
    static SNAPSHOTS: OnceLock<Result<BTreeMap<String, String>, String>> = OnceLock::new();
    let snapshots = SNAPSHOTS.get_or_init(|| {
        let mut out = BTreeMap::new();
        for (name, plan) in FaultPlan::built_in_scenarios() {
            for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
                let snapshot = faulted_snapshot(&plan, policy, 1).map_err(|e| e.to_string())?;
                out.insert(format!("{name}/{policy}"), snapshot);
            }
        }
        Ok(out)
    });
    snapshots.as_ref().map_err(Clone::clone)
}

#[test]
fn faulted_builds_are_thread_count_invariant() {
    let _guard = battery_lock();
    let serials = serial_faulted_snapshots().expect("faulted builds serialize");
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = &serials[&format!("{name}/{policy}")];
            let parallel = faulted_snapshot(&plan, policy, 4).expect("faulted build serializes");
            assert_eq!(
                *serial, parallel,
                "scenario {name:?} under {policy} diverged between 1 and 4 threads"
            );
        }
    }
}

/// Canonical run manifest + merged metrics for a full instrumented clean
/// run at `threads`. The canonical form strips wall-clock fields and the
/// environment section (DESIGN.md §8), so everything that remains —
/// stage set, item counts, outcomes, counters, histograms, topology —
/// must be byte-identical at every thread count.
fn canonical_run(threads: usize) -> Res<(String, String)> {
    with_threads(threads, || {
        let session = obs::Session::begin(obs::ObsConfig::default());
        let cfg = StudyConfig::default();
        let seed = cfg.world.seed;
        let policy = cfg.policy.to_string();
        let (study, _report) = Study::new_checked(cfg)?;
        let campaign = study.campaign(Some(PROBES));
        let _overlay = study.overlay_checked(&campaign)?;
        let rm = study.risk_matrix();
        let _heat = hamming_heatmap(&rm);
        let _rob = study.robustness(6);
        let _aug = study.augmentation();
        let _lat = study.latency();
        let record = session.finish();

        let s = intertubes::map::summarize(&study.built.map);
        let info = obs::RunInfo {
            command: "determinism-test".to_string(),
            seed,
            policy,
            fault_plan: None,
            threads: intertubes::parallel::thread_count(),
            exit_status: 0,
            health: None,
            serve_stats: None,
            tenants: None,
        };
        let topology = obs::TopologyCounts {
            nodes: s.nodes,
            links: s.links,
            conduits: s.conduits,
            validated_conduits: s.validated_conduits,
        };
        let manifest = obs::build_manifest(&info, &record, Some(&topology));
        let canonical = serde_json::to_string(&obs::canonicalize(&manifest))?;
        let metrics = serde_json::to_string(&record.metrics.to_json())?;
        Ok((canonical, metrics))
    })
}

#[test]
fn canonical_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    let (serial_manifest, serial_metrics) = canonical_run(1).expect("instrumented run at 1 thread");
    for threads in [2, 8] {
        let (manifest, metrics) = canonical_run(threads).expect("instrumented run");
        assert_eq!(
            serial_manifest, manifest,
            "canonical manifest diverged between 1 and {threads} threads"
        );
        assert_eq!(
            serial_metrics, metrics,
            "merged metrics diverged between 1 and {threads} threads"
        );
    }
}

/// Canonical manifest for one instrumented faulted build: spans, injected
/// fault events, degradation events, and the exit status all land in the
/// record, so this asserts the observability layer itself is deterministic
/// under every fault scenario and both policies.
fn canonical_faulted_run(
    plan: &FaultPlan,
    policy: DegradationPolicy,
    threads: usize,
) -> serde_json::Result<String> {
    with_threads(threads, || {
        let session = obs::Session::begin(obs::ObsConfig::default());
        let mut cfg = StudyConfig::default();
        cfg.policy = policy;
        let seed = cfg.world.seed;
        let exit_status = match Study::new_faulted(cfg, plan) {
            Ok(_) => 0,
            Err(_) => 3,
        };
        let record = session.finish();
        let info = obs::RunInfo {
            command: "determinism-test-faulted".to_string(),
            seed,
            policy: policy.to_string(),
            fault_plan: None,
            threads: intertubes::parallel::thread_count(),
            exit_status,
            health: None,
            serve_stats: None,
            tenants: None,
        };
        let manifest = obs::build_manifest(&info, &record, None);
        serde_json::to_string(&obs::canonicalize(&manifest))
    })
}

#[test]
fn faulted_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = canonical_faulted_run(&plan, policy, 1).expect("manifest serializes");
            let parallel = canonical_faulted_run(&plan, policy, 4).expect("manifest serializes");
            assert_eq!(
                serial, parallel,
                "manifest for scenario {name:?} under {policy} diverged \
                 between 1 and 4 threads"
            );
        }
    }
}

#[test]
fn thread_override_env_var_is_respected() {
    let _guard = battery_lock();
    // with_threads pins the override; the resolved count must follow it
    // exactly.
    for n in [1, 3, 8] {
        let seen = with_threads(n, intertubes::parallel::thread_count);
        assert_eq!(seen, n);
    }
}

/// Hex FNV-1a digest of a serialized output.
fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Probe count of the snapshot whose path index and landmarks are pinned.
const SNAPSHOT_PROBES: usize = 20;

/// The reference campaign's digest from when DNS hints were provider
/// names. Hints are roster ids now; written back as names, the campaign
/// must still digest to this, so only the hints' spelling changed.
const NAMED_HINT_CAMPAIGN: &str = "2f1a4b3cb195b873";

/// `campaign` serialized with every hint id replaced by its roster name.
fn campaign_with_named_hints(
    study: &Study,
    campaign: &intertubes::probes::Campaign,
) -> Res<String> {
    let mut value = serde_json::to_value(campaign)?;
    let traces = value
        .as_object_mut()
        .and_then(|c| c.get_mut("traces"))
        .and_then(serde_json::Value::as_array_mut)
        .ok_or("campaign has no traces")?;
    for trace in traces {
        let hops = trace
            .as_object_mut()
            .and_then(|t| t.get_mut("hops"))
            .and_then(serde_json::Value::as_array_mut)
            .ok_or("trace has no hops")?;
        for hop in hops {
            let hint = hop
                .as_object_mut()
                .and_then(|h| h.get_mut("isp_hint"))
                .ok_or("hop has no hint field")?;
            if let Some(id) = hint.as_u64() {
                let name = &study.world.roster[id as usize].name;
                *hint = serde_json::Value::String(name.clone());
            }
        }
    }
    Ok(serde_json::to_string(&value)?)
}

/// Every output that runs a shortest-path search over an atlas, map or
/// road graph, pinned by digest: the reference study's footprints,
/// default campaign, full overlay, augmentation report, §5.1 robustness
/// report and already-optimal fraction, and §5.3 latency report, the
/// path index and landmark tables of its snapshot, the snapshot engine's
/// answers to [`cut_impact_batch`], plus the 1-thread faulted snapshot of
/// each built-in scenario under both policies. A change to the path engine must leave every digest alone.
/// The campaign is also checked, hints written as names, against
/// [`NAMED_HINT_CAMPAIGN`].
/// After an *intentional* behaviour change, regenerate with:
///
/// ```text
/// REGENERATE_GOLDENS=1 cargo test --test determinism graph_callers
/// ```
#[test]
fn graph_callers_match_golden_digests() {
    let _guard = battery_lock();
    let study = Study::reference();
    let campaign = study.campaign(None);
    // The stored routes do not depend on the probe count; a small
    // campaign keeps the snapshot cheap.
    let snap = study.snapshot(Some(SNAPSHOT_PROBES));
    assert_eq!(
        digest(&campaign_with_named_hints(&study, &campaign).expect("campaign re-serializes")),
        NAMED_HINT_CAMPAIGN,
        "the reference campaign with hints named differs from the name-hint campaign"
    );
    let engine = QueryEngine::new(snap.clone());
    let cut_answers: Vec<String> = cut_impact_batch(snap.map.conduits.len())
        .iter()
        .map(|q| serde_json::to_string(&engine.answer(q)).expect("answer serializes"))
        .collect();
    let mut reference = BTreeMap::new();
    for (name, text) in [
        (
            "footprints",
            serde_json::to_string(&study.world.footprints).expect("footprints serialize"),
        ),
        (
            "campaign",
            serde_json::to_string(&campaign).expect("campaign serializes"),
        ),
        (
            "overlay",
            serde_json::to_string(&study.overlay(None)).expect("overlay serializes"),
        ),
        (
            "augmentation",
            serde_json::to_string(&study.augmentation()).expect("report serializes"),
        ),
        (
            "robustness",
            serde_json::to_string(&study.robustness(12)).expect("report serializes"),
        ),
        (
            "already_optimal",
            format!(
                "{:.17}",
                already_optimal_fraction(&study.built.map, &study.risk_matrix())
            ),
        ),
        (
            "latency",
            serde_json::to_string(&study.latency()).expect("report serializes"),
        ),
        (
            "path_index",
            serde_json::to_string(&snap.paths).expect("path index serializes"),
        ),
        (
            "landmarks",
            serde_json::to_string(&snap.landmarks).expect("landmarks serialize"),
        ),
        ("cut_impact", cut_answers.join("\n")),
    ] {
        reference.insert(name, digest(&text));
    }
    let faulted: BTreeMap<&str, String> = serial_faulted_snapshots()
        .expect("faulted builds serialize")
        .iter()
        .map(|(key, text)| (key.as_str(), digest(text)))
        .collect();
    let computed = serde_json::to_string_pretty(&serde_json::json!({
        "reference": reference,
        "faulted": faulted,
    }))
    .expect("digests serialize");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/graph_callers.json"
    );
    let Some(stored) = golden(path, "golden digests", &format!("{computed}\n")) else {
        return;
    };
    assert_eq!(
        stored.trim_end(),
        computed,
        "graph-caller outputs drifted from {path}; if the change is intentional, \
         regenerate with REGENERATE_GOLDENS=1 cargo test --test determinism graph_callers"
    );
}

/// A fixed batch of conduit-cut what-ifs over an `n`-conduit map: every
/// conduit cut alone, then every fifth conduit cut together with two
/// others spread across the map. Each hit pair's post-cut route comes
/// from a live masked search, so the batch pins that search's answers.
fn cut_impact_batch(n: usize) -> Vec<Query> {
    let single = (0..n).map(|i| vec![i]);
    let triple = (0..n)
        .step_by(5)
        .map(|i| vec![i, (7 * i + 3) % n, (13 * i + 5) % n]);
    single
        .chain(triple)
        .map(|cut| Query::CutImpact {
            conduits: cut.into_iter().map(|c| c as u32).collect(),
        })
        .collect()
}

/// Seeds whose worlds are pinned in `tests/goldens/world_digests.json`:
/// the reference seed, a few small ones, and the paper's year.
const WORLD_SEEDS: [u64; 6] = [1504, 1, 2, 7, 42, 2015];

/// Haversine distance is bit-symmetric over every city pair of the pinned
/// worlds, so a world distance table may compute one order of each pair
/// and mirror it without changing a bit. The six seeds share one city
/// table (`load_cities` takes no seed), which is the table the road
/// network's distance scan reads.
#[test]
fn haversine_is_bit_symmetric_over_every_world_city_pair() {
    let cities = intertubes::atlas::load_cities();
    for (i, a) in cities.iter().enumerate() {
        for b in &cities[i + 1..] {
            let (ab, ba) = (
                a.location.distance_km(&b.location),
                b.location.distance_km(&a.location),
            );
            assert_eq!(ab.to_bits(), ba.to_bits(), "{} / {}", a.label(), b.label());
        }
    }
}

/// Every layer of world generation, pinned by digest per seed: the road,
/// rail and pipeline corridors (pairs and geometry), the conduit system
/// with each attractiveness as its exact bits, the grown footprints with
/// the reserved step-3 conduits, the calibrated footprints, and the
/// published maps. A speedup of the generator must leave every digest
/// alone. After an *intentional* change to the generated world,
/// regenerate with:
///
/// ```text
/// REGENERATE_GOLDENS=1 cargo test --test determinism world_generation
/// ```
#[test]
fn world_generation_matches_golden_digests() {
    use intertubes::atlas::{
        assign_footprints, build_conduit_system, build_pipeline_network, build_rail_network,
        build_road_network, isp_roster, load_cities, World, WorldConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    macro_rules! to_json {
        ($value:expr) => {
            serde_json::to_string($value).expect("world layers serialize")
        };
    }
    let _guard = battery_lock();
    let mut seeds = BTreeMap::new();
    for seed in WORLD_SEEDS {
        let config = WorldConfig {
            seed,
            ..WorldConfig::default()
        };
        // The steps of `World::generate` up to footprint growth, so the
        // uncalibrated footprints and the reserved conduits are visible.
        let mut rng = StdRng::seed_from_u64(seed);
        let cities = load_cities();
        let (roads, _) = build_road_network(&cities, &mut rng);
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
        let (grown, reserved) = assign_footprints(&cities, &system, &isp_roster(), &mut rng);
        let world = World::generate(config);
        assert_eq!(
            to_json!(&world.system.conduits),
            to_json!(&system.conduits),
            "seed {seed}: the replayed steps diverged from World::generate"
        );
        let attractiveness: Vec<u64> = world
            .system
            .attractiveness
            .iter()
            .map(|a| a.to_bits())
            .collect();
        let reserved: Vec<usize> = (0..reserved.len()).filter(|&i| reserved[i]).collect();
        let mut digests = BTreeMap::new();
        for (name, text) in [
            ("roads", to_json!(&world.roads)),
            ("rails", to_json!(&world.rails)),
            ("pipelines", to_json!(&world.pipelines)),
            ("conduits", to_json!(&world.system.conduits)),
            ("conduit_graph", to_json!(&world.system.graph)),
            ("attractiveness", to_json!(&attractiveness)),
            ("grown_footprints", to_json!(&grown)),
            ("reserved", to_json!(&reserved)),
            ("footprints", to_json!(&world.footprints)),
            ("published_maps", to_json!(&world.publish_maps())),
        ] {
            digests.insert(name, digest(&text));
        }
        seeds.insert(seed.to_string(), digests);
    }
    let computed = serde_json::to_string_pretty(&seeds).expect("digests serialize");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/goldens/world_digests.json"
    );
    let Some(stored) = golden(path, "golden digests", &format!("{computed}\n")) else {
        return;
    };
    assert_eq!(
        stored.trim_end(),
        computed,
        "generated worlds drifted from {path}; if the change is intentional, \
         regenerate with REGENERATE_GOLDENS=1 cargo test --test determinism world_generation"
    );
}
