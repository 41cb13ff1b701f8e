//! The determinism contract (DESIGN.md §7): every parallel hot path must
//! produce output byte-identical to the serial formulation, at any thread
//! count, for clean and faulted inputs alike.
//!
//! One thread is the serial baseline — `intertubes_parallel` short-circuits
//! every fan-out to an inline loop at `threads == 1` — so comparing
//! serialized stage outputs across 1, 2, and 8 threads exercises both the
//! code-path equivalence and the shard-merge algebra.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::{inject_campaign, FaultPlan, Injector};
use intertubes::mitigation::already_optimal_fraction;
use intertubes::obs;
use intertubes::parallel::with_threads;
use intertubes::serve::fnv1a64;
use intertubes::risk::hamming_heatmap;
use intertubes::{Study, StudyConfig};

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

/// Serialized outputs of every parallel stage, computed at `threads`.
fn stage_snapshot(threads: usize) -> BTreeMap<&'static str, String> {
    with_threads(threads, || {
        let mut out = BTreeMap::new();
        let (study, report) =
            Study::new_checked(StudyConfig::default()).expect("default config builds");
        out.insert(
            "pipeline.map",
            serde_json::to_string(&study.built.map).expect("map serializes"),
        );
        out.insert(
            "pipeline.report",
            serde_json::to_string(&report).expect("report serializes"),
        );
        let campaign = study.campaign(Some(PROBES));
        let (overlay, overlay_report) = study
            .overlay_checked(&campaign)
            .expect("clean campaign overlays");
        out.insert(
            "overlay",
            serde_json::to_string(&overlay).expect("overlay serializes"),
        );
        out.insert(
            "overlay.report",
            serde_json::to_string(&overlay_report).expect("report serializes"),
        );
        let rm = study.risk_matrix();
        out.insert(
            "risk.matrix",
            serde_json::to_string(&rm).expect("matrix serializes"),
        );
        out.insert(
            "risk.hamming",
            serde_json::to_string(&hamming_heatmap(&rm)).expect("heatmap serializes"),
        );
        out.insert(
            "risk.already_optimal",
            format!("{:.17}", already_optimal_fraction(&study.built.map, &rm)),
        );
        out.insert(
            "mitigation.latency",
            serde_json::to_string(&study.latency()).expect("latency serializes"),
        );
        out
    })
}

#[test]
fn all_stages_are_thread_count_invariant() {
    let _guard = battery_lock();
    let serial = stage_snapshot(1);
    for threads in [2, 8] {
        let parallel = stage_snapshot(threads);
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
fn faulted_snapshot(plan: &FaultPlan, policy: DegradationPolicy, threads: usize) -> String {
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
                        serde_json::to_string(&overlay).expect("overlay serializes"),
                        serde_json::to_string(&report).expect("report serializes"),
                    ),
                    Err(e) => format!("error:{e}"),
                };
                format!(
                    "map:{}\nreport:{}\nledger:{}\noverlay:{overlay}",
                    serde_json::to_string(&study.built.map).expect("map serializes"),
                    serde_json::to_string(&report).expect("report serializes"),
                    serde_json::to_string(&ledger).expect("ledger serializes"),
                )
            }
            Err(e) => format!("error:{e}"),
        }
    })
}

/// The 1-thread faulted snapshot of every built-in scenario × policy,
/// keyed `"{scenario}/{policy}"`. Built once per test binary: both the
/// thread-invariance check and the golden digests read it.
fn serial_faulted_snapshots() -> &'static BTreeMap<String, String> {
    static SNAPSHOTS: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    SNAPSHOTS.get_or_init(|| {
        let mut out = BTreeMap::new();
        for (name, plan) in FaultPlan::built_in_scenarios() {
            for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
                out.insert(format!("{name}/{policy}"), faulted_snapshot(&plan, policy, 1));
            }
        }
        out
    })
}

#[test]
fn faulted_builds_are_thread_count_invariant() {
    let _guard = battery_lock();
    let serials = serial_faulted_snapshots();
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = &serials[&format!("{name}/{policy}")];
            let parallel = faulted_snapshot(&plan, policy, 4);
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
fn canonical_run(threads: usize) -> (String, String) {
    with_threads(threads, || {
        let session = obs::Session::begin(obs::ObsConfig::default());
        let cfg = StudyConfig::default();
        let seed = cfg.world.seed;
        let policy = cfg.policy.to_string();
        let (study, _report) =
            Study::new_checked(cfg).expect("default config builds");
        let campaign = study.campaign(Some(PROBES));
        let _overlay = study
            .overlay_checked(&campaign)
            .expect("clean campaign overlays");
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
        let canonical = serde_json::to_string(&obs::canonicalize(&manifest))
            .expect("canonical manifest serializes");
        let metrics = serde_json::to_string(&record.metrics.to_json())
            .expect("metrics serialize");
        (canonical, metrics)
    })
}

#[test]
fn canonical_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    let (serial_manifest, serial_metrics) = canonical_run(1);
    for threads in [2, 8] {
        let (manifest, metrics) = canonical_run(threads);
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
) -> String {
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
            .expect("canonical manifest serializes")
    })
}

#[test]
fn faulted_manifests_are_thread_count_invariant() {
    let _guard = battery_lock();
    for (name, plan) in FaultPlan::built_in_scenarios() {
        for policy in [DegradationPolicy::Lenient, DegradationPolicy::Strict] {
            let serial = canonical_faulted_run(&plan, policy, 1);
            let parallel = canonical_faulted_run(&plan, policy, 4);
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

/// Every output that runs a shortest-path search over an atlas, map or
/// road graph, pinned by digest: the reference study's footprints,
/// default campaign, full overlay and augmentation report, plus the
/// 1-thread faulted snapshot of each built-in scenario under both
/// policies. A change to the path engine must leave every digest alone.
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
            serde_json::to_string(&study.overlay(&campaign)).expect("overlay serializes"),
        ),
        (
            "augmentation",
            serde_json::to_string(&study.augmentation()).expect("report serializes"),
        ),
    ] {
        reference.insert(name, digest(&text));
    }
    let faulted: BTreeMap<&str, String> = serial_faulted_snapshots()
        .iter()
        .map(|(key, text)| (key.as_str(), digest(text)))
        .collect();
    let computed = serde_json::to_string_pretty(&serde_json::json!({
        "reference": reference,
        "faulted": faulted,
    }))
    .expect("digests serialize");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/graph_callers.json");
    if std::env::var_os("REGENERATE_GOLDENS").is_some() {
        std::fs::write(path, format!("{computed}\n")).expect("golden file writable");
        println!("regenerated {path}");
        return;
    }
    let stored = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden digests {path} ({e}); run REGENERATE_GOLDENS=1 cargo test")
    });
    assert_eq!(
        stored.trim_end(),
        computed,
        "graph-caller outputs drifted from {path}; if the change is intentional, \
         regenerate with REGENERATE_GOLDENS=1 cargo test --test determinism graph_callers"
    );
}
