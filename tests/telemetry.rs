//! The serving-telemetry contract (DESIGN.md §13): the **count plane** is
//! part of the determinism surface — its canonicalized form is
//! byte-identical at 1, 2, and 8 threads with the result cache enabled or
//! disabled — while the **timing plane** (latency histograms, queue
//! depth, deadline slack) is measurement, present in the full stats
//! document but stripped from every canonical comparison, exactly like
//! `canonicalize` strips wall-clock from the run manifest.
//!
//! The battery also pins the `Stats` query family (answered serially in
//! the decide phase from completed-wave state, never cached, never
//! deduplicated) and the flight recorder's dump triggers (drain always;
//! fault injection and health departures under chaos), which are
//! functions of the plan, seed, and wave — not of thread count.

use std::sync::{Mutex, OnceLock};

use intertubes::degrade::DegradationPolicy;
use intertubes::faults::{FaultFamily, FaultPlan};
use intertubes::parallel::with_threads;
use intertubes::serve::{
    canonicalize_stats, mixed_workload, run_batch_chaos_telemetry, run_batch_telemetry,
    CacheConfig, ChaosSession, Query, QueryEngine, ResultCache, ServeConfig, ServeTelemetry,
    StudySnapshot, NONCANONICAL_STATS_KEYS, STATS_SCHEMA,
};
use intertubes::Study;
use serde_json::Value;

/// Serializes every test in this binary: `with_threads` pins the
/// process-global pool (same discipline as tests/serve.rs).
static BATTERY: Mutex<()> = Mutex::new(());

fn battery_lock() -> std::sync::MutexGuard<'static, ()> {
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

/// The frozen reference study, built once per process.
fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(2_000)))
}

fn engine() -> QueryEngine {
    QueryEngine::new(snapshot().clone())
}

const REPLAY: usize = 400;
const SEED: u64 = 7;

fn serve_cfg(cache_on: bool) -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        cache: CacheConfig {
            enabled: cache_on,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One clean telemetry arm over the fixed mixed workload, with a `Stats`
/// probe spliced in mid-stream so every arm also exercises the serial
/// stats-answer path. Returns the responses, the full stats document, and
/// its canonicalized byte form.
fn telemetry_arm(threads: usize, cache_on: bool) -> (Vec<String>, Value, String) {
    let eng = engine();
    let mut queries = mixed_workload(snapshot(), REPLAY, SEED);
    queries.insert(queries.len() / 2, Query::Stats);
    queries.push(Query::Stats);
    let cfg = serve_cfg(cache_on);
    let cache = ResultCache::new(cfg.cache);
    let telemetry = ServeTelemetry::new();
    let (responses, _) = with_threads(threads, || {
        run_batch_telemetry(&eng, &queries, &cfg, &cache, &telemetry)
    });
    let doc = telemetry.stats_document(Some(&cache));
    let canon = serde_json::to_string(&canonicalize_stats(&doc))
        .unwrap_or_else(|e| panic!("canonical stats serialize: {e}"));
    (responses, doc, canon)
}

/// Whether any non-canonical key survives anywhere in the value.
fn forbidden_key_in(value: &Value) -> Option<String> {
    match value {
        Value::Object(map) => {
            for (k, v) in map.iter() {
                if NONCANONICAL_STATS_KEYS.contains(&k.as_str()) {
                    return Some(k.clone());
                }
                if let Some(found) = forbidden_key_in(v) {
                    return Some(found);
                }
            }
            None
        }
        Value::Array(items) => items.iter().find_map(forbidden_key_in),
        _ => None,
    }
}

/// The tentpole contract: responses AND the canonicalized count plane are
/// byte-identical at 1, 2, and 8 threads, cache on or off — including the
/// serially answered `Stats` probes spliced into the stream.
#[test]
fn canonical_count_plane_is_byte_identical_across_arms() {
    let _guard = battery_lock();
    let (base_responses, base_doc, base_canon) = telemetry_arm(1, true);
    assert_eq!(base_responses.len(), REPLAY + 2);
    for threads in [1usize, 2, 8] {
        for cache_on in [true, false] {
            if threads == 1 && cache_on {
                continue;
            }
            let (responses, _, canon) = telemetry_arm(threads, cache_on);
            assert_eq!(
                responses, base_responses,
                "responses diverged at {threads} threads, cache={cache_on}"
            );
            assert_eq!(
                canon, base_canon,
                "canonical stats diverged at {threads} threads, cache={cache_on}"
            );
        }
    }

    // Sanity on the canonical survivor: the count plane is intact.
    let counts = &base_doc["counts"];
    assert_eq!(counts["submitted"].as_u64(), Some(REPLAY as u64 + 2));
    assert_eq!(
        counts["admitted"].as_u64().unwrap_or(0) + counts["rejected"].as_u64().unwrap_or(0),
        REPLAY as u64 + 2,
    );
    assert!(
        counts["waves"].as_u64().unwrap_or(0) > 1,
        "multi-wave replay"
    );
    let families = counts["families"].as_object().expect("families object");
    assert_eq!(families.get("stats").and_then(Value::as_u64), Some(2));
}

/// The timing plane is measurement, not contract: present (with quantile
/// annotations) in the full document, provably absent — along with every
/// cache-mode-dependent counter — from the canonical form.
#[test]
fn timing_plane_is_present_in_full_doc_and_absent_from_canonical() {
    let _guard = battery_lock();
    let (_, doc, canon) = telemetry_arm(1, true);

    assert_eq!(doc["schema"].as_str(), Some(STATS_SCHEMA));
    let per_family = doc["timing"]["per_family"]
        .as_object()
        .expect("timing.per_family object");
    assert!(!per_family.is_empty(), "replayed families must be timed");
    for (family, hist) in per_family.iter() {
        for q in ["p50_us", "p95_us", "p99_us"] {
            assert!(
                hist.get(q).and_then(Value::as_u64).is_some(),
                "timing.per_family.{family}.{q} missing"
            );
        }
    }
    assert!(doc["cache"].is_object(), "full doc carries the cache block");
    assert!(
        doc["cache"]["hits"].as_u64().unwrap_or(0) > 0,
        "the mixed workload must repeat some queries"
    );

    let canon: Value = serde_json::from_str(&canon).expect("canonical form is JSON");
    assert_eq!(
        forbidden_key_in(&canon),
        None,
        "no non-canonical key may survive canonicalization"
    );
    assert!(canon.get("timing").is_none());
    assert!(canon.get("cache").is_none());
    assert!(canon.get("counts").is_some(), "the count plane survives");
    assert!(
        canon.get("flight").is_some(),
        "the flight recorder survives"
    );
}

/// `Stats` answers come from the decide phase's completed-wave snapshot:
/// both probes parse, carry the schema tag, and the later probe has seen
/// at least as many waves as the earlier one.
#[test]
fn stats_query_reports_completed_wave_state() {
    let _guard = battery_lock();
    let (responses, _, _) = telemetry_arm(1, true);
    let mid: Value = serde_json::from_str(&responses[REPLAY / 2]).expect("mid-stream Stats parses");
    let last: Value = serde_json::from_str(&responses[REPLAY + 1]).expect("final Stats parses");
    for probe in [&mid, &last] {
        assert_eq!(probe["Stats"]["schema"].as_str(), Some(STATS_SCHEMA));
    }
    let mid_waves = mid["Stats"]["waves"].as_u64().expect("waves counter");
    let last_waves = last["Stats"]["waves"].as_u64().expect("waves counter");
    assert!(
        mid_waves < last_waves,
        "a later probe must have seen more completed waves ({mid_waves} vs {last_waves})"
    );
}

/// Chaos arms: under the seeded overload scenario the canonical stats —
/// including every flight-recorder dump the injected faults trigger — are
/// byte-identical across thread counts and cache modes, and the dump
/// triggers actually fired.
#[test]
fn chaos_flight_dumps_are_byte_identical_across_arms() {
    let _guard = battery_lock();
    let plan = FaultPlan::new(5).with(FaultFamily::OverloadBurst, 1.0);

    let mut baseline: Option<(String, String)> = None;
    for threads in [1usize, 2, 8] {
        for cache_on in [true, false] {
            let eng = engine();
            let queries = mixed_workload(snapshot(), REPLAY, SEED);
            let cfg = serve_cfg(cache_on);
            let cache = ResultCache::new(cfg.cache);
            let session = ChaosSession::new(plan.clone(), DegradationPolicy::Lenient);
            let telemetry = ServeTelemetry::new();
            let (_, _, report) = with_threads(threads, || {
                run_batch_chaos_telemetry(&eng, &queries, &cfg, &cache, &session, &telemetry)
            });
            assert!(report.ledger.total() > 0, "rate-1.0 overload must inject");

            let doc = telemetry.stats_document(Some(&cache));
            let canon = serde_json::to_string(&canonicalize_stats(&doc))
                .expect("canonical stats serialize");
            let jsonl = telemetry.flight_jsonl(true);
            match &baseline {
                None => {
                    // The dump triggers fired: at least one fault dump plus
                    // the unconditional drain dump.
                    let dumps = doc["flight"]["dumps"].as_array().expect("dumps array");
                    let reasons: Vec<&str> =
                        dumps.iter().filter_map(|d| d["reason"].as_str()).collect();
                    assert!(reasons.contains(&"fault_injected"), "got {reasons:?}");
                    assert_eq!(reasons.last(), Some(&"drain"), "drain dump is last");
                    assert!(doc["counts"]["degraded"].as_u64().unwrap_or(0) > 0);
                    baseline = Some((canon, jsonl));
                }
                Some((base_canon, base_jsonl)) => {
                    assert_eq!(
                        &canon, base_canon,
                        "chaos canonical stats diverged at {threads} threads, cache={cache_on}"
                    );
                    assert_eq!(
                        &jsonl, base_jsonl,
                        "chaos flight JSONL diverged at {threads} threads, cache={cache_on}"
                    );
                }
            }
        }
    }
}
