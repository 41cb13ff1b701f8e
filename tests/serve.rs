//! The serving-layer contract (DESIGN.md §9): a frozen snapshot answers
//! the fixed mixed workload byte-identically at any thread count, with the
//! result cache enabled or disabled, and admission control rejects — never
//! drops — the overflow.
//!
//! This is the serving analogue of `tests/determinism.rs`: one thread is
//! the serial baseline (`intertubes_parallel` short-circuits fan-outs at
//! `threads == 1`), so comparing replay outputs across 1, 2, and 8 threads
//! exercises both the pure-engine equivalence and the scheduler's
//! decide–compute–assemble phase discipline.

use std::sync::{Mutex, OnceLock};

use intertubes::parallel::with_threads;
use intertubes::serve::{
    mixed_workload, run_batch, CacheConfig, Query, QueryEngine, ResultCache, ServeConfig,
    StudySnapshot,
};
use intertubes::Study;

/// Serializes every test in this binary: `with_threads` pins the
/// process-global pool. Lock ordering matches tests/determinism.rs:
/// `BATTERY` → `with_threads`.
static BATTERY: Mutex<()> = Mutex::new(());

fn battery_lock() -> std::sync::MutexGuard<'static, ()> {
    BATTERY.lock().unwrap_or_else(|e| e.into_inner())
}

/// The frozen reference study, built once per process (the snapshot build
/// dominates the battery's cost; every test serves from the same freeze).
fn snapshot() -> &'static StudySnapshot {
    static SNAP: OnceLock<StudySnapshot> = OnceLock::new();
    SNAP.get_or_init(|| Study::reference().snapshot(Some(2_000)))
}

fn engine() -> QueryEngine {
    QueryEngine::new(snapshot().clone())
}

const REPLAY: usize = 600;
const SEED: u64 = 7;

fn replay(threads: usize, cache_on: bool) -> (Vec<String>, intertubes::serve::ServeStats) {
    let eng = engine();
    let queries = mixed_workload(snapshot(), REPLAY, SEED);
    let cfg = ServeConfig {
        queue_capacity: 64,
        cache: CacheConfig {
            enabled: cache_on,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    let cache = ResultCache::new(cfg.cache);
    with_threads(threads, || run_batch(&eng, &queries, &cfg, &cache))
}

#[test]
fn replay_is_byte_identical_across_threads_and_cache_modes() {
    let _guard = battery_lock();
    let (baseline, base_stats) = replay(1, true);
    assert_eq!(baseline.len(), REPLAY);
    assert!(
        base_stats.cache_hits > 0,
        "the mixed workload must repeat some queries"
    );
    for threads in [2usize, 8] {
        for cache_on in [true, false] {
            let (responses, stats) = replay(threads, cache_on);
            assert_eq!(
                responses, baseline,
                "responses diverged at {threads} threads, cache={cache_on}"
            );
            assert_eq!(stats.admitted, REPLAY);
            if !cache_on {
                assert_eq!(stats.cache_hits, 0, "a disabled cache must never hit");
            }
        }
    }
}

#[test]
fn admission_control_rejects_past_the_limit() {
    let _guard = battery_lock();
    let eng = engine();
    let queries = mixed_workload(snapshot(), 100, SEED);
    let cfg = ServeConfig {
        queue_capacity: 16,
        admit_max: 25,
        ..ServeConfig::default()
    };
    let cache = ResultCache::new(cfg.cache);
    let (responses, stats) = run_batch(&eng, &queries, &cfg, &cache);
    assert_eq!(responses.len(), 100, "rejected queries still get responses");
    assert_eq!(stats.admitted, 25);
    assert_eq!(stats.rejected, 75);
    for (i, r) in responses.iter().enumerate() {
        let is_rejection = r.contains("\"Rejected\"");
        assert_eq!(
            is_rejection,
            i >= 25,
            "query {i} should {}be rejected: {r}",
            if i >= 25 { "" } else { "not " }
        );
    }
    // Backpressure is bounded-queue-shaped: no wave exceeds capacity.
    assert!(stats.max_queue_depth <= 16);
    assert_eq!(stats.waves, 2, "25 admitted / 16 per wave = 2 waves");
}

#[test]
fn workload_generation_is_seed_deterministic() {
    let a = mixed_workload(snapshot(), 200, 42);
    let b = mixed_workload(snapshot(), 200, 42);
    assert_eq!(a, b, "same seed must replay the same workload");
    let c = mixed_workload(snapshot(), 200, 43);
    assert_ne!(a, c, "different seeds must explore different workloads");
}

#[test]
fn warm_cache_serves_a_repeat_batch_entirely_from_memory() {
    let _guard = battery_lock();
    let eng = engine();
    let queries = mixed_workload(snapshot(), 150, SEED);
    let cfg = ServeConfig {
        // Roomy enough that nothing from the first batch is evicted.
        cache: CacheConfig {
            enabled: true,
            shards: 8,
            capacity_per_shard: 1024,
        },
        ..ServeConfig::default()
    };
    let cache = ResultCache::new(cfg.cache);
    let (cold, cold_stats) = run_batch(&eng, &queries, &cfg, &cache);
    let (warm, warm_stats) = run_batch(&eng, &queries, &cfg, &cache);
    assert_eq!(warm, cold, "a cache hit must return the exact cold bytes");
    assert!(cold_stats.cache_misses > 0);
    assert_eq!(
        warm_stats.cache_misses, 0,
        "every repeat query must hit the warm cache"
    );
    assert!((warm_stats.hit_rate - 1.0).abs() < f64::EPSILON);
}

#[test]
fn engine_answers_match_after_a_container_round_trip() {
    let _guard = battery_lock();
    let bytes = snapshot().to_bytes().unwrap();
    let reloaded = QueryEngine::new(StudySnapshot::from_bytes(&bytes).unwrap());
    let eng = engine();
    for q in mixed_workload(snapshot(), 50, 99) {
        assert_eq!(
            eng.answer(&q).to_canonical_json(),
            reloaded.answer(&q).to_canonical_json(),
            "snapshot round-trip changed the answer to {q:?}"
        );
    }
}

#[test]
fn deadlines_are_accounted_but_never_drop_responses() {
    let _guard = battery_lock();
    let eng = engine();
    let queries = mixed_workload(snapshot(), 80, SEED);
    // A deadline of 0 disables accounting entirely...
    let relaxed = ServeConfig::default();
    let cache = ResultCache::new(relaxed.cache);
    let (full, stats) = run_batch(&eng, &queries, &relaxed, &cache);
    assert_eq!(stats.deadline_overruns, 0);
    // ...an absurdly tight one counts overruns without changing output.
    let tight = ServeConfig {
        deadline_us: 1,
        ..ServeConfig::default()
    };
    let cache = ResultCache::new(tight.cache);
    let (tight_responses, tight_stats) = run_batch(&eng, &queries, &tight, &cache);
    assert_eq!(tight_responses, full, "deadlines must not alter responses");
    assert!(tight_stats.deadline_overruns <= stats.admitted);
}

#[test]
fn unknown_names_get_not_found_not_errors() {
    let _guard = battery_lock();
    let eng = engine();
    for q in [
        Query::IspRisk {
            isp: "No Such Carrier".into(),
        },
        Query::Similarity {
            isp: "No Such Carrier".into(),
        },
        Query::Latency {
            a: "Atlantis, XX".into(),
            b: "El Dorado, YY".into(),
        },
    ] {
        let json = eng.answer(&q).to_canonical_json();
        assert!(
            json.contains("\"NotFound\""),
            "expected NotFound for {q:?}: {json}"
        );
    }
}
