//! Serving-layer load generator (DESIGN.md §9), recorded to
//! `BENCH_serve.json` by the gate runner (`src/bin/gates.rs`).
//!
//! The binary answers the two questions the serving layer exists for:
//!
//! 1. **Is loading a snapshot cheaper than rebuilding the study?** The
//!    full §2–5 rebuild (world → corpus → four-step pipeline → risk →
//!    overlay → path index) is timed once, then the frozen snapshot is
//!    encoded to bytes (`save_ms`) and decoded from them (`load_ms`) a
//!    few times each, a query engine is frozen over a decoded snapshot
//!    (`engine_ms`, `QueryEngine::new` alone) as often, and the medians
//!    are reported.
//! 2. **Is serving deterministic under concurrency and caching?** The
//!    same 10 k mixed-query replay runs at one thread and at the
//!    environment's thread count, with the result cache on and off, and
//!    an FNV-1a digest of the concatenated responses must be identical
//!    across all four arms — the serving analogue of the PR-3
//!    determinism battery.
//!
//! Per-arm throughput, latency quantiles (overall and per query family,
//! from the telemetry timing plane — DESIGN.md §13), hit rate, and peak
//! queue depth are printed as JSON on stdout; a digest mismatch exits
//! nonzero so the gate fails loudly rather than recording a
//! nondeterministic run.

use std::time::Instant;

use intertubes::parallel::{thread_count, with_threads};
use intertubes::serve::{
    fnv1a64, mixed_workload, run_batch_telemetry, CacheConfig, QueryEngine, ResultCache,
    ServeConfig, ServeTelemetry, StudySnapshot,
};
use intertubes_bench::study;

const REPLAY: usize = 10_000;
const SEED: u64 = 2026;
const LOAD_ITERS: usize = 3;

/// The median of `samples`, in place.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn main() {
    let threads = thread_count().max(2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Arm 0: the full rebuild, timed cold. `study()` memoizes, so this is
    // the one and only pipeline construction in the process.
    let t0 = Instant::now();
    let snap = study().snapshot(Some(10_000));
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;

    let encode = || match snap.to_bytes() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_serve: snapshot serialization failed: {e}");
            std::process::exit(1);
        }
    };
    let bytes = encode();
    let mut save_samples: Vec<f64> = (0..LOAD_ITERS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(encode());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let save_ms = median(&mut save_samples);

    // Arm 1: parsing the frozen container, then freezing an engine over
    // it, median of a few runs each.
    let load = || match StudySnapshot::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_serve: snapshot load failed: {e}");
            std::process::exit(1);
        }
    };
    let mut load_samples: Vec<f64> = (0..LOAD_ITERS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(load());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let load_ms = median(&mut load_samples);
    let mut engine_samples = Vec::with_capacity(LOAD_ITERS);
    let mut freeze = || {
        let snap = load();
        let t = Instant::now();
        let engine = QueryEngine::new(snap);
        engine_samples.push(t.elapsed().as_secs_f64() * 1e3);
        engine
    };
    // The previous engine is dropped outside the timed call.
    let mut engine = freeze();
    for _ in 1..LOAD_ITERS {
        engine = freeze();
    }
    let engine_ms = median(&mut engine_samples);
    let queries = mixed_workload(engine.snapshot(), REPLAY, SEED);

    // Arms 2–5: the replay matrix. Responses must be byte-identical in
    // every cell; only the timing columns may differ.
    let mut arms = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    for (label, arm_threads, cache_on) in [
        ("serial_cache", 1usize, true),
        ("parallel_cache", threads, true),
        ("serial_nocache", 1, false),
        ("parallel_nocache", threads, false),
    ] {
        let cfg = ServeConfig {
            cache: CacheConfig {
                enabled: cache_on,
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        };
        let cache = ResultCache::new(cfg.cache);
        let telemetry = ServeTelemetry::new();
        let t = Instant::now();
        let (responses, stats) = with_threads(arm_threads, || {
            run_batch_telemetry(&engine, &queries, &cfg, &cache, &telemetry)
        });
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        // Per-family latency quantiles from the telemetry timing plane
        // (EXPERIMENTS.md's per-family table is generated from these).
        let stats_doc = telemetry.stats_document(Some(&cache));
        let per_family = stats_doc
            .get("timing")
            .and_then(|t| t.get("per_family"))
            .cloned()
            .unwrap_or(serde_json::json!({}));
        let digest = fnv1a64(responses.join("\n").as_bytes());
        let qps = if wall_ms > 0.0 {
            responses.len() as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        eprintln!(
            "{label:<17} threads {arm_threads:>2}  {wall_ms:>8.1} ms  {qps:>9.0} q/s  \
             hit_rate {:.4}  p99 {} µs  digest {digest:016x}",
            stats.hit_rate, stats.p99_us
        );
        digests.push(digest);
        arms.push(serde_json::json!({
            "arm": label,
            "threads": arm_threads,
            "cache": cache_on,
            "wall_ms": round3(wall_ms),
            "queries_per_sec": round3(qps),
            "p50_us": stats.p50_us,
            "p99_us": stats.p99_us,
            "hit_rate": stats.hit_rate,
            "max_queue_depth": stats.max_queue_depth,
            "waves": stats.waves,
            "per_family": per_family,
            "digest": format!("{digest:016x}"),
        }));
    }
    let deterministic = digests.windows(2).all(|w| w[0] == w[1]);

    // Headline fields mirror the parallel+cache arm — the configuration
    // `intertubes serve` runs by default — so the gate can grep them
    // without digging into the arm array.
    let headline = &arms[1];
    let doc = serde_json::json!({
        "replay": REPLAY,
        "seed": SEED,
        "threads": threads,
        "cores": cores,
        "snapshot_bytes": bytes.len(),
        "rebuild_ms": round3(rebuild_ms),
        "save_ms": round3(save_ms),
        "load_ms": round3(load_ms),
        "engine_ms": round3(engine_ms),
        "load_speedup": round3(if load_ms > 0.0 { rebuild_ms / load_ms } else { 0.0 }),
        "p50_us": headline["p50_us"].clone(),
        "p99_us": headline["p99_us"].clone(),
        "hit_rate": headline["hit_rate"].clone(),
        "max_queue_depth": headline["max_queue_depth"].clone(),
        "per_family": headline["per_family"].clone(),
        "deterministic": deterministic,
        "arms": arms,
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("bench_serve: failed to serialize results: {e}");
            std::process::exit(1);
        }
    }
    if !deterministic {
        eprintln!("bench_serve: response digests differ across arms — serving is nondeterministic");
        std::process::exit(1);
    }
}
