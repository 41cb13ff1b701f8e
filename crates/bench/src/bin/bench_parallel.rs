//! Serial-vs-parallel wall-clock measurement for the four parallel hot
//! paths (DESIGN.md §7), recorded to `BENCH_parallel.json` by the gate
//! runner (`src/bin/gates.rs`, its `parallel` group).
//!
//! Each stage is timed with [`time_ms`] as the median of `ITERS` runs
//! pinned to one thread and again at the environment's thread count, and
//! the speedups are printed as JSON on stdout. On boxes with fewer than 4
//! cores the numbers are recorded but the runner does not enforce a speedup
//! floor — with a single core the parallel arms legitimately tie (or
//! slightly trail) the serial ones.
//!
//! Each stage additionally runs once under an `intertubes-obs` session, and
//! the per-sub-stage wall times from the observability spans (DESIGN.md §8)
//! are embedded in the row as `"sub_stages"` — the breakdown EXPERIMENTS.md
//! quotes.
//!
//! The host is reported honestly: `"cores"` is the physical parallelism
//! detected once via `available_parallelism`, `"threads"` is the width the
//! parallel arms actually ran at (forced to ≥ 2 so the parallel code path
//! is exercised even on 1-core boxes), and `"floor_eligible"` says whether
//! the speedup floor is meaningful here — the runner reads that flag
//! instead of re-detecting the host.
//!
//! The `latency_paths` row also carries `"path_query_us"`: per-query
//! wall-clock for one point-to-point shortest-path query, plain and
//! ALT-pruned, cold (scratch allocated per query) and warm (scratch
//! reused) — the numbers EXPERIMENTS.md's path-engine table quotes.

use std::time::Instant;

use intertubes::obs;

use intertubes::graph::{
    csr_dijkstra, EdgeId, Landmarks, NodeId, SearchState, DEFAULT_LANDMARK_COUNT,
};
use intertubes::map::{build_map, PipelineConfig};
use intertubes::mitigation::latency_study;
use intertubes::parallel::{thread_count, with_threads};
use intertubes::probes::overlay_campaign;
use intertubes::risk::{hamming_heatmap, RiskMatrix};
use intertubes_bench::{study, time_ms};

const ITERS: usize = 5;

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Per-query microseconds for the point-to-point search, plain and
/// ALT-pruned, over a deterministic sample of conduit-joined pairs, cold
/// (fresh scratch per query) and warm (scratch reused across queries).
fn path_query_us(s: &intertubes::Study) -> serde_json::Value {
    let map = &s.built.map;
    let csr = map.csr();
    let lengths = map.conduit_km();
    let km = |e: EdgeId| lengths[e.index()];
    let landmarks = Landmarks::build(&csr, DEFAULT_LANDMARK_COUNT, km).ok();

    // The same pair enumeration the §5.3 study uses, thinned to a fixed
    // sample so the micro-bench stays cheap on any map size.
    let mut pairs: Vec<(u32, u32)> = map
        .conduits
        .iter()
        .map(|c| (c.a.0.min(c.b.0), c.a.0.max(c.b.0)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let stride = pairs.len().div_ceil(256).max(1);
    let sample: Vec<(u32, u32)> = pairs.into_iter().step_by(stride).collect();
    let n = sample.len().max(1);

    let time = |run: &mut dyn FnMut(u32, u32)| -> f64 {
        let t0 = Instant::now();
        for &(a, b) in &sample {
            run(a, b);
        }
        round3(t0.elapsed().as_secs_f64() * 1e6 / n as f64)
    };

    let csr_cold = time(&mut |a, b| {
        let mut st = SearchState::new();
        std::hint::black_box(csr_dijkstra(&csr, &mut st, NodeId(a), NodeId(b), km, None).ok());
    });
    let mut st = SearchState::new();
    let csr_warm = time(&mut |a, b| {
        std::hint::black_box(csr_dijkstra(&csr, &mut st, NodeId(a), NodeId(b), km, None).ok());
    });
    let lm = landmarks.as_ref();
    let alt_cold = time(&mut |a, b| {
        let mut st = SearchState::new();
        std::hint::black_box(csr_dijkstra(&csr, &mut st, NodeId(a), NodeId(b), km, lm).ok());
    });
    let alt_warm = time(&mut |a, b| {
        std::hint::black_box(csr_dijkstra(&csr, &mut st, NodeId(a), NodeId(b), km, lm).ok());
    });

    serde_json::json!({
        "sample_pairs": n,
        "csr_dijkstra_cold": csr_cold,
        "csr_dijkstra_warm": csr_warm,
        "csr_alt_cold": alt_cold,
        "csr_alt_warm": alt_warm,
    })
}

fn main() {
    // The host is detected exactly once, here; everything downstream
    // (including the gate runner) reads these recorded values.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = thread_count().max(2);
    let floor_eligible = cores >= 4;

    let s = study();
    let published = s.world.publish_maps();
    let campaign = s.campaign(Some(10_000));
    let isps = s.mapped_isp_names();

    let mut rows = Vec::new();
    let mut measure = |name: &str, run: &mut dyn FnMut()| {
        let serial_ms = time_ms(ITERS, 1, &mut *run);
        let parallel_ms = time_ms(ITERS, threads, &mut *run);
        let speedup = if parallel_ms > 0.0 {
            serial_ms / parallel_ms
        } else {
            1.0
        };
        // One instrumented pass: the obs spans inside the stage give the
        // per-sub-stage timing breakdown (e.g. map.step1..step4 within
        // "pipeline").
        let session = obs::Session::begin(obs::ObsConfig::default());
        with_threads(threads, &mut *run);
        let record = session.finish();
        let mut sub_stages = serde_json::Map::new();
        for sub in record.stage_names() {
            let ms = record.stage_wall_ms(sub).unwrap_or(0.0);
            sub_stages.insert(
                sub.to_string(),
                serde_json::Value::Number(serde_json::Number::Float(round3(ms))),
            );
        }
        eprintln!(
            "{name:<14} serial {serial_ms:>8.1} ms  parallel({threads}) {parallel_ms:>8.1} ms  \
             speedup {speedup:.2}x"
        );
        rows.push(serde_json::json!({
            "stage": name,
            "serial_ms": round3(serial_ms),
            "parallel_ms": round3(parallel_ms),
            "speedup": round3(speedup),
            "sub_stages": serde_json::Value::Object(sub_stages),
        }));
    };

    measure("pipeline", &mut || {
        build_map(
            &published,
            &s.corpus,
            &s.world.cities,
            &s.world.roads,
            &s.world.rails,
            &PipelineConfig::default(),
        );
    });
    measure("overlay", &mut || {
        overlay_campaign(&s.world, &s.built.map, &campaign);
    });
    measure("risk_hamming", &mut || {
        let rm = RiskMatrix::build(&s.built.map, &isps);
        hamming_heatmap(&rm);
    });
    measure("latency_paths", &mut || {
        latency_study(
            &s.built.map,
            &s.world.cities,
            &s.world.roads,
            &s.world.rails,
            &s.config.latency,
        );
    });

    // Attach the per-query search-engine breakdown to the latency row.
    let queries = path_query_us(&s);
    if let Some(row) = rows
        .iter_mut()
        .find(|r| r.get("stage").and_then(|v| v.as_str()) == Some("latency_paths"))
    {
        if let Some(obj) = row.as_object_mut() {
            obj.insert("path_query_us".into(), queries);
        }
    }

    let doc = serde_json::json!({
        "threads": threads,
        "cores": cores,
        "floor_eligible": floor_eligible,
        "iters_per_arm": ITERS,
        "stages": rows,
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("bench_parallel: failed to serialize results: {e}");
            std::process::exit(1);
        }
    }
}
