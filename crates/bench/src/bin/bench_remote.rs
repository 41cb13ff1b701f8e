//! Remote serving front-end load generator (DESIGN.md §14), recorded to
//! `BENCH_remote.json` by the gate runner (`src/bin/gates.rs`).
//!
//! The binary answers the question the wire adds on top of `bench_serve`:
//! **does carrying the workload over framed TCP change a single response
//! byte, and how does throughput scale with concurrent clients?** The
//! fixed mixed workload is replayed through a live in-process front-end
//! at 1, 2, and 8 concurrent client connections, with the result cache on
//! and off, and the FNV-1a digest of every arm must equal the local
//! replay's digest — the wire must be invisible in the bytes.
//!
//! Each arm gets a fresh server (and therefore a cold result cache), so
//! the clients column is the only thing that varies within a cache mode.
//! Note the client poll tick (~0.5 ms) paces each connection; the
//! interesting column is how added connections amortize it, not the
//! absolute q/s, which local replay will always win.

use std::time::Instant;

use intertubes::net::{run_clients, NetServer, SnapshotRegistry};
use intertubes::serve::{
    fnv1a64, mixed_workload, run_batch, CacheConfig, Query, QueryEngine, ResultCache, ServeConfig,
    StudySnapshot,
};
use intertubes_bench::study;

const REPLAY: usize = 4_000;
const SEED: u64 = 2026;

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_remote: {msg}");
    std::process::exit(1);
}

fn spawn_server(snap: &StudySnapshot, cache_on: bool) -> intertubes::net::RunningServer {
    let cfg = ServeConfig {
        cache: CacheConfig {
            enabled: cache_on,
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut registry = SnapshotRegistry::new();
    registry.insert("study", QueryEngine::new(snap.clone()), cfg);
    match NetServer::new(registry).spawn("127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => fail(&format!("cannot spawn the front-end: {e}")),
    }
}

fn main() {
    let snap = study().snapshot(Some(10_000));
    let queries: Vec<Query> = mixed_workload(&snap, REPLAY, SEED);

    // The local replay digest every remote arm must reproduce.
    let cfg = ServeConfig::default();
    let cache = ResultCache::new(cfg.cache);
    let engine = QueryEngine::new(snap.clone());
    let t = Instant::now();
    let (local_responses, _) = run_batch(&engine, &queries, &cfg, &cache);
    let local_ms = t.elapsed().as_secs_f64() * 1e3;
    let local_digest = fnv1a64(local_responses.join("\n").as_bytes());

    let mut arms = Vec::new();
    let mut deterministic = true;
    for cache_on in [true, false] {
        for clients in [1usize, 2, 8] {
            let server = spawn_server(&snap, cache_on);
            let addr = server.addr();
            let t = Instant::now();
            let responses = match run_clients(addr, "bench", "study", &queries, clients) {
                Ok(r) => r,
                Err(e) => fail(&format!("remote replay failed: {e}")),
            };
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match server.stop() {
                Ok(r) => r,
                Err(e) => fail(&format!("server stop failed: {e}")),
            };
            let digest = fnv1a64(responses.join("\n").as_bytes());
            deterministic &= digest == local_digest;
            let qps = if wall_ms > 0.0 {
                responses.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            };
            eprintln!(
                "clients {clients}  cache {}  {wall_ms:>9.1} ms  {qps:>7.0} q/s  \
                 {} frame(s)  digest {digest:016x}",
                if cache_on { "on " } else { "off" },
                report.frames
            );
            arms.push(serde_json::json!({
                "clients": clients,
                "cache": cache_on,
                "wall_ms": round3(wall_ms),
                "queries_per_sec": round3(qps),
                "frames": report.frames,
                "responses": report.responses,
                "digest": format!("{digest:016x}"),
            }));
        }
    }

    let doc = serde_json::json!({
        "replay": REPLAY,
        "seed": SEED,
        "local_wall_ms": round3(local_ms),
        "local_digest": format!("{local_digest:016x}"),
        "deterministic": deterministic,
        "arms": arms,
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(text) => println!("{text}"),
        Err(e) => fail(&format!("failed to serialize results: {e}")),
    }
    if !deterministic {
        fail("a remote arm's digest differs from local replay — the wire changed bytes");
    }
}
