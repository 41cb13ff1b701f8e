//! Scenario-ensemble throughput recorder (DESIGN.md §12), written to
//! `BENCH_scenario.json` by the gate runner (`src/bin/gates.rs`).
//!
//! Runs both built-in scenarios (the golden hurricane corridor and
//! earthquake disc, 10 k draws each) against a freshly frozen snapshot
//! at 1, 2, and the environment's thread count, recording
//! scenarios-per-second per arm. The report digest must be identical in
//! every arm — the ensemble analogue of the PR-3 determinism battery —
//! and a mismatch exits nonzero so the gate fails loudly. The ≥2×
//! speedup floor is enforced by the gate only when `floor_eligible`
//! (4+ cores) is true, mirroring `bench_parallel`.

use std::time::Instant;

use intertubes::parallel::{thread_count, with_threads};
use intertubes::scenario::ScenarioPlan;
use intertubes::serve::QueryEngine;
use intertubes_bench::study;

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn main() {
    let threads = thread_count().max(2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor_eligible = cores >= 4;

    let snap = study().snapshot(Some(10_000));
    let engine = QueryEngine::new(snap);

    let mut scenarios = Vec::new();
    let mut deterministic = true;
    let mut headline: Option<(f64, f64, f64)> = None;
    for (name, plan) in ScenarioPlan::built_in_scenarios() {
        let mut digests: Vec<u64> = Vec::new();
        let mut wall_ms: Vec<f64> = Vec::new();
        for arm_threads in [1usize, 2, threads] {
            let t = Instant::now();
            let report = with_threads(arm_threads, || engine.conditional_risk(&plan));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench_scenario: {name}: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "{name:<20} threads {arm_threads:>2}  {ms:>8.1} ms  \
                 {:>7.0} scen/s  digest {:016x}",
                plan.draws as f64 / (ms / 1e3),
                report.digest()
            );
            digests.push(report.digest());
            wall_ms.push(ms);
        }
        let arm_ok = digests.windows(2).all(|w| w[0] == w[1]);
        deterministic &= arm_ok;
        let serial_ms = wall_ms[0];
        let parallel_ms = wall_ms[2];
        let speedup = if parallel_ms > 0.0 {
            serial_ms / parallel_ms
        } else {
            0.0
        };
        if headline.is_none() {
            headline = Some((serial_ms, parallel_ms, speedup));
        }
        scenarios.push(serde_json::json!({
            "scenario": name,
            "draws": plan.draws,
            "serial_ms": round3(serial_ms),
            "parallel_ms": round3(parallel_ms),
            "speedup": round3(speedup),
            "scenarios_per_sec_serial": round3(plan.draws as f64 / (serial_ms / 1e3)),
            "scenarios_per_sec_parallel": round3(plan.draws as f64 / (parallel_ms / 1e3)),
            "deterministic": arm_ok,
            "digest": format!("{:016x}", digests[0]),
        }));
    }

    // Headline fields mirror the first scenario (hurricane-corridor) so
    // the gate can grep them without digging into the array.
    let (serial_ms, parallel_ms, speedup) = headline.unwrap_or((0.0, 0.0, 0.0));
    let doc = serde_json::json!({
        "threads": threads,
        "cores": cores,
        "floor_eligible": floor_eligible,
        "serial_ms": round3(serial_ms),
        "parallel_ms": round3(parallel_ms),
        "speedup": round3(speedup),
        "deterministic": deterministic,
        "scenarios": scenarios,
    });
    match serde_json::to_string_pretty(&doc) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("bench_scenario: failed to serialize results: {e}");
            std::process::exit(1);
        }
    }
    if !deterministic {
        eprintln!(
            "bench_scenario: report digests differ across thread counts — \
             the ensemble is nondeterministic"
        );
        std::process::exit(1);
    }
}
