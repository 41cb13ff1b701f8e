//! End-to-end and per-layer benchmark of the InterTubes study build and
//! its serving stack. See README.md in this directory for the workloads,
//! the metrics and what each layer metric is expected to move.
//!
//! ```text
//! perfbench --workload <study-build|wire-mixed|cut-local> --seed <n>
//!           --seconds <s> --trace <0|1> [--revision <id>]
//! ```
//!
//! Standard output ends with two JSON lines: a detail record (run
//! parameters, sample counts, tail latency), then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! The process exits 1 when an output check fails.

mod common;
mod cut;
mod stats;
mod study_build;
mod wire;

use std::collections::BTreeMap;
use std::io::Write;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("latency_us", "us"), ("rss_mb", "MiB")];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// a workload never calls reads 0 there.
const PER_LAYER: [(&str, &str); 33] = [
    ("atlas.world_ns", "ns"),
    ("records.corpus_ns", "ns"),
    ("mapbuilder.build_ns", "ns"),
    ("probes.campaign_ns", "ns"),
    ("probes.overlay_ns", "ns"),
    ("probes.overlay_yield", "ratio"),
    ("risk.matrix_ns", "ns"),
    ("mitigation.latency_ns", "ns"),
    ("serve.index_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.snapshot_bytes", "bytes"),
    ("study.layer_sum_ratio", "ratio"),
    ("net.rtt_ns", "ns"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("serve.parse_ns", "ns"),
    ("net.registry_ns", "ns"),
    ("net.transport_ns", "ns"),
    ("net.frames", "count"),
    ("net.errors", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_ns", "ns"),
    ("serve.answer_ns", "ns"),
    ("mitigation.whatif_ns", "ns"),
    ("serve.json_ns", "ns"),
    ("graph.research_ns", "ns"),
    ("serve.sched_ns", "ns"),
    ("serve.pairs_researched", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.load_ns", "ns"),
    ("serve.engine_ns", "ns"),
    ("net.spawn_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Source revision recorded in the detail line.
    pub revision: String,
}

/// What a workload run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run parameters and sample details for the detail line.
    pub detail: serde_json::Value,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <study-build|wire-mixed|cut-local> --seed <n> \
         --seconds <s> --trace <0|1> [--revision <id>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut revision = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--revision" => revision = value,
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            revision,
        },
        _ => usage(),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--emit-snapshot") {
        let bytes = common::reference_snapshot_bytes().unwrap_or_else(|e| fail(&e));
        let mut out = std::io::stdout().lock();
        if let Err(e) = out.write_all(&bytes).and_then(|()| out.flush()) {
            fail(&format!("cannot write the snapshot: {e}"));
        }
        return;
    }
    let args = parse_args();
    let threads = common::nproc();
    let run = || match args.workload.as_str() {
        "study-build" => study_build::run(&args),
        "wire-mixed" => wire::run(&args),
        "cut-local" => cut::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = intertubes::parallel::with_threads(threads, run).unwrap_or_else(|e| fail(&e));

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            fail(&format!("metric {name} is not a finite number"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    let mut detail = outcome.detail;
    if let serde_json::Value::Object(map) = &mut detail {
        map.insert("workload".into(), serde_json::json!(args.workload.clone()));
        map.insert("seed".into(), serde_json::json!(args.seed));
        map.insert("seconds".into(), serde_json::json!(args.seconds));
        map.insert("trace".into(), serde_json::json!(args.trace));
        map.insert("nproc".into(), serde_json::json!(threads));
        map.insert("threads".into(), serde_json::json!(threads));
        map.insert("revision".into(), serde_json::json!(args.revision.clone()));
    }
    if outcome.attempted == 0 {
        fail("no operation was attempted");
    }
    println!("{}", serde_json::to_string(&detail).unwrap_or_default());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !outcome.correct {
        fail("an output check failed");
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric tables printed here must be the ones BENCHMARK.json
    /// declares, in name and unit.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("a string").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
    }
}
