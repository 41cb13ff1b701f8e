//! Serial-vs-parallel Criterion benches for the four parallel hot
//! paths (DESIGN.md §7). Each stage is timed twice: pinned to one thread
//! (the serial baseline — the fan-outs short-circuit to inline loops) and
//! at the session's default thread count. `scripts/bench_gate.sh` runs the
//! same stages through `bench_parallel` and records the speedups in
//! BENCH_parallel.json.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use intertubes::map::{build_map, PipelineConfig};
use intertubes::mitigation::latency_study;
use intertubes::parallel::{thread_count, with_threads};
use intertubes::probes::overlay_campaign;
use intertubes::risk::{hamming_heatmap, RiskMatrix};
use intertubes_bench::study;

/// Threads for the "parallel" arm: the environment's resolved count, but
/// at least 2 so the comparison is meaningful on single-core boxes.
fn parallel_threads() -> usize {
    thread_count().max(2)
}

fn bench_stage<R>(c: &mut Criterion, stage: &str, mut run: impl FnMut() -> R) {
    let mut group = c.benchmark_group(stage);
    group.bench_function("serial_1_thread", |b| {
        b.iter(|| with_threads(1, || black_box(run())))
    });
    group.bench_function(format!("parallel_{}_threads", parallel_threads()), |b| {
        b.iter(|| with_threads(parallel_threads(), || black_box(run())))
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let s = study();
    let published = s.world.publish_maps();
    bench_stage(c, "parallel_pipeline", || {
        build_map(
            &published,
            &s.corpus,
            &s.world.cities,
            &s.world.roads,
            &s.world.rails,
            &PipelineConfig::default(),
        )
    });
}

fn bench_overlay(c: &mut Criterion) {
    let s = study();
    let campaign = s.campaign(Some(10_000));
    bench_stage(c, "parallel_overlay", || {
        overlay_campaign(&s.world, &s.built.map, &campaign)
    });
}

fn bench_risk(c: &mut Criterion) {
    let s = study();
    let isps = s.mapped_isp_names();
    bench_stage(c, "parallel_risk_hamming", || {
        let rm = RiskMatrix::build(&s.built.map, &isps);
        hamming_heatmap(&rm)
    });
}

fn bench_paths(c: &mut Criterion) {
    let s = study();
    bench_stage(c, "parallel_latency_paths", || {
        latency_study(
            &s.built.map,
            &s.world.cities,
            &s.world.roads,
            &s.world.rails,
            &s.config.latency,
        )
    });
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_overlay,
    bench_risk,
    bench_paths
);
criterion_main!(benches);
