//! Criterion benchmarks — one group per reproduced table/figure, timing the
//! computation that regenerates it (DESIGN.md §3 maps ids to experiments).
//!
//! The expensive one-time setup (world generation, corpus, pipeline,
//! campaign) is shared through `intertubes_bench::study()` / `overlay()`;
//! each bench then measures the experiment's own computation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use intertubes::graph::{
    csr_dijkstra, yen_k_shortest_csr, EdgeId, NodeId, SearchState, YenWorkspace,
};
use intertubes::map::{analyze_colocation, build_map, corridor_index, PipelineConfig};
use intertubes::mitigation::{
    augment, heaviest_conduits, latency_study, robustness_suggestion, AugmentationConfig,
    LatencyConfig,
};
use intertubes::probes::{overlay_campaign, run_campaign, ProbeConfig};
use intertubes::records::{generate_corpus, CorpusConfig};
use intertubes::risk::{
    conduits_shared_by_at_least, hamming_heatmap, isp_sharing_ranking, traffic_risk, RiskMatrix,
};
use intertubes_bench::study;

/// tab1 + fig1: the four-step map-construction pipeline (§2).
fn bench_pipeline(c: &mut Criterion) {
    let s = study();
    let published = s.world.publish_maps();
    let corpus = generate_corpus(&s.world, &CorpusConfig::default());
    c.bench_function("tab1_fig1_build_map_pipeline", |b| {
        b.iter(|| {
            black_box(build_map(
                &published,
                &corpus,
                &s.world.cities,
                &s.world.roads,
                &s.world.rails,
                &PipelineConfig::default(),
            ))
        })
    });
}

/// fig4/fig5: corridor co-location analysis (§3).
fn bench_colocation(c: &mut Criterion) {
    let s = study();
    let idx = corridor_index(&s.world.roads, &s.world.rails, &s.world.pipelines, 5.0).unwrap();
    let params = intertubes::geo::OverlapParams {
        buffer_km: 5.0,
        sample_step_km: 2.0,
    };
    c.bench_function("fig4_colocation", |b| {
        b.iter(|| black_box(analyze_colocation(&s.built.map, &idx, &params, 10).unwrap()))
    });
}

/// fig6/fig7: risk matrix construction and §4.2 metrics.
fn bench_risk_matrix(c: &mut Criterion) {
    let s = study();
    let isps = s.mapped_isp_names();
    c.bench_function("fig6_risk_matrix_build", |b| {
        b.iter(|| black_box(RiskMatrix::build(&s.built.map, &isps)))
    });
    let rm = s.risk_matrix();
    c.bench_function("fig6_sharing_metrics", |b| {
        b.iter(|| {
            black_box(conduits_shared_by_at_least(&rm));
            black_box(isp_sharing_ranking(&rm));
        })
    });
}

/// fig8: Hamming heat map.
fn bench_hamming(c: &mut Criterion) {
    let rm = study().risk_matrix();
    c.bench_function("fig8_hamming_heatmap", |b| {
        b.iter(|| black_box(hamming_heatmap(&rm)))
    });
}

/// fig9 + tab2/3/4: traceroute campaign and overlay (§4.3), swept over
/// campaign sizes.
fn bench_campaign_overlay(c: &mut Criterion) {
    let s = study();
    let mut group = c.benchmark_group("fig9_tab234_campaign");
    group.sample_size(10);
    for probes in [5_000usize, 20_000] {
        group.bench_function(format!("run_campaign_{probes}"), |b| {
            let cfg = ProbeConfig {
                probes,
                ..ProbeConfig::default()
            };
            b.iter(|| black_box(run_campaign(&s.world, &cfg)))
        });
    }
    let campaign = s.campaign(Some(20_000));
    group.bench_function("overlay_20000", |b| {
        b.iter(|| black_box(overlay_campaign(&s.world, &s.built.map, &campaign)))
    });
    let overlay = s.overlay(&campaign);
    group.bench_function("fig9_traffic_risk_cdf", |b| {
        b.iter(|| black_box(traffic_risk(&s.built.map, &overlay)))
    });
    group.finish();
}

/// fig10 + tab5: robustness suggestion over the 12 heavy links (§5.1).
fn bench_robustness(c: &mut Criterion) {
    let s = study();
    let rm = s.risk_matrix();
    let heavy = heaviest_conduits(&rm, 12);
    c.bench_function("fig10_tab5_robustness_suggestion", |b| {
        b.iter(|| black_box(robustness_suggestion(&s.built.map, &rm, &heavy)))
    });
}

/// fig11: greedy conduit augmentation (§5.2).
fn bench_augmentation(c: &mut Criterion) {
    let s = study();
    let rm = s.risk_matrix();
    c.bench_function("fig11_augmentation_k10", |b| {
        b.iter_batched(
            || rm.clone(),
            |rm| {
                black_box(augment(
                    &s.built.map,
                    &rm,
                    &s.world.cities,
                    &s.world.roads,
                    &AugmentationConfig::default(),
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

/// fig12: the latency study (§5.3).
fn bench_latency(c: &mut Criterion) {
    let s = study();
    let mut group = c.benchmark_group("fig12_latency");
    group.sample_size(10);
    group.bench_function("latency_study_k4", |b| {
        b.iter(|| {
            black_box(latency_study(
                &s.built.map,
                &s.world.cities,
                &s.world.roads,
                &s.world.rails,
                &LatencyConfig::default(),
            ))
        })
    });
    group.finish();
}

/// Substrate microbenches: the primitives everything above leans on.
fn bench_substrates(c: &mut Criterion) {
    let s = study();
    let graph = s.built.map.graph();
    let csr = graph.to_csr();
    let lengths: Vec<f64> = s.built.map.conduits.iter().map(|c| c.geometry.length_km()).collect();
    let km = |e: EdgeId| lengths[e.index()];
    let mut st = SearchState::new();
    c.bench_function("substrate_dijkstra_map", |b| {
        b.iter(|| {
            black_box(
                csr_dijkstra(
                    &csr,
                    &mut st,
                    NodeId(0),
                    NodeId((csr.node_count() - 1) as u32),
                    km,
                )
                .unwrap(),
            )
        })
    });
    let mut ws = YenWorkspace::new();
    c.bench_function("substrate_yen_k4", |b| {
        b.iter(|| {
            black_box(
                yen_k_shortest_csr(
                    &csr,
                    &mut ws,
                    NodeId(0),
                    NodeId((csr.node_count() / 2) as u32),
                    4,
                    km,
                    None,
                )
                .unwrap(),
            )
        })
    });
    c.bench_function("substrate_stoer_wagner_min_cut", |b| {
        b.iter(|| black_box(intertubes::graph::stoer_wagner_min_cut(&graph, |_| 1.0)))
    });
    let a = intertubes::geo::GeoPoint::new_unchecked(40.71, -74.01);
    let bpt = intertubes::geo::GeoPoint::new_unchecked(34.05, -118.24);
    c.bench_function("substrate_haversine", |b| {
        b.iter(|| black_box(intertubes::geo::haversine_km(&a, &bpt)))
    });
}

/// World generation end to end (the synthetic-substrate cost itself).
fn bench_world(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_generation");
    group.sample_size(10);
    group.bench_function("generate_reference_world", |b| {
        b.iter(|| black_box(intertubes::atlas::World::reference()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_colocation,
    bench_risk_matrix,
    bench_hamming,
    bench_campaign_overlay,
    bench_robustness,
    bench_augmentation,
    bench_latency,
    bench_substrates,
    bench_world,
);
criterion_main!(benches);
