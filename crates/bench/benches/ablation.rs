//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * spatial-grid cell size (and grid vs brute force) for the corridor
//!   overlap analysis,
//! * geometry-cluster threshold for conduit identification,
//! * Yen's k for the "average existing path" series,
//! * campaign noise parameters' cost impact.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use intertubes::geo::{
    CorridorIndex, CorridorLayer, GeoPoint, LocalProjection, OverlapParams, Polyline, SegmentGrid,
};
use intertubes::graph::{yen_k_shortest_csr, EdgeId, NodeId, YenWorkspace};
use intertubes::map::{build_map, PipelineConfig};
use intertubes::probes::{run_campaign, ProbeConfig};
use intertubes::records::{generate_corpus, CorpusConfig};
use intertubes_bench::study;

/// Grid cell-size ablation for the co-location query load.
fn bench_grid_cell_size(c: &mut Criterion) {
    let s = study();
    let mut group = c.benchmark_group("ablation_grid_cell_km");
    group.sample_size(10);
    for cell_km in [2.0, 5.0, 15.0, 40.0] {
        let mut idx = CorridorIndex::new(cell_km).unwrap();
        for (tag, g) in s.world.roads.geometries() {
            idx.add_corridor(CorridorLayer::Road, g, tag);
        }
        let params = OverlapParams {
            buffer_km: 5.0,
            sample_step_km: 2.0,
        };
        let routes: Vec<&Polyline> = s
            .built
            .map
            .conduits
            .iter()
            .take(60)
            .map(|c| &c.geometry)
            .collect();
        group.bench_function(format!("cell_{cell_km}km"), |b| {
            b.iter(|| {
                for r in &routes {
                    black_box(idx.colocation(r, &params).unwrap());
                }
            })
        });
    }
    group.finish();
}

/// Grid vs brute force for nearest-segment queries.
fn bench_grid_vs_brute(c: &mut Criterion) {
    let s = study();
    // Index every road segment once.
    let mut grid = SegmentGrid::new(5.0).unwrap();
    let mut segments: Vec<(GeoPoint, GeoPoint)> = Vec::new();
    for (tag, g) in s.world.roads.geometries() {
        grid.insert_polyline(g, tag);
        for (a, b) in g.segments() {
            segments.push((*a, *b));
        }
    }
    let queries: Vec<GeoPoint> = s
        .world
        .cities
        .iter()
        .take(64)
        .map(|city| city.location)
        .collect();
    let mut group = c.benchmark_group("ablation_grid_vs_brute");
    group.bench_function("grid_nearest_within_10km", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(grid.nearest_within(q, 10.0));
            }
        })
    });
    group.sample_size(10);
    group.bench_function("brute_nearest_within_10km", |b| {
        b.iter(|| {
            for q in &queries {
                let proj = LocalProjection::new(*q);
                let best = segments
                    .iter()
                    .map(|(a, bseg)| proj.point_segment_distance_km(q, a, bseg))
                    .fold(f64::INFINITY, f64::min);
                black_box(best);
            }
        })
    });
    group.finish();
}

/// Cluster-threshold ablation: construction cost and resulting conduit
/// count at different merge thresholds.
fn bench_cluster_threshold(c: &mut Criterion) {
    let s = study();
    let published = s.world.publish_maps();
    let corpus = generate_corpus(&s.world, &CorpusConfig::default());
    let mut group = c.benchmark_group("ablation_cluster_km");
    group.sample_size(10);
    for cluster_km in [0.5, 2.5, 10.0] {
        group.bench_function(format!("cluster_{cluster_km}km"), |b| {
            let cfg = PipelineConfig {
                cluster_km,
                ..PipelineConfig::default()
            };
            b.iter(|| {
                black_box(build_map(
                    &published,
                    &corpus,
                    &s.world.cities,
                    &s.world.roads,
                    &s.world.rails,
                    &cfg,
                ))
            })
        });
    }
    group.finish();
}

/// Yen k ablation: the cost of widening the "existing paths" sample.
fn bench_yen_k(c: &mut Criterion) {
    let s = study();
    let csr = s.built.map.graph().to_csr();
    let lengths: Vec<f64> = s.built.map.conduits.iter().map(|c| c.geometry.length_km()).collect();
    let km = |e: EdgeId| lengths[e.index()];
    let src = NodeId(0);
    let dst = NodeId((csr.node_count() / 2) as u32);
    let mut ws = YenWorkspace::new();
    let mut group = c.benchmark_group("ablation_yen_k");
    for k in [1usize, 2, 4, 8] {
        group.bench_function(format!("k_{k}"), |b| {
            b.iter(|| {
                black_box(yen_k_shortest_csr(&csr, &mut ws, src, dst, k, km, None).unwrap())
            })
        });
    }
    group.finish();
}

/// Campaign noise ablation: MPLS and geolocation noise barely change the
/// simulation cost; retries for unroutable combinations dominate.
fn bench_campaign_noise(c: &mut Criterion) {
    let s = study();
    let mut group = c.benchmark_group("ablation_campaign_noise");
    group.sample_size(10);
    for (name, cfg) in [
        (
            "clean",
            ProbeConfig {
                probes: 5_000,
                mpls_rate: 0.0,
                geolocation_failure_rate: 0.0,
                ..ProbeConfig::default()
            },
        ),
        (
            "default",
            ProbeConfig {
                probes: 5_000,
                ..ProbeConfig::default()
            },
        ),
        (
            "noisy",
            ProbeConfig {
                probes: 5_000,
                mpls_rate: 0.6,
                geolocation_failure_rate: 0.4,
                ..ProbeConfig::default()
            },
        ),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(run_campaign(&s.world, &cfg))));
    }
    group.finish();
}

criterion_group!(
    ablation,
    bench_grid_cell_size,
    bench_grid_vs_brute,
    bench_cluster_threshold,
    bench_yen_k,
    bench_campaign_noise,
);
criterion_main!(ablation);
