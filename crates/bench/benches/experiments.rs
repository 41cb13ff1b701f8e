//! Experiment and ablation timings: one row per reproduced table/figure
//! computation (DESIGN.md §3 maps ids to experiments), then the ablation
//! sweeps for the design choices DESIGN.md calls out — spatial-grid cell
//! size (and grid vs brute force) for the corridor overlap analysis, the
//! geometry-cluster threshold, Yen's k, and the campaign noise parameters.
//!
//! Each row prints the median wall-clock of a few runs ([`time_ms`]). The
//! stages `bench_parallel` records in `BENCH_parallel.json` — the map
//! pipeline, the overlay, the risk matrix + Hamming heat map and the
//! latency study — are not repeated here.
//!
//! Runs only when cargo passes `--bench` (`cargo bench -p
//! intertubes-bench`), so test runs that build bench targets skip even the
//! shared setup.

use std::hint::black_box;

use intertubes::geo::{
    haversine_km, CorridorIndex, CorridorLayer, GeoError, GeoPoint, LocalProjection, OverlapParams,
    Polyline, SegmentGrid,
};
use intertubes::graph::{
    csr_dijkstra, stoer_wagner_min_cut, yen_k_shortest_csr, EdgeId, NodeId, SearchState,
    YenWorkspace,
};
use intertubes::map::{analyze_colocation, build_map, corridor_index, PipelineConfig};
use intertubes::mitigation::{
    augment, heaviest_conduits, robustness_suggestion, AugmentationConfig,
};
use intertubes::parallel::thread_count;
use intertubes::probes::{run_campaign, ProbeConfig};
use intertubes::records::{generate_corpus, CorpusConfig};
use intertubes::risk::{conduits_shared_by_at_least, isp_sharing_ranking, traffic_risk};
use intertubes_bench::{study, time_ms};

/// Runs per row: cheap rows get more, whole-pipeline rows fewer.
const RUNS: usize = 20;
const HEAVY_RUNS: usize = 10;

fn row<R>(name: &str, runs: usize, run: impl FnMut() -> R) {
    let ms = time_ms(runs, thread_count(), run);
    println!("bench: {name:<50} {ms:>12.3} ms (median of {runs})");
}

fn main() -> Result<(), GeoError> {
    if !std::env::args().any(|a| a == "--bench") {
        return Ok(());
    }
    experiments()?;
    ablations()
}

fn experiments() -> Result<(), GeoError> {
    let s = study();

    // fig4/fig5: corridor co-location analysis (§3).
    let idx = corridor_index(&s.world.roads, &s.world.rails, &s.world.pipelines, 5.0)?;
    let params = OverlapParams {
        buffer_km: 5.0,
        sample_step_km: 2.0,
    };
    row("fig4_colocation", RUNS, || {
        analyze_colocation(&s.built.map, &idx, &params, 10)
    });

    // fig6/fig7: §4.2 sharing metrics.
    let rm = s.risk_matrix();
    row("fig6_sharing_metrics", RUNS, || {
        (conduits_shared_by_at_least(&rm), isp_sharing_ranking(&rm))
    });

    // fig9 + tab2/3/4: the traceroute campaign, swept over its size, and
    // the traffic-weighted risk CDF (§4.3).
    for probes in [5_000usize, 20_000] {
        let cfg = ProbeConfig {
            probes,
            ..ProbeConfig::default()
        };
        row(
            &format!("fig9_tab234_campaign/run_campaign_{probes}"),
            HEAVY_RUNS,
            || run_campaign(&s.world, &cfg),
        );
    }
    let overlay = s.overlay(Some(20_000));
    row(
        "fig9_tab234_campaign/fig9_traffic_risk_cdf",
        HEAVY_RUNS,
        || traffic_risk(&s.built.map, &overlay),
    );

    // fig10 + tab5: robustness suggestion over the 12 heavy links (§5.1).
    let heavy = heaviest_conduits(&rm, 12);
    row("fig10_tab5_robustness_suggestion", RUNS, || {
        robustness_suggestion(&s.built.map, &rm, &heavy)
    });

    // fig11: greedy conduit augmentation (§5.2).
    let cfg = AugmentationConfig::default();
    row("fig11_augmentation_k10", RUNS, || {
        augment(&s.built.map, &rm, &s.world.cities, &s.world.roads, &cfg)
    });

    // Substrate microbenches: the primitives everything above leans on.
    let graph = s.built.map.graph();
    let csr = s.built.map.csr();
    let lengths = s.built.map.conduit_km();
    let km = |e: EdgeId| lengths[e.index()];
    let (first, last, middle) = (
        NodeId(0),
        NodeId((csr.node_count() - 1) as u32),
        NodeId((csr.node_count() / 2) as u32),
    );
    let mut st = SearchState::new();
    row("substrate_dijkstra_map", RUNS, || {
        csr_dijkstra(&csr, &mut st, first, last, km, None).ok()
    });
    let mut ws = YenWorkspace::new();
    row("substrate_yen_k4", RUNS, || {
        yen_k_shortest_csr(&csr, &mut ws, first, middle, 4, km, None).ok()
    });
    row("substrate_stoer_wagner_min_cut", RUNS, || {
        stoer_wagner_min_cut(&graph, |_| 1.0)
    });
    let a = GeoPoint::new_unchecked(40.71, -74.01);
    let b = GeoPoint::new_unchecked(34.05, -118.24);
    row("substrate_haversine_x10000", RUNS, || {
        (0..10_000)
            .map(|_| haversine_km(black_box(&a), &b))
            .sum::<f64>()
    });

    // World generation end to end (the synthetic-substrate cost itself).
    row(
        "world_generation/generate_reference_world",
        HEAVY_RUNS,
        intertubes::atlas::World::reference,
    );
    Ok(())
}

fn ablations() -> Result<(), GeoError> {
    let s = study();

    // Grid cell size for the co-location query load.
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
    for cell_km in [2.0, 5.0, 15.0, 40.0] {
        let mut idx = CorridorIndex::new(cell_km)?;
        for (tag, g) in s.world.roads.geometries() {
            idx.add_corridor(CorridorLayer::Road, g, tag);
        }
        row(
            &format!("ablation_grid_cell_km/cell_{cell_km}km"),
            HEAVY_RUNS,
            || {
                let colocations = routes.iter().map(|r| idx.colocation(r, &params).ok());
                colocations.collect::<Vec<_>>()
            },
        );
    }

    // Grid vs brute force for nearest-segment queries.
    let mut grid = SegmentGrid::new(5.0)?;
    let mut segments: Vec<(GeoPoint, GeoPoint)> = Vec::new();
    for (tag, g) in s.world.roads.geometries() {
        grid.insert_polyline(g, tag);
        segments.extend(g.segments().map(|(a, b)| (*a, *b)));
    }
    let queries: Vec<GeoPoint> = s.world.cities.iter().take(64).map(|c| c.location).collect();
    row(
        "ablation_grid_vs_brute/grid_nearest_within_10km",
        RUNS,
        || {
            let nearest = queries.iter().map(|q| grid.nearest_within(q, 10.0));
            nearest.collect::<Vec<_>>()
        },
    );
    row(
        "ablation_grid_vs_brute/brute_nearest_within_10km",
        HEAVY_RUNS,
        || {
            let nearest = |q: &GeoPoint| {
                let proj = LocalProjection::new(*q);
                let distances = segments
                    .iter()
                    .map(|(a, b)| proj.point_segment_distance_km(q, a, b));
                distances.fold(f64::INFINITY, f64::min)
            };
            queries.iter().map(nearest).sum::<f64>()
        },
    );

    // Cluster threshold: construction cost at different merge thresholds.
    let published = s.world.publish_maps();
    let corpus = generate_corpus(&s.world, &CorpusConfig::default());
    for cluster_km in [0.5, 2.5, 10.0] {
        let cfg = PipelineConfig {
            cluster_km,
            ..PipelineConfig::default()
        };
        row(
            &format!("ablation_cluster_km/cluster_{cluster_km}km"),
            HEAVY_RUNS,
            || {
                let w = &s.world;
                build_map(&published, &corpus, &w.cities, &w.roads, &w.rails, &cfg)
            },
        );
    }

    // Yen k: the cost of widening the "existing paths" sample.
    let csr = s.built.map.csr();
    let lengths = s.built.map.conduit_km();
    let km = |e: EdgeId| lengths[e.index()];
    let (src, dst) = (NodeId(0), NodeId((csr.node_count() / 2) as u32));
    let mut ws = YenWorkspace::new();
    for k in [1usize, 2, 4, 8] {
        row(&format!("ablation_yen_k/k_{k}"), RUNS, || {
            yen_k_shortest_csr(&csr, &mut ws, src, dst, k, km, None).ok()
        });
    }

    // Campaign noise: MPLS and geolocation noise barely change the
    // simulation cost; retries for unroutable combinations dominate.
    let default = ProbeConfig::default();
    let (mpls, geo) = (default.mpls_rate, default.geolocation_failure_rate);
    for (name, mpls_rate, geolocation_failure_rate) in [
        ("clean", 0.0, 0.0),
        ("default", mpls, geo),
        ("noisy", 0.6, 0.4),
    ] {
        let cfg = ProbeConfig {
            probes: 5_000,
            mpls_rate,
            geolocation_failure_rate,
            ..ProbeConfig::default()
        };
        row(
            &format!("ablation_campaign_noise/{name}"),
            HEAVY_RUNS,
            || run_campaign(&s.world, &cfg),
        );
    }
    Ok(())
}
