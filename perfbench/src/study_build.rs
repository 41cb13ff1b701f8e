//! `study-build`: the batch job. Each operation rebuilds the study for a
//! distinct world seed and encodes its serving snapshot, as the CLI
//! `snapshot` command does: `Study::with_seed` → `Study::snapshot` →
//! `to_bytes`. A closed loop of one caller; the first build is warm-up.
//!
//! The traced run pairs every untraced build with the same build split
//! into its layers, calling each layer's public function from here, and
//! checks that both produce the same snapshot bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use intertubes::atlas::{World, MAPPED_ISPS};
use intertubes::map::build_map_checked;
use intertubes::mitigation::latency_study;
use intertubes::probes::{overlay_campaign, run_campaign};
use intertubes::records::{generate_corpus, sanitize_corpus};
use intertubes::risk::{hamming_heatmap, RiskMatrix};
use intertubes::serve::{build_landmarks, splitmix64, PathIndex, StudySnapshot};
use intertubes::{Study, StudyConfig};

use crate::common::{nproc, peak_rss_mb, steal_pct, steal_ticks, PROBES};
use crate::stats::{median, ns_since, Layers};
use crate::{Args, Outcome};

/// Timed builds at the least, however long they take.
const MIN_OPS: usize = 3;

/// World seeds drawn per run (warm-up included); more than fit in a run.
const SEEDS: usize = 64;

/// Repetitions of the set-up measurement.
const SETUP_REPS: usize = 101;

/// The study-build layers, in pipeline order.
const LAYERS: [&str; 9] = [
    "atlas.world_ns",
    "records.corpus_ns",
    "mapbuilder.build_ns",
    "risk.matrix_ns",
    "probes.campaign_ns",
    "probes.overlay_ns",
    "mitigation.latency_ns",
    "serve.index_ns",
    "serve.encode_ns",
];

/// Distinct world seeds for this run, drawn from the workload seed.
fn world_seeds(seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(SEEDS);
    while out.len() < SEEDS {
        let s = 1 + splitmix64(&mut state) % 1_000_000;
        if seen.insert(s) {
            out.push(s);
        }
    }
    out
}

/// One untraced operation; returns the snapshot bytes and its seconds.
fn build(seed: u64) -> Result<(Vec<u8>, f64), String> {
    let t0 = Instant::now();
    let study = Study::with_seed(seed);
    let snap = study.snapshot(Some(PROBES));
    let bytes = snap.to_bytes().map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    drop((snap, study));
    Ok((bytes, secs))
}

/// The same operation split into layers, timing each public call.
/// Mirrors `Study::with_seed(seed)` followed by `Study::snapshot`.
fn build_traced(seed: u64, layers: &mut Layers) -> Result<(Vec<u8>, f64), String> {
    let t0 = Instant::now();
    let mut config = StudyConfig::default();
    config.world.seed = seed;
    let policy = config.policy;

    let t = Instant::now();
    let world = World::generate(config.world);
    let published = world.publish_maps();
    let mut report = world.roads.validate(policy).map_err(|e| e.to_string())?;
    layers.add("atlas.world_ns", ns_since(t));

    let t = Instant::now();
    let corpus = generate_corpus(&world, &config.corpus);
    let (corpus, corpus_report) = sanitize_corpus(&corpus, policy).map_err(|e| e.to_string())?;
    layers.add("records.corpus_ns", ns_since(t));
    report.merge(corpus_report);

    let t = Instant::now();
    let (built, map_report) = build_map_checked(
        &published,
        &corpus,
        &world.cities,
        &world.roads,
        &world.rails,
        &config.pipeline,
        policy,
    )
    .map_err(|e| e.to_string())?;
    layers.add("mapbuilder.build_ns", ns_since(t));
    report.merge(map_report);
    black_box(&report);
    let map = built.map;

    let t = Instant::now();
    let isps: Vec<String> = world
        .roster
        .iter()
        .take(MAPPED_ISPS)
        .map(|p| p.name.clone())
        .collect();
    let risk = RiskMatrix::build(&map, &isps);
    let hamming = hamming_heatmap(&risk);
    layers.add("risk.matrix_ns", ns_since(t));

    let t = Instant::now();
    let mut probe_cfg = config.probes;
    probe_cfg.probes = PROBES;
    let campaign = run_campaign(&world, &probe_cfg);
    layers.add("probes.campaign_ns", ns_since(t));

    let t = Instant::now();
    let overlay = overlay_campaign(&world, &map, &campaign);
    layers.add("probes.overlay_ns", ns_since(t));
    layers.add(
        "probes.overlay_yield",
        overlay.overlaid as f64 / campaign.traces.len().max(1) as f64,
    );

    let t = Instant::now();
    let latency = latency_study(
        &map,
        &world.cities,
        &world.roads,
        &world.rails,
        &config.latency,
    );
    let row_us_by_pair: BTreeMap<(String, String), f64> = latency
        .pairs
        .iter()
        .map(|p| ((p.a.clone(), p.b.clone()), p.row_us))
        .collect();
    layers.add("mitigation.latency_ns", ns_since(t));

    let t = Instant::now();
    let landmarks = build_landmarks(&map);
    let paths = PathIndex::build(
        &map,
        config.latency.k_paths,
        config.latency.detour_cap,
        &row_us_by_pair,
        landmarks.as_ref(),
    );
    layers.add("serve.index_ns", ns_since(t));

    let t = Instant::now();
    let snap = StudySnapshot {
        config: serde_json::to_value(config).map_err(|e| e.to_string())?,
        map,
        isps,
        risk,
        hamming,
        overlay,
        paths,
        landmarks,
    };
    let bytes = snap.to_bytes().map_err(|e| e.to_string())?;
    layers.add("serve.encode_ns", ns_since(t));
    layers.add("serve.snapshot_bytes", bytes.len() as f64);
    let secs = t0.elapsed().as_secs_f64();
    drop((snap, campaign, corpus, published, world));
    Ok((bytes, secs))
}

/// Snapshot bytes must decode and re-encode to themselves.
fn round_trips(bytes: &[u8]) -> bool {
    StudySnapshot::from_bytes(bytes)
        .ok()
        .and_then(|s| s.to_bytes().ok())
        .is_some_and(|again| again == bytes)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up is the work before the first build: resolving the worker
    // count the run is pinned to and drawing the world seeds.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut seeds = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        black_box(nproc());
        seeds = world_seeds(black_box(args.seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup).unwrap_or(0.0);

    let steal0 = steal_ticks();
    let start = Instant::now();
    let mut correct = true;
    let mut attempted = 1u64;
    let (warm, _) = build(seeds[0])?;
    correct &= round_trips(&warm);
    drop(warm);

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layer_sums = Vec::new();
    let mut layers = Layers::default();
    let mut snapshot_bytes = 0usize;
    let mut spent = 0.0;
    for &seed in &seeds[1..] {
        if spent >= args.seconds && untraced.len() >= MIN_OPS {
            break;
        }
        attempted += 1;
        let (bytes, secs) = build(seed)?;
        spent += secs;
        untraced.push(secs);
        snapshot_bytes = bytes.len();
        correct &= round_trips(&bytes);
        if args.trace {
            let mut one = Layers::default();
            let (traced_bytes, traced_secs) = build_traced(seed, &mut one)?;
            one.end_op();
            spent += traced_secs;
            traced.push(traced_secs);
            layer_sums.push(LAYERS.iter().map(|l| one.mean(l)).sum::<f64>() / 1e9);
            layers.merge(&one);
            correct &= traced_bytes == bytes;
        }
    }
    let rss_mb = peak_rss_mb();
    let steal = steal_pct(steal0, start.elapsed().as_secs_f64());
    let latency_s = median(&untraced).unwrap_or(0.0);

    let mut metrics = BTreeMap::new();
    if args.trace {
        for name in LAYERS
            .iter()
            .chain(&["probes.overlay_yield", "serve.snapshot_bytes"])
        {
            metrics.insert(*name, layers.mean(name));
        }
        let traced_s = median(&traced).unwrap_or(0.0);
        metrics.insert(
            "study.layer_sum_ratio",
            median(&layer_sums).unwrap_or(0.0) / latency_s,
        );
        metrics.insert("trace.overhead_pct", (traced_s / latency_s - 1.0) * 100.0);
    } else {
        metrics.insert("setup_s", setup_s);
        metrics.insert("latency_us", latency_s * 1e6);
        metrics.insert("rss_mb", rss_mb);
    }
    let detail = serde_json::json!({
        "operation": "Study::with_seed -> Study::snapshot -> to_bytes",
        "loop": "closed, 1 caller",
        "probes": PROBES,
        "connections": 0,
        "loopback": false,
        "setup_reps": SETUP_REPS,
        "warmup_ops": 1,
        "timed_ops": untraced.len(),
        "ops_per_s": untraced.len() as f64 / untraced.iter().sum::<f64>(),
        "traced_ops": traced.len(),
        "world_seeds": seeds[..=untraced.len()].to_vec(),
        "build_s": untraced.clone(),
        "serve.snapshot_bytes": snapshot_bytes,
        "tail": "omitted: fewer than 100 builds per run",
        "host_steal_pct": steal,
    });
    Ok(Outcome {
        correct,
        attempted,
        failed: 0,
        metrics,
        detail,
    })
}
