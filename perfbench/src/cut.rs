//! `cut-local`: interactive conduit-cut what-ifs, in process. One caller
//! in a closed loop sends `Query::CutImpact` over 1–3 of the most-shared
//! conduits, each cut set used once, each as a 1-query `run_batch` with
//! one persistent result cache: every request misses, computes and is
//! inserted (evicting once the cache is full). No transport runs.
//!
//! The traced run times, beside each batch (alternately after and before
//! it), `QueryEngine::answer`, `to_canonical_json` and `what_if_cut` for
//! the same query from here.
//! The live filtered re-searches are what the answer leaves over after the
//! what-if; the scheduler is what the batch leaves over after answering
//! and printing.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use intertubes::map::MapConduitId;
use intertubes::mitigation::what_if_cut;
use intertubes::serve::{
    run_batch, splitmix64, Query, QueryEngine, Response, ResultCache, ServeConfig, StudySnapshot,
};

use crate::common::{
    is_failure_reply, peak_rss_mb, repeated_setup, snapshot_from_child, steal_pct, steal_ticks,
    tail_detail, Clock, Phase, PhaseTimes, PROBES, SETUP_REPS,
};
use crate::stats::{median, ns_since, residual, Layers};
use crate::{Args, Outcome};

/// Untimed warm-up: the first what-ifs.
const WARMUP: Duration = Duration::from_secs(1);

/// Cut sets are drawn from this many most-shared conduits (at most 256:
/// a set's pool positions pack into one byte each).
const POOL: usize = 256;

/// Cut sets never repeat within a run, so every request misses the cache.
struct CutDraws {
    pool: Vec<u32>,
    state: u64,
    /// Sets drawn so far, one bitmap per set size, indexed by the set's
    /// sorted pool positions read as base-`POOL` digits. Fixed size, so
    /// the run's peak memory does not depend on how many requests it sent.
    seen: [Vec<u64>; 3],
}

impl CutDraws {
    fn new(snap: &StudySnapshot, seed: u64) -> CutDraws {
        let shared = &snap.risk.shared;
        let mut pool: Vec<u32> = (0..shared.len() as u32).collect();
        // The §4.2 ranking: share count descending, id ascending.
        pool.sort_by(|&x, &y| {
            shared[y as usize]
                .cmp(&shared[x as usize])
                .then_with(|| x.cmp(&y))
        });
        pool.truncate(POOL);
        CutDraws {
            pool,
            state: seed,
            seen: [1, 2, 3].map(|size| vec![0u64; POOL.pow(size) / 64]),
        }
    }

    fn draw(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    fn next_query(&mut self) -> Query {
        loop {
            let size = (1 + (self.draw() % 3) as usize).min(self.pool.len());
            let mut picks: Vec<usize> = Vec::with_capacity(size);
            while picks.len() < size {
                let pick = (self.draw() % self.pool.len() as u64) as usize;
                if !picks.contains(&pick) {
                    picks.push(pick);
                }
            }
            picks.sort_unstable();
            let key = picks.iter().fold(0, |k, &p| k * POOL + p);
            let (word, bit) = (key / 64, 1u64 << (key % 64));
            let seen = &mut self.seen[size - 1];
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                let conduits = picks.iter().map(|&p| self.pool[p]).collect();
                return Query::CutImpact { conduits };
            }
        }
    }
}

/// Times the query's layers outside the batch (traced phase only) and
/// returns the direct answer's canonical JSON.
fn trace_layers(engine: &QueryEngine, query: &Query, layers: &mut Layers) -> String {
    let t = Instant::now();
    let response = engine.answer(query);
    layers.add("serve.answer_ns", ns_since(t));
    let t = Instant::now();
    let json = response.to_canonical_json();
    layers.add("serve.json_ns", ns_since(t));
    if let (Query::CutImpact { conduits }, Response::CutImpact(view)) = (query, &response) {
        let snap = engine.snapshot();
        let ids: Vec<MapConduitId> = conduits.iter().map(|&c| MapConduitId(c)).collect();
        let t = Instant::now();
        let report = what_if_cut(&snap.map, &snap.isps, &ids);
        layers.add("mitigation.whatif_ns", ns_since(t));
        std::hint::black_box(report);
        layers.add("serve.pairs_researched", view.pair_deltas.len() as f64);
    }
    json
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bytes = snapshot_from_child()?;

    // Set-up: load and build the engine.
    let mut setup_layers = Layers::default();
    let (setup_s, engine) = repeated_setup(
        || {
            let t = Instant::now();
            let snap = StudySnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
            setup_layers.add("serve.load_ns", ns_since(t));
            let t = Instant::now();
            let engine = QueryEngine::new(snap);
            setup_layers.add("serve.engine_ns", ns_since(t));
            setup_layers.end_op();
            Ok(engine)
        },
        drop,
    )?;

    let mut draws = CutDraws::new(engine.snapshot(), args.seed);
    let cfg = ServeConfig::default();
    let cache = ResultCache::new(cfg.cache);
    let mut layers = Layers::default();
    let mut times = PhaseTimes::default();
    let (mut attempted, mut timed, mut failed) = (0u64, 0u64, 0u64);
    let (mut mismatches, mut anomalies) = (0u64, 0u64);
    let steal0 = steal_ticks();
    let start = Instant::now();
    let clock = Clock::start(WARMUP, args.seconds, args.trace);
    loop {
        let query = draws.next_query();
        let Some(phase) = clock.phase(Instant::now()) else {
            break;
        };
        // Every other traced request times its layers before the batch
        // instead of after, so neither side always finds the caches warm.
        let traced = phase == Phase::Traced;
        let direct =
            (traced && layers.ops() % 2 == 1).then(|| trace_layers(&engine, &query, &mut layers));
        let t0 = Instant::now();
        let (replies, stats) = run_batch(&engine, std::slice::from_ref(&query), &cfg, &cache);
        let ns = ns_since(t0);
        let reply = replies.into_iter().next().unwrap_or_default();
        attempted += 1;
        if phase != Phase::Warmup {
            timed += 1;
        }
        // Output check, untimed: the reply must equal the engine's direct
        // answer, and the never-repeated query must have missed the cache.
        let direct = match direct {
            Some(json) => json,
            None if traced => trace_layers(&engine, &query, &mut layers),
            None => engine.answer(&query).to_canonical_json(),
        };
        if traced {
            layers.add("serve.batch_ns", ns);
            layers.end_op();
        }
        if is_failure_reply(&reply) {
            failed += 1;
        } else {
            times.push(phase, ns);
        }
        mismatches += u64::from(direct != reply);
        anomalies += u64::from(stats.cache_misses != 1);
    }
    let rss_mb = peak_rss_mb();
    let steal = steal_pct(steal0, start.elapsed().as_secs_f64());
    let evictions = cache.stats().evictions();
    let correct = mismatches == 0 && anomalies == 0;

    let untraced = times.us(Phase::Untraced);
    let latency_us = median(&untraced).unwrap_or(0.0);
    let mut metrics = BTreeMap::new();
    if args.trace {
        for name in [
            "serve.batch_ns",
            "serve.answer_ns",
            "serve.json_ns",
            "mitigation.whatif_ns",
            "serve.pairs_researched",
        ] {
            metrics.insert(name, layers.mean(name));
        }
        metrics.insert(
            "graph.research_ns",
            residual(
                layers.mean("serve.answer_ns"),
                &[layers.mean("mitigation.whatif_ns")],
            ),
        );
        metrics.insert(
            "serve.sched_ns",
            residual(
                layers.mean("serve.batch_ns"),
                &[layers.mean("serve.answer_ns"), layers.mean("serve.json_ns")],
            ),
        );
        metrics.insert("serve.cache_evictions", evictions as f64);
        for name in ["serve.load_ns", "serve.engine_ns"] {
            metrics.insert(name, setup_layers.mean(name));
        }
        metrics.insert("serve.snapshot_bytes", bytes.len() as f64);
        let traced_us = median(&times.us(Phase::Traced)).unwrap_or(0.0);
        metrics.insert("trace.overhead_pct", (traced_us / latency_us - 1.0) * 100.0);
    } else {
        metrics.insert("setup_s", setup_s);
        metrics.insert("latency_us", latency_us);
        metrics.insert("rss_mb", rss_mb);
    }
    let detail = serde_json::json!({
        "operation": "one 1-query run_batch of a CutImpact what-if",
        "loop": "closed, 1 caller",
        "connections": 0,
        "loopback": false,
        "cache": true,
        "cut_pool": draws.pool.len(),
        "probes": PROBES,
        "serve.snapshot_bytes": bytes.len(),
        "setup_reps": SETUP_REPS,
        "warmup_ops": attempted - timed,
        "timed_ops": timed,
        // A closed loop of one: its timed wall clock is the sum of its
        // operations (the output checks between them are not timed).
        "ops_per_s": untraced.len() as f64 / (untraced.iter().sum::<f64>() / 1e6),
        "untraced_ops": untraced.len(),
        "tail": tail_detail(&untraced),
        "mismatches": mismatches,
        "cache_anomalies": anomalies,
        "cache_evictions": evictions,
        "host_steal_pct": steal,
    });
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        detail,
    })
}
