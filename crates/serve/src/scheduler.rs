//! The batch scheduler: bounded queue, admission control, deadline
//! accounting (DESIGN.md §9.5).
//!
//! A workload is served in FIFO **waves** of at most `queue_capacity`
//! queries — the bounded queue. Admission control caps the total number
//! of admitted queries at `admit_max`; everything beyond that position
//! receives a [`Response::Rejected`] instead of being dropped (the
//! backpressure signal). Both decisions are functions of queue *position*
//! only, never of timing, so the response vector is deterministic.
//!
//! Within a wave the schedule is decide–compute–assemble:
//!
//! 1. **decide** (serial): compute each query's snapshot-scoped canonical
//!    key, consult the cache, and deduplicate identical keys within the
//!    wave;
//! 2. **compute** (parallel): answer the unique missing queries via
//!    `par_map`, which preserves input order;
//! 3. **assemble** (serial): fill the response vector in queue order and
//!    populate the cache.
//!
//! Because the engine is pure and the cache is only read/written in the
//! serial phases, responses are byte-identical at any thread count and
//! with the cache on or off. Wall-clock measurements (per-query latency,
//! deadline overruns) feed the stats and obs metrics only — they never
//! influence a response.
//!
//! Every batch runs under a [`ChaosSession`]; [`run_batch`] passes a
//! clean one (the empty plan), whose hooks never fire. Under
//! [`run_batch_chaos`] the wave loop's two serial chaos hooks — cache
//! poisoning and overload bursts — can fire, with a
//! graceful-degradation tier: an overloaded wave is shed
//! **deterministically by queue position** into
//! [`Response::Degraded`] answers (stale-cache-served under the lenient
//! policy), never silently dropped. Chaos decisions only happen in the
//! serial phases, so the chaos determinism contract holds: same plan +
//! seed ⇒ byte-identical responses, ledger, and health trace at any
//! thread count.

use std::collections::HashMap;
use std::time::Instant;

use intertubes_parallel::par_map;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheConfig, ResultCache};
use intertubes_degrade::DegradationPolicy;
use intertubes_faults::FaultPlan;

use crate::chaos::{ChaosReport, ChaosSession, Health};
use crate::engine::QueryEngine;
use crate::query::{key_hash, scoped_key, Query, Response};
use crate::telemetry::{CacheOutcome, QueryFamily, ServeTelemetry};

/// Scheduler knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Wave size — the bounded queue's capacity (≥ 1).
    pub queue_capacity: usize,
    /// Admission limit: queries past this position are rejected.
    pub admit_max: usize,
    /// Per-query latency deadline in µs (0 = no deadline); overruns are
    /// counted, never dropped.
    pub deadline_us: u64,
    /// Result-cache shape.
    pub cache: CacheConfig,
    /// Flight-recorder window (events retained) when telemetry is
    /// attached; see [`crate::telemetry::ServeTelemetry`].
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            admit_max: usize::MAX,
            deadline_us: 0,
            cache: CacheConfig::default(),
            flight_capacity: crate::telemetry::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// What one batch run measured. Latency fields are wall-clock and vary
/// run to run; everything else is deterministic for a given workload and
/// config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Queries submitted.
    pub queries: usize,
    /// Queries admitted past admission control.
    pub admitted: usize,
    /// Queries rejected (backpressure).
    pub rejected: usize,
    /// Admitted queries answered from the cache.
    pub cache_hits: usize,
    /// Admitted queries that missed the cache.
    pub cache_misses: usize,
    /// `hits / (hits + misses)`, 0 when nothing was admitted.
    pub hit_rate: f64,
    /// Median per-query service latency, µs.
    pub p50_us: u64,
    /// 99th-percentile per-query service latency, µs.
    pub p99_us: u64,
    /// Deepest wave actually queued.
    pub max_queue_depth: usize,
    /// Waves processed.
    pub waves: usize,
    /// Admitted queries whose service latency exceeded the deadline.
    pub deadline_overruns: usize,
    /// Queries shed into degraded responses under injected overload.
    pub degraded: usize,
    /// Degraded responses that carried a stale cached answer (lenient
    /// policy only).
    pub stale_served: usize,
    /// Whole-batch wall time, ms.
    pub wall_ms: f64,
}

/// How one admitted wave slot resolves.
enum Slot {
    /// Cache hit: the stored bytes, plus the lookup latency in µs.
    Hit(String, u64),
    /// Computed: index into the wave's unique-compute list.
    Compute(usize),
    /// Shed under injected overload: the degraded response bytes, plus
    /// the (stale-)lookup latency in µs.
    Shed(String, u64),
    /// [`Query::Stats`] answered from the wave-start telemetry snapshot
    /// (serial, never cached, never deduplicated — the answer depends on
    /// serving history, not the snapshot, so caching it would serve stale
    /// counts and break cache-on/off byte identity).
    Stats(String, u64),
}

/// What the telemetry sink needs to know about a slot at assemble time.
struct SlotMeta {
    family: QueryFamily,
    key_hash: u64,
    outcome: CacheOutcome,
}

/// Serves `queries` against `engine`, returning one canonical-JSON
/// response per query (in input order) and the batch stats.
///
/// The cache is caller-owned so it can persist across batches; pass a
/// fresh one for a cold run. The responses are byte-identical at any
/// thread count and for any cache state, enabled or disabled.
pub fn run_batch(
    engine: &QueryEngine,
    queries: &[Query],
    cfg: &ServeConfig,
    cache: &ResultCache,
) -> (Vec<String>, ServeStats) {
    let (responses, stats, _) = serve_batch(engine, queries, cfg, cache, &clean(), None);
    (responses, stats)
}

/// [`run_batch`] with a telemetry sink attached: the count plane, timing
/// plane, and flight recorder observe every wave (DESIGN.md §13).
/// Telemetry observation never changes a response byte — the sink is
/// write-only from the scheduler's serial phases.
pub fn run_batch_telemetry(
    engine: &QueryEngine,
    queries: &[Query],
    cfg: &ServeConfig,
    cache: &ResultCache,
    telemetry: &ServeTelemetry,
) -> (Vec<String>, ServeStats) {
    let (responses, stats, _) = serve_batch(engine, queries, cfg, cache, &clean(), Some(telemetry));
    (responses, stats)
}

/// The session a clean run serves under: the empty plan, lenient.
fn clean() -> ChaosSession {
    ChaosSession::new(FaultPlan::default(), DegradationPolicy::Lenient)
}

/// [`run_batch_chaos`] with a telemetry sink: additionally dumps the
/// flight recorder on injected faults and whenever the health machine
/// leaves `Ready`.
pub fn run_batch_chaos_telemetry(
    engine: &QueryEngine,
    queries: &[Query],
    cfg: &ServeConfig,
    cache: &ResultCache,
    chaos: &ChaosSession,
    telemetry: &ServeTelemetry,
) -> (Vec<String>, ServeStats, ChaosReport) {
    serve_batch(engine, queries, cfg, cache, chaos, Some(telemetry))
}

/// [`run_batch`] under an active chaos session: the wave loop consults
/// the session's overload/poison hooks (serial phases only) and the
/// returned [`ChaosReport`] carries the injection ledger, health trace,
/// and degradation counts — the byte-compared chaos artifact.
pub fn run_batch_chaos(
    engine: &QueryEngine,
    queries: &[Query],
    cfg: &ServeConfig,
    cache: &ResultCache,
    chaos: &ChaosSession,
) -> (Vec<String>, ServeStats, ChaosReport) {
    serve_batch(engine, queries, cfg, cache, chaos, None)
}

/// The shared wave loop behind [`run_batch`] and [`run_batch_chaos`].
fn serve_batch(
    engine: &QueryEngine,
    queries: &[Query],
    cfg: &ServeConfig,
    cache: &ResultCache,
    chaos: &ChaosSession,
    telemetry: Option<&ServeTelemetry>,
) -> (Vec<String>, ServeStats, ChaosReport) {
    let t0 = Instant::now();
    let mut stage = intertubes_obs::stage("serve.schedule");
    stage.items("queries", queries.len());
    let queue_capacity = cfg.queue_capacity.max(1);
    let admitted = queries.len().min(cfg.admit_max);
    let mut responses = vec![String::new(); queries.len()];

    // Admission control: position-based, so rejection is deterministic.
    let rejected_json = Response::Rejected {
        reason: format!("admission limit {} reached", cfg.admit_max),
    }
    .to_canonical_json();
    for slot in responses.iter_mut().skip(admitted) {
        *slot = rejected_json.clone();
    }
    let rejected = queries.len() - admitted;
    intertubes_obs::counter("serve.rejected", rejected as u64);
    if let Some(t) = telemetry {
        t.note_admission(queries.len() as u64, admitted as u64, rejected as u64);
    }

    let lenient = !chaos.policy().is_strict();
    let mut latencies: Vec<u64> = Vec::with_capacity(admitted);
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut deadline_overruns = 0usize;
    let mut max_queue_depth = 0usize;
    let mut waves = 0usize;
    let mut degraded = 0usize;
    let mut stale_served = 0usize;
    // Health state as observed after the previous wave — the flight
    // recorder dumps whenever the machine leaves `Ready`.
    let mut prev_health = Health::Ready;

    let mut wave_start = 0usize;
    while wave_start < admitted {
        let wave_end = (wave_start + queue_capacity).min(admitted);
        let depth = wave_end - wave_start;
        waves += 1;
        max_queue_depth = max_queue_depth.max(depth);
        intertubes_obs::gauge("serve.queue_depth", depth as i64);
        if let Some(t) = telemetry {
            t.note_wave_start(depth as u64);
        }

        // Chaos hooks (serial, before any lookup): poison a cache shard,
        // then decide whether an overload burst sheds this wave's tail.
        // Both are functions of (plan, seed, wave) — never of timing.
        let poisoned = chaos.poison_cache(waves as u64, cache) > 0;
        let shed_from = chaos.overload_burst(waves as u64, depth);
        let wave_injected = poisoned || shed_from.is_some();

        // Phase 1 — decide (serial): cache lookups and in-wave dedup.
        let mut slots: Vec<Slot> = Vec::with_capacity(depth);
        let mut metas: Vec<SlotMeta> = Vec::with_capacity(depth);
        // Unique computations: (canonical key, index of first query).
        let mut unique: Vec<(String, usize)> = Vec::new();
        let mut pending: HashMap<String, usize> = HashMap::new();
        // Stats answers snapshot the count plane **as of wave start**
        // (everything recorded through the previous wave), rendered once
        // per wave — identical for every Stats query in the wave, and
        // independent of the cache mode.
        let mut wave_stats_json: Option<String> = None;
        for qi in wave_start..wave_end {
            let query = &queries[qi];
            let family = QueryFamily::of(query);
            // Cache keys are scoped by the engine's snapshot id so a
            // registry serving several snapshots through one shared cache
            // never aliases identical queries across worlds.
            let key = scoped_key(engine.snapshot_id(), query);
            let khash = key_hash(&key);
            // Graceful-degradation tier: shed by queue position. Never a
            // silent drop — the query gets a Degraded response, with the
            // stale cached answer attached under the lenient policy.
            if let Some(sf) = shed_from {
                if qi - wave_start >= sf {
                    let lookup_t0 = Instant::now();
                    let stale = if lenient { cache.get(&key) } else { None };
                    if stale.is_some() {
                        stale_served += 1;
                        if let Some(t) = telemetry {
                            t.note_stale_served();
                        }
                    }
                    degraded += 1;
                    let json = Response::Degraded {
                        reason: format!("overload burst: wave {waves} shed from position {sf}"),
                        stale,
                    }
                    .to_canonical_json();
                    slots.push(Slot::Shed(json, lookup_t0.elapsed().as_micros() as u64));
                    metas.push(SlotMeta {
                        family,
                        key_hash: khash,
                        outcome: CacheOutcome::Shed,
                    });
                    continue;
                }
            }
            // Stats self-queries bypass the cache *and* dedup: the answer
            // depends on serving history, so caching would serve stale
            // counts and make responses diverge across cache modes.
            if matches!(query, Query::Stats) {
                let lookup_t0 = Instant::now();
                let json = wave_stats_json
                    .get_or_insert_with(|| {
                        let view = telemetry
                            .map(|t| t.stats_view())
                            .unwrap_or_else(|| engine.stats_view());
                        Response::Stats(view).to_canonical_json()
                    })
                    .clone();
                slots.push(Slot::Stats(json, lookup_t0.elapsed().as_micros() as u64));
                metas.push(SlotMeta {
                    family,
                    key_hash: khash,
                    outcome: CacheOutcome::Stats,
                });
                continue;
            }
            let lookup_t0 = Instant::now();
            if let Some(hit) = cache.get(&key) {
                cache_hits += 1;
                slots.push(Slot::Hit(hit, lookup_t0.elapsed().as_micros() as u64));
                metas.push(SlotMeta {
                    family,
                    key_hash: khash,
                    outcome: CacheOutcome::Hit,
                });
                continue;
            }
            cache_misses += 1;
            // Dedup only matters when the cache is on; with it off, every
            // query computes individually (the honest cache-off cost).
            let slot = if cfg.cache.enabled {
                *pending.entry(key.clone()).or_insert_with(|| {
                    unique.push((key, qi));
                    unique.len() - 1
                })
            } else {
                unique.push((key, qi));
                unique.len() - 1
            };
            slots.push(Slot::Compute(slot));
            metas.push(SlotMeta {
                family,
                key_hash: khash,
                outcome: CacheOutcome::Miss,
            });
        }

        // Phase 2 — compute (parallel, order-preserving): answer unique
        // misses. Workers touch neither the cache nor the responses.
        let computed: Vec<(String, u64)> = par_map(&unique, |(_, qi)| {
            let q_t0 = Instant::now();
            let json = engine.answer(&queries[*qi]).to_canonical_json();
            (json, q_t0.elapsed().as_micros() as u64)
        });

        // Phase 3 — assemble (serial): fill responses in queue order,
        // populate the cache, account latencies and telemetry.
        for (offset, (slot, meta)) in slots.into_iter().zip(metas).enumerate() {
            let qi = wave_start + offset;
            let us = match slot {
                Slot::Hit(json, us) => {
                    responses[qi] = json;
                    us
                }
                Slot::Compute(c) => {
                    let (json, us) = &computed[c];
                    responses[qi] = json.clone();
                    *us
                }
                Slot::Shed(json, us) | Slot::Stats(json, us) => {
                    responses[qi] = json;
                    us
                }
            };
            latencies.push(us);
            intertubes_obs::histogram("serve.latency_us", us);
            if cfg.deadline_us > 0 && us > cfg.deadline_us {
                deadline_overruns += 1;
                intertubes_obs::counter("serve.deadline_overruns", 1);
            }
            if let Some(t) = telemetry {
                t.record(
                    waves as u64,
                    meta.family,
                    meta.key_hash,
                    meta.outcome,
                    &responses[qi],
                    us,
                    cfg.deadline_us,
                );
            }
        }
        for ((key, _), (json, _)) in unique.iter().zip(&computed) {
            cache.insert(key, json);
        }
        chaos.end_wave(waves as u64, wave_injected);
        if let Some(t) = telemetry {
            t.note_wave_complete();
            // Flight-recorder triggers (serial, after the wave's events
            // are recorded): an injected fault, and any departure from
            // `Ready` — both functions of (plan, seed, wave), never of
            // timing.
            if wave_injected {
                t.dump_flight("fault_injected", waves as u64);
            }
            let health = chaos.health();
            if health != prev_health {
                if health != Health::Ready {
                    t.dump_flight(&format!("health:{}", health.label()), waves as u64);
                }
                prev_health = health;
            }
        }

        wave_start = wave_end;
    }

    intertubes_obs::counter("serve.cache_hits", cache_hits as u64);
    intertubes_obs::counter("serve.cache_misses", cache_misses as u64);
    intertubes_obs::counter("serve.degraded", degraded as u64);
    intertubes_obs::counter("serve.stale_served", stale_served as u64);

    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((q * (latencies.len() - 1) as f64).round() as usize).min(latencies.len() - 1);
        latencies[idx]
    };
    let stats = ServeStats {
        queries: queries.len(),
        admitted,
        rejected,
        cache_hits,
        cache_misses,
        hit_rate: cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        p50_us: quantile(0.5),
        p99_us: quantile(0.99),
        max_queue_depth,
        waves,
        deadline_overruns,
        degraded,
        stale_served,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };

    chaos.drain(waves as u64);
    let mut report = chaos.report();
    report.degraded = degraded;
    report.stale_served = stale_served;
    report.cache_poison_detected = cache.poisoned_detected();
    if let Some(t) = telemetry {
        t.set_health_transitions(report.transitions.len() as u64);
        // The drain capture: the final flight window every run gets,
        // chaotic or clean.
        t.dump_flight("drain", waves as u64);
    }
    stage.items("waves", waves);
    stage.items("admitted", admitted);
    if degraded > 0 {
        stage.degraded();
    }
    drop(stage);
    (responses, stats, report)
}
