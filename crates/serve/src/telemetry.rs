//! The serving telemetry plane (DESIGN.md §13).
//!
//! Telemetry is split into two strictly separated planes:
//!
//! * the **count plane** — deterministic `u64` aggregates (queries per
//!   family, admission accept/reject, waves, degraded/stale responses,
//!   health transitions, cache hit/miss/eviction/poison). Every counter
//!   is bumped from the scheduler's **serial** phases only, so for a
//!   fixed workload the plane is byte-identical at any thread count.
//!   [`CountPlane::merge`] is associative and commutative, extending the
//!   obs metric algebra (and the serial==parallel contract) to serving
//!   aggregates.
//! * the **timing plane** — wall-clock-derived distributions (per-family
//!   latency histograms with interpolated p50/p95/p99, wave queue depth,
//!   deadline slack). Timing varies run to run by nature, so it is
//!   **excluded from every canonical digest** the same way
//!   [`intertubes_obs::canonicalize`] strips `wall_ms` from manifests:
//!   [`canonicalize_stats`] removes the whole plane (and every other
//!   timing- or cache-mode-dependent key) before any byte comparison.
//!
//! A bounded **flight recorder** rides alongside: a fixed-capacity
//! [`Ring`] of the last N query events (family, canonical-key hash, cache
//! outcome, wave, response kind, duration bucket). The scheduler dumps
//! the ring whenever the health machine leaves `Ready`, on chaos-injected
//! faults, and at drain; dumps render as canonical JSONL for the gates.
//!
//! Cache-mode caveat: `cache_hits`/`cache_misses`/`stale_served` (and the
//! per-event cache `outcome`) are deterministic *within* one cache mode
//! but legitimately differ between cache on and cache off — so they are
//! part of the full stats document yet stripped from its canonical form,
//! which must be byte-identical across **both** thread counts and cache
//! modes.

use std::collections::BTreeMap;
use std::sync::Mutex;

use intertubes_obs::{Histogram, Ring};
use serde_json::{Map, Number, Value};

use crate::cache::ResultCache;
use crate::query::{Query, StatsView};

/// Schema tag of the stats document (`--stats-out`, `Query::Stats`).
pub const STATS_SCHEMA: &str = "intertubes-stats/v1";

/// Default flight-recorder window.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Retained flight dumps before the recorder starts dropping new ones
/// (bounded like the ring itself — a long chaos run cannot grow without
/// limit).
pub const MAX_FLIGHT_DUMPS: usize = 64;

/// Keys removed by [`canonicalize_stats`]: the entire timing plane plus
/// every count that depends on the cache mode rather than the workload.
pub const NONCANONICAL_STATS_KEYS: [&str; 8] = [
    "timing",
    "cache",
    "cache_hits",
    "cache_misses",
    "stale_served",
    "hit_rate",
    "outcome",
    "duration_bucket",
];

/// The query families the count and timing planes key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryFamily {
    /// [`Query::IspRisk`].
    IspRisk,
    /// [`Query::Similarity`].
    Similarity,
    /// [`Query::Latency`].
    Latency,
    /// [`Query::TopShared`].
    TopShared,
    /// [`Query::CutImpact`].
    CutImpact,
    /// [`Query::Ensemble`].
    Ensemble,
    /// [`Query::Stats`].
    Stats,
}

impl QueryFamily {
    /// Every family, in label order.
    pub const ALL: [QueryFamily; 7] = [
        QueryFamily::CutImpact,
        QueryFamily::Ensemble,
        QueryFamily::IspRisk,
        QueryFamily::Latency,
        QueryFamily::Similarity,
        QueryFamily::Stats,
        QueryFamily::TopShared,
    ];

    /// The family a query belongs to.
    pub fn of(q: &Query) -> QueryFamily {
        match q {
            Query::IspRisk { .. } => QueryFamily::IspRisk,
            Query::Similarity { .. } => QueryFamily::Similarity,
            Query::Latency { .. } => QueryFamily::Latency,
            Query::TopShared { .. } => QueryFamily::TopShared,
            Query::CutImpact { .. } => QueryFamily::CutImpact,
            Query::Ensemble { .. } => QueryFamily::Ensemble,
            Query::Stats => QueryFamily::Stats,
        }
    }

    /// Stable snake_case label (metric keys, Prometheus label values).
    pub fn label(self) -> &'static str {
        match self {
            QueryFamily::IspRisk => "isp_risk",
            QueryFamily::Similarity => "similarity",
            QueryFamily::Latency => "latency",
            QueryFamily::TopShared => "top_shared",
            QueryFamily::CutImpact => "cut_impact",
            QueryFamily::Ensemble => "ensemble",
            QueryFamily::Stats => "stats",
        }
    }
}

/// How the scheduler resolved one admitted slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the result cache.
    Hit,
    /// Computed (cache miss or cache disabled).
    Miss,
    /// Shed into a degraded response under injected overload.
    Shed,
    /// Answered from the telemetry snapshot ([`Query::Stats`] bypasses
    /// the cache entirely).
    Stats,
}

impl CacheOutcome {
    /// Stable label for events and metrics.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Shed => "shed",
            CacheOutcome::Stats => "stats",
        }
    }
}

/// Classifies a canonical response JSON by its externally-tagged variant
/// name. Unknown shapes (which the engine never produces) classify as
/// `"unknown"` rather than panicking.
pub fn response_kind(json: &str) -> &'static str {
    const KINDS: [&str; 11] = [
        "CutImpact",
        "Degraded",
        "Ensemble",
        "InvalidQuery",
        "IspRisk",
        "Latency",
        "NotFound",
        "Rejected",
        "Similarity",
        "Stats",
        "TopShared",
    ];
    let Some(rest) = json.strip_prefix("{\"") else {
        return "unknown";
    };
    for kind in KINDS {
        if rest
            .strip_prefix(kind)
            .is_some_and(|after| after.starts_with('"'))
        {
            return kind;
        }
    }
    "unknown"
}

/// The log2 duration bucket of the flight recorder (same partition as
/// [`Histogram`]: bucket 0 is exactly 0 µs, bucket i spans
/// `[2^(i-1), 2^i - 1]` µs).
pub fn duration_bucket(us: u64) -> u8 {
    (64 - us.leading_zeros() as u8).min(63)
}

/// One entry of the flight recorder: everything the scheduler knew about
/// a query at assemble time, compressed to fixed-size fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic event number (assemble order — deterministic).
    pub seq: u64,
    /// Wave the query was served in (1-based).
    pub wave: u64,
    /// Query family label.
    pub family: &'static str,
    /// FNV-1a 64 of the canonical query key.
    pub key_hash: u64,
    /// Cache outcome label (non-canonical: differs across cache modes).
    pub outcome: &'static str,
    /// Response variant name.
    pub kind: &'static str,
    /// Log2 service-latency bucket (non-canonical: wall-clock-derived).
    pub duration_bucket: u8,
}

impl FlightEvent {
    /// JSON rendering with fixed key order.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("seq".to_string(), Value::Number(Number::UInt(self.seq)));
        obj.insert("wave".to_string(), Value::Number(Number::UInt(self.wave)));
        obj.insert("family".to_string(), Value::String(self.family.to_string()));
        obj.insert(
            "key_hash".to_string(),
            Value::Number(Number::UInt(self.key_hash)),
        );
        obj.insert(
            "outcome".to_string(),
            Value::String(self.outcome.to_string()),
        );
        obj.insert("kind".to_string(), Value::String(self.kind.to_string()));
        obj.insert(
            "duration_bucket".to_string(),
            Value::Number(Number::UInt(self.duration_bucket as u64)),
        );
        Value::Object(obj)
    }
}

/// One captured window of the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Why the window was captured (`"drain"`, `"fault_injected"`,
    /// `"health:degraded"`, `"on_demand"`, …).
    pub reason: String,
    /// Wave the capture happened after.
    pub wave: u64,
    /// The retained events, oldest → newest.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// JSON rendering with fixed key order.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("reason".to_string(), Value::String(self.reason.clone()));
        obj.insert("wave".to_string(), Value::Number(Number::UInt(self.wave)));
        obj.insert(
            "events".to_string(),
            Value::Array(self.events.iter().map(FlightEvent::to_json).collect()),
        );
        Value::Object(obj)
    }
}

/// The bounded flight recorder: a ring of recent events plus the capped
/// list of captured windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    ring: Ring<FlightEvent>,
    next_seq: u64,
    dumps: Vec<FlightDump>,
    dumps_dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder retaining the last `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Ring::new(capacity),
            next_seq: 0,
            dumps: Vec::new(),
            dumps_dropped: 0,
        }
    }

    /// Records one event, assigning it the next sequence number.
    pub fn record(&mut self, mut event: FlightEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.ring.push(event);
    }

    /// Captures the current window under `reason`. Windows beyond
    /// [`MAX_FLIGHT_DUMPS`] are counted but not stored, so the recorder
    /// stays bounded no matter how unhealthy the run is.
    pub fn dump(&mut self, reason: &str, wave: u64) {
        if self.dumps.len() >= MAX_FLIGHT_DUMPS {
            self.dumps_dropped += 1;
            return;
        }
        self.dumps.push(FlightDump {
            reason: reason.to_string(),
            wave,
            events: self.ring.iter().copied().collect(),
        });
    }

    /// Captured windows so far.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// JSON rendering with fixed key order.
    pub fn to_json(&self) -> Value {
        let mut obj = Map::new();
        obj.insert(
            "capacity".to_string(),
            Value::Number(Number::UInt(self.ring.capacity() as u64)),
        );
        obj.insert(
            "pushed".to_string(),
            Value::Number(Number::UInt(self.ring.pushed())),
        );
        obj.insert(
            "overwritten".to_string(),
            Value::Number(Number::UInt(self.ring.dropped())),
        );
        obj.insert(
            "dumps_dropped".to_string(),
            Value::Number(Number::UInt(self.dumps_dropped)),
        );
        obj.insert(
            "dumps".to_string(),
            Value::Array(self.dumps.iter().map(FlightDump::to_json).collect()),
        );
        Value::Object(obj)
    }
}

/// One tenant's count-plane aggregates (DESIGN.md §14.4). Written by the
/// remote front-end's serial routing phase; local replay never populates
/// the map, so local stats documents are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Frames submitted by this tenant.
    pub submitted: u64,
    /// Frames past the tenant's quota gate.
    pub admitted: u64,
    /// Frames answered with a quota `Rejected` response (never drops).
    pub quota_rejected: u64,
}

impl TenantCounts {
    /// Sum-merge (associative and commutative, like every count field).
    pub fn merge(&mut self, other: &TenantCounts) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.quota_rejected += other.quota_rejected;
    }

    /// JSON rendering with fixed key order.
    pub fn to_json(&self) -> Value {
        let uint = |n: u64| Value::Number(Number::UInt(n));
        let mut obj = Map::new();
        obj.insert("submitted".to_string(), uint(self.submitted));
        obj.insert("admitted".to_string(), uint(self.admitted));
        obj.insert("quota_rejected".to_string(), uint(self.quota_rejected));
        Value::Object(obj)
    }
}

/// The deterministic counter plane. Only ever written from the
/// scheduler's serial phases; mergeable with the same algebra as
/// [`intertubes_obs::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountPlane {
    /// Queries submitted to the scheduler.
    pub submitted: u64,
    /// Queries past admission control.
    pub admitted: u64,
    /// Queries rejected at admission (backpressure).
    pub rejected: u64,
    /// Waves fully executed.
    pub waves: u64,
    /// Queries shed into degraded responses.
    pub degraded: u64,
    /// Degraded responses carrying a stale cached answer (non-canonical:
    /// depends on cache mode).
    pub stale_served: u64,
    /// Health-state transitions observed over the run.
    pub health_transitions: u64,
    /// Flight-recorder windows captured.
    pub flight_dumps: u64,
    /// Cache hits (non-canonical: depends on cache mode).
    pub cache_hits: u64,
    /// Cache misses (non-canonical: depends on cache mode).
    pub cache_misses: u64,
    /// Queries seen per family label.
    pub families: BTreeMap<String, u64>,
    /// Responses produced per variant name.
    pub responses: BTreeMap<String, u64>,
    /// Per-tenant admission aggregates from the remote front-end's quota
    /// gate (empty for local replay).
    pub tenants: BTreeMap<String, TenantCounts>,
}

impl CountPlane {
    /// Folds another plane into this one. Associative and commutative —
    /// every field is a sum — so any merge tree over the same shards
    /// yields the same plane (asserted by `tests/telemetry.rs`).
    pub fn merge(&mut self, other: &CountPlane) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.waves += other.waves;
        self.degraded += other.degraded;
        self.stale_served += other.stale_served;
        self.health_transitions += other.health_transitions;
        self.flight_dumps += other.flight_dumps;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        for (k, n) in &other.families {
            *self.families.entry(k.clone()).or_insert(0) += n;
        }
        for (k, n) in &other.responses {
            *self.responses.entry(k.clone()).or_insert(0) += n;
        }
        for (k, t) in &other.tenants {
            self.tenants.entry(k.clone()).or_default().merge(t);
        }
    }

    /// JSON rendering with fixed key order (maps are `BTreeMap`-ordered).
    pub fn to_json(&self) -> Value {
        let uint = |n: u64| Value::Number(Number::UInt(n));
        let map_json = |m: &BTreeMap<String, u64>| {
            let mut out = Map::new();
            for (k, n) in m {
                out.insert(k.clone(), uint(*n));
            }
            Value::Object(out)
        };
        let mut obj = Map::new();
        obj.insert("submitted".to_string(), uint(self.submitted));
        obj.insert("admitted".to_string(), uint(self.admitted));
        obj.insert("rejected".to_string(), uint(self.rejected));
        obj.insert("waves".to_string(), uint(self.waves));
        obj.insert("degraded".to_string(), uint(self.degraded));
        obj.insert("stale_served".to_string(), uint(self.stale_served));
        obj.insert(
            "health_transitions".to_string(),
            uint(self.health_transitions),
        );
        obj.insert("flight_dumps".to_string(), uint(self.flight_dumps));
        obj.insert("cache_hits".to_string(), uint(self.cache_hits));
        obj.insert("cache_misses".to_string(), uint(self.cache_misses));
        obj.insert("families".to_string(), map_json(&self.families));
        obj.insert("responses".to_string(), map_json(&self.responses));
        let mut tenants = Map::new();
        for (k, t) in &self.tenants {
            tenants.insert(k.clone(), t.to_json());
        }
        obj.insert("tenants".to_string(), Value::Object(tenants));
        Value::Object(obj)
    }
}

/// The wall-clock plane: latency distributions per family plus wave
/// shape. Never part of a canonical digest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingPlane {
    /// Service latency (µs) per family label.
    pub per_family: BTreeMap<String, Histogram>,
    /// Queue depth observed at each wave start.
    pub queue_depth: Histogram,
    /// `deadline - latency` (µs, clamped at 0) for runs with a deadline.
    pub deadline_slack_us: Histogram,
}

impl TimingPlane {
    /// Folds another plane into this one (histogram merges — same
    /// algebra, same associativity).
    pub fn merge(&mut self, other: &TimingPlane) {
        for (k, h) in &other.per_family {
            self.per_family.entry(k.clone()).or_default().merge(h);
        }
        self.queue_depth.merge(&other.queue_depth);
        self.deadline_slack_us.merge(&other.deadline_slack_us);
    }

    /// JSON rendering: per-family histograms annotated with interpolated
    /// p50/p95/p99, plus the wave-shape histograms.
    pub fn to_json(&self) -> Value {
        let with_quantiles = |h: &Histogram| {
            let mut obj = match h.to_json() {
                Value::Object(m) => m,
                _ => Map::new(),
            };
            obj.insert(
                "p50_us".to_string(),
                Value::Number(Number::UInt(h.quantile(0.50))),
            );
            obj.insert(
                "p95_us".to_string(),
                Value::Number(Number::UInt(h.quantile(0.95))),
            );
            obj.insert(
                "p99_us".to_string(),
                Value::Number(Number::UInt(h.quantile(0.99))),
            );
            Value::Object(obj)
        };
        let mut per_family = Map::new();
        for (k, h) in &self.per_family {
            per_family.insert(k.clone(), with_quantiles(h));
        }
        let mut obj = Map::new();
        obj.insert("per_family".to_string(), Value::Object(per_family));
        obj.insert("queue_depth".to_string(), self.queue_depth.to_json());
        obj.insert(
            "deadline_slack_us".to_string(),
            with_quantiles(&self.deadline_slack_us),
        );
        Value::Object(obj)
    }
}

#[derive(Debug)]
struct Inner {
    counts: CountPlane,
    timing: TimingPlane,
    flight: FlightRecorder,
}

/// The scheduler's telemetry sink: both planes plus the flight recorder
/// behind one mutex. All writes happen in the scheduler's serial phases
/// (the lock is for `Arc`-shared readers like the engine's `Stats`
/// answer, not for worker contention).
#[derive(Debug)]
pub struct ServeTelemetry {
    inner: Mutex<Inner>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        ServeTelemetry::new()
    }
}

impl ServeTelemetry {
    /// A fresh sink with the default flight window.
    pub fn new() -> ServeTelemetry {
        ServeTelemetry::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A fresh sink retaining the last `capacity` flight events.
    pub fn with_flight_capacity(capacity: usize) -> ServeTelemetry {
        ServeTelemetry {
            inner: Mutex::new(Inner {
                counts: CountPlane::default(),
                timing: TimingPlane::default(),
                flight: FlightRecorder::new(capacity),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Accounts one batch's admission decision.
    pub fn note_admission(&self, submitted: u64, admitted: u64, rejected: u64) {
        let mut inner = self.lock();
        inner.counts.submitted += submitted;
        inner.counts.admitted += admitted;
        inner.counts.rejected += rejected;
    }

    /// Observes a wave starting at the given queue depth (timing plane
    /// only — the wave is counted when it completes).
    pub fn note_wave_start(&self, depth: u64) {
        self.lock().timing.queue_depth.observe(depth);
    }

    /// Counts a completed wave.
    pub fn note_wave_complete(&self) {
        self.lock().counts.waves += 1;
    }

    /// Counts a stale cached answer served alongside a degraded response.
    pub fn note_stale_served(&self) {
        self.lock().counts.stale_served += 1;
    }

    /// Accounts one tenant's frame through the remote quota gate
    /// (DESIGN.md §14.4): exactly one of `admitted`/`quota_rejected` per
    /// submitted frame. Called from the server's serial routing phase.
    pub fn note_tenant(&self, tenant: &str, admitted: bool) {
        let mut inner = self.lock();
        let t = inner.counts.tenants.entry(tenant.to_string()).or_default();
        t.submitted += 1;
        if admitted {
            t.admitted += 1;
        } else {
            t.quota_rejected += 1;
        }
    }

    /// Records the health machine's transition count (set, not summed —
    /// the trace is global to the run).
    pub fn set_health_transitions(&self, n: u64) {
        self.lock().counts.health_transitions = n;
    }

    /// Accounts one served query end-to-end: family and response-kind
    /// counters, cache outcome, per-family latency, deadline slack, and a
    /// flight event. Called from the assemble phase only.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        wave: u64,
        family: QueryFamily,
        key_hash: u64,
        outcome: CacheOutcome,
        response_json: &str,
        duration_us: u64,
        deadline_us: u64,
    ) {
        let kind = response_kind(response_json);
        let mut inner = self.lock();
        *inner
            .counts
            .families
            .entry(family.label().to_string())
            .or_insert(0) += 1;
        *inner.counts.responses.entry(kind.to_string()).or_insert(0) += 1;
        match outcome {
            CacheOutcome::Hit => inner.counts.cache_hits += 1,
            CacheOutcome::Miss => inner.counts.cache_misses += 1,
            CacheOutcome::Shed => inner.counts.degraded += 1,
            CacheOutcome::Stats => {}
        }
        inner
            .timing
            .per_family
            .entry(family.label().to_string())
            .or_default()
            .observe(duration_us);
        if deadline_us > 0 {
            inner
                .timing
                .deadline_slack_us
                .observe(deadline_us.saturating_sub(duration_us));
        }
        inner.flight.record(FlightEvent {
            seq: 0, // assigned by the recorder
            wave,
            family: family.label(),
            key_hash,
            outcome: outcome.label(),
            kind,
            duration_bucket: duration_bucket(duration_us),
        });
    }

    /// Captures the flight window (health departure, injected fault,
    /// drain, or on demand).
    pub fn dump_flight(&self, reason: &str, wave: u64) {
        let mut inner = self.lock();
        inner.flight.dump(reason, wave);
        inner.counts.flight_dumps += 1;
    }

    /// The [`Query::Stats`] answer: a count-plane snapshot containing
    /// only cache-mode-independent fields, so the response stays
    /// byte-identical across thread counts and cache modes.
    pub fn stats_view(&self) -> StatsView {
        let inner = self.lock();
        StatsView {
            schema: STATS_SCHEMA.to_string(),
            waves: inner.counts.waves,
            submitted: inner.counts.submitted,
            admitted: inner.counts.admitted,
            rejected: inner.counts.rejected,
            degraded: inner.counts.degraded,
            families: inner.counts.families.clone(),
        }
    }

    /// A copy of the count plane.
    pub fn counts(&self) -> CountPlane {
        self.lock().counts.clone()
    }

    /// A copy of the timing plane.
    pub fn timing(&self) -> TimingPlane {
        self.lock().timing.clone()
    }

    /// The full `intertubes-stats/v1` document: schema tag, count plane,
    /// cache counters (when a cache is attached), timing plane, and the
    /// flight recorder. Canonicalize with [`canonicalize_stats`] before
    /// byte comparison.
    pub fn stats_document(&self, cache: Option<&ResultCache>) -> Value {
        let inner = self.lock();
        let mut obj = Map::new();
        obj.insert(
            "schema".to_string(),
            Value::String(STATS_SCHEMA.to_string()),
        );
        obj.insert("counts".to_string(), inner.counts.to_json());
        if let Some(cache) = cache {
            let stats = cache.stats();
            let uint = |n: u64| Value::Number(Number::UInt(n));
            let mut c = Map::new();
            c.insert("hits".to_string(), uint(stats.hits()));
            c.insert("misses".to_string(), uint(stats.misses()));
            c.insert("evictions".to_string(), uint(stats.evictions()));
            c.insert("poison_injected".to_string(), uint(stats.poison_injected));
            c.insert("poison_detected".to_string(), uint(stats.poison_detected()));
            let looked = stats.hits() + stats.misses();
            c.insert(
                "hit_rate".to_string(),
                Value::Number(Number::Float(stats.hits() as f64 / looked.max(1) as f64)),
            );
            let shards: Vec<Value> = stats
                .shards
                .iter()
                .map(|s| {
                    let mut row = Map::new();
                    row.insert("hits".to_string(), uint(s.hits));
                    row.insert("misses".to_string(), uint(s.misses));
                    row.insert("insertions".to_string(), uint(s.insertions));
                    row.insert("evictions".to_string(), uint(s.evictions));
                    row.insert("poison_detected".to_string(), uint(s.poison_detected));
                    Value::Object(row)
                })
                .collect();
            c.insert("shards".to_string(), Value::Array(shards));
            obj.insert("cache".to_string(), Value::Object(c));
        }
        obj.insert("timing".to_string(), inner.timing.to_json());
        obj.insert("flight".to_string(), inner.flight.to_json());
        Value::Object(obj)
    }

    /// The flight dumps as JSONL: one header line per dump followed by
    /// one line per event. With `canonical` set, each line is passed
    /// through [`canonicalize_stats`] — this is the byte-compared form.
    pub fn flight_jsonl(&self, canonical: bool) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for dump in inner.flight.dumps() {
            let mut header = Map::new();
            header.insert("dump".to_string(), Value::String(dump.reason.clone()));
            header.insert("wave".to_string(), Value::Number(Number::UInt(dump.wave)));
            header.insert(
                "events".to_string(),
                Value::Number(Number::UInt(dump.events.len() as u64)),
            );
            let mut lines = vec![Value::Object(header)];
            lines.extend(dump.events.iter().map(FlightEvent::to_json));
            for line in lines {
                let line = if canonical {
                    canonicalize_stats(&line)
                } else {
                    line
                };
                out.push_str(&serde_json::to_string(&line).unwrap_or_default());
                out.push('\n');
            }
        }
        out
    }

    /// Prometheus-style text exposition of both planes (plus cache
    /// counters when attached). Key order is deterministic; values
    /// include the timing plane, so this rendering is **never**
    /// byte-compared.
    pub fn prometheus(&self, cache: Option<&ResultCache>) -> String {
        let inner = self.lock();
        let c = &inner.counts;
        let mut out = String::new();
        let mut counter = |name: &str, v: u64| {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        };
        counter("intertubes_serve_submitted_total", c.submitted);
        counter("intertubes_serve_admitted_total", c.admitted);
        counter("intertubes_serve_rejected_total", c.rejected);
        counter("intertubes_serve_waves_total", c.waves);
        counter("intertubes_serve_degraded_total", c.degraded);
        counter("intertubes_serve_stale_served_total", c.stale_served);
        counter(
            "intertubes_serve_health_transitions_total",
            c.health_transitions,
        );
        counter("intertubes_serve_flight_dumps_total", c.flight_dumps);
        counter("intertubes_serve_cache_hits_total", c.cache_hits);
        counter("intertubes_serve_cache_misses_total", c.cache_misses);
        if let Some(cache) = cache {
            let stats = cache.stats();
            counter("intertubes_serve_cache_evictions_total", stats.evictions());
            counter(
                "intertubes_serve_cache_poison_injected_total",
                stats.poison_injected,
            );
            counter(
                "intertubes_serve_cache_poison_detected_total",
                stats.poison_detected(),
            );
        }
        out.push_str("# TYPE intertubes_serve_queries_total counter\n");
        for (family, n) in &c.families {
            out.push_str(&format!(
                "intertubes_serve_queries_total{{family=\"{family}\"}} {n}\n"
            ));
        }
        out.push_str("# TYPE intertubes_serve_responses_total counter\n");
        for (kind, n) in &c.responses {
            out.push_str(&format!(
                "intertubes_serve_responses_total{{kind=\"{kind}\"}} {n}\n"
            ));
        }
        out.push_str("# TYPE intertubes_serve_tenant_frames_total counter\n");
        for (tenant, t) in &c.tenants {
            for (outcome, n) in [
                ("submitted", t.submitted),
                ("admitted", t.admitted),
                ("quota_rejected", t.quota_rejected),
            ] {
                out.push_str(&format!(
                    "intertubes_serve_tenant_frames_total{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {n}\n"
                ));
            }
        }
        out.push_str("# TYPE intertubes_serve_latency_us summary\n");
        for (family, h) in &inner.timing.per_family {
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "intertubes_serve_latency_us{{family=\"{family}\",quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "intertubes_serve_latency_us_count{{family=\"{family}\"}} {}\n",
                h.count
            ));
            out.push_str(&format!(
                "intertubes_serve_latency_us_sum{{family=\"{family}\"}} {}\n",
                h.sum
            ));
        }
        out.push_str("# TYPE intertubes_serve_queue_depth gauge\n");
        out.push_str(&format!(
            "intertubes_serve_queue_depth_max {}\n",
            if inner.timing.queue_depth.count > 0 {
                inner.timing.queue_depth.max
            } else {
                0
            }
        ));
        out
    }
}

/// Strips every non-canonical key ([`NONCANONICAL_STATS_KEYS`]) from a
/// stats value, recursively — the stats analogue of
/// [`intertubes_obs::canonicalize`]. What survives is exactly the
/// byte-comparable core: deterministic across thread counts **and**
/// cache modes.
pub fn canonicalize_stats(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, v) in map.iter() {
                if NONCANONICAL_STATS_KEYS.contains(&k.as_str()) {
                    continue;
                }
                out.insert(k.clone(), canonicalize_stats(v));
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonicalize_stats).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_kind_classifies_every_variant() {
        assert_eq!(response_kind("{\"IspRisk\":{\"isp\":\"X\"}}"), "IspRisk");
        assert_eq!(response_kind("{\"NotFound\":{\"what\":\"y\"}}"), "NotFound");
        assert_eq!(
            response_kind("{\"Degraded\":{\"reason\":\"r\",\"stale\":null}}"),
            "Degraded"
        );
        assert_eq!(response_kind("{\"Stats\":{\"waves\":0}}"), "Stats");
        // A kind name that is only a prefix of the tag must not match.
        assert_eq!(response_kind("{\"StatsX\":{}}"), "unknown");
        assert_eq!(response_kind("plainly not json"), "unknown");
    }

    #[test]
    fn duration_bucket_matches_histogram_partition() {
        assert_eq!(duration_bucket(0), 0);
        assert_eq!(duration_bucket(1), 1);
        assert_eq!(duration_bucket(3), 2);
        assert_eq!(duration_bucket(4), 3);
        assert_eq!(duration_bucket(u64::MAX), 63);
    }

    #[test]
    fn count_plane_merge_is_associative_and_commutative() {
        let mk = |s: u64, fam: &str| {
            let mut p = CountPlane {
                submitted: s,
                admitted: s,
                waves: 1,
                ..CountPlane::default()
            };
            p.families.insert(fam.to_string(), s);
            p.tenants.insert(
                fam.to_string(),
                TenantCounts {
                    submitted: s,
                    admitted: s,
                    quota_rejected: 0,
                },
            );
            p
        };
        let (a, b, c) = (mk(1, "latency"), mk(2, "isp_risk"), mk(3, "latency"));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Identity.
        let mut with_empty = a.clone();
        with_empty.merge(&CountPlane::default());
        assert_eq!(with_empty, a);
    }

    #[test]
    fn note_tenant_splits_admits_and_quota_rejections() {
        let telemetry = ServeTelemetry::with_flight_capacity(8);
        telemetry.note_tenant("alpha", true);
        telemetry.note_tenant("alpha", false);
        telemetry.note_tenant("beta", true);
        let counts = telemetry.counts();
        assert_eq!(
            counts.tenants.get("alpha"),
            Some(&TenantCounts {
                submitted: 2,
                admitted: 1,
                quota_rejected: 1,
            })
        );
        assert_eq!(
            counts.tenants.get("beta").map(|t| t.quota_rejected),
            Some(0)
        );
        // The tenant aggregates are canonical: they survive
        // canonicalize_stats and render in fixed key order.
        let doc = telemetry.stats_document(None);
        let canon = canonicalize_stats(&doc);
        assert!(canon["counts"]["tenants"]["alpha"]["quota_rejected"].is_number());
        // And they show up in the Prometheus rendering.
        let prom = telemetry.prometheus(None);
        assert!(prom.contains(
            "intertubes_serve_tenant_frames_total{tenant=\"alpha\",outcome=\"quota_rejected\"} 1"
        ));
    }

    #[test]
    fn canonicalize_strips_timing_and_cache_mode_keys() {
        let telemetry = ServeTelemetry::with_flight_capacity(8);
        telemetry.note_admission(3, 3, 0);
        telemetry.note_wave_start(3);
        telemetry.record(
            1,
            QueryFamily::Latency,
            42,
            CacheOutcome::Miss,
            "{\"NotFound\":{\"what\":\"x\"}}",
            17,
            100,
        );
        telemetry.note_wave_complete();
        telemetry.dump_flight("on_demand", 1);
        let cache = ResultCache::new(crate::cache::CacheConfig::default());
        let full = telemetry.stats_document(Some(&cache));
        assert!(full.get("timing").is_some());
        assert!(full.get("cache").is_some());
        let canon = canonicalize_stats(&full);
        assert!(canon.get("timing").is_none());
        assert!(canon.get("cache").is_none());
        let counts = canon.get("counts").and_then(|v| v.as_object()).unwrap();
        assert!(counts.get("cache_misses").is_none());
        assert!(counts.get("stale_served").is_none());
        assert!(counts.get("waves").is_some());
        // The flight events survive minus outcome and duration bucket.
        let dumps = canon
            .get("flight")
            .and_then(|f| f.get("dumps"))
            .and_then(|d| d.as_array())
            .unwrap();
        let event = dumps[0].get("events").and_then(|e| e.as_array()).unwrap()[0].clone();
        assert!(event.get("family").is_some());
        assert!(event.get("key_hash").is_some());
        assert!(event.get("outcome").is_none());
        assert!(event.get("duration_bucket").is_none());
    }

    #[test]
    fn flight_recorder_caps_dumps() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..(MAX_FLIGHT_DUMPS + 5) {
            rec.dump("d", i as u64);
        }
        assert_eq!(rec.dumps().len(), MAX_FLIGHT_DUMPS);
        assert_eq!(rec.dumps_dropped, 5);
    }

    #[test]
    fn stats_view_excludes_cache_mode_counters() {
        let telemetry = ServeTelemetry::new();
        telemetry.note_admission(2, 2, 0);
        telemetry.record(
            1,
            QueryFamily::TopShared,
            7,
            CacheOutcome::Hit,
            "{\"TopShared\":{\"ranking\":[]}}",
            5,
            0,
        );
        telemetry.note_wave_complete();
        let view = telemetry.stats_view();
        assert_eq!(view.schema, STATS_SCHEMA);
        assert_eq!(view.waves, 1);
        assert_eq!(view.submitted, 2);
        assert_eq!(view.families.get("top_shared"), Some(&1));
        // The view serializes without any hit/miss field at all.
        let json = serde_json::to_string(&view).unwrap();
        assert!(!json.contains("cache"));
    }
}
