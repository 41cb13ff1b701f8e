//! The serving layer: frozen study snapshots and a cached what-if query
//! engine (DESIGN.md §9).
//!
//! The batch pipeline answers one question per multi-second run; the
//! ROADMAP's north star is many cheap questions against prebuilt state.
//! This crate splits the two concerns:
//!
//! * [`snapshot`] — the versioned, checksummed container
//!   (`intertubes-snapshot/v4`; any other schema, v1–v3 included,
//!   is rejected) that freezes a built study: physical map, risk matrix,
//!   Hamming heat map, traceroute overlay, the precomputed
//!   [`index::PathIndex`], and the ALT landmark tables for the live search
//!   path, in the binary sections of the `codec` module;
//! * [`engine`] — a pure query engine answering typed [`query::Query`]
//!   requests (per-provider risk, similarity, pair latency, top-shared
//!   rankings, conduit-cut what-ifs, and geofenced scenario ensembles
//!   via `intertubes_scenario`) from the snapshot alone;
//! * [`cache`] — a sharded LRU over canonical query keys, with per-entry
//!   checksums that turn silent corruption into deterministic misses;
//! * [`scheduler`] — bounded-queue wave scheduling with admission
//!   control, deadline accounting, and obs metrics;
//! * [`telemetry`] — the serving telemetry plane (DESIGN.md §13): a
//!   deterministic, mergeable **count plane**, a wall-clock **timing
//!   plane** excluded from every canonical digest, and a bounded flight
//!   recorder of recent query events;
//! * [`tenant`] — per-tenant token-bucket admission quotas enforced by
//!   the remote front-end (`intertubes-net`) ahead of queue-position
//!   admission, ticking in request-count time so decisions are
//!   interleaving-independent (DESIGN.md §14.4);
//! * [`chaos`] — runtime fault injection (`ChaosSession` over the
//!   `FaultPlan` runtime families), crash-safe snapshot persistence
//!   (temp-write → verify → fsync → atomic rename, with `.tmp`/`.bak`
//!   salvage), deterministic virtual retry/backoff, and the
//!   `Ready`/`Degraded`/`Draining` health machine (DESIGN.md §11).
//!
//! The whole stack extends the workspace determinism contract: for a
//! fixed snapshot and workload, the response vector is **byte-identical
//! at any thread count and with the cache enabled or disabled** —
//! `tests/serve.rs` and the gate runner's `serve` arms enforce it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
mod codec;
pub mod engine;
pub mod index;
pub mod query;
pub mod scheduler;
pub mod snapshot;
pub mod telemetry;
pub mod tenant;
pub mod workload;

pub use cache::{CacheConfig, CacheStats, ResultCache, ShardStats};
pub use chaos::{
    load_with, save_with, ChaosReport, ChaosSession, FaultClass, Health, HealthTrace,
    HealthTransition, LoadReport, RealIo, RetryPolicy, SaveReport, ServeError, SnapshotIo,
};
pub use engine::QueryEngine;
pub use index::PathIndex;
pub use intertubes_mitigation::build_landmarks;
pub use query::{canonical_key, key_hash, normalize, scoped_key, Query, Response, StatsView};
pub use scheduler::{
    run_batch, run_batch_chaos, run_batch_chaos_telemetry, run_batch_telemetry, ServeConfig,
    ServeStats,
};
pub use snapshot::{
    fnv1a64, section_bounds, section_checksum, SectionBounds, SnapshotError, StudySnapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA,
};
pub use telemetry::{
    canonicalize_stats, duration_bucket, response_kind, CacheOutcome, CountPlane, FlightDump,
    FlightEvent, FlightRecorder, QueryFamily, ServeTelemetry, TenantCounts, TimingPlane,
    DEFAULT_FLIGHT_CAPACITY, MAX_FLIGHT_DUMPS, NONCANONICAL_STATS_KEYS, STATS_SCHEMA,
};
pub use tenant::{quota_rejection, QuotaConfig, QuotaDecision, TenantQuotas};
pub use workload::{mixed_workload, splitmix64};
