//! The multi-snapshot registry (DESIGN.md §14.3).
//!
//! One serving process holds several loaded snapshots — different worlds
//! or seeds — and routes each request frame by its snapshot id. Every
//! entry owns its engine and result cache; cache keys are additionally
//! scoped by the snapshot id (see `intertubes_serve::query::scoped_key`),
//! so even a future shared cache could not alias identical queries across
//! worlds. All entries report into one shared [`ServeTelemetry`].

use std::collections::BTreeMap;
use std::sync::Arc;

use intertubes_serve::{
    run_batch_telemetry, Query, QueryEngine, ResultCache, ServeConfig, ServeStats, ServeTelemetry,
};

/// One served snapshot: engine, private cache, scheduler knobs.
struct RegistryEntry {
    engine: QueryEngine,
    cache: ResultCache,
    cfg: ServeConfig,
}

/// Routes request batches to loaded snapshots by id.
pub struct SnapshotRegistry {
    entries: BTreeMap<String, RegistryEntry>,
    telemetry: Arc<ServeTelemetry>,
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        SnapshotRegistry::new()
    }
}

impl SnapshotRegistry {
    /// An empty registry with a fresh telemetry sink.
    pub fn new() -> SnapshotRegistry {
        SnapshotRegistry::with_telemetry(Arc::new(ServeTelemetry::new()))
    }

    /// An empty registry reporting into `telemetry`.
    pub fn with_telemetry(telemetry: Arc<ServeTelemetry>) -> SnapshotRegistry {
        SnapshotRegistry {
            entries: BTreeMap::new(),
            telemetry,
        }
    }

    /// Loads `engine` under `id`. The engine's snapshot id is overwritten
    /// with `id` so cache keys and telemetry agree with the routing table;
    /// a previous entry under the same id is replaced.
    pub fn insert(&mut self, id: &str, mut engine: QueryEngine, cfg: ServeConfig) {
        engine.set_snapshot_id(id);
        engine.attach_telemetry(Arc::clone(&self.telemetry));
        let cache = ResultCache::new(cfg.cache);
        self.entries
            .insert(id.to_string(), RegistryEntry { engine, cache, cfg });
    }

    /// Whether `id` is served.
    pub fn contains(&self, id: &str) -> bool {
        self.entries.contains_key(id)
    }

    /// Served snapshot ids, in order.
    pub fn ids(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// The shared telemetry sink.
    pub fn telemetry(&self) -> &Arc<ServeTelemetry> {
        &self.telemetry
    }

    /// Serves one batch against the snapshot `id`, returning canonical
    /// response JSON per query (input order) — or `None` for an unknown
    /// id (the caller answers with an `unknown-snapshot` error frame).
    pub fn serve(&self, id: &str, queries: &[Query]) -> Option<(Vec<String>, ServeStats)> {
        let entry = self.entries.get(id)?;
        Some(run_batch_telemetry(
            &entry.engine,
            queries,
            &entry.cfg,
            &entry.cache,
            &self.telemetry,
        ))
    }
}
