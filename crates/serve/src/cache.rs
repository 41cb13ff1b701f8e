//! The sharded LRU result cache (DESIGN.md §9.4).
//!
//! Entries are keyed by the full canonical query JSON — the FNV-1a hash
//! only selects the shard, so hash collisions cannot alias two distinct
//! queries. Each shard is an independent LRU with its own recency clock;
//! eviction removes the least recently touched entry of the overfull
//! shard.
//!
//! The cache never *computes* anything, which is how it stays inside the
//! determinism contract: the scheduler consults and fills it from serial
//! sections only, so hit/miss patterns — and therefore evictions — are a
//! function of the workload order alone, not of thread interleaving. A
//! hit returns the exact bytes a recomputation would produce, because the
//! engine is pure.
//!
//! Every entry carries an FNV-1a checksum of its bytes, verified on every
//! hit. A mismatch (bit rot, or injected [`FaultFamily::CachePoison`])
//! evicts the entry and reports a miss, so the scheduler recomputes — the
//! response bytes are identical either way, which keeps poisoning inside
//! the determinism contract too.
//!
//! [`FaultFamily::CachePoison`]: intertubes_faults::FaultFamily::CachePoison

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::query::key_hash;
use crate::snapshot::fnv1a64;

/// Cache sizing and switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; disabled means every lookup misses and nothing is
    /// stored (the cache-off arm of the determinism gate).
    pub enabled: bool,
    /// Number of independent shards (≥ 1).
    pub shards: usize,
    /// LRU capacity per shard (≥ 1).
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            shards: 8,
            capacity_per_shard: 256,
        }
    }
}

struct Entry {
    /// The cached canonical response bytes.
    value: String,
    /// FNV-1a 64 of `value` at insert time; verified on every hit.
    checksum: u64,
    /// Last-touch tick (LRU recency).
    last: u64,
}

/// Deterministic per-shard counters — one row of the serving count plane
/// (DESIGN.md §13). All lookups and insertions happen in the scheduler's
/// serial phases, so for a fixed workload these are byte-identical at any
/// thread count (within one cache mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups that found nothing (or a poisoned entry) in this shard.
    pub misses: u64,
    /// Entries stored (including overwrites).
    pub insertions: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Checksum mismatches detected (and evicted) on lookup.
    pub poison_detected: u64,
}

/// The whole cache's counter block: per-shard rows plus the injection
/// total the chaos hook charges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// One row per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Entries corrupted by [`ResultCache::poison_shard`] (the chaos
    /// injection side; `poison_detected` is the lookup side).
    pub poison_injected: u64,
}

impl CacheStats {
    /// Sums a field across shards.
    fn total(&self, f: impl Fn(&ShardStats) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Total hits across shards.
    pub fn hits(&self) -> u64 {
        self.total(|s| s.hits)
    }

    /// Total misses across shards.
    pub fn misses(&self) -> u64 {
        self.total(|s| s.misses)
    }

    /// Total LRU evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.total(|s| s.evictions)
    }

    /// Total poison detections across shards.
    pub fn poison_detected(&self) -> u64 {
        self.total(|s| s.poison_detected)
    }
}

struct Shard {
    /// Canonical key → entry.
    entries: HashMap<String, Entry>,
    /// Recency clock, bumped on every touch.
    tick: u64,
    /// This shard's count-plane row.
    stats: ShardStats,
}

/// The sharded LRU response cache.
pub struct ResultCache {
    cfg: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    /// Entries whose checksum failed verification on lookup (evicted and
    /// reported as misses).
    poisoned_detected: AtomicU64,
    /// Entries corrupted by the chaos poison hook.
    poison_injected: AtomicU64,
}

impl ResultCache {
    /// An empty cache with the given shape.
    pub fn new(cfg: CacheConfig) -> ResultCache {
        let shards = cfg.shards.max(1);
        ResultCache {
            cfg,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                        stats: ShardStats::default(),
                    })
                })
                .collect(),
            poisoned_detected: AtomicU64::new(0),
            poison_injected: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let i = (key_hash(key) % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// Number of shards actually allocated.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a canonical key, refreshing its recency on hit. Always
    /// misses when the cache is disabled. An entry whose checksum no
    /// longer matches its bytes is evicted and reported as a miss (the
    /// caller recomputes, producing identical bytes).
    pub fn get(&self, key: &str) -> Option<String> {
        if !self.cfg.enabled {
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        let Some(entry) = shard.entries.get_mut(key) else {
            shard.stats.misses += 1;
            return None;
        };
        if fnv1a64(entry.value.as_bytes()) != entry.checksum {
            shard.entries.remove(key);
            shard.stats.misses += 1;
            shard.stats.poison_detected += 1;
            self.poisoned_detected.fetch_add(1, Ordering::Relaxed);
            intertubes_obs::counter("serve.cache_poisoned", 1);
            return None;
        }
        entry.last = tick;
        let value = entry.value.clone();
        shard.stats.hits += 1;
        Some(value)
    }

    /// Stores a response under its canonical key, evicting the shard's
    /// least recently touched entry if the shard is over capacity. A no-op
    /// when the cache is disabled.
    pub fn insert(&self, key: &str, value: &str) {
        if !self.cfg.enabled {
            return;
        }
        let cap = self.cfg.capacity_per_shard.max(1);
        let mut shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        shard.stats.insertions += 1;
        shard.entries.insert(
            key.to_string(),
            Entry {
                value: value.to_string(),
                checksum: fnv1a64(value.as_bytes()),
                last: tick,
            },
        );
        while shard.entries.len() > cap {
            // Oldest tick; ties broken by key so eviction is deterministic
            // even if the clock ever stalls.
            let victim = shard
                .entries
                .iter()
                .min_by(|(ka, ea), (kb, eb)| ea.last.cmp(&eb.last).then_with(|| ka.cmp(kb)))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    shard.entries.remove(&k);
                    shard.stats.evictions += 1;
                    intertubes_obs::counter("serve.cache_evictions", 1);
                }
                None => break,
            }
        }
    }

    /// Chaos hook: silently corrupts **every** entry of shard
    /// `shard_index` (first byte XOR `0x80`, checksum left stale), and
    /// returns how many entries were touched. Corrupting the whole shard
    /// — rather than a sampled subset — keeps the injection independent of
    /// `HashMap` iteration order, so the detected-poison counts stay
    /// deterministic. A no-op when the cache is disabled.
    pub fn poison_shard(&self, shard_index: usize) -> usize {
        if !self.cfg.enabled || self.shards.is_empty() {
            return 0;
        }
        let shard = &self.shards[shard_index % self.shards.len()];
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let mut touched = 0;
        for entry in shard.entries.values_mut() {
            let mut bytes = std::mem::take(&mut entry.value).into_bytes();
            if let Some(b) = bytes.first_mut() {
                *b ^= 0x80;
                touched += 1;
            }
            entry.value = String::from_utf8_lossy(&bytes).into_owned();
        }
        self.poison_injected
            .fetch_add(touched as u64, Ordering::Relaxed);
        touched
    }

    /// Poisoned entries detected (and evicted) by [`ResultCache::get`].
    pub fn poisoned_detected(&self) -> u64 {
        self.poisoned_detected.load(Ordering::Relaxed)
    }

    /// Entries corrupted by [`ResultCache::poison_shard`] so far.
    pub fn poison_injected(&self) -> u64 {
        self.poison_injected.load(Ordering::Relaxed)
    }

    /// Snapshots the count-plane counters: one [`ShardStats`] row per
    /// shard plus the injection total. A disabled cache records nothing,
    /// so its rows are all zero.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            shards: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).stats)
                .collect(),
            poison_injected: self.poison_injected.load(Ordering::Relaxed),
        }
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(shards: usize, cap: usize) -> ResultCache {
        ResultCache::new(CacheConfig {
            enabled: true,
            shards,
            capacity_per_shard: cap,
        })
    }

    #[test]
    fn get_after_insert_returns_exact_bytes() {
        let cache = tiny(4, 8);
        assert_eq!(cache.get("k1"), None);
        cache.insert("k1", "{\"v\":1}");
        assert_eq!(cache.get("k1").as_deref(), Some("{\"v\":1}"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        // One shard so the eviction order is fully observable.
        let cache = tiny(1, 2);
        cache.insert("a", "1");
        cache.insert("b", "2");
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("c", "3");
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = ResultCache::new(CacheConfig {
            enabled: false,
            ..CacheConfig::default()
        });
        cache.insert("k", "v");
        assert_eq!(cache.get("k"), None);
        assert!(cache.is_empty());
        assert_eq!(cache.poison_shard(0), 0);
    }

    #[test]
    fn overwrite_replaces_value_in_place() {
        let cache = tiny(2, 4);
        cache.insert("k", "old");
        cache.insert("k", "new");
        assert_eq!(cache.get("k").as_deref(), Some("new"));
        assert_eq!(cache.len(), 1);
    }

    /// Finds `n` distinct keys that all land in shard 0 of a
    /// `shards`-shard cache, in probing order (deterministic).
    fn colliding_keys(shards: usize, n: usize) -> Vec<String> {
        let mut keys = Vec::new();
        let mut i = 0u64;
        while keys.len() < n {
            let k = format!("key-{i}");
            if key_hash(&k) % shards as u64 == 0 {
                keys.push(k);
            }
            i += 1;
        }
        keys
    }

    #[test]
    fn shard_colliding_keys_evict_in_recency_order() {
        // Eight shards, but every key maps to shard 0, so the per-shard
        // capacity bound (2) governs all of them despite total capacity
        // being 16.
        let keys = colliding_keys(8, 4);
        let cache = tiny(8, 2);
        for (i, k) in keys.iter().take(3).enumerate() {
            cache.insert(k, &format!("v{i}"));
        }
        // Capacity 2: inserting the third colliding key evicts the least
        // recently touched (the first).
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[0]).is_none());
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        // Refresh keys[1], then insert a fourth collider: keys[2] is now
        // the LRU victim even though it was inserted later.
        assert!(cache.get(&keys[1]).is_some());
        cache.insert(&keys[3], "v3");
        assert!(cache.get(&keys[2]).is_none());
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[3]).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions(), 2);
        assert_eq!(stats.shards[0].evictions, 2);
        assert!(stats.shards[1..]
            .iter()
            .all(|s| *s == ShardStats::default()));
    }

    #[test]
    fn collision_eviction_order_is_identical_across_thread_counts() {
        // The cache is only ever touched from the scheduler's serial
        // phases, so a fixed touch sequence must leave identical contents
        // and counters regardless of the worker thread count. Replay the
        // same sequence at 1/2/8 threads and compare observable state.
        let keys = colliding_keys(4, 6);
        let replay = |threads: usize| {
            intertubes_parallel::with_threads(threads, || {
                let cache = tiny(4, 3);
                for (i, k) in keys.iter().enumerate() {
                    cache.insert(k, &format!("resp-{i}"));
                    if i % 2 == 0 {
                        let _ = cache.get(&keys[i / 2]);
                    }
                }
                let survivors: Vec<bool> = keys.iter().map(|k| cache.get(k).is_some()).collect();
                (survivors, cache.stats())
            })
        };
        let one = replay(1);
        assert_eq!(one, replay(2));
        assert_eq!(one, replay(8));
        // Capacity 3 with 6 colliding inserts: exactly 3 evictions.
        assert_eq!(one.1.evictions(), 3);
    }

    #[test]
    fn stats_rows_track_hits_misses_and_insertions() {
        let cache = tiny(2, 8);
        assert!(cache.get("absent").is_none());
        cache.insert("k", "v");
        assert!(cache.get("k").is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 1);
        assert_eq!(stats.shards.iter().map(|s| s.insertions).sum::<u64>(), 1);
        assert_eq!(stats.poison_injected, 0);
    }

    #[test]
    fn poison_counters_separate_injection_from_detection() {
        let cache = tiny(1, 8);
        cache.insert("a", "1");
        cache.insert("b", "2");
        assert_eq!(cache.poison_shard(0), 2);
        assert_eq!(cache.poison_injected(), 2);
        assert_eq!(cache.poisoned_detected(), 0);
        assert!(cache.get("a").is_none());
        assert_eq!(cache.poisoned_detected(), 1);
        let stats = cache.stats();
        assert_eq!(stats.poison_injected, 2);
        assert_eq!(stats.poison_detected(), 1);
    }

    #[test]
    fn poisoned_entries_are_detected_and_evicted() {
        let cache = tiny(1, 8);
        cache.insert("a", "{\"v\":1}");
        cache.insert("b", "{\"v\":2}");
        assert_eq!(cache.poison_shard(0), 2);
        // Entries are still present but corrupt; the next lookup detects
        // the checksum mismatch, evicts, and misses.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a"), None);
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.poisoned_detected(), 2);
        assert!(cache.is_empty());
        // Re-inserting restores normal service.
        cache.insert("a", "{\"v\":1}");
        assert_eq!(cache.get("a").as_deref(), Some("{\"v\":1}"));
    }
}
