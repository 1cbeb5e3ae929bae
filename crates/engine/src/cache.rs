//! Sharded pattern→estimate cache.
//!
//! Serving workloads are read-heavy and repetitive: the same audit
//! patterns are estimated over and over against the same label. The cache
//! memoizes `pattern → estimate` per stored dataset. Sharding keeps lock
//! contention low under concurrent batches — each pattern hashes to one of
//! `shards` independent `Mutex<FxHashMap>` slices, so two threads only
//! contend when their patterns collide on a shard.
//!
//! Invalidation is the owner's job: [`crate::store::LabelStore`] empties
//! the cache whenever a dataset's generation bumps. A refresh
//! [clears](ShardedCache::clear) it, resetting the hit/miss counters with
//! it; an append [invalidates](ShardedCache::invalidate) every entry and
//! keeps the counters, since the dataset it counts for is the same one.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pclabel_core::hash::{FxHashMap, FxHasher};
use pclabel_core::pattern::Pattern;

/// Default shard count (power of two for cheap masking).
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity (entries) before the shard is reset.
pub const DEFAULT_SHARD_CAPACITY: usize = 8_192;

/// Hit/miss/invalidation counters, cheap enough to bump on the hot path.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl CacheStats {
    /// Cache hits since creation (or last [`ShardedCache::clear`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation (or last [`ShardedCache::clear`]).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by refresh/append invalidation since creation.
    /// Unlike hits/misses this is *not* reset by [`ShardedCache::clear`]
    /// — clearing is itself an invalidation event, and operators trend
    /// this counter across refreshes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

/// A sharded, bounded `pattern → estimate` map.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Mutex<FxHashMap<Pattern, f64>>]>,
    mask: usize,
    shard_capacity: usize,
    stats: CacheStats,
}

impl ShardedCache {
    /// Creates a cache with `shards` slices (rounded up to a power of
    /// two) of at most `shard_capacity` entries each.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            mask: shards - 1,
            shard_capacity: shard_capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    fn shard_of(&self, pattern: &Pattern) -> &Mutex<FxHashMap<Pattern, f64>> {
        let mut h = FxHasher::default();
        pattern.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Looks `pattern` up, recording a hit or miss.
    pub fn get(&self, pattern: &Pattern) -> Option<f64> {
        let found = self
            .shard_of(pattern)
            .lock()
            .expect("cache shard")
            .get(pattern)
            .copied();
        match found {
            Some(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an estimate. A full shard is reset first — crude but
    /// constant-time eviction that bounds memory at
    /// `shards × shard_capacity` entries.
    pub fn insert(&self, pattern: Pattern, estimate: f64) {
        let mut shard = self.shard_of(&pattern).lock().expect("cache shard");
        if shard.len() >= self.shard_capacity && !shard.contains_key(&pattern) {
            shard.clear();
        }
        shard.insert(pattern, estimate);
    }

    /// Total cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry, counting them toward
    /// [`CacheStats::invalidations`], and keeps the hit/miss counters
    /// (used on append).
    pub fn invalidate(&self) {
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().expect("cache shard");
            dropped += shard.len() as u64;
            shard.clear();
        }
        self.stats
            .invalidations
            .fetch_add(dropped, Ordering::Relaxed);
    }

    /// [`ShardedCache::invalidate`], then resets the hit/miss counters
    /// (used on label refresh).
    pub fn clear(&self) {
        self.invalidate();
        self.stats.hits.store(0, Ordering::Relaxed);
        self.stats.misses.store(0, Ordering::Relaxed);
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

impl Default for ShardedCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }
}

impl pclabel_data::mem::HeapBytes for ShardedCache {
    /// Per-shard table slots (swiss-table model: key + value + control
    /// byte per unit of capacity) plus the heap the cached patterns'
    /// term vectors own.
    fn heap_bytes(&self) -> u64 {
        let slot = (std::mem::size_of::<Pattern>() + std::mem::size_of::<f64>() + 1) as u64;
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard");
                shard.capacity() as u64 * slot
                    + shard
                        .keys()
                        .map(|p| (p.terms().count() * std::mem::size_of::<(u16, u32)>()) as u64)
                        .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(a: usize, v: u32) -> Pattern {
        Pattern::from_terms([(a, v)])
    }

    #[test]
    fn get_insert_and_stats() {
        let c = ShardedCache::default();
        assert_eq!(c.get(&pat(0, 1)), None);
        c.insert(pat(0, 1), 42.0);
        assert_eq!(c.get(&pat(0, 1)), Some(42.0));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits(), 0);
        // clear() dropped one entry; the invalidation counter survives
        // the hit/miss reset.
        assert_eq!(c.stats().invalidations(), 1);
    }

    #[test]
    fn capacity_bound_resets_full_shards() {
        let c = ShardedCache::new(1, 4);
        for v in 0..16u32 {
            c.insert(pat(0, v), v as f64);
        }
        assert!(c.len() <= 4, "len {} exceeds shard capacity", c.len());
        // The most recent insert always survives the reset.
        assert_eq!(c.get(&pat(0, 15)), Some(15.0));
    }

    #[test]
    fn invalidate_drops_entries_and_keeps_counters() {
        let c = ShardedCache::default();
        c.insert(pat(0, 1), 1.0);
        c.insert(pat(0, 2), 2.0);
        assert_eq!(c.get(&pat(0, 1)), Some(1.0));
        assert_eq!(c.get(&pat(0, 3)), None);
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations(), 2);
        assert_eq!((c.stats().hits(), c.stats().misses()), (1, 1));
        // The counters keep counting after it.
        assert_eq!(c.get(&pat(0, 1)), None);
        assert_eq!((c.stats().hits(), c.stats().misses()), (1, 2));
    }

    #[test]
    fn concurrent_mixed_load() {
        let c = std::sync::Arc::new(ShardedCache::new(8, 1024));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let p = pat(t % 4, i % 64);
                        match c.get(&p) {
                            Some(v) => assert_eq!(v, (i % 64) as f64),
                            None => c.insert(p, (i % 64) as f64),
                        }
                    }
                });
            }
        });
        assert!(c.stats().hits() + c.stats().misses() >= 4000);
    }
}
