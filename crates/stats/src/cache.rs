//! Cache primitives backing [`crate::dataview::DataView`]: a compact LRU
//! with O(1) touch/insert/evict, and a sharded, thread-safe wrapper so the
//! parallel PC-stable sweep does not serialize on a single lock.
//!
//! Everything cached here is a *pure function of the immutable view data*,
//! so cache hits are bit-identical to recomputation by construction; the
//! equivalence tests in `tests/dataview_equivalence.rs` assert this.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A fast non-cryptographic hasher (the FxHash multiply-xor scheme rustc
/// uses). The skeleton hot loop probes these caches thousands of times per
/// level; SipHash's per-probe cost is measurable there, and HashDoS
/// resistance buys nothing for process-internal statistic keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map: `HashMap` index into a slab of
/// entries threaded on an intrusive doubly-linked recency list.
struct LruCache<K, V> {
    map: HashMap<K, usize, FxBuild>,
    slab: Vec<Entry<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache evicting beyond `capacity` entries.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Self {
            map: HashMap::with_capacity_and_hasher(capacity.min(4096), FxBuild::default()),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Drops every entry, keeping the allocated capacity for reuse.
    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Approximate resident bytes: per-entry slab + index overhead plus
    /// `value_bytes` of every live value. Every slab slot is live (eviction
    /// reuses the tail slot in place), so the slab *is* the value set.
    fn approx_bytes(&self, mut value_bytes: impl FnMut(&V) -> usize) -> usize {
        let fixed = std::mem::size_of::<Entry<K, V>>() + std::mem::size_of::<(K, usize)>();
        self.slab
            .iter()
            .map(|e| fixed + value_bytes(&e.value))
            .sum()
    }

    /// Looks up `key` without altering recency (read-only).
    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slab[i].value)
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    #[cfg(test)]
    fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slab[i].value)
    }

    /// Inserts `key → value`, evicting the least-recently-used entry at
    /// capacity. An existing key is overwritten and refreshed. Returns
    /// `true` when an unrelated entry was evicted to make room — the
    /// signal the sharded wrapper's eviction counter is built on.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return false;
        }
        let mut evicted = false;
        let i = if self.map.len() >= self.capacity {
            // Reuse the evicted tail slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.slab[victim].key = key.clone();
            self.slab[victim].value = value;
            evicted = true;
            victim
        } else {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }
}

/// Hit/miss counters for cache observability (used by the benches and the
/// equivalence tests to prove the cache is actually exercised).
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Records a hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a capacity eviction.
    pub fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// A sharded, mutex-protected LRU: keys hash to one of `SHARDS` independent
/// caches so concurrent CI tests rarely contend on the same lock.
struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
    stats: CacheStats,
}

const SHARDS: usize = 8;

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a sharded cache with `capacity` entries in total.
    fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(1);
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            stats: CacheStats::default(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<LruCache<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // The shard's inner HashMap uses the same hash function; picking
        // the shard from the LOW bits would leave every shard's keys
        // agreeing on those bits and cluster hashbrown's bucket indices
        // (which are the low bits). Use middle bits instead — untouched by
        // bucket selection at any realistic table size and by the top-7
        // control tag.
        &self.shards[((h.finish() >> 32) as usize) % SHARDS]
    }

    /// Raw lookup without touching the recency list (the epoch-aware
    /// wrapper keeps its own hit/miss stats; its working sets sit far below
    /// capacity, so recency upkeep on the read path buys nothing and the
    /// skeleton hot loop probes here thousands of times per level).
    fn peek(&self, key: &K) -> Option<V> {
        let shard = self.shard(key).lock().expect("lru poisoned");
        shard.peek(key).cloned()
    }

    /// Raw insert; capacity evictions are counted — they are a property of
    /// the cache, not of the probe discipline.
    fn put(&self, key: K, value: V) {
        if self
            .shard(&key)
            .lock()
            .expect("lru poisoned")
            .insert(key, value)
        {
            self.stats.evicted();
        }
    }

    /// Cache observability counters (only evictions are recorded here).
    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Drops every entry in every shard (the eviction counter is kept — it
    /// is cumulative observability, not cache contents).
    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("lru poisoned").clear();
        }
    }

    /// Approximate resident bytes across shards (see
    /// [`LruCache::approx_bytes`]); takes each shard lock briefly.
    fn approx_bytes(&self, mut value_bytes: impl FnMut(&V) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("lru poisoned")
                    .approx_bytes(&mut value_bytes)
            })
            .sum()
    }

    /// Total number of live entries across shards.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("lru poisoned").len())
            .sum()
    }

    /// True when every shard is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An epoch-tagged, sharded LRU: every entry records the data epoch it
/// was computed at. A lookup *hits* only when the entry's epoch matches the
/// caller's; a mismatched entry is reported as stale, recomputed, and
/// overwritten in place. This is what lets the `DataView` caches *survive*
/// sample appends — capacity, allocations, and hot keys persist across the
/// epoch bump — while guaranteeing a value computed on one epoch's data is
/// never served for another.
pub struct EpochLru<K, V> {
    inner: ShardedLru<K, (u64, V)>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> EpochLru<K, V> {
    /// Creates an epoch-tagged cache with `capacity` entries in total.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: ShardedLru::new(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Returns the cached value when its epoch matches `epoch`, otherwise
    /// computes, caches at `epoch`, and returns it. `compute` must be a
    /// pure function of the key and the data identified by `epoch`; it may
    /// consult [`Self::stale`] to upgrade a previous epoch's value.
    pub fn get_or_insert_with(&self, key: K, epoch: u64, compute: impl FnOnce() -> V) -> V {
        if let Some((e, v)) = self.inner.peek(&key) {
            if e == epoch {
                self.stats.hit();
                return v;
            }
        }
        self.stats.miss();
        let v = compute();
        self.inner.put(key, (epoch, v.clone()));
        v
    }

    /// The entry stored under `key` regardless of epoch, with the epoch it
    /// was computed at — the hook for incremental upgrades (e.g. extending
    /// a categorical discretization by the appended rows only).
    pub fn stale(&self, key: &K) -> Option<(u64, V)> {
        self.inner.peek(key)
    }

    /// Probes for `key` at exactly `epoch`, counting a hit or miss. The
    /// probe half of the split probe/insert discipline callers use when
    /// the value is produced *later* by a batch computation (the sweep
    /// cache probes every planned sweep up front, runs the misses through
    /// the lane scheduler, then [`Self::put`]s the results) — unlike
    /// [`Self::get_or_insert_with`], nothing is computed under the probe.
    pub fn get(&self, key: &K, epoch: u64) -> Option<V> {
        match self.inner.peek(key) {
            Some((e, v)) if e == epoch => {
                self.stats.hit();
                Some(v)
            }
            _ => {
                self.stats.miss();
                None
            }
        }
    }

    /// Inserts `key → value` at `epoch`, overwriting any entry (stale or
    /// current) under the same key. The insert half of the split
    /// probe/insert discipline; does not touch the hit/miss counters.
    pub fn put(&self, key: K, epoch: u64, value: V) {
        self.inner.put(key, (epoch, value));
    }

    /// Hit/miss counters (hits count only epoch-exact lookups).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Total capacity evictions in the backing store — distinct from the
    /// in-place overwrite of a stale epoch's entry, which is not an
    /// eviction (the key stays resident).
    pub fn evictions(&self) -> u64 {
        self.inner.stats().evictions()
    }

    /// Drops every entry (any epoch), keeping counters and capacity. Safe
    /// at any time: everything cached is a pure function of the key and
    /// its epoch's data, so the next lookup recomputes bit-identically.
    pub fn clear(&self) {
        self.inner.clear();
    }

    /// Approximate resident bytes across shards: per-entry overhead plus
    /// `value_bytes` of every cached value, any epoch. Cheap introspection
    /// for memory-budget accounting — an estimate (map capacity and
    /// allocator slack are not counted), not an allocator audit.
    pub fn approx_bytes(&self, mut value_bytes: impl FnMut(&V) -> usize) -> usize {
        self.inner.approx_bytes(|(_, v)| value_bytes(v))
    }

    /// Total live entries across shards (any epoch).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<K, V> std::fmt::Debug for EpochLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochLru")
            .field("hits", &self.stats.hits())
            .field("misses", &self.stats.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_basic_roundtrip() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        c.get(&1); // 2 is now LRU
        c.insert(3, "three");
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_overwrite_refreshes() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh 1; 2 becomes LRU
        c.insert(3, 30);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn lru_single_slot() {
        let mut c = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i * i);
            assert_eq!(c.get(&i), Some(&(i * i)));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn epoch_lru_hits_only_on_matching_epoch() {
        let c: EpochLru<u32, f64> = EpochLru::new(16);
        let v0 = c.get_or_insert_with(1, 0, || 1.5);
        assert_eq!(v0, 1.5);
        // Same epoch: hit, closure must not run.
        let v1 = c.get_or_insert_with(1, 0, || panic!("must hit"));
        assert_eq!(v1, 1.5);
        // New epoch: stale entry visible, lookup misses and overwrites.
        assert_eq!(c.stale(&1), Some((0, 1.5)));
        let v2 = c.get_or_insert_with(1, 1, || 2.5);
        assert_eq!(v2, 2.5);
        assert_eq!(c.stale(&1), Some((1, 2.5)));
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 2);
        assert_eq!(c.len(), 1, "epoch bump must overwrite, not duplicate");
    }

    #[test]
    fn epoch_lru_split_probe_insert() {
        let c: EpochLru<u32, f64> = EpochLru::new(16);
        assert_eq!(c.get(&7, 0), None, "cold probe misses");
        c.put(7, 0, 4.25);
        assert_eq!(c.get(&7, 0), Some(4.25), "probe hits at the put epoch");
        assert_eq!(c.get(&7, 1), None, "stale epoch never hits");
        c.put(7, 1, 8.5);
        assert_eq!(c.get(&7, 1), Some(8.5));
        assert_eq!(c.len(), 1, "epoch bump overwrites in place");
        assert_eq!(c.stats().hits(), 2);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn eviction_counter_tracks_capacity_pressure() {
        // SHARDS=8 shards of one slot each: the 9th distinct key must
        // land on an occupied shard and evict.
        let c: ShardedLru<u32, u32> = ShardedLru::new(8);
        for k in 0..64 {
            c.put(k, k);
        }
        assert!(c.stats().evictions() > 0, "one-slot shards must evict");
        c.put(1000, 1);
        c.put(1000, 2);
        let before = c.stats().evictions();
        c.put(1000, 3); // overwrite in place: not an eviction
        assert_eq!(c.stats().evictions(), before);

        let e: EpochLru<u32, u32> = EpochLru::new(8);
        for k in 0..64 {
            e.put(k, 0, k);
        }
        assert!(e.evictions() > 0);
        assert_eq!(
            e.stats().evictions(),
            0,
            "probe stats never count evictions"
        );
    }

    #[test]
    fn clear_empties_every_layer_and_reuse_works() {
        let mut lru = LruCache::new(4);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&1), None);
        lru.insert(3, 30);
        assert_eq!(lru.get(&3), Some(&30));

        let epoch: EpochLru<u32, u64> = EpochLru::new(16);
        let _ = epoch.get_or_insert_with(1, 0, || 7);
        let _ = epoch.get_or_insert_with(2, 0, || 8);
        assert_eq!(epoch.len(), 2);
        epoch.clear();
        assert!(epoch.is_empty());
        // Counters survive; recomputation after a clear is a miss.
        let v = epoch.get_or_insert_with(1, 0, || 7);
        assert_eq!(v, 7);
        assert_eq!(epoch.stats().misses(), 3);
    }

    #[test]
    fn approx_bytes_tracks_entries() {
        let epoch: EpochLru<u32, Vec<u8>> = EpochLru::new(16);
        assert_eq!(epoch.approx_bytes(Vec::len), 0);
        let _ = epoch.get_or_insert_with(1, 0, || vec![0u8; 100]);
        let one = epoch.approx_bytes(Vec::len);
        assert!(one >= 100, "value bytes must be counted: {one}");
        let _ = epoch.get_or_insert_with(2, 0, || vec![0u8; 100]);
        let two = epoch.approx_bytes(Vec::len);
        assert!(two > one, "second entry must grow the estimate");
        epoch.clear();
        assert_eq!(epoch.approx_bytes(Vec::len), 0);
    }
}
