//! Content-addressed solution cache with bounded LRU retention.
//!
//! Maps an [`InstanceKey`] to the **canonical JSON rendering** of the
//! solved mapping. Storing the rendered text rather than the structured
//! solution is deliberate: a cache hit must return the *byte-identical*
//! payload of the original solve (the `sim` replay validator and the
//! end-to-end tests compare raw bytes), and re-serializing a struct would
//! couple that guarantee to serializer stability across refactors.
//!
//! The map is sharded by the low bits of the key so concurrent workers on
//! different instances do not contend on one lock; each shard is a
//! `parking_lot::Mutex` around a hash map plus an index-linked LRU list
//! (a slab of nodes chained by indices — no per-node allocation, no
//! unsafe pointers).
//!
//! ## Retention
//!
//! The cache holds at most `capacity` entries **in total** (0 means
//! unbounded). An insert that pushes the live count past the capacity
//! evicts the least-recently-used entry *of the inserting shard* — the
//! classic sharded-LRU approximation: eviction order is exact within a
//! shard and approximate globally, in exchange for never holding more
//! than one shard lock at a time. When the inserting shard holds nothing
//! but the new entry (possible whenever `capacity` is not much larger
//! than the shard count), the eviction spills to the next non-empty
//! shard instead, so an insert never evicts itself and no shard's
//! entries are pinned forever. Because keys spread uniformly (they are
//! the low bits of a 128-bit FNV), the approximation error is small, and
//! the live entry count never exceeds the capacity.
//!
//! Eviction never breaks the byte-identity contract: job records keep an
//! `Arc` of their payload, so an already-completed job still hands out
//! the original bytes, and a re-submission of an evicted key re-solves
//! deterministically to the same canonical JSON (asserted by the
//! retention soak test through `sim::replay`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::hash::InstanceKey;

/// One cached solve.
#[derive(Debug)]
pub struct CacheEntry {
    /// Canonical JSON of the [`crate::queue::JobSolution`].
    pub solution_json: String,
    /// Weighted objective of the solution (denormalized for cheap stats).
    pub objective: f64,
}

/// Cache counters. `hits`/`misses`/`evictions` are monotonic since
/// construction; `entries` is the live entry count and `capacity` the
/// configured bound (0 = unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
    pub evictions: u64,
    pub capacity: u64,
}

impl CacheStats {
    /// Hits over lookups, `0.0` when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Sentinel index terminating the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Node {
    key: InstanceKey,
    entry: Arc<CacheEntry>,
    prev: usize,
    next: usize,
}

/// One shard: key → slab index, plus the shard-local LRU chain.
/// `head` is the most recently used node, `tail` the least.
struct Shard {
    map: HashMap<InstanceKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Mark node `i` as just-used (move to the MRU end).
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Insert a new key at the MRU end. Caller guarantees absence.
    fn insert_new(&mut self, key: InstanceKey, entry: Arc<CacheEntry>) -> usize {
        let node = Node {
            key,
            entry,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        i
    }

    /// Remove and return the least-recently-used entry, if any. The
    /// evicted payload is handed back (not dropped) so the cache can
    /// offer it to the spill hook — the on-disk tier — after the shard
    /// lock is released.
    fn pop_lru(&mut self) -> Option<(InstanceKey, Arc<CacheEntry>)> {
        let i = self.tail;
        if i == NIL {
            return None;
        }
        let key = self.nodes[i].key;
        let entry = self.nodes[i].entry.clone();
        self.unlink(i);
        self.map.remove(&key);
        self.free.push(i);
        Some((key, entry))
    }
}

/// Sharded content-addressed LRU store of solved instances.
///
/// ```
/// use gmm_service::{CacheEntry, SolutionCache, InstanceKey};
///
/// // 4 shards, at most 2 live entries.
/// let cache = SolutionCache::new(4, 2);
/// for n in 0..3u128 {
///     cache.insert(InstanceKey(n), CacheEntry {
///         solution_json: format!("{{\"n\":{n}}}"),
///         objective: n as f64,
///     });
/// }
/// let stats = cache.stats();
/// assert_eq!(stats.entries, 2);
/// assert_eq!(stats.evictions, 1);
/// ```
pub struct SolutionCache {
    shards: Vec<Mutex<Shard>>,
    /// Total live-entry bound across all shards; 0 = unbounded.
    capacity: usize,
    /// Live entry count, kept in step with the shard maps (incremented
    /// after a real insert, decremented after a real eviction) so the
    /// capacity check never takes more than one shard lock.
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Optional eviction spill hook: every LRU-evicted `(key, entry)` is
    /// offered here *after* the shard lock is released, so the memory
    /// tier can demote entries into the persistent tier instead of
    /// silently dropping them. Set once at queue construction.
    spill: OnceLock<SpillFn>,
}

/// Eviction spill callback (see [`SolutionCache::set_spill`]).
type SpillFn = Box<dyn Fn(InstanceKey, &CacheEntry) + Send + Sync>;

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SolutionCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl SolutionCache {
    /// `shards` is rounded up to a power of two (minimum 1) so shard
    /// selection is a mask. `capacity` bounds the total live entries;
    /// 0 means unbounded.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        SolutionCache {
            shards: (0..n)
                .map(|_| Mutex::with_rank(Shard::new(), crate::ranks::CACHE_SHARD, "cache-shard"))
                .collect(),
            capacity,
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spill: OnceLock::new(),
        }
    }

    /// Install the eviction spill hook. Every subsequently evicted
    /// `(key, entry)` is passed to `f` with no cache lock held; entries
    /// evicted before the hook was set are simply dropped. May only be
    /// set once (later calls are ignored).
    pub fn set_spill(&self, f: impl Fn(InstanceKey, &CacheEntry) + Send + Sync + 'static) {
        let _ = self.spill.set(Box::new(f));
    }

    /// The configured entry bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn shard(&self, key: InstanceKey) -> &Mutex<Shard> {
        &self.shards[(key.0 as usize) & (self.shards.len() - 1)]
    }

    /// Look up a solved instance, counting the hit or miss and marking a
    /// hit entry as most recently used.
    pub fn get(&self, key: InstanceKey) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shard(key).lock();
        match shard.map.get(&key).copied() {
            Some(i) => {
                shard.touch(i);
                let entry = shard.nodes[i].entry.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Peek without touching the hit/miss counters or the LRU order
    /// (used by stats paths and the worker's duplicate-solve check).
    pub fn peek(&self, key: InstanceKey) -> Option<Arc<CacheEntry>> {
        let shard = self.shard(key).lock();
        shard.map.get(&key).map(|&i| shard.nodes[i].entry.clone())
    }

    /// Insert a solve. First writer wins: if two workers raced on the same
    /// instance, the already-stored entry is kept (and refreshed as most
    /// recently used) so later hits stay byte-identical with earlier ones
    /// — and the live entry count does not double-count the race.
    ///
    /// If the insert pushes the live count past the capacity, the least
    /// recently used entry of the inserting shard is evicted — unless the
    /// just-inserted entry is that shard's only one, in which case the
    /// eviction spills to the next non-empty shard. The spill matters
    /// when `capacity` is not much larger than the shard count: without
    /// it, a key hashing to an otherwise-empty shard would evict *itself*
    /// and entries pinned in other shards would never become candidates
    /// (newest-evicted/oldest-pinned, the opposite of LRU).
    pub fn insert(&self, key: InstanceKey, entry: CacheEntry) -> Arc<CacheEntry> {
        let shard_idx = (key.0 as usize) & (self.shards.len() - 1);
        let mut shard = self.shards[shard_idx].lock();
        if let Some(&i) = shard.map.get(&key) {
            shard.touch(i);
            return shard.nodes[i].entry.clone();
        }
        let stored = Arc::new(entry);
        shard.insert_new(key, stored.clone());
        let live = self.entries.fetch_add(1, Ordering::AcqRel) + 1;
        if self.capacity > 0 && live > self.capacity {
            // Only evict locally when the victim would not be the entry
            // we just inserted.
            let victim = if shard.map.len() > 1 {
                shard.pop_lru()
            } else {
                None
            };
            drop(shard);
            match victim {
                Some(evicted) => self.note_eviction(evicted),
                None => self.evict_from_other_shard(shard_idx),
            }
        }
        stored
    }

    fn note_eviction(&self, (key, entry): (InstanceKey, Arc<CacheEntry>)) {
        self.entries.fetch_sub(1, Ordering::AcqRel);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(spill) = self.spill.get() {
            spill(key, &entry);
        }
    }

    /// Evict one LRU entry from the first non-empty shard after `from`.
    /// Called with no shard lock held (locks are only ever taken one at a
    /// time, so shards cannot deadlock). Over-capacity implies at least
    /// two live entries, so some other shard is non-empty; if concurrent
    /// evictions drained them all first, the count is already back under
    /// the bound and doing nothing is correct.
    fn evict_from_other_shard(&self, from: usize) {
        let n = self.shards.len();
        for off in 1..n {
            let mut other = self.shards[(from + off) % n].lock();
            if let Some(evicted) = other.pop_lru() {
                drop(other);
                self.note_eviction(evicted);
                return;
            }
        }
    }

    /// Ground-truth live entry count (sums the shard maps).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // `len()` (the shard maps) rather than the atomic counter:
            // `entries` must report the live truth even if the fast-path
            // counter and the maps ever drifted.
            entries: self.len() as u64,
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u128) -> InstanceKey {
        InstanceKey(n)
    }

    fn entry(text: &str) -> CacheEntry {
        CacheEntry {
            solution_json: text.to_string(),
            objective: 1.0,
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = SolutionCache::new(4, 0);
        assert!(cache.get(key(7)).is_none());
        cache.insert(key(7), entry("sol"));
        let hit = cache.get(key(7)).expect("inserted");
        assert_eq!(hit.solution_json, "sol");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn first_writer_wins() {
        let cache = SolutionCache::new(1, 0);
        let first = cache.insert(key(1), entry("first"));
        let second = cache.insert(key(1), entry("second"));
        assert_eq!(first.solution_json, "first");
        assert_eq!(
            second.solution_json, "first",
            "racing insert keeps original bytes"
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats().entries,
            1,
            "racing insert must not double-count entries"
        );
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = SolutionCache::new(5, 0);
        assert_eq!(cache.shards.len(), 8);
        let cache = SolutionCache::new(0, 0);
        assert_eq!(cache.shards.len(), 1);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache = SolutionCache::new(8, 0);
        for n in 0..64 {
            cache.insert(key(n), entry("x"));
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().map.is_empty())
            .count();
        assert_eq!(populated, 8, "sequential keys must not pile into one shard");
    }

    #[test]
    fn capacity_bounds_live_entries() {
        let cache = SolutionCache::new(1, 3);
        for n in 0..10 {
            cache.insert(key(n), entry("x"));
            assert!(cache.len() <= 3, "live entries exceeded the capacity");
        }
        let s = cache.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.evictions, 7);
        assert_eq!(s.capacity, 3);
    }

    /// Three keys that all land in shard 0 of a `shards`-way cache. The
    /// LRU guarantee is per shard: when the inserting shard holds another
    /// entry, the victim is that shard's least recently used entry.
    /// Across shards there is no order to pin.
    fn same_shard_keys(shards: usize) -> [InstanceKey; 3] {
        [1, 2, 3].map(|n| key(n * shards as u128))
    }

    #[test]
    fn eviction_is_lru_ordered() {
        for shards in [1, 4, 16] {
            let cache = SolutionCache::new(shards, 2);
            let [a, b, c] = same_shard_keys(shards);
            cache.insert(a, entry("a"));
            cache.insert(b, entry("b"));
            // Touch a so b becomes the shard's LRU victim.
            assert!(cache.get(a).is_some());
            cache.insert(c, entry("c"));
            assert!(
                cache.peek(a).is_some(),
                "{shards} shards: recently used entry survived"
            );
            assert!(
                cache.peek(b).is_none(),
                "{shards} shards: LRU entry was evicted"
            );
            assert!(
                cache.peek(c).is_some(),
                "{shards} shards: new entry is live"
            );
        }
    }

    #[test]
    fn insert_into_empty_shard_never_evicts_itself() {
        // Capacity smaller than the shard count: keys 0, 1, 2 land in
        // three distinct shards. Without spill eviction the third insert
        // would pop its own shard's only node (itself) and keys 0/1 would
        // be pinned forever; with it, an *older* entry makes way.
        let cache = SolutionCache::new(4, 2);
        cache.insert(key(0), entry("a"));
        cache.insert(key(1), entry("b"));
        cache.insert(key(2), entry("c"));
        assert!(
            cache.peek(key(2)).is_some(),
            "freshly inserted entry must survive its own insert"
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // And the spill keeps honoring the bound on further laps.
        for n in 3..20 {
            cache.insert(key(n), entry("x"));
            assert!(cache.peek(key(n)).is_some());
            assert!(cache.len() <= 2);
        }
    }

    #[test]
    fn reinsert_after_eviction_works() {
        let cache = SolutionCache::new(1, 1);
        cache.insert(key(1), entry("one"));
        cache.insert(key(2), entry("two")); // evicts 1
        assert!(cache.peek(key(1)).is_none());
        let back = cache.insert(key(1), entry("one")); // evicts 2
        assert_eq!(back.solution_json, "one");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn touch_via_insert_refreshes_lru_position() {
        for shards in [1, 4, 16] {
            let cache = SolutionCache::new(shards, 2);
            let [a, b, c] = same_shard_keys(shards);
            cache.insert(a, entry("a"));
            cache.insert(b, entry("b"));
            // Racing duplicate insert of a must refresh it, making b the victim.
            cache.insert(a, entry("a-racer"));
            cache.insert(c, entry("c"));
            assert!(
                cache.peek(a).is_some(),
                "{shards} shards: re-inserted entry survived"
            );
            assert!(
                cache.peek(b).is_none(),
                "{shards} shards: LRU entry was evicted"
            );
        }
    }

    #[test]
    fn peek_does_not_perturb_lru_or_counters() {
        let cache = SolutionCache::new(1, 2);
        cache.insert(key(1), entry("a"));
        cache.insert(key(2), entry("b"));
        assert!(cache.peek(key(1)).is_some()); // no touch
        cache.insert(key(3), entry("c")); // victim must still be 1
        assert!(cache.peek(key(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peek counts nothing");
    }

    #[test]
    fn evictions_flow_through_the_spill_hook() {
        let cache = SolutionCache::new(1, 2);
        let spilled = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = spilled.clone();
        cache.set_spill(move |k, e| sink.lock().push((k, e.solution_json.clone())));
        cache.insert(key(1), entry("a"));
        cache.insert(key(2), entry("b"));
        cache.insert(key(3), entry("c")); // evicts 1 (LRU)
        cache.insert(key(4), entry("d")); // evicts 2
        assert_eq!(
            *spilled.lock(),
            vec![(key(1), "a".to_string()), (key(2), "b".to_string())],
            "every eviction must offer the original payload to the hook"
        );
    }

    #[test]
    fn stats_stay_consistent_under_concurrent_inserts() {
        let cache = std::sync::Arc::new(SolutionCache::new(4, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for n in 0..64u128 {
                        // Overlapping key ranges provoke first-writer races.
                        cache.insert(key(n % 16), entry(&format!("t{t}")));
                        let _ = cache.get(key(n % 16));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 8, "capacity violated: {} entries", s.entries);
        assert_eq!(s.entries, cache.len() as u64);
        assert_eq!(s.hits + s.misses, 4 * 64, "every get counted exactly once");
    }
}
