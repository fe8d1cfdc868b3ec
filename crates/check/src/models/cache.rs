//! Model: the real [`SolutionCache`] under racing inserts of a
//! duplicate key plus a capacity-forced eviction.
//!
//! Invariants asserted over every interleaving:
//! * entries never exceed capacity, and the `entries` counter equals
//!   the true table size (the conservation law the soaks sample);
//! * an insert's returned entry is always a canonical stored payload,
//!   never a torn mix of the racing writers;
//! * every eviction is offered to the spill hook exactly once;
//! * stored + evicted counts conserve the number of winning inserts.

use crate::explore::ModelRun;
use gmm_service::cache::{CacheEntry, SolutionCache};
use gmm_service::hash::InstanceKey;
use parking_lot::Mutex;
use std::sync::Arc;

const K1: InstanceKey = InstanceKey(1);
const K2: InstanceKey = InstanceKey(2);

fn entry(payload: &str) -> CacheEntry {
    CacheEntry {
        solution_json: payload.to_string(),
        objective: 1.0,
    }
}

pub fn build() -> ModelRun {
    // One shard and capacity one: every distinct-key insert contends,
    // and the second distinct key must evict.
    let cache = Arc::new(SolutionCache::new(1, 1));
    let spilled: Arc<Mutex<Vec<InstanceKey>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let spilled = spilled.clone();
        cache.set_spill(move |key, _entry| spilled.lock().push(key));
    }

    let returned: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let hits_expected = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let t1 = {
        let (cache, returned) = (cache.clone(), returned.clone());
        Box::new(move || {
            let stored = cache.insert(K1, entry("payload-a"));
            returned.lock().push(stored.solution_json.clone());
        }) as Box<dyn FnOnce() + Send>
    };
    let t2 = {
        let (cache, returned) = (cache.clone(), returned.clone());
        Box::new(move || {
            let stored = cache.insert(K1, entry("payload-b"));
            returned.lock().push(stored.solution_json.clone());
        }) as Box<dyn FnOnce() + Send>
    };
    let t3 = {
        let (cache, hits_expected) = (cache.clone(), hits_expected.clone());
        Box::new(move || {
            cache.insert(K2, entry("payload-c"));
            if cache.get(K1).is_some() {
                hits_expected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }) as Box<dyn FnOnce() + Send>
    };

    let check = Box::new(move || {
        let stats = cache.stats();
        assert!(
            cache.len() <= 1,
            "capacity exceeded: {} entries in a 1-entry cache",
            cache.len()
        );
        assert_eq!(
            stats.entries,
            cache.len() as u64,
            "entries counter diverged from table size"
        );
        // K1 raced by two writers, K2 stored once: between 2 and 3
        // inserts won a slot; everything that won and isn't resident
        // was evicted (and spilled exactly once).
        let wins = stats.entries + stats.evictions;
        assert!(
            (2..=3).contains(&wins),
            "stored+evicted = {wins}, expected 2..=3 (entries {}, evictions {})",
            stats.entries,
            stats.evictions
        );
        let spilled = spilled.lock();
        assert_eq!(
            spilled.len() as u64,
            stats.evictions,
            "every eviction must be offered to the spill hook exactly once"
        );
        assert!(spilled.iter().all(|k| *k == K1 || *k == K2));
        // Returned entries are canonical stored payloads, never torn.
        let returned = returned.lock();
        assert_eq!(returned.len(), 2);
        for json in returned.iter() {
            assert!(
                json == "payload-a" || json == "payload-b",
                "insert returned a non-canonical payload: {json}"
            );
        }
        // T3's single get is the only one: hit + miss counters conserve.
        assert_eq!(stats.hits + stats.misses, 1, "exactly one lookup ran");
        assert_eq!(
            stats.hits,
            hits_expected.load(std::sync::atomic::Ordering::Relaxed),
            "hit counter must match observed get outcomes"
        );
    }) as Box<dyn FnOnce()>;

    ModelRun {
        threads: vec![t1, t2, t3],
        check,
    }
}
