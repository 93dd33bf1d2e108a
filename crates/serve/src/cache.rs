//! Sharded LRU result cache with per-entry retention scopes.
//!
//! Keys are canonical query renderings (endpoint + normalized
//! [`woc_index::FieldQuery`] + k); values are `Arc`-shared responses so a hit
//! never copies the payload. The map is split into shards, each behind its
//! own mutex, so concurrent readers on different shards never contend.
//! Recency is tracked with a per-shard logical clock and a `BTreeMap` from
//! stamp to key, giving `O(log n)` touch and strict least-recently-used
//! eviction without unsafe intrusive lists.
//!
//! Entries deliberately do **not** carry the epoch in their key. Instead
//! each entry records the epoch (generation) it was filled at, plus an
//! optional retention [`Scope`] — the query terms its score depends on and
//! the records its hydration reads. On a segmented delta publish the server
//! calls [`ShardedCache::retain`], which advances the cache generation and
//! keeps only entries whose scope is provably untouched by the delta; a
//! kept entry keeps answering at later epochs without recomputation.
//!
//! Two staleness rules make this sound under concurrent publishes:
//!
//! * [`ShardedCache::insert`] refuses a fill whose pinned generation is not
//!   the cache's current one, so a slow worker that evaluated against an
//!   already-replaced snapshot can never poison the cache.
//! * [`ShardedCache::get`] only returns an entry whose fill generation is
//!   `<=` the reader's pinned epoch: a retained entry is valid from its
//!   fill epoch onward (that is the retention invariant), never backward,
//!   so a reader still pinned on an old snapshot cannot observe a fill from
//!   a newer epoch.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use woc_lrec::LrecId;
use woc_webgen::Fnv1a;

/// What a cached search answer depends on, for sound per-entry retention
/// across epochs: the rendered query terms (free terms plus
/// `field\u{1f}term` scoped renderings) that determine which records match
/// and how they score under pinned statistics, and the result records the
/// hydration step rendered. An entry without a scope (the
/// concept-box and recommendation endpoints, which also read document-side
/// state) can only survive a publish that changed nothing at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    /// Rendered query terms the result set and scores depend on.
    pub terms: Vec<String>,
    /// Records whose content the cached answer was hydrated from.
    pub records: Vec<LrecId>,
}

/// One cached fill: the shared value, its LRU stamp, the epoch it was
/// computed at, and its retention scope.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    stamp: u64,
    generation: u64,
    scope: Option<Scope>,
}

/// One cache shard: key → entry, plus the recency order.
#[derive(Debug)]
struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    order: BTreeMap<u64, String>,
    clock: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<V> Shard<V> {
    fn touch(&mut self, key: &str, epoch: u64) -> Option<Arc<V>> {
        let entry = self.map.get(key)?;
        if entry.generation > epoch {
            // Filled at a newer epoch than the reader's pinned snapshot —
            // not necessarily valid there.
            return None;
        }
        let (value, old) = (Arc::clone(&entry.value), entry.stamp);
        self.clock += 1;
        let now = self.clock;
        self.order.remove(&old);
        self.order.insert(now, key.to_string());
        self.map.get_mut(key).expect("present").stamp = now;
        Some(value)
    }

    fn insert(
        &mut self,
        key: String,
        value: Arc<V>,
        generation: u64,
        scope: Option<Scope>,
        capacity: usize,
    ) {
        if capacity == 0 {
            return;
        }
        self.clock += 1;
        let now = self.clock;
        if let Some(old) = self.map.insert(
            key.clone(),
            Entry {
                value,
                stamp: now,
                generation,
                scope,
            },
        ) {
            self.order.remove(&old.stamp);
        }
        self.order.insert(now, key);
        while self.map.len() > capacity {
            let (&oldest, _) = self.order.iter().next().expect("order tracks map");
            let victim = self.order.remove(&oldest).expect("present");
            self.map.remove(&victim);
        }
    }

    fn retain(&mut self, keep: impl Fn(Option<&Scope>) -> bool) {
        let order = &mut self.order;
        self.map.retain(|_, e| {
            let kept = keep(e.scope.as_ref());
            if !kept {
                order.remove(&e.stamp);
            }
            kept
        });
    }
}

/// A sharded LRU cache from canonical query strings to shared responses,
/// with generation-gated fills and scope-predicated retention.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    generation: AtomicU64,
}

impl<V> ShardedCache<V> {
    /// Cache with `shards` independent LRU shards and `capacity` total
    /// entries (rounded up to a multiple of the shard count). The initial
    /// generation is 1, matching a server's first epoch.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard: capacity.div_ceil(shards),
            generation: AtomicU64::new(1),
        }
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard<V>> {
        // FNV-1a; stable across runs so shard assignment is deterministic.
        &self.shards[(Fnv1a::of(key) % self.shards.len() as u64) as usize]
    }

    /// The current fill generation (the epoch of the last publish the
    /// cache was synchronized to).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Look up `key` on behalf of a reader pinned at `epoch`, refreshing
    /// recency on a hit. Entries filled after `epoch` are invisible.
    pub fn get(&self, key: &str, epoch: u64) -> Option<Arc<V>> {
        self.shard_of(key).lock().touch(key, epoch)
    }

    /// Insert `key → value` computed against the snapshot of `generation`,
    /// evicting least-recently-used entries of the same shard while over
    /// capacity. Refused (silently) when `generation` is not the cache's
    /// current one — the stale-worker guard.
    pub fn insert(&self, key: String, value: Arc<V>, generation: u64, scope: Option<Scope>) {
        let shard = self.shard_of(&key);
        let mut shard = shard.lock();
        if generation != self.generation.load(Ordering::Acquire) {
            return;
        }
        shard.insert(key, value, generation, scope, self.capacity_per_shard);
    }

    /// Full invalidation: advance to `generation` and drop every entry.
    pub fn clear_to(&self, generation: u64) {
        self.generation.store(generation, Ordering::Release);
        for s in &self.shards {
            let mut s = s.lock();
            s.map.clear();
            s.order.clear();
        }
    }

    /// Selective invalidation: advance to `generation`, then keep only the
    /// entries whose scope `keep` approves. Kept entries retain their
    /// original fill generation — they were valid when filled and the
    /// caller certifies the publish did not change their bytes, so they
    /// stay valid at every epoch in between.
    pub fn retain(&self, generation: u64, keep: impl Fn(Option<&Scope>) -> bool) {
        self.generation.store(generation, Ordering::Release);
        for s in &self.shards {
            s.lock().retain(&keep);
        }
    }

    /// Entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scoped(terms: &[&str], records: &[u64]) -> Option<Scope> {
        Some(Scope {
            terms: terms.iter().map(|t| t.to_string()).collect(),
            records: records.iter().map(|&r| LrecId(r)).collect(),
        })
    }

    #[test]
    fn hit_miss_and_clear() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 2);
        assert!(c.get("a", 1).is_none());
        c.insert("a".into(), Arc::new(1), 1, None);
        assert_eq!(*c.get("a", 1).unwrap(), 1);
        assert_eq!(c.len(), 1);
        c.clear_to(2);
        assert!(c.get("a", 2).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn overwrite_replaces_value() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 1);
        c.insert("k".into(), Arc::new(1), 1, None);
        c.insert("k".into(), Arc::new(2), 1, None);
        assert_eq!(*c.get("k", 1).unwrap(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single shard, capacity 2: touching "a" protects it from eviction.
        let c: ShardedCache<u32> = ShardedCache::new(2, 1);
        c.insert("a".into(), Arc::new(1), 1, None);
        c.insert("b".into(), Arc::new(2), 1, None);
        assert!(c.get("a", 1).is_some());
        c.insert("c".into(), Arc::new(3), 1, None);
        assert!(c.get("a", 1).is_some(), "recently touched survives");
        assert!(c.get("b", 1).is_none(), "least recent evicted");
        assert!(c.get("c", 1).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c: ShardedCache<u32> = ShardedCache::new(0, 4);
        c.insert("a".into(), Arc::new(1), 1, None);
        assert!(c.get("a", 1).is_none());
    }

    #[test]
    fn stale_generation_insert_is_refused() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 2);
        c.clear_to(3);
        c.insert("old".into(), Arc::new(1), 2, None);
        assert!(c.is_empty(), "a stale worker's fill must be dropped");
        c.insert("new".into(), Arc::new(2), 3, None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn newer_fills_are_invisible_to_older_readers() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 2);
        c.clear_to(5);
        c.insert("k".into(), Arc::new(9), 5, None);
        assert!(
            c.get("k", 4).is_none(),
            "a reader pinned at epoch 4 must not see an epoch-5 fill"
        );
        assert_eq!(*c.get("k", 5).unwrap(), 9);
        assert_eq!(*c.get("k", 6).unwrap(), 9, "valid forward, not backward");
    }

    #[test]
    fn retain_keeps_approved_scopes_and_their_generation() {
        let c: ShardedCache<u32> = ShardedCache::new(8, 1);
        c.insert("hit".into(), Arc::new(1), 1, scoped(&["a"], &[7]));
        c.insert("term".into(), Arc::new(2), 1, scoped(&["b"], &[8]));
        c.insert("record".into(), Arc::new(3), 1, scoped(&["c"], &[9]));
        c.insert("scopeless".into(), Arc::new(4), 1, None);
        c.retain(2, |scope| {
            scope.is_some_and(|s| {
                !s.terms.iter().any(|t| t == "b") && !s.records.contains(&LrecId(9))
            })
        });
        assert_eq!(c.generation(), 2);
        assert_eq!(*c.get("hit", 2).unwrap(), 1, "untouched scope survives");
        assert!(c.get("term", 2).is_none(), "touched term dropped");
        assert!(c.get("record", 2).is_none(), "touched record dropped");
        assert!(c.get("scopeless", 2).is_none(), "scopeless dropped");
        assert_eq!(c.len(), 1);
    }
}
