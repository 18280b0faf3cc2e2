//! A content-addressed cache of evaluation-ready instances.

use std::hash::BuildHasher;
use std::sync::Arc;

use cq::Instance;
use obs::Counter;

/// A small LRU cache that lets repeated `evaluate` calls on **equal**
/// instances share one instance value — and therefore share what it builds
/// lazily for evaluation, instead of rebuilding it per call: the sorted
/// column orders the join kernel walks.
///
/// The motivating pattern is a broadcast (or highly replicated) round:
/// every node's chunk is the same instance, but each materialized copy
/// would sort its own orders from scratch. Warming the chunks through a
/// shared `IndexCache` collapses them onto one
/// [`Arc`]`<`[`Instance`]`>`, whose orders are built once (by the first
/// evaluation that needs them) and reused by every other node — across
/// rounds too, for as long as the entry stays resident.
///
/// Keys are a fingerprint of the fact set — a fast, unkeyed hash, since a
/// hit is confirmed by full equality: a collision can cost a comparison
/// but never wrong results.
#[derive(Debug)]
pub struct IndexCache {
    capacity: usize,
    /// Most-recently used first.
    entries: Vec<(u64, Arc<Instance>)>,
    /// Hit/miss counters are shared [`Counter`] handles, so a transport
    /// can register the same values in its metrics registry — the cache
    /// increments, the registry reports, one source of truth.
    hits: Counter,
    misses: Counter,
}

/// A snapshot of an [`IndexCache`]'s hit/miss counters, suitable for
/// embedding in decision reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Warm requests answered by a resident instance.
    pub hits: u64,
    /// Warm requests that had to admit a new instance.
    pub misses: u64,
}

impl CacheStats {
    /// Pointwise sum with another snapshot.
    pub fn merge(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

fn fingerprint(instance: &Instance) -> u64 {
    cq::SymbolHashBuilder.hash_one(instance)
}

impl IndexCache {
    /// A cache holding at most `capacity` instances (at least 1), with
    /// standalone (unregistered) counters.
    pub fn new(capacity: usize) -> IndexCache {
        IndexCache::with_counters(capacity, Counter::detached(), Counter::detached())
    }

    /// A cache whose hit/miss counters are caller-provided handles —
    /// typically `registry.counter("index_cache_hits")` /
    /// `registry.counter("index_cache_misses")` — so the owning
    /// transport's metrics registry reads the very counts the cache
    /// increments.
    pub fn with_counters(capacity: usize, hits: Counter, misses: Counter) -> IndexCache {
        IndexCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits,
            misses,
        }
    }

    /// Moves the entry equal to `instance` to the front and returns its
    /// handle, if resident.
    fn lookup(&mut self, key: u64, instance: &Instance) -> Option<Arc<Instance>> {
        let at = self
            .entries
            .iter()
            .position(|(k, cached)| *k == key && &**cached == instance)?;
        self.hits.inc();
        let entry = self.entries.remove(at);
        let handle = entry.1.clone();
        self.entries.insert(0, entry);
        Some(handle)
    }

    fn admit(&mut self, key: u64, handle: Arc<Instance>) -> Arc<Instance> {
        self.misses.inc();
        self.entries.insert(0, (key, handle.clone()));
        self.entries.truncate(self.capacity);
        handle
    }

    /// Returns the cached instance equal to `instance`, admitting
    /// `instance` itself (the handle, not a copy) on a miss. The returned
    /// handle keeps its built orders for as long as any caller holds it.
    pub fn warm_shared(&mut self, instance: Arc<Instance>) -> Arc<Instance> {
        let key = fingerprint(&instance);
        match self.lookup(key, &instance) {
            Some(handle) => handle,
            None => self.admit(key, instance),
        }
    }

    /// Like [`IndexCache::warm_shared`] for a borrowed instance (clones on
    /// a miss).
    pub fn warm(&mut self, instance: &Instance) -> Arc<Instance> {
        let key = fingerprint(instance);
        match self.lookup(key, instance) {
            Some(handle) => handle,
            None => self.admit(key, Arc::new(instance.clone())),
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// A copyable snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Number of resident instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every resident instance (the hit/miss counters survive).
    /// Callers with a natural sharing horizon — e.g. a transport whose
    /// chunks can only repeat within one round — clear at the horizon so
    /// the cache never pins stale instances.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Default for IndexCache {
    /// A cache sized for a typical simulated network (16 entries).
    fn default() -> IndexCache {
        IndexCache::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq::parse_instance;

    #[test]
    fn equal_instances_share_one_entry() {
        let mut cache = IndexCache::new(4);
        let a = parse_instance("R(a, b). R(b, c).").unwrap();
        let first = cache.warm(&a);
        let second = cache.warm(&a.clone());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_entries_share_their_indexes() {
        let mut cache = IndexCache::new(4);
        let chunk = parse_instance("R(a, b). R(b, c).").unwrap();
        let first = cache.warm_shared(Arc::new(chunk.clone()));
        // An evaluation on the shared handle builds its sorted orders…
        let query = cq::ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        assert_eq!(cq::evaluate(&query, &first).len(), 1);
        let built = first.cached_orders();
        assert!(built > 0);
        // …and the next warm of an equal chunk sees them already built.
        let second = cache.warm_shared(Arc::new(chunk));
        assert_eq!(second.cached_orders(), built);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut cache = IndexCache::new(2);
        let a = parse_instance("R(a, a).").unwrap();
        let b = parse_instance("R(b, b).").unwrap();
        let c = parse_instance("R(c, c).").unwrap();
        cache.warm(&a);
        cache.warm(&b);
        cache.warm(&a); // refresh a; b is now least recent
        cache.warm(&c); // evicts b
        assert_eq!(cache.len(), 2);
        cache.warm(&a);
        assert_eq!(cache.hits(), 2, "a must still be resident");
        cache.warm(&b);
        assert_eq!(cache.misses(), 4, "b must have been evicted");
    }

    #[test]
    fn registry_backed_counters_report_the_same_values() {
        // The migration contract: a cache built over registry counters
        // makes `hits()`/`misses()` and the registry's view one value.
        let registry = obs::Registry::new();
        let mut cache = IndexCache::with_counters(
            4,
            registry.counter("index_cache_hits"),
            registry.counter("index_cache_misses"),
        );
        let a = parse_instance("R(a, b).").unwrap();
        cache.warm(&a);
        cache.warm(&a.clone());
        cache.warm(&a.clone());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        assert_eq!(registry.counter_value("index_cache_hits"), cache.hits());
        assert_eq!(registry.counter_value("index_cache_misses"), cache.misses());
    }

    #[test]
    fn collisionless_lookup_is_by_value_not_just_by_hash() {
        let mut cache = IndexCache::new(4);
        let a = parse_instance("R(a, b).").unwrap();
        let b = parse_instance("R(a, c).").unwrap();
        let wa = cache.warm(&a);
        let wb = cache.warm(&b);
        assert!(!Arc::ptr_eq(&wa, &wb));
        assert_eq!(&*wa, &a);
        assert_eq!(&*wb, &b);
        assert_eq!(cache.len(), 2);
    }
}
