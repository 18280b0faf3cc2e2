//! A content-addressed cache of evaluation-ready instances.

use std::hash::BuildHasher;
use std::sync::Arc;

use cq::Instance;

/// A small LRU cache that lets repeated `evaluate` calls on **equal**
/// instances share one instance value — and therefore share what it builds
/// lazily for evaluation, instead of rebuilding it per call: the sorted
/// column orders the join kernel walks.
///
/// No engine or transport uses it: it never hit on a named workload (no
/// two chunks of a Hypercube round are equal). It stays, in the facade
/// only, because the benchmark's frozen `index_warm` probe calls [`IndexCache::new`], [`IndexCache::warm`],
/// [`IndexCache::hits`] and [`IndexCache::misses`]; deleting the type is
/// ROADMAP item 1B's job, once that probe is thawed.
///
/// Keys are a fingerprint of the fact set — a fast, unkeyed hash, since a
/// hit is confirmed by full equality: a collision can cost a comparison
/// but never wrong results.
#[derive(Debug)]
pub struct IndexCache {
    capacity: usize,
    /// Most-recently used first.
    entries: Vec<(u64, Arc<Instance>)>,
    hits: u64,
    misses: u64,
}

impl IndexCache {
    /// A cache holding at most `capacity` instances (at least 1).
    pub fn new(capacity: usize) -> IndexCache {
        IndexCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the cached instance equal to `instance`, admitting a clone
    /// of it on a miss. The returned handle keeps its built orders for as
    /// long as any caller holds it.
    pub fn warm(&mut self, instance: &Instance) -> Arc<Instance> {
        let key = cq::SymbolHashBuilder.hash_one(instance);
        let resident = self
            .entries
            .iter()
            .position(|(k, cached)| *k == key && &**cached == instance);
        let entry = match resident {
            Some(at) => {
                self.hits += 1;
                self.entries.remove(at)
            }
            None => {
                self.misses += 1;
                (key, Arc::new(instance.clone()))
            }
        };
        let handle = entry.1.clone();
        self.entries.insert(0, entry);
        self.entries.truncate(self.capacity);
        handle
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
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
    }

    #[test]
    fn shared_entries_share_their_indexes() {
        let mut cache = IndexCache::new(4);
        let chunk = parse_instance("R(a, b). R(b, c).").unwrap();
        let first = cache.warm(&chunk);
        // An evaluation on the shared handle builds its sorted orders…
        let query = cq::ConjunctiveQuery::parse("T(x, z) :- R(x, y), R(y, z).").unwrap();
        assert_eq!(cq::evaluate(&query, &first).len(), 1);
        let built = first.cached_orders();
        assert!(built > 0);
        // …and the next warm of an equal chunk sees them already built.
        let second = cache.warm(&chunk.clone());
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
        cache.warm(&a);
        assert_eq!(cache.hits(), 2, "a must still be resident");
        cache.warm(&b);
        assert_eq!(cache.misses(), 4, "b must have been evicted");
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
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }
}
