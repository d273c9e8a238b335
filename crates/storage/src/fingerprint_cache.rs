//! The chunk fingerprint cache: container-granular, locality-preserving, LRU.
//!
//! When a representative fingerprint hits in the similarity index, the full
//! fingerprint list of the mapped container is prefetched from the container's
//! metadata section into this cache (Section 3.3).  Subsequent chunk-fingerprint
//! lookups for the same super-chunk then hit in RAM instead of the on-disk chunk
//! index, which is what removes the disk index-lookup bottleneck.  Entries are
//! evicted with an LRU policy at container granularity.

use crate::ContainerId;
use parking_lot::Mutex;
use sigma_hashkit::{Fingerprint, FingerprintMap, FingerprintSet};
use std::collections::{HashMap, VecDeque};

/// Statistics of a [`FingerprintCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Chunk-fingerprint lookups served from the cache.
    pub lookups: u64,
    /// Lookups that found the fingerprint in some cached container.
    pub hits: u64,
    /// Containers prefetched into the cache.
    pub prefetches: u64,
    /// Containers evicted to make room.
    pub evictions: u64,
    /// Containers currently cached.
    pub cached_containers: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit, or 0 when no lookups were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

struct CacheInner {
    /// Per-container fingerprint sets.
    containers: HashMap<ContainerId, FingerprintSet>,
    /// Reverse map for O(1) membership tests across all cached containers.
    fingerprints: FingerprintMap<ContainerId>,
    /// LRU order: front = least recently used.
    lru: VecDeque<ContainerId>,
    stats: CacheStats,
}

/// An LRU cache of container fingerprint lists.
///
/// # Example
///
/// ```
/// use sigma_storage::{ContainerId, FingerprintCache};
/// use sigma_hashkit::{Digest, Sha1};
///
/// let cache = FingerprintCache::new(2);
/// let fp = Sha1::fingerprint(b"chunk");
/// cache.insert_container(ContainerId::new(1), vec![fp]);
/// assert_eq!(cache.lookup(&fp), Some(ContainerId::new(1)));
/// ```
pub struct FingerprintCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for FingerprintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FingerprintCache")
            .field("capacity", &self.capacity)
            .field("cached_containers", &inner.containers.len())
            .finish()
    }
}

impl FingerprintCache {
    /// Creates a cache holding at most `capacity` containers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        FingerprintCache {
            capacity,
            inner: Mutex::new(CacheInner {
                containers: HashMap::new(),
                fingerprints: FingerprintMap::default(),
                lru: VecDeque::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Maximum number of containers the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts (prefetches) a container's fingerprint list, evicting the least
    /// recently used container if the cache is full.
    pub fn insert_container(
        &self,
        container: ContainerId,
        fingerprints: impl IntoIterator<Item = Fingerprint>,
    ) {
        let mut inner = self.inner.lock();
        inner.stats.prefetches += 1;

        if inner.containers.contains_key(&container) {
            // Refresh recency only.
            Self::touch(&mut inner, container);
            return;
        }

        while inner.containers.len() >= self.capacity {
            if let Some(victim) = inner.lru.pop_front() {
                Self::drop_fingerprints(&mut inner, victim);
                inner.stats.evictions += 1;
            } else {
                break;
            }
        }

        let set: FingerprintSet = fingerprints.into_iter().collect();
        for fp in &set {
            inner.fingerprints.insert(*fp, container);
        }
        inner.containers.insert(container, set);
        inner.lru.push_back(container);
        inner.stats.cached_containers = inner.containers.len() as u64;
    }

    /// Removes a container's fingerprint set and the reverse entries it still
    /// owns; its LRU position is the caller's to drop.
    fn drop_fingerprints(inner: &mut CacheInner, container: ContainerId) {
        if let Some(set) = inner.containers.remove(&container) {
            for fp in set {
                // Only remove reverse entries still owned by this container.
                if inner.fingerprints.get(&fp) == Some(&container) {
                    inner.fingerprints.remove(&fp);
                }
            }
        }
    }

    /// Forgets a container that no longer holds its chunks here (migrated
    /// away, collected or compacted), so no lookup answers it again.
    pub fn remove_container(&self, container: ContainerId) {
        let mut inner = self.inner.lock();
        Self::drop_fingerprints(&mut inner, container);
        inner.lru.retain(|&c| c != container);
        inner.stats.cached_containers = inner.containers.len() as u64;
    }

    /// Moves `container` to the most-recent end.  A hit on the most recent
    /// container, the usual case inside a super-chunk, returns at once
    /// instead of scanning the deque from its least-recent end.
    fn touch(inner: &mut CacheInner, container: ContainerId) {
        if inner.lru.back() == Some(&container) {
            return;
        }
        if let Some(pos) = inner.lru.iter().rposition(|&c| c == container) {
            inner.lru.remove(pos);
            inner.lru.push_back(container);
        }
    }

    /// Looks up a chunk fingerprint across all cached containers.
    ///
    /// A hit refreshes the owning container's recency.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<ContainerId> {
        let mut inner = self.inner.lock();
        inner.stats.lookups += 1;
        let owner = inner.fingerprints.get(fp).copied();
        if let Some(cid) = owner {
            inner.stats.hits += 1;
            Self::touch(&mut inner, cid);
        }
        owner
    }

    /// True if the given container is currently cached.
    pub fn contains_container(&self, container: ContainerId) -> bool {
        self.inner.lock().containers.contains_key(&container)
    }

    /// Number of containers currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().containers.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cache statistics.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.inner.lock().stats;
        s.cached_containers = self.len() as u64;
        s
    }

    /// Removes every entry and resets recency (statistics are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.containers.clear();
        inner.fingerprints.clear();
        inner.lru.clear();
        inner.stats.cached_containers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_hashkit::{Digest, Sha1};

    fn fp(i: u64) -> Fingerprint {
        Sha1::fingerprint(&i.to_le_bytes())
    }

    fn fps(range: std::ops::Range<u64>) -> Vec<Fingerprint> {
        range.map(fp).collect()
    }

    #[test]
    fn lookup_hits_cached_containers() {
        let cache = FingerprintCache::new(4);
        cache.insert_container(ContainerId::new(1), fps(0..10));
        assert_eq!(cache.lookup(&fp(3)), Some(ContainerId::new(1)));
        assert_eq!(cache.lookup(&fp(99)), None);
        let s = cache.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = FingerprintCache::new(2);
        cache.insert_container(ContainerId::new(1), fps(0..5));
        cache.insert_container(ContainerId::new(2), fps(5..10));
        // Touch container 1 so container 2 becomes the LRU victim.
        assert!(cache.lookup(&fp(0)).is_some());
        cache.insert_container(ContainerId::new(3), fps(10..15));
        assert!(cache.contains_container(ContainerId::new(1)));
        assert!(!cache.contains_container(ContainerId::new(2)));
        assert!(cache.contains_container(ContainerId::new(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.lookup(&fp(7)), None, "evicted fingerprints must miss");
    }

    #[test]
    fn reinserting_refreshes_recency_without_duplicating() {
        let cache = FingerprintCache::new(2);
        cache.insert_container(ContainerId::new(1), fps(0..5));
        cache.insert_container(ContainerId::new(2), fps(5..10));
        cache.insert_container(ContainerId::new(1), fps(0..5));
        assert_eq!(cache.len(), 2);
        cache.insert_container(ContainerId::new(3), fps(10..15));
        // Container 2 was least recently used.
        assert!(cache.contains_container(ContainerId::new(1)));
        assert!(!cache.contains_container(ContainerId::new(2)));
    }

    #[test]
    fn shared_fingerprints_survive_eviction_of_one_owner() {
        // Two containers can both hold the same (duplicate) fingerprint; evicting one
        // must not remove the other's reverse-map entry.
        let cache = FingerprintCache::new(2);
        let shared = fp(1000);
        cache.insert_container(ContainerId::new(1), vec![shared, fp(1)]);
        cache.insert_container(ContainerId::new(2), vec![shared, fp(2)]);
        // Evict container 1 (it is the LRU).
        cache.insert_container(ContainerId::new(3), fps(10..12));
        assert!(!cache.contains_container(ContainerId::new(1)));
        assert_eq!(cache.lookup(&shared), Some(ContainerId::new(2)));
    }

    #[test]
    fn a_removed_container_answers_no_lookup() {
        let cache = FingerprintCache::new(4);
        let shared = fp(1000);
        cache.insert_container(ContainerId::new(1), vec![shared, fp(1)]);
        cache.insert_container(ContainerId::new(2), vec![shared, fp(2)]);
        cache.insert_container(ContainerId::new(1), vec![shared, fp(1)]);
        cache.remove_container(ContainerId::new(2));
        assert!(!cache.contains_container(ContainerId::new(2)));
        assert_eq!(cache.lookup(&fp(2)), None);
        assert_ne!(cache.lookup(&shared), Some(ContainerId::new(2)));
        assert_eq!(cache.lookup(&fp(1)), Some(ContainerId::new(1)));
        assert_eq!(cache.stats().cached_containers, 1);
        assert_eq!(cache.stats().evictions, 0, "a removal is not an eviction");
    }

    #[test]
    fn hits_and_evictions_follow_lru_order() {
        // A model LRU (front = least recent) driven by the same operations:
        // hits on the most recent, a middle and the least recent container,
        // re-inserts, and inserts that evict.
        let cache = FingerprintCache::new(4);
        let mut model: Vec<u64> = Vec::new();
        let mut evicted: Vec<u64> = Vec::new();
        let container_fps = |c: u64| fps(c * 10..c * 10 + 3);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..400u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let c = state % 7;
            if step % 3 == 0 {
                cache.insert_container(ContainerId::new(c), container_fps(c));
                if let Some(pos) = model.iter().position(|&m| m == c) {
                    model.remove(pos);
                } else if model.len() == 4 {
                    evicted.push(model.remove(0));
                }
                model.push(c);
            } else {
                // Look up a fingerprint of the container at a chosen rank.
                let rank = (state >> 8) as usize % 3;
                let Some(&target) = [model.last(), model.get(1), model.first()][rank] else {
                    continue;
                };
                assert_eq!(
                    cache.lookup(&container_fps(target)[1]),
                    Some(ContainerId::new(target))
                );
                let pos = model.iter().position(|&m| m == target).unwrap();
                model.remove(pos);
                model.push(target);
            }
            let order: Vec<u64> = cache.inner.lock().lru.iter().map(|c| c.as_u64()).collect();
            assert_eq!(order, model, "step {step}");
        }
        assert_eq!(cache.stats().evictions, evicted.len() as u64);
        assert!(evicted.len() > 10, "the sequence evicts");
    }

    #[test]
    fn clear_empties_cache() {
        let cache = FingerprintCache::new(2);
        cache.insert_container(ContainerId::new(1), fps(0..5));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&fp(0)), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        FingerprintCache::new(0);
    }

    #[test]
    fn hit_ratio_reflects_access_pattern() {
        let cache = FingerprintCache::new(8);
        cache.insert_container(ContainerId::new(1), fps(0..100));
        for i in 0..100u64 {
            cache.lookup(&fp(i));
        }
        for i in 100..200u64 {
            cache.lookup(&fp(i));
        }
        assert!((cache.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }
}
