//! Bounded LRU cache of sealed-container data sections for the restore path.
//!
//! Every chunk read is a read of a container's backend object — on the file
//! backend a real seek into a container file.  Restores revisit containers
//! constantly — duplicate chunks by construction land in containers shared
//! across files — so the restore pipeline keeps recently-touched data
//! sections resident and serves repeat visits from RAM.  The cache is
//! deliberately narrow:
//!
//! * keyed by [`ContainerId`], holding the container's *data section* (records
//!   only, no header/metadata) as the [`SharedBytes`] a backend read returned —
//!   inserting copies nothing, clones to readers are cheap, and on the in-RAM
//!   backends the section is the backend object's own buffer, not a copy;
//! * bounded in **bytes**, not entries: every container store owns one,
//!   sized at a constant sixteen full containers (`READ_CACHE_CONTAINERS`),
//!   the unit a restore reads in — always on, with no knob;
//! * filled by restore reads and by recovery's object check, which reads
//!   every data section anyway — alone, with the same read a restore's fill
//!   makes, after the head and before the record table, so on the file
//!   backend a resident section pins only its own bytes, never the head and
//!   record table of the object around it (about 29 KiB per full container
//!   that the byte bound would not count);
//! * invalidated by the container store whenever a container is removed,
//!   compacted or garbage-collected, so a cached section can never outlive the
//!   container it was read from.
//!
//! Hit/miss/eviction counters feed the restore observability surfaced through
//! `sigma-metrics`.

use crate::{ContainerId, SharedBytes};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time view of a container store's read-cache counters and
/// occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCacheStats {
    /// Lookups served from a resident data section.
    pub hits: u64,
    /// Lookups that missed (the caller then reads the backend).
    pub misses: u64,
    /// Resident sections evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Data sections currently resident.
    pub resident_containers: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
}

struct Resident {
    data: SharedBytes,
    /// Logical access clock at last touch; the eviction victim is the minimum.
    /// An O(n) scan over resident *containers* (a handful of multi-megabyte
    /// sections), not bytes — cheaper than threading a linked list through the
    /// map, and the scan count is bounded by `capacity / container_capacity`.
    touched: u64,
}

struct Inner {
    resident: HashMap<ContainerId, Resident>,
    bytes: u64,
    clock: u64,
}

/// Bytes-bounded LRU of container data sections; see the module docs.
pub(crate) struct ContainerReadCache {
    capacity_bytes: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ContainerReadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ContainerReadCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("resident_bytes", &inner.bytes)
            .field("resident_containers", &inner.resident.len())
            .finish()
    }
}

impl ContainerReadCache {
    /// Creates a cache bounded at `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        ContainerReadCache {
            capacity_bytes,
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the resident data section for `container`, touching its LRU
    /// position; counts a hit or a miss.
    pub fn get(&self, container: &ContainerId) -> Option<SharedBytes> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.resident.get_mut(container) {
            Some(entry) => {
                entry.touched = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.data.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Makes `data` resident for `container`, evicting least-recently-touched
    /// sections until it fits.  Sections larger than the whole budget are not
    /// cached at all (they would evict everything and then miss next time
    /// anyway); re-inserting an already-resident container refreshes it.
    pub fn insert(&self, container: ContainerId, data: SharedBytes) {
        let len = data.len() as u64;
        if len > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(old) = inner.resident.remove(&container) {
            inner.bytes -= old.data.len() as u64;
        }
        while inner.bytes + len > self.capacity_bytes {
            let victim = inner
                .resident
                .iter()
                .min_by_key(|(_, entry)| entry.touched)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    if let Some(evicted) = inner.resident.remove(&id) {
                        inner.bytes -= evicted.data.len() as u64;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        inner.clock += 1;
        let touched = inner.clock;
        inner.bytes += len;
        inner.resident.insert(container, Resident { data, touched });
    }

    /// Drops the resident section for `container`, if any.  Called by the
    /// container store on removal, GC and compaction so stale payloads can
    /// never be served.
    pub fn invalidate(&self, container: &ContainerId) {
        let mut inner = self.inner.lock();
        if let Some(old) = inner.resident.remove(container) {
            inner.bytes -= old.data.len() as u64;
        }
    }

    /// Point-in-time counters and occupancy.
    pub fn stats(&self) -> ReadCacheStats {
        let inner = self.inner.lock();
        ReadCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: inner.bytes,
            resident_containers: inner.resident.len() as u64,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn section(byte: u8, len: usize) -> SharedBytes {
        vec![byte; len].into()
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ContainerReadCache::new(1024);
        let id = ContainerId::new(1);
        assert!(cache.get(&id).is_none());
        cache.insert(id, section(7, 100));
        let got = cache.get(&id).expect("resident after insert");
        assert_eq!(&got[..], &vec![7u8; 100][..]);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, 100);
        assert_eq!(stats.resident_containers, 1);
    }

    #[test]
    fn evicts_least_recently_touched_first() {
        let cache = ContainerReadCache::new(250);
        let (a, b, c) = (
            ContainerId::new(1),
            ContainerId::new(2),
            ContainerId::new(3),
        );
        cache.insert(a, section(1, 100));
        cache.insert(b, section(2, 100));
        assert!(cache.get(&a).is_some(), "touch a so b is the LRU victim");
        cache.insert(c, section(3, 100));
        assert!(cache.get(&a).is_some(), "a survived");
        assert!(cache.get(&b).is_none(), "b was evicted");
        assert!(cache.get(&c).is_some(), "c resident");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident_bytes, 200);
    }

    #[test]
    fn oversized_sections_are_not_cached() {
        let cache = ContainerReadCache::new(50);
        let id = ContainerId::new(9);
        cache.insert(id, section(0, 51));
        assert!(cache.get(&id).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().evictions, 0, "nothing evicted for a no-op");
    }

    #[test]
    fn invalidate_drops_the_section() {
        let cache = ContainerReadCache::new(1024);
        let id = ContainerId::new(4);
        cache.insert(id, section(4, 64));
        cache.invalidate(&id);
        assert!(cache.get(&id).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
        cache.invalidate(&id); // absent invalidate is a no-op
    }

    #[test]
    fn reinsert_refreshes_without_double_counting() {
        let cache = ContainerReadCache::new(1024);
        let id = ContainerId::new(5);
        cache.insert(id, section(1, 100));
        cache.insert(id, section(2, 200));
        let stats = cache.stats();
        assert_eq!(stats.resident_bytes, 200);
        assert_eq!(stats.resident_containers, 1);
        assert_eq!(&cache.get(&id).unwrap()[..4], &[2, 2, 2, 2]);
    }
}
