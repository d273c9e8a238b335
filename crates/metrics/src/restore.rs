//! Restore-path observability: what the restore pipeline read, from where,
//! and at what amplification.
//!
//! Ingest throughput tells half the backup story; the half users actually wait
//! on is the restore, so it gets its own counter class.  [`RestoreCounters`]
//! aggregates per-operation observations behind atomics (same lock-light
//! contract as [`OpCounters`](crate::OpCounters)); [`RestoreSnapshot`] is both
//! the per-operation observation the service layer feeds in and the aggregate
//! view it reads back.  The headline derived figure is **read amplification**:
//! backend bytes read divided by logical bytes restored — 1.0 means every byte
//! read off the medium reached the user, below 1.0 means the container read
//! cache absorbed repeat visits.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic aggregate of restore observations; see the module docs.
#[derive(Debug, Default)]
pub struct RestoreCounters {
    restores: AtomicU64,
    chunks_read: AtomicU64,
    containers_opened: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    backend_bytes_read: AtomicU64,
    logical_bytes_restored: AtomicU64,
}

impl RestoreCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        RestoreCounters::default()
    }

    /// Folds one restore's observation into the aggregate.
    pub fn record(&self, obs: &RestoreSnapshot) {
        self.restores.fetch_add(obs.restores, Ordering::Relaxed);
        self.chunks_read
            .fetch_add(obs.chunks_read, Ordering::Relaxed);
        self.containers_opened
            .fetch_add(obs.containers_opened, Ordering::Relaxed);
        self.cache_hits.fetch_add(obs.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(obs.cache_misses, Ordering::Relaxed);
        self.backend_bytes_read
            .fetch_add(obs.backend_bytes_read, Ordering::Relaxed);
        self.logical_bytes_restored
            .fetch_add(obs.logical_bytes_restored, Ordering::Relaxed);
    }

    /// A point-in-time copy; may tear by one observation against a concurrent
    /// [`record`](Self::record), which is fine for monitoring.
    pub fn snapshot(&self) -> RestoreSnapshot {
        RestoreSnapshot {
            restores: self.restores.load(Ordering::Relaxed),
            chunks_read: self.chunks_read.load(Ordering::Relaxed),
            containers_opened: self.containers_opened.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            backend_bytes_read: self.backend_bytes_read.load(Ordering::Relaxed),
            logical_bytes_restored: self.logical_bytes_restored.load(Ordering::Relaxed),
        }
    }
}

/// One restore's observation, or a point-in-time aggregate of many.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestoreSnapshot {
    /// Restore operations observed (1 when used as a single observation).
    pub restores: u64,
    /// Chunk payloads decoded.
    pub chunks_read: u64,
    /// Distinct `(node, container)` visits the restore plans fanned out to.
    pub containers_opened: u64,
    /// Container-read-cache hits.
    pub cache_hits: u64,
    /// Container-read-cache misses.
    pub cache_misses: u64,
    /// Bytes actually read from storage backends.
    pub backend_bytes_read: u64,
    /// Logical bytes delivered to callers.
    pub logical_bytes_restored: u64,
}

impl RestoreSnapshot {
    /// Backend bytes read per logical byte restored (0 when nothing was
    /// restored).  1.0 is seek-free perfection on an uncached backend; below
    /// 1.0 means the read cache absorbed repeat visits.
    pub fn read_amplification(&self) -> f64 {
        if self.logical_bytes_restored == 0 {
            0.0
        } else {
            self.backend_bytes_read as f64 / self.logical_bytes_restored as f64
        }
    }

    /// Cache hit rate over batched container visits (0 when no cache lookups
    /// happened, e.g. caching is off).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_across_observations() {
        let c = RestoreCounters::new();
        c.record(&RestoreSnapshot {
            restores: 1,
            chunks_read: 10,
            containers_opened: 2,
            cache_hits: 1,
            cache_misses: 1,
            backend_bytes_read: 4096,
            logical_bytes_restored: 8192,
        });
        c.record(&RestoreSnapshot {
            restores: 1,
            chunks_read: 5,
            containers_opened: 1,
            cache_hits: 1,
            cache_misses: 0,
            backend_bytes_read: 0,
            logical_bytes_restored: 2048,
        });
        let s = c.snapshot();
        assert_eq!(s.restores, 2);
        assert_eq!(s.chunks_read, 15);
        assert_eq!(s.containers_opened, 3);
        assert_eq!((s.cache_hits, s.cache_misses), (2, 1));
        assert_eq!(s.backend_bytes_read, 4096);
        assert_eq!(s.logical_bytes_restored, 10_240);
        assert!((s.read_amplification() - 0.4).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_derives_zeros() {
        let s = RestoreCounters::new().snapshot();
        assert_eq!(s, RestoreSnapshot::default());
        assert_eq!(s.read_amplification(), 0.0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let c = std::sync::Arc::new(RestoreCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record(&RestoreSnapshot {
                            restores: 1,
                            chunks_read: 2,
                            logical_bytes_restored: 3,
                            ..RestoreSnapshot::default()
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.restores, 4000);
        assert_eq!(s.chunks_read, 8000);
        assert_eq!(s.logical_bytes_restored, 12_000);
    }
}
