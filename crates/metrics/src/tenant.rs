//! Per-tenant accounting counters and the fairness index.
//!
//! A multi-tenant deduplication service has a split personality: *logical*
//! bytes are strictly per-tenant (every tenant's backups sum to the cluster's
//! logical total), while *physical* chunks are shared — two tenants backing
//! up the same generational dataset store it once.  [`TenantCounters`] tracks
//! the per-tenant side with the same lock-free atomics as
//! [`OpCounters`](crate::OpCounters); [`TenantStatsReport`] is the snapshot
//! shape the service layer surfaces through its `Stats` operation; and
//! [`jain_fairness_index`] scores how evenly a scheduler divided service
//! among tenants.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free per-tenant counters, fed by the service layer.
///
/// `transferred_bytes` follows first-writer-pays accounting: a chunk another
/// tenant already stored costs this tenant nothing, so a tenant whose data
/// fully deduplicates against the cluster shows a high
/// [`dedup_ratio`](TenantStatsReport::dedup_ratio) even on its first backup.
#[derive(Debug, Default)]
pub struct TenantCounters {
    requests: AtomicU64,
    rejected: AtomicU64,
    logical_bytes: AtomicU64,
    transferred_bytes: AtomicU64,
    freed_bytes: AtomicU64,
    restored_bytes: AtomicU64,
}

impl TenantCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        TenantCounters::default()
    }

    /// Records one completed request; `rejected` covers every non-`Ok`
    /// outcome (auth, quota, rate-limit, shed, backend error).
    pub fn record_request(&self, rejected: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts one successful backup: the bytes the tenant asked to protect
    /// and the unique bytes it actually had to ship.
    pub fn record_ingest(&self, logical_bytes: u64, transferred_bytes: u64) {
        self.logical_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
        self.transferred_bytes
            .fetch_add(transferred_bytes, Ordering::Relaxed);
    }

    /// Accounts logical bytes freed by a delete (file, backup or generation).
    pub fn record_freed(&self, freed_bytes: u64) {
        self.freed_bytes.fetch_add(freed_bytes, Ordering::Relaxed);
    }

    /// Accounts bytes rebuilt by a successful restore.
    pub fn record_restored(&self, bytes: u64) {
        self.restored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// A point-in-time report for this tenant.  Like
    /// [`OpCounters::snapshot`](crate::OpCounters::snapshot), fields are read
    /// independently and may tear by one observation under concurrent
    /// recording — fine for monitoring.
    pub fn report(&self, tenant: &str) -> TenantStatsReport {
        TenantStatsReport {
            tenant: tenant.to_string(),
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            transferred_bytes: self.transferred_bytes.load(Ordering::Relaxed),
            freed_bytes: self.freed_bytes.load(Ordering::Relaxed),
            restored_bytes: self.restored_bytes.load(Ordering::Relaxed),
            live_logical_bytes: 0,
            files: 0,
        }
    }
}

/// One tenant's accounting snapshot, as surfaced by the service layer's
/// `Stats` operation.
///
/// `logical_bytes`/`transferred_bytes`/`freed_bytes` are *cumulative* ingest
/// history; `live_logical_bytes` and `files` are the current state of the
/// tenant's surviving recipes (filled in by the service from the cluster's
/// tenant-tagged director, zero when built from bare counters).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStatsReport {
    /// The tenant this report describes.
    pub tenant: String,
    /// Requests observed for the tenant (all operations, all outcomes).
    pub requests: u64,
    /// Requests that ended non-`Ok` (rejections and errors).
    pub rejected: u64,
    /// Cumulative logical bytes the tenant ingested.
    pub logical_bytes: u64,
    /// Cumulative unique bytes the tenant shipped (first-writer-pays).
    pub transferred_bytes: u64,
    /// Cumulative logical bytes freed by the tenant's deletes.
    pub freed_bytes: u64,
    /// Cumulative bytes rebuilt by the tenant's restores.
    pub restored_bytes: u64,
    /// Logical bytes of the tenant's recipes still registered.
    pub live_logical_bytes: u64,
    /// Number of the tenant's files still registered.
    pub files: u64,
}

impl TenantStatsReport {
    /// The tenant's deduplication ratio: logical bytes ingested over bytes it
    /// had to ship.  1.0 when nothing was transferred (nothing ingested, or
    /// everything deduplicated against chunks someone already paid for —
    /// either way the tenant caused no inflation).
    pub fn dedup_ratio(&self) -> f64 {
        crate::dedup_ratio(self.logical_bytes, self.transferred_bytes)
    }
}

/// Jain's fairness index over per-tenant shares: `(Σxᵢ)² / (n · Σxᵢ²)`.
///
/// 1.0 means perfectly equal shares; `1/n` means one tenant got everything.
/// Empty input and all-zero shares score 1.0 (no service was divided, so none
/// was divided unfairly).  Negative shares are clamped to zero.
///
/// # Example
///
/// ```
/// use sigma_metrics::jain_fairness_index;
/// assert_eq!(jain_fairness_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
/// assert_eq!(jain_fairness_index(&[1.0, 0.0, 0.0, 0.0]), 0.25);
/// ```
pub fn jain_fairness_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &s in shares {
        let s = s.max(0.0);
        sum += s;
        sum_sq += s * s;
    }
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_roll_up_into_a_report() {
        let c = TenantCounters::new();
        c.record_request(false);
        c.record_request(true);
        c.record_ingest(1000, 250);
        c.record_freed(300);
        c.record_restored(128);
        let r = c.report("acme");
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.requests, 2);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.logical_bytes, 1000);
        assert_eq!(r.transferred_bytes, 250);
        assert_eq!(r.freed_bytes, 300);
        assert_eq!(r.restored_bytes, 128);
        assert_eq!(r.dedup_ratio(), 4.0);
    }

    #[test]
    fn fully_deduplicated_tenant_has_ratio_one_not_zero() {
        let c = TenantCounters::new();
        c.record_ingest(4096, 0);
        assert_eq!(c.report("t").dedup_ratio(), 1.0);
    }

    #[test]
    fn concurrent_tenant_recording_loses_nothing() {
        let c = Arc::new(TenantCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_request(false);
                        c.record_ingest(10, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = c.report("hot");
        assert_eq!(r.requests, 4000);
        assert_eq!(r.logical_bytes, 40_000);
        assert_eq!(r.transferred_bytes, 4000);
    }

    #[test]
    fn jain_index_bounds_and_extremes() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness_index(&[7.0]), 1.0);
        let one_hog = jain_fairness_index(&[10.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((one_hog - 0.2).abs() < 1e-12, "1/n for a single hog");
        // Mild imbalance stays high.
        let mild = jain_fairness_index(&[9.0, 10.0, 11.0, 10.0]);
        assert!(mild > 0.99);
        // Negative shares are clamped rather than inflating the index.
        let clamped = jain_fairness_index(&[-5.0, 10.0]);
        assert_eq!(clamped, 0.5);
    }

    #[test]
    fn jain_index_is_scale_invariant() {
        let a = jain_fairness_index(&[1.0, 2.0, 3.0]);
        let b = jain_fairness_index(&[100.0, 200.0, 300.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
