//! The per-tenant report and the fairness index.
//!
//! A multi-tenant deduplication service has a split personality: *logical*
//! bytes are strictly per-tenant (every tenant's backups sum to the cluster's
//! logical total), while *physical* chunks are shared — two tenants backing
//! up the same generational dataset store it once.  [`TenantStatsReport`] is
//! the per-tenant side, in the shape the service layer keeps and surfaces
//! through its `Stats` operation; [`jain_fairness_index`] scores how evenly a
//! scheduler divided service among tenants.

/// One tenant's accounting report, as surfaced by the service layer's
/// `Stats` operation.
///
/// `logical_bytes`/`transferred_bytes`/`freed_bytes` are *cumulative* ingest
/// history; `live_logical_bytes` and `files` are the current state of the
/// tenant's surviving recipes (filled in by the service from the cluster's
/// tenant-tagged director).
///
/// `transferred_bytes` follows first-writer-pays accounting: a chunk another
/// tenant already stored costs this tenant nothing, so a tenant whose data
/// fully deduplicates against the cluster shows a high
/// [`dedup_ratio`](TenantStatsReport::dedup_ratio) even on its first backup.
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

    #[test]
    fn dedup_ratio_is_logical_over_transferred() {
        let report = TenantStatsReport {
            logical_bytes: 1000,
            transferred_bytes: 250,
            ..TenantStatsReport::default()
        };
        assert_eq!(report.dedup_ratio(), 4.0);
    }

    #[test]
    fn fully_deduplicated_tenant_has_ratio_one_not_zero() {
        let report = TenantStatsReport {
            logical_bytes: 4096,
            ..TenantStatsReport::default()
        };
        assert_eq!(report.dedup_ratio(), 1.0);
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
