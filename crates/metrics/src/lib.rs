//! Evaluation metrics for (cluster) deduplication systems.
//!
//! Section 4.2 of the paper defines the metrics this crate implements:
//!
//! * **Deduplication ratio (DR)** — logical size divided by physical size.
//! * **Deduplication efficiency (DE)** — "bytes saved per second":
//!   `(L - P) / T = (1 - 1/DR) × DT`, combining effectiveness and throughput.
//! * **Normalized deduplication ratio** — a cluster scheme's DR divided by the DR of
//!   single-node *exact* deduplication on the same data.
//! * **Normalized effective deduplication ratio (NEDR)** — the normalized DR further
//!   divided by `1 + σ/α`, where σ/α is the coefficient of variation of per-node
//!   storage usage; this folds load imbalance into the capacity metric (Figure 8).
//! * **Fingerprint-lookup message count** — the system-overhead metric (Figure 7).
//!
//! The crate also provides small reporting helpers ([`report::TextTable`],
//! [`report::csv_line`]) used by the benches and examples to print paper-style
//! tables, wall-clock throughput measurement ([`Stopwatch`], [`Throughput`]),
//! and lock-light per-operation service counters ([`MetricsRegistry`],
//! [`OpCounters`]) fed by the service layer's request-logging middleware.
//! Multi-tenant accounting lives in [`TenantCounters`] /
//! [`TenantStatsReport`] (per-tenant logical/transferred bytes while physical
//! chunks stay shared), and [`jain_fairness_index`] scores how evenly a
//! scheduler divided service among tenants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod report;
mod tenant;
mod throughput;

pub use counters::{MetricsRegistry, OpCounters, OpSnapshot};
pub use tenant::{jain_fairness_index, TenantCounters, TenantStatsReport};
pub use throughput::{Stopwatch, Throughput};

/// Deduplication ratio: logical bytes over physical bytes.
///
/// Returns 1.0 when `physical_bytes` is zero (nothing stored ⇒ nothing inflated).
///
/// # Example
///
/// ```
/// use sigma_metrics::dedup_ratio;
/// assert_eq!(dedup_ratio(1000, 250), 4.0);
/// assert_eq!(dedup_ratio(0, 0), 1.0);
/// ```
pub fn dedup_ratio(logical_bytes: u64, physical_bytes: u64) -> f64 {
    if physical_bytes == 0 {
        1.0
    } else {
        logical_bytes as f64 / physical_bytes as f64
    }
}

/// Deduplication efficiency in *bytes saved per second*.
///
/// `elapsed_secs` of zero yields 0 to avoid division by zero (an instantaneous
/// process saved nothing "per second" in a meaningful sense).
///
/// # Example
///
/// ```
/// use sigma_metrics::dedup_efficiency;
/// // 1 GB logical reduced to 250 MB in 10 s: 75 MB/s of savings.
/// let de = dedup_efficiency(1_000_000_000, 250_000_000, 10.0);
/// assert_eq!(de, 75_000_000.0);
/// ```
pub fn dedup_efficiency(logical_bytes: u64, physical_bytes: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs <= 0.0 {
        return 0.0;
    }
    (logical_bytes.saturating_sub(physical_bytes)) as f64 / elapsed_secs
}

/// Coefficient of variation (σ/α) of per-node storage usage; 0 for empty input or a
/// zero mean.
///
/// # Example
///
/// ```
/// use sigma_metrics::usage_skew;
/// assert!(usage_skew(&[100, 100, 100]) < 1e-12);
/// assert!(usage_skew(&[200, 0]) > 0.99);
/// ```
pub fn usage_skew(usage: &[u64]) -> f64 {
    if usage.is_empty() {
        return 0.0;
    }
    let mean = usage.iter().map(|&u| u as f64).sum::<f64>() / usage.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let variance = usage
        .iter()
        .map(|&u| {
            let d = u as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / usage.len() as f64;
    variance.sqrt() / mean
}

/// Normalized deduplication ratio: a cluster scheme's DR relative to single-node
/// exact deduplication of the same data.
///
/// Returns 0 when the single-node ratio is zero.
pub fn normalized_dedup_ratio(cluster_dr: f64, single_node_dr: f64) -> f64 {
    if single_node_dr <= 0.0 {
        0.0
    } else {
        cluster_dr / single_node_dr
    }
}

/// Normalized *effective* deduplication ratio (NEDR, Eq. 7 of the paper):
/// `CDR / SDR × α / (α + σ)`, expressed here via the usage skew `σ/α`.
pub fn normalized_effective_dedup_ratio(cluster_dr: f64, single_node_dr: f64, skew: f64) -> f64 {
    normalized_dedup_ratio(cluster_dr, single_node_dr) / (1.0 + skew.max(0.0))
}

/// A summary of one cluster-deduplication run, convenient for tables and JSON dumps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterRunSummary {
    /// Routing scheme name.
    pub scheme: String,
    /// Dataset / workload name.
    pub dataset: String,
    /// Number of deduplication nodes.
    pub nodes: usize,
    /// Logical bytes backed up.
    pub logical_bytes: u64,
    /// Physical bytes stored.
    pub physical_bytes: u64,
    /// Cluster deduplication ratio.
    pub dedup_ratio: f64,
    /// Per-node storage usage skew (σ/α).
    pub skew: f64,
    /// Single-node exact deduplication ratio of the same data.
    pub single_node_dr: f64,
    /// Fingerprint-lookup messages sent before routing.
    pub prerouting_lookups: u64,
    /// Fingerprint-lookup messages sent after routing.
    pub postrouting_lookups: u64,
}

impl ClusterRunSummary {
    /// Normalized deduplication ratio for this run.
    pub fn normalized_dr(&self) -> f64 {
        normalized_dedup_ratio(self.dedup_ratio, self.single_node_dr)
    }

    /// Normalized effective deduplication ratio (the Figure 8 metric).
    pub fn nedr(&self) -> f64 {
        normalized_effective_dedup_ratio(self.dedup_ratio, self.single_node_dr, self.skew)
    }

    /// Total fingerprint-lookup messages (the Figure 7 metric).
    pub fn total_lookups(&self) -> u64 {
        self.prerouting_lookups + self.postrouting_lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedup_ratio_basics() {
        assert_eq!(dedup_ratio(100, 50), 2.0);
        assert_eq!(dedup_ratio(100, 100), 1.0);
        assert_eq!(dedup_ratio(100, 0), 1.0);
    }

    #[test]
    fn efficiency_matches_identity() {
        // DE = (1 - 1/DR) * DT with DT = L/T.
        let (l, p, t) = (1_000_000u64, 200_000u64, 4.0);
        let de = dedup_efficiency(l, p, t);
        let dr = dedup_ratio(l, p);
        let dt = l as f64 / t;
        assert!((de - (1.0 - 1.0 / dr) * dt).abs() < 1e-6);
        assert_eq!(dedup_efficiency(l, p, 0.0), 0.0);
    }

    #[test]
    fn nedr_penalises_skew() {
        let balanced = normalized_effective_dedup_ratio(8.0, 10.0, 0.0);
        let skewed = normalized_effective_dedup_ratio(8.0, 10.0, 1.0);
        assert!((balanced - 0.8).abs() < 1e-12);
        assert!((skewed - 0.4).abs() < 1e-12);
        assert_eq!(normalized_dedup_ratio(8.0, 0.0), 0.0);
    }

    #[test]
    fn summary_accessors() {
        let s = ClusterRunSummary {
            scheme: "sigma".into(),
            dataset: "linux".into(),
            nodes: 8,
            logical_bytes: 1000,
            physical_bytes: 125,
            dedup_ratio: 8.0,
            skew: 0.25,
            single_node_dr: 10.0,
            prerouting_lookups: 64,
            postrouting_lookups: 256,
        };
        assert!((s.normalized_dr() - 0.8).abs() < 1e-12);
        assert!((s.nedr() - 0.64).abs() < 1e-12);
        assert_eq!(s.total_lookups(), 320);
    }

    proptest! {
        #[test]
        fn prop_skew_non_negative_and_zero_for_constant(u in 1u64..1_000_000, n in 1usize..64) {
            let usage = vec![u; n];
            prop_assert!(usage_skew(&usage) < 1e-9);
        }

        #[test]
        fn prop_nedr_never_exceeds_normalized_dr(
            cdr in 0.0f64..100.0,
            sdr in 0.1f64..100.0,
            skew in 0.0f64..10.0,
        ) {
            let nedr = normalized_effective_dedup_ratio(cdr, sdr, skew);
            prop_assert!(nedr <= normalized_dedup_ratio(cdr, sdr) + 1e-12);
        }

        #[test]
        fn prop_dedup_ratio_at_least_one_when_physical_le_logical(
            physical in 1u64..1_000_000,
            extra in 0u64..1_000_000,
        ) {
            prop_assert!(dedup_ratio(physical + extra, physical) >= 1.0);
        }
    }
}
