//! Lock-light operation counters for long-running services.
//!
//! [`OpCounters`] aggregates one operation class (count, errors, bytes in and
//! out, latency sum/max) behind atomics so a hot request path never takes a
//! lock to record an observation; [`MetricsRegistry`] keys a set of counters
//! by operation name and renders consistent snapshots.  The service layer's
//! request-logging middleware feeds these from a [`Stopwatch`](crate::Stopwatch)
//! around each request.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Atomic counters for one operation class.
#[derive(Debug, Default)]
pub struct OpCounters {
    count: AtomicU64,
    errors: AtomicU64,
    request_bytes: AtomicU64,
    response_bytes: AtomicU64,
    latency_nanos_sum: AtomicU64,
    latency_nanos_max: AtomicU64,
}

impl OpCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        OpCounters::default()
    }

    /// Records one completed request: its wall-clock latency, the bytes it
    /// carried in and out, and whether it ended in an error.
    pub fn record(&self, latency: Duration, request_bytes: u64, response_bytes: u64, error: bool) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.request_bytes
            .fetch_add(request_bytes, Ordering::Relaxed);
        self.response_bytes
            .fetch_add(response_bytes, Ordering::Relaxed);
        self.latency_nanos_sum.fetch_add(nanos, Ordering::Relaxed);
        self.latency_nanos_max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    ///
    /// Individual fields are read independently (no global lock), so a
    /// snapshot racing `record` may tear between fields by one observation —
    /// fine for monitoring, by design.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            count: self.count.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            request_bytes: self.request_bytes.load(Ordering::Relaxed),
            response_bytes: self.response_bytes.load(Ordering::Relaxed),
            latency_nanos_sum: self.latency_nanos_sum.load(Ordering::Relaxed),
            latency_nanos_max: self.latency_nanos_max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one operation's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Requests observed (successes and errors).
    pub count: u64,
    /// Requests that ended in a non-`Ok` status.
    pub errors: u64,
    /// Total payload bytes carried by requests.
    pub request_bytes: u64,
    /// Total payload bytes carried by responses.
    pub response_bytes: u64,
    /// Sum of request latencies in nanoseconds.
    pub latency_nanos_sum: u64,
    /// Largest single request latency in nanoseconds.
    pub latency_nanos_max: u64,
}

/// A named set of [`OpCounters`], one per operation class.
///
/// # Example
///
/// ```
/// use sigma_metrics::MetricsRegistry;
/// use std::time::Duration;
///
/// let registry = MetricsRegistry::new();
/// registry
///     .op("backup")
///     .record(Duration::from_millis(2), 4096, 0, false);
/// let snap = registry.snapshot();
/// assert_eq!(snap["backup"].count, 1);
/// assert_eq!(snap["backup"].request_bytes, 4096);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    ops: RwLock<BTreeMap<String, Arc<OpCounters>>>,
    tenants: RwLock<BTreeMap<String, Arc<crate::TenantCounters>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counters for `name`, created on first use.  The returned handle can
    /// be cached by hot paths to skip the registry lookup entirely.
    pub fn op(&self, name: &str) -> Arc<OpCounters> {
        if let Some(c) = self.ops.read().expect("metrics lock").get(name) {
            return c.clone();
        }
        self.ops
            .write()
            .expect("metrics lock")
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Snapshots every operation class, keyed by name.
    pub fn snapshot(&self) -> BTreeMap<String, OpSnapshot> {
        self.ops
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.snapshot()))
            .collect()
    }

    /// The per-tenant counters for `tenant`, created on first use.  Same
    /// caching contract as [`op`](MetricsRegistry::op).
    pub fn tenant(&self, tenant: &str) -> Arc<crate::TenantCounters> {
        if let Some(c) = self.tenants.read().expect("metrics lock").get(tenant) {
            return c.clone();
        }
        self.tenants
            .write()
            .expect("metrics lock")
            .entry(tenant.to_string())
            .or_default()
            .clone()
    }

    /// Reports every tenant observed so far, keyed by tenant name.
    pub fn tenant_reports(&self) -> BTreeMap<String, crate::TenantStatsReport> {
        self.tenants
            .read()
            .expect("metrics lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.report(name)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_aggregate() {
        let c = OpCounters::new();
        c.record(Duration::from_millis(10), 100, 0, false);
        c.record(Duration::from_millis(30), 300, 50, true);
        let s = c.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.request_bytes, 400);
        assert_eq!(s.response_bytes, 50);
        assert_eq!(s.latency_nanos_sum, 40_000_000);
        assert_eq!(s.latency_nanos_max, 30_000_000);
    }

    #[test]
    fn empty_snapshot_is_default() {
        let s = OpCounters::new().snapshot();
        assert_eq!(s, OpSnapshot::default());
    }

    #[test]
    fn registry_creates_and_reuses_ops() {
        let r = MetricsRegistry::new();
        let a = r.op("backup");
        let b = r.op("backup");
        assert!(
            Arc::ptr_eq(&a, &b),
            "same op name returns the same counters"
        );
        a.record(Duration::from_micros(5), 1, 2, false);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap["backup"].count, 1);
        r.op("restore");
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<OpCounters>();
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.op("hot");
                    for _ in 0..1000 {
                        c.record(Duration::from_nanos(100), 1, 1, false);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot()["hot"].count, 4000);
    }
}
