//! Request logging.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::RequestEnvelope;
use parking_lot::Mutex;
use sigma_core::ServiceCode;
use sigma_metrics::Stopwatch;
use std::collections::VecDeque;

/// How many of the most recent entries a [`RequestLog`] keeps. Older ones
/// are dropped; the request count still includes them, so a long-running
/// service's log stays bounded.
const RETAINED_ENTRIES: usize = 1024;

/// One observed request, success or failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The request's correlator.
    pub request_id: u64,
    /// Tenant that issued it.
    pub tenant: String,
    /// Stable operation name ([`Operation::name`](crate::Operation::name)).
    pub operation: &'static str,
    /// How the request ended — rejections from *lower* layers and backend
    /// errors included.
    pub code: ServiceCode,
    /// Wall-clock seconds spent below this middleware.
    pub latency_secs: f64,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes (0 for errors).
    pub response_bytes: u64,
}

/// Records exactly one [`LogEntry`] per request — including error paths.
/// Only the 1024 most recent entries are kept; the count covers every
/// request.
///
/// Placement matters and is a choice, not a constraint: as the innermost
/// layer (the default stack) it logs only requests that passed admission
/// control, with `code` reflecting backend outcomes; as the outermost layer
/// it observes every arrival, with `code` also covering auth/quota/rate-limit
/// rejections.  Either way an `Err` travelling through is logged and then
/// propagated untouched.
#[derive(Debug, Default)]
pub struct RequestLog {
    recent: Mutex<Recent>,
}

/// The retained tail of the log, and how many requests it has seen in all.
#[derive(Debug, Default)]
struct Recent {
    entries: VecDeque<LogEntry>,
    observed: usize,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        RequestLog::default()
    }

    /// A copy of the retained (most recent) entries, in completion order.
    pub fn entries(&self) -> Vec<LogEntry> {
        self.recent.lock().entries.iter().cloned().collect()
    }

    /// Number of requests observed, the ones no longer retained included.
    pub fn len(&self) -> usize {
        self.recent.lock().observed
    }

    /// `true` when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, entry: LogEntry) {
        let mut recent = self.recent.lock();
        if recent.entries.len() == RETAINED_ENTRIES {
            recent.entries.pop_front();
        }
        recent.entries.push_back(entry);
        recent.observed += 1;
    }
}

impl Middleware for RequestLog {
    fn name(&self) -> &'static str {
        "logging"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        let request_id = req.request_id;
        let tenant = req.tenant.clone();
        let operation = req.operation.name();
        let request_bytes = req.payload.len() as u64;
        let sw = Stopwatch::start();
        let result = next.run(req);
        let latency = sw.elapsed().as_secs_f64();
        let (code, response_bytes) = match &result {
            Ok(resp) => (resp.code, resp.payload.len() as u64),
            Err(err) => (err.code(), 0),
        };
        self.record(LogEntry {
            request_id,
            tenant,
            operation,
            code,
            latency_secs: latency,
            request_bytes,
            response_bytes,
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ResponseEnvelope, ServiceBuilder};
    use sigma_core::SigmaError;
    use std::sync::Arc;

    #[test]
    fn logs_success_with_latency_and_bytes() {
        let log = Arc::new(RequestLog::new());
        let p = ServiceBuilder::new()
            .layer(log.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id).with_payload(vec![0u8; 32]))
            }));
        let req = RequestEnvelope::new(
            1,
            "acme",
            Operation::Backup {
                file_name: "f".into(),
                generation: 0,
            },
        )
        .with_payload(vec![0u8; 128]);
        assert!(p.call(req).is_ok());
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.request_id, 1);
        assert_eq!(e.tenant, "acme");
        assert_eq!(e.operation, "backup");
        assert_eq!(e.code, ServiceCode::Ok);
        assert!(e.latency_secs >= 0.0);
        assert_eq!(e.request_bytes, 128);
        assert_eq!(e.response_bytes, 32);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn logs_errors_and_propagates_them() {
        let log = Arc::new(RequestLog::new());
        let p = ServiceBuilder::new()
            .layer(log.clone())
            .build_with_backend(Arc::new(|_r: RequestEnvelope| -> ServiceResult {
                Err(SigmaError::FileNotFound(5))
            }));
        let resp = p.call(RequestEnvelope::new(
            9,
            "t",
            Operation::Restore { file_id: 5 },
        ));
        assert_eq!(resp.code, ServiceCode::NotFound, "error still propagated");
        let entries = log.entries();
        assert_eq!(entries.len(), 1, "exactly one entry for the failed request");
        assert_eq!(entries[0].code, ServiceCode::NotFound);
        assert_eq!(entries[0].operation, "restore");
        assert_eq!(entries[0].response_bytes, 0);
    }

    #[test]
    fn one_entry_per_request_across_a_mix() {
        let log = Arc::new(RequestLog::new());
        let p = ServiceBuilder::new()
            .layer(log.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| match r.operation {
                Operation::Stats => Ok(ResponseEnvelope::ok(r.request_id)),
                _ => Err(SigmaError::FileNotFound(0)),
            }));
        for i in 0..10u64 {
            let op = if i % 2 == 0 {
                Operation::Stats
            } else {
                Operation::Restore { file_id: i }
            };
            p.call(RequestEnvelope::new(i, "t", op));
        }
        assert_eq!(log.len(), 10);
        for (i, entry) in log.entries().iter().enumerate() {
            let (operation, code) = if i % 2 == 0 {
                ("stats", ServiceCode::Ok)
            } else {
                ("restore", ServiceCode::NotFound)
            };
            assert_eq!(entry.request_id, i as u64);
            assert_eq!((entry.operation, entry.code), (operation, code));
        }
        assert!(!log.is_empty());
    }

    #[test]
    fn keeps_the_most_recent_entries_and_counts_every_request() {
        let log = Arc::new(RequestLog::new());
        let p = ServiceBuilder::new()
            .layer(log.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }));
        let total = RETAINED_ENTRIES + 10;
        for i in 0..total as u64 {
            p.call(RequestEnvelope::new(i, "t", Operation::Stats));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), RETAINED_ENTRIES);
        assert_eq!(
            entries[0].request_id, 10,
            "the oldest retained is request 10"
        );
        assert_eq!(entries.last().unwrap().request_id, total as u64 - 1);
        assert_eq!(log.len(), total);
    }
}
