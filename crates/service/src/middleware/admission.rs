//! Global admission control: bounded in-flight work with typed shedding.
//!
//! The fair scheduler below it *queues* admitted work; this layer bounds how
//! much work may be queued-or-running at all.  Beyond the bound the service
//! degrades by shedding — a typed [`SigmaError::Overloaded`] rejection (wire
//! code 503) carrying a deterministic retry-after hint — instead of letting
//! queues, memory and latency grow without limit.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::RequestEnvelope;
use parking_lot::Mutex;
use sigma_core::SigmaError;
use std::sync::atomic::{AtomicU64, Ordering};

/// The retry-after hint of a request shed at an idle byte budget
/// (milliseconds); a saturated budget hints up to twice this.
const RETRY_AFTER_BASE_MS: u64 = 10;

/// In-flight totals, updated under one small lock so the two bounds are
/// checked and reserved atomically (two racing requests cannot both squeeze
/// into the last admission slot).
#[derive(Debug, Default)]
struct InFlight {
    requests: u64,
    payload_bytes: u64,
}

/// Bounds the service's total in-flight work — requests *and* payload bytes —
/// across all tenants, shedding the excess with
/// [`SigmaError::Overloaded`] (code
/// [`Unavailable`](sigma_core::ServiceCode::Unavailable), wire 503).
///
/// A request is "in flight" from the moment this layer admits it until its
/// response (or error) travels back out — which includes time spent parked in
/// the [`FairScheduler`](crate::middleware::FairScheduler) below.  Admission
/// is therefore the backpressure valve: the scheduler orders admitted work
/// fairly, this layer caps how much of it can exist at once.
///
/// The retry-after hint is deterministic — a pure function of a fixed 10 ms
/// base and how saturated the in-flight byte budget is when the request is
/// shed — so identical overload states hand every client identical hints and
/// tests can pin exact values.
///
/// # Example
///
/// ```
/// use sigma_service::middleware::AdmissionControl;
///
/// let admission = AdmissionControl::new(2, 1 << 20);
/// let _a = admission.try_admit(100).unwrap();
/// let _b = admission.try_admit(100).unwrap();
/// assert!(admission.try_admit(100).is_err(), "request slots exhausted");
/// drop(_a);
/// assert!(admission.try_admit(100).is_ok(), "slot freed on completion");
/// ```
#[derive(Debug)]
pub struct AdmissionControl {
    max_inflight_requests: u64,
    max_inflight_bytes: u64,
    inflight: Mutex<InFlight>,
    shed: AtomicU64,
    admitted: AtomicU64,
}

impl AdmissionControl {
    /// Creates a layer admitting at most `max_inflight_requests` concurrent
    /// requests carrying at most `max_inflight_bytes` total payload bytes.
    /// Both bounds are clamped to at least 1 so a sole request on an idle
    /// service is always admissible (a zero bound would deadlock every
    /// caller, never protect anything).
    pub fn new(max_inflight_requests: u64, max_inflight_bytes: u64) -> Self {
        AdmissionControl {
            max_inflight_requests: max_inflight_requests.max(1),
            max_inflight_bytes: max_inflight_bytes.max(1),
            inflight: Mutex::new(InFlight::default()),
            shed: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        }
    }

    /// The request-count bound.
    pub fn max_inflight_requests(&self) -> u64 {
        self.max_inflight_requests
    }

    /// The payload-byte bound.
    pub fn max_inflight_bytes(&self) -> u64 {
        self.max_inflight_bytes
    }

    /// Requests shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests admitted so far.
    pub fn admitted_count(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Currently in-flight (requests, payload bytes).
    #[cfg(test)]
    fn inflight(&self) -> (u64, u64) {
        let f = self.inflight.lock();
        (f.requests, f.payload_bytes)
    }

    /// Deterministic shed hint: the base scaled by byte-budget saturation.
    ///
    /// `base × (1 + (inflight + requested) / limit)` — an idle budget hints
    /// `≈ base`, a budget at its ceiling hints `≈ 2×base`, a single oversized
    /// request scales proportionally.  Same state, same hint, every time.
    fn retry_hint(&self, inflight_bytes: u64, requested: u64) -> u64 {
        let would_be = inflight_bytes.saturating_add(requested);
        RETRY_AFTER_BASE_MS
            .saturating_add(RETRY_AFTER_BASE_MS.saturating_mul(would_be) / self.max_inflight_bytes)
    }

    /// Tries to reserve one request slot plus `payload_bytes` of the byte
    /// budget, returning a guard that releases both when dropped.
    ///
    /// A request larger than the whole byte budget is still admissible when
    /// it is alone in flight — the bound caps *aggregate* work, and a bound
    /// that could never admit some request would turn that request into a
    /// permanent failure instead of backpressure.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::Overloaded`] when either bound would be
    /// exceeded.
    pub fn try_admit(&self, payload_bytes: u64) -> Result<AdmissionPermit<'_>, SigmaError> {
        let mut inflight = self.inflight.lock();
        let over_requests = inflight.requests >= self.max_inflight_requests;
        let over_bytes = inflight.payload_bytes.saturating_add(payload_bytes)
            > self.max_inflight_bytes
            && inflight.requests > 0;
        if over_requests || over_bytes {
            let hint = self.retry_hint(inflight.payload_bytes, payload_bytes);
            let snapshot = inflight.payload_bytes;
            drop(inflight);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SigmaError::Overloaded {
                inflight_bytes: snapshot,
                limit_bytes: self.max_inflight_bytes,
                retry_after_ms: hint,
            });
        }
        inflight.requests += 1;
        inflight.payload_bytes += payload_bytes;
        drop(inflight);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit {
            control: self,
            payload_bytes,
        })
    }
}

/// RAII receipt for one admitted request; releases its slot and bytes on
/// drop, on every exit path (response, error, panic unwinding through the
/// stack).
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    control: &'a AdmissionControl,
    payload_bytes: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut inflight = self.control.inflight.lock();
        inflight.requests = inflight.requests.saturating_sub(1);
        inflight.payload_bytes = inflight.payload_bytes.saturating_sub(self.payload_bytes);
    }
}

impl Middleware for AdmissionControl {
    fn name(&self) -> &'static str {
        "admission"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        let _permit = self.try_admit(req.payload.len() as u64)?;
        next.run(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ResponseEnvelope, ServiceBuilder};
    use sigma_core::ServiceCode;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn sheds_beyond_request_bound_with_unavailable() {
        let admission = AdmissionControl::new(1, 1 << 20);
        let held = admission.try_admit(10).unwrap();
        let err = admission.try_admit(10).unwrap_err();
        match err {
            SigmaError::Overloaded { retry_after_ms, .. } => {
                assert!(retry_after_ms >= RETRY_AFTER_BASE_MS);
            }
            other => panic!("expected Overloaded, got {:?}", other),
        }
        assert_eq!(err.code(), ServiceCode::Unavailable);
        assert_eq!(admission.shed_count(), 1);
        drop(held);
        assert!(admission.try_admit(10).is_ok());
    }

    #[test]
    fn sheds_beyond_byte_bound_but_admits_oversize_when_alone() {
        let admission = AdmissionControl::new(10, 1000);
        // An oversized request on an idle service is admitted: the bound caps
        // aggregate work, not single-request size.
        let big = admission.try_admit(5000).unwrap();
        // But nothing else fits beside it.
        assert!(admission.try_admit(1).is_err());
        drop(big);
        let a = admission.try_admit(600).unwrap();
        assert!(admission.try_admit(600).is_err(), "would exceed 1000");
        let b = admission.try_admit(400).unwrap();
        assert_eq!(admission.inflight(), (2, 1000));
        drop(a);
        drop(b);
        assert_eq!(admission.inflight(), (0, 0));
    }

    #[test]
    fn retry_hint_is_deterministic_and_scales_with_saturation() {
        let admission = AdmissionControl::new(1, 1000);
        let held = admission.try_admit(1000).unwrap();
        let hint_of = |requested| match admission.try_admit(requested).unwrap_err() {
            SigmaError::Overloaded { retry_after_ms, .. } => retry_after_ms,
            other => panic!("expected Overloaded, got {:?}", other),
        };
        // base 10, inflight 1000/1000: 10 + 10*(1000+r)/1000.
        assert_eq!(hint_of(0), 20);
        assert_eq!(hint_of(0), 20, "same state, same hint");
        assert_eq!(hint_of(1000), 30, "deeper overload, larger hint");
        drop(held);
    }

    #[test]
    fn permits_release_on_error_paths_too() {
        let admission = Arc::new(AdmissionControl::new(1, 100));
        let p = ServiceBuilder::new()
            .layer(admission.clone())
            .build_with_backend(Arc::new(|_r: RequestEnvelope| -> ServiceResult {
                Err(SigmaError::FileNotFound(1))
            }));
        let resp = p.call(RequestEnvelope::new(1, "t", Operation::Stats));
        assert_eq!(resp.code, ServiceCode::NotFound);
        assert_eq!(admission.inflight(), (0, 0), "slot released after error");
        assert_eq!(admission.admitted_count(), 1);
    }

    #[test]
    fn middleware_sheds_concurrent_excess_and_recovers() {
        let admission = Arc::new(AdmissionControl::new(2, 1 << 20));
        let (enter_tx, enter_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let p = Arc::new(
            ServiceBuilder::new()
                .layer(admission.clone())
                .build_with_backend(Arc::new({
                    let release_rx = release_rx.clone();
                    move |r: RequestEnvelope| {
                        enter_tx.send(()).unwrap();
                        release_rx.lock().recv().unwrap();
                        Ok(ResponseEnvelope::ok(r.request_id))
                    }
                })),
        );
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let p = p.clone();
                std::thread::spawn(move || p.call(RequestEnvelope::new(i, "t", Operation::Stats)))
            })
            .collect();
        enter_rx.recv().unwrap();
        enter_rx.recv().unwrap();
        // Both slots occupied: a third request is shed immediately.
        let shed = p.call(RequestEnvelope::new(9, "t", Operation::Stats));
        assert_eq!(shed.code, ServiceCode::Unavailable);
        assert!(shed.message.contains("retry after"));
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for w in workers {
            assert!(w.join().unwrap().is_ok());
        }
        // Capacity restored.
        let (req_inflight, _) = admission.inflight();
        assert_eq!(req_inflight, 0);
    }
}
