//! Per-tenant logical-bytes quota, wired to the backup lifecycle's delete
//! accounting.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::{backend::FREED_BYTES_KEY, RequestEnvelope};
use parking_lot::Mutex;
use sigma_core::SigmaError;
use std::collections::{HashMap, HashSet, VecDeque};

/// How many `(tenant, request_id)` delete-credit entries the idempotency
/// ledger remembers before evicting the oldest.  A replay arriving after the
/// window has rolled over is credited again — acceptable, because transports
/// retry within a handful of in-flight requests, not thousands of requests
/// later.
const CREDIT_LEDGER_CAPACITY: usize = 4096;

/// Remembers which `(tenant, request_id)` pairs have already had their
/// `freed_bytes` credited, so a replayed delete response cannot double-credit
/// the budget.  Bounded FIFO: oldest entries are forgotten first.
#[derive(Debug, Default)]
struct CreditLedger {
    seen: HashSet<(String, u64)>,
    order: VecDeque<(String, u64)>,
}

impl CreditLedger {
    /// Records the pair; returns `false` when it was already present (a
    /// replay that must not be credited again).
    fn record(&mut self, tenant: &str, request_id: u64) -> bool {
        let key = (tenant.to_string(), request_id);
        if !self.seen.insert(key.clone()) {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > CREDIT_LEDGER_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
            }
        }
        true
    }
}

/// Enforces a logical-bytes budget per tenant.
///
/// Admission is a *reservation*: an ingesting request debits its payload size
/// before it runs (so two concurrent requests cannot both squeeze through the
/// last free bytes) and is refunded if any lower layer rejects it.  Deletes
/// credit the budget with the `freed_bytes` figure the
/// [`BackupService`](crate::BackupService) reports — the same accounting the
/// backup lifecycle's delete/GC machinery returns — so expiring old backups
/// makes room for new ones.
///
/// Tenants with no registered budget are unlimited; their usage is still
/// tracked for observability.
///
/// An over-quota request is rejected with [`SigmaError::QuotaExceeded`]
/// (code [`ResourceExhausted`](sigma_core::ServiceCode::ResourceExhausted))
/// before it reaches any lower layer, so cluster accounting is untouched.
#[derive(Debug, Default)]
pub struct TenantQuota {
    budgets: HashMap<String, u64>,
    used: Mutex<HashMap<String, u64>>,
    credited: Mutex<CreditLedger>,
}

impl TenantQuota {
    /// Creates a quota layer with no budgets (everything unlimited).
    pub fn new() -> Self {
        TenantQuota::default()
    }

    /// Registers (or replaces) a tenant's logical-bytes budget.
    pub fn budget(mut self, tenant: impl Into<String>, logical_bytes: u64) -> Self {
        self.budgets.insert(tenant.into(), logical_bytes);
        self
    }

    /// Logical bytes currently accounted to the tenant.
    pub fn usage(&self, tenant: &str) -> u64 {
        self.used.lock().get(tenant).copied().unwrap_or(0)
    }

    /// Reserves `requested` bytes for the tenant.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::QuotaExceeded`] without reserving anything when
    /// the tenant's remaining budget cannot cover the request.
    fn reserve(&self, tenant: &str, requested: u64) -> Result<(), SigmaError> {
        let mut used = self.used.lock();
        let current = used.get(tenant).copied().unwrap_or(0);
        if let Some(&budget) = self.budgets.get(tenant) {
            let remaining = budget.saturating_sub(current);
            if requested > remaining {
                return Err(SigmaError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    requested_bytes: requested,
                    remaining_bytes: remaining,
                });
            }
        }
        *used.entry(tenant.to_string()).or_insert(0) = current + requested;
        Ok(())
    }

    /// Returns `bytes` to the tenant's budget (refund or delete credit).
    fn credit(&self, tenant: &str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut used = self.used.lock();
        if let Some(u) = used.get_mut(tenant) {
            *u = u.saturating_sub(bytes);
        }
    }

    /// Credits `freed_bytes` from a delete response at most once per
    /// `(tenant, request_id)`.
    ///
    /// Transports retry: a delete whose response was lost in flight is
    /// re-sent with the *same* request id and the backend replays the same
    /// `freed_bytes` figure.  Crediting it on every pass would hand the
    /// tenant phantom budget, so the credit is keyed on the request id and
    /// applied exactly once.
    fn credit_freed_once(&self, tenant: &str, request_id: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if self.credited.lock().record(tenant, request_id) {
            self.credit(tenant, bytes);
        }
    }
}

impl Middleware for TenantQuota {
    fn name(&self) -> &'static str {
        "quota"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        let tenant = req.tenant.clone();
        let request_id = req.request_id;
        let reserved = if req.operation.ingests() {
            let requested = req.payload.len() as u64;
            self.reserve(&tenant, requested)?;
            requested
        } else {
            0
        };
        match next.run(req) {
            Ok(resp) => {
                if !resp.is_ok() {
                    // A lower layer rejected via envelope rather than error:
                    // the reservation must not leak.
                    self.credit(&tenant, reserved);
                } else if let Some(freed) = resp.metadata_u64(FREED_BYTES_KEY) {
                    self.credit_freed_once(&tenant, request_id, freed);
                }
                Ok(resp)
            }
            Err(err) => {
                self.credit(&tenant, reserved);
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, PipelineExecutor, ResponseEnvelope};
    use sigma_core::ServiceCode;
    use std::sync::Arc;

    fn backup(id: u64, bytes: usize) -> RequestEnvelope {
        RequestEnvelope::new(
            id,
            "acme",
            Operation::Backup {
                file_name: format!("f{}", id),
                generation: 0,
            },
        )
        .with_payload(vec![0u8; bytes])
    }

    #[test]
    fn reservation_rejects_over_budget_and_admits_within() {
        let quota = Arc::new(TenantQuota::new().budget("acme", 1000));
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|r: RequestEnvelope| Ok(ResponseEnvelope::ok(r.request_id))),
        );
        assert!(p.execute(backup(1, 600)).is_ok());
        assert_eq!(quota.usage("acme"), 600);
        let over = p.execute(backup(2, 600));
        assert_eq!(over.code, ServiceCode::ResourceExhausted);
        assert!(over.message.contains("400"), "names the remaining bytes");
        assert_eq!(quota.usage("acme"), 600, "failed request reserved nothing");
        assert!(p.execute(backup(3, 400)).is_ok());
        assert_eq!(quota.usage("acme"), 1000);
    }

    #[test]
    fn backend_failure_refunds_the_reservation() {
        let quota = Arc::new(TenantQuota::new().budget("acme", 1000));
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|_r: RequestEnvelope| -> ServiceResult { Err(SigmaError::FileNotFound(1)) }),
        );
        let resp = p.execute(backup(1, 800));
        assert_eq!(resp.code, ServiceCode::NotFound);
        assert_eq!(quota.usage("acme"), 0, "reservation refunded on error");
    }

    #[test]
    fn delete_credits_freed_bytes() {
        let quota = Arc::new(TenantQuota::new().budget("acme", 1000));
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|r: RequestEnvelope| {
                let resp = match r.operation {
                    Operation::DeleteFile { .. } => {
                        ResponseEnvelope::ok(r.request_id).with_metadata(FREED_BYTES_KEY, "700")
                    }
                    _ => ResponseEnvelope::ok(r.request_id),
                };
                Ok(resp)
            }),
        );
        assert!(p.execute(backup(1, 900)).is_ok());
        assert_eq!(quota.usage("acme"), 900);
        let del = p.execute(RequestEnvelope::new(
            2,
            "acme",
            Operation::DeleteFile { file_id: 1 },
        ));
        assert!(del.is_ok());
        assert_eq!(quota.usage("acme"), 200, "freed bytes returned to budget");
        assert!(p.execute(backup(3, 700)).is_ok(), "room again after delete");
    }

    #[test]
    fn replayed_delete_response_is_credited_exactly_once() {
        // Regression: a retried envelope replays the same request id and the
        // backend reports the same freed_bytes; the budget used to be
        // credited on every pass, double-counting the freed space.
        let quota = Arc::new(TenantQuota::new().budget("acme", 1000));
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|r: RequestEnvelope| {
                let resp = match r.operation {
                    Operation::DeleteFile { .. } => {
                        ResponseEnvelope::ok(r.request_id).with_metadata(FREED_BYTES_KEY, "700")
                    }
                    _ => ResponseEnvelope::ok(r.request_id),
                };
                Ok(resp)
            }),
        );
        assert!(p.execute(backup(1, 900)).is_ok());
        assert_eq!(quota.usage("acme"), 900);
        let delete = RequestEnvelope::new(2, "acme", Operation::DeleteFile { file_id: 1 });
        assert!(p.execute(delete.clone()).is_ok());
        assert_eq!(quota.usage("acme"), 200, "first delete credits 700");
        // The transport timed out and replays the very same envelope.
        assert!(p.execute(delete).is_ok());
        assert_eq!(
            quota.usage("acme"),
            200,
            "replaying the delete response must not credit freed_bytes again"
        );
        // A *different* delete request id still credits normally.
        let other = RequestEnvelope::new(3, "acme", Operation::DeleteFile { file_id: 9 });
        assert!(p.execute(other).is_ok());
        assert_eq!(quota.usage("acme"), 0, "fresh request id credits again");
    }

    #[test]
    fn credit_ledger_is_bounded_and_forgets_oldest_first() {
        let mut ledger = CreditLedger::default();
        for id in 0..(CREDIT_LEDGER_CAPACITY as u64 + 1) {
            assert!(ledger.record("t", id), "fresh ids always record");
        }
        assert_eq!(ledger.order.len(), CREDIT_LEDGER_CAPACITY);
        assert!(
            ledger.record("t", 0),
            "entry 0 was evicted by the rollover, so it records as fresh"
        );
        assert!(!ledger.record("t", 1000), "recent ids are still remembered");
    }

    #[test]
    fn unbudgeted_tenants_are_unlimited_but_tracked() {
        let quota = Arc::new(TenantQuota::new());
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|r: RequestEnvelope| Ok(ResponseEnvelope::ok(r.request_id))),
        );
        assert!(p.execute(backup(1, 10_000_000)).is_ok());
        assert_eq!(quota.usage("acme"), 10_000_000);
    }

    #[test]
    fn non_ingesting_ops_reserve_nothing() {
        let quota = Arc::new(TenantQuota::new().budget("acme", 10));
        let p = PipelineExecutor::new(
            vec![quota.clone()],
            Arc::new(|r: RequestEnvelope| Ok(ResponseEnvelope::ok(r.request_id))),
        );
        // A huge restore payload-to-be doesn't touch the budget.
        let resp = p.execute(RequestEnvelope::new(
            1,
            "acme",
            Operation::Restore { file_id: 7 },
        ));
        assert!(resp.is_ok());
        assert_eq!(quota.usage("acme"), 0);
    }
}
