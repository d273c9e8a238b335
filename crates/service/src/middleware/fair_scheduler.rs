//! Deficit-round-robin fair scheduling across tenants.
//!
//! The pipeline is synchronous — each request occupies its calling thread —
//! so the only lever a middleware has over *ordering* is which blocked
//! threads it releases next.  [`FairScheduler`] parks every arriving request
//! in its tenant's pending queue and grants execution slots by
//! deficit-round-robin over pending request bytes: each backlogged tenant's
//! deficit grows by one quantum per round, a request runs when its tenant's
//! deficit covers its cost, and per-tenant in-flight bytes are capped.  A hot
//! tenant with a thousand queued megabytes therefore drains at the same
//! byte rate as a cold tenant with three queued requests — the cold tenant's
//! requests overtake the hot backlog instead of queueing behind it.
//!
//! [`FairScheduler::submit`] is the one grant path.  The middleware submits
//! and blocks on the grant; a single-threaded driver (the tenant storm)
//! submits, polls [`SchedulerGrant::is_live`] and drops the grant when its
//! request completes.

use crate::middleware::{Middleware, Next, ServiceResult};
use crate::RequestEnvelope;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One parked request's wait handle: granted flag + wake signal.
///
/// Uses `std::sync` (not the workspace's `parking_lot` shim, which has no
/// condvar) and recovers from poisoning: a panic elsewhere must not wedge
/// every parked tenant.
#[derive(Debug, Default)]
struct Ticket {
    granted: Mutex<bool>,
    wake: Condvar,
}

impl Ticket {
    fn grant(&self) {
        let mut granted = self.granted.lock().unwrap_or_else(|e| e.into_inner());
        *granted = true;
        self.wake.notify_one();
    }

    fn is_granted(&self) -> bool {
        *self.granted.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait(&self) {
        let mut granted = self.granted.lock().unwrap_or_else(|e| e.into_inner());
        while !*granted {
            granted = self.wake.wait(granted).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One queued request: its wait handle and its byte cost.
#[derive(Debug)]
struct Pending {
    ticket: Arc<Ticket>,
    cost: u64,
}

/// One tenant's scheduling state.
#[derive(Debug, Default)]
struct TenantQueue {
    /// DRR deficit in bytes: how much service this tenant is currently owed.
    deficit: u64,
    /// Bytes of this tenant's requests granted but not yet completed.
    inflight_bytes: u64,
    /// Parked requests, arrival order.
    pending: VecDeque<Pending>,
    /// Whether the tenant currently sits in the round-robin ring.
    in_round: bool,
    /// Request bytes completed for this tenant (observability/fairness).
    completed_bytes: u64,
}

/// Shared scheduler state behind one mutex.
#[derive(Debug, Default)]
struct SchedState {
    tenants: HashMap<String, TenantQueue>,
    /// Round-robin ring of tenants with pending work.
    round: VecDeque<String>,
    /// Granted-but-not-completed requests (bounded by `max_concurrent`).
    running: usize,
}

/// Deficit-round-robin fair scheduler over per-tenant pending-byte queues.
///
/// Three knobs:
///
/// * `quantum_bytes` — service a backlogged tenant earns per round; the
///   byte granularity of fairness.
/// * `max_tenant_inflight_bytes` — cap on one tenant's granted-but-running
///   bytes, so a tenant cannot occupy every execution slot between rounds.
///   A request larger than the cap still runs when the tenant is otherwise
///   idle (the cap bounds aggregate occupancy, not request size).
/// * `max_concurrent` — global execution slots; requests beyond it park
///   regardless of tenant.
///
/// Admission control above this layer bounds how many requests may be
/// *parked* here at all; see
/// [`AdmissionControl`](crate::middleware::AdmissionControl).
///
/// # Example
///
/// ```
/// use sigma_service::middleware::FairScheduler;
///
/// let sched = FairScheduler::new(64 * 1024, 256 * 1024, 8);
/// assert_eq!(sched.quantum_bytes(), 64 * 1024);
/// assert!(sched.completed_bytes().is_empty(), "nothing scheduled yet");
/// ```
#[derive(Debug)]
pub struct FairScheduler {
    quantum_bytes: u64,
    max_tenant_inflight_bytes: u64,
    max_concurrent: usize,
    state: Mutex<SchedState>,
    granted: AtomicU64,
}

impl FairScheduler {
    /// Creates a scheduler.  All three bounds are clamped to at least 1 —
    /// a zero quantum would never grant, zero slots would park everything
    /// forever.
    pub fn new(quantum_bytes: u64, max_tenant_inflight_bytes: u64, max_concurrent: usize) -> Self {
        FairScheduler {
            quantum_bytes: quantum_bytes.max(1),
            max_tenant_inflight_bytes: max_tenant_inflight_bytes.max(1),
            max_concurrent: max_concurrent.max(1),
            state: Mutex::new(SchedState::default()),
            granted: AtomicU64::new(0),
        }
    }

    /// The per-round byte quantum.
    pub fn quantum_bytes(&self) -> u64 {
        self.quantum_bytes
    }

    /// The per-tenant in-flight byte cap.
    pub fn max_tenant_inflight_bytes(&self) -> u64 {
        self.max_tenant_inflight_bytes
    }

    /// The global execution-slot count.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Requests granted so far.
    #[cfg(test)]
    pub(crate) fn granted_count(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Request bytes completed per tenant so far.
    ///
    /// Snapshotting this during a contended window and feeding the values to
    /// [`sigma_metrics::jain_fairness_index`] measures how evenly the
    /// scheduler divided service.
    pub fn completed_bytes(&self) -> BTreeMap<String, u64> {
        let state = self.lock_state();
        state
            .tenants
            .iter()
            .filter(|(_, q)| q.completed_bytes > 0)
            .map(|(t, q)| (t.clone(), q.completed_bytes))
            .collect()
    }

    /// Parked requests for `tenant` right now.
    #[cfg(test)]
    pub(crate) fn pending_requests(&self, tenant: &str) -> usize {
        self.lock_state()
            .tenants
            .get(tenant)
            .map(|q| q.pending.len())
            .unwrap_or(0)
    }

    /// Granted-but-running bytes for `tenant` right now.
    #[cfg(test)]
    pub(crate) fn inflight_bytes(&self, tenant: &str) -> u64 {
        self.lock_state()
            .tenants
            .get(tenant)
            .map(|q| q.inflight_bytes)
            .unwrap_or(0)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues a request of `cost` bytes for `tenant` and returns its grant.
    ///
    /// The call never blocks: the grant is [live](SchedulerGrant::is_live)
    /// once deficit-round-robin grants it, which may be at once.  Dropping
    /// the grant releases its slot and bytes when it was live, or withdraws
    /// the request from the queue when it was not.  A zero cost counts as
    /// one byte: metadata requests (restore, delete, stats) must still take
    /// a scheduling turn, or a tenant could bypass fairness with them.
    ///
    /// ```
    /// use sigma_service::middleware::FairScheduler;
    ///
    /// let sched = FairScheduler::new(100, 100, 1);
    /// let first = sched.submit("t", 100);
    /// let second = sched.submit("t", 100);
    /// assert!(first.is_live() && !second.is_live(), "one slot");
    /// drop(first);
    /// assert!(second.is_live(), "the freed slot went to the queued request");
    /// ```
    pub fn submit(&self, tenant: &str, cost: u64) -> SchedulerGrant<'_> {
        let cost = cost.max(1);
        let ticket = Arc::new(Ticket::default());
        let mut state = self.lock_state();
        let queue = state.tenants.entry(tenant.to_string()).or_default();
        queue.pending.push_back(Pending {
            ticket: ticket.clone(),
            cost,
        });
        if !queue.in_round {
            queue.in_round = true;
            state.round.push_back(tenant.to_string());
        }
        self.dispatch(&mut state);
        SchedulerGrant {
            scheduler: self,
            tenant: tenant.to_string(),
            cost,
            ticket,
        }
    }

    /// Settles a dropped grant: a live one completes and hands its slot to
    /// the next request, a queued one leaves its tenant's queue.
    fn release(&self, grant: &SchedulerGrant<'_>) {
        let mut state = self.lock_state();
        if grant.ticket.is_granted() {
            state.running = state.running.saturating_sub(1);
            if let Some(queue) = state.tenants.get_mut(&grant.tenant) {
                queue.inflight_bytes = queue.inflight_bytes.saturating_sub(grant.cost);
                queue.completed_bytes += grant.cost;
            }
        } else if let Some(queue) = state.tenants.get_mut(&grant.tenant) {
            queue
                .pending
                .retain(|p| !Arc::ptr_eq(&p.ticket, &grant.ticket));
        }
        self.dispatch(&mut state);
    }

    /// The DRR grant pass.  Called with the state lock held, on every
    /// submit and every release.
    ///
    /// Processes tenants from the front of the ring: tops up the tenant's
    /// deficit (only when the tenant is blocked on deficit, not on its
    /// in-flight cap — a cap-blocked tenant must not bank unbounded credit),
    /// grants as many of its head requests as deficit, cap and free slots
    /// allow, then rotates it to the back.  Stops when the slots are full or
    /// a full circuit granted nothing; if the scheduler is completely idle
    /// at that point, the smallest deficit gap is paid directly so an
    /// oversized request on an idle service starts now rather than after
    /// `cost / quantum` ring circuits.
    fn dispatch(&self, state: &mut SchedState) {
        let mut fruitless = 0usize;
        while state.running < self.max_concurrent && !state.round.is_empty() {
            let tenant = state.round.pop_front().expect("ring non-empty inside loop");
            let Some(queue) = state.tenants.get_mut(&tenant) else {
                continue;
            };
            if queue.pending.is_empty() {
                // Tenant went idle: leave the ring and forfeit residual
                // credit (classic DRR — credit never outlives the backlog).
                queue.deficit = 0;
                queue.in_round = false;
                continue;
            }
            let head_cost = queue.pending.front().expect("non-empty").cost;
            let head_fits_cap = queue.inflight_bytes == 0
                || queue.inflight_bytes.saturating_add(head_cost) <= self.max_tenant_inflight_bytes;
            if head_fits_cap {
                queue.deficit = queue.deficit.saturating_add(self.quantum_bytes);
            }
            let mut granted_here = 0usize;
            while state.running < self.max_concurrent {
                let Some(head) = queue.pending.front() else {
                    break;
                };
                let cost = head.cost;
                let fits_cap = queue.inflight_bytes == 0
                    || queue.inflight_bytes.saturating_add(cost) <= self.max_tenant_inflight_bytes;
                if !fits_cap || queue.deficit < cost {
                    break;
                }
                let pending = queue.pending.pop_front().expect("non-empty");
                queue.deficit -= cost;
                queue.inflight_bytes += cost;
                state.running += 1;
                self.granted.fetch_add(1, Ordering::Relaxed);
                pending.ticket.grant();
                granted_here += 1;
            }
            if queue.pending.is_empty() {
                queue.deficit = 0;
                queue.in_round = false;
            } else {
                state.round.push_back(tenant);
            }
            if granted_here > 0 {
                fruitless = 0;
                continue;
            }
            fruitless += 1;
            if fruitless <= state.round.len() {
                continue;
            }
            // A full circuit granted nothing.
            if state.running > 0 {
                // Running work will re-dispatch on completion (and every
                // fruitless circuit already topped up deficits).
                return;
            }
            // Idle scheduler, yet nothing grantable: every pending head is
            // blocked on deficit (caps cannot block when nothing is in
            // flight).  Pay the smallest gap directly so the cheapest head
            // starts immediately.
            let mut best: Option<(String, u64)> = None;
            for name in state.round.iter() {
                let Some(q) = state.tenants.get(name) else {
                    continue;
                };
                let Some(head) = q.pending.front() else {
                    continue;
                };
                let gap = head.cost.saturating_sub(q.deficit);
                if best.as_ref().map(|(_, g)| gap < *g).unwrap_or(true) {
                    best = Some((name.clone(), gap));
                }
            }
            let Some((name, gap)) = best else { return };
            if let Some(q) = state.tenants.get_mut(&name) {
                q.deficit = q.deficit.saturating_add(gap);
            }
            fruitless = 0;
        }
    }
}

/// One request's place in a [`FairScheduler`]: queued until
/// deficit-round-robin grants it, then live until dropped.
///
/// Dropping the grant settles it on every exit path (response, error, a
/// panic unwinding through the stack): a live grant releases its slot and
/// in-flight bytes and counts its cost as completed; a queued one is
/// withdrawn and never runs.
#[derive(Debug)]
pub struct SchedulerGrant<'a> {
    scheduler: &'a FairScheduler,
    tenant: String,
    cost: u64,
    ticket: Arc<Ticket>,
}

impl SchedulerGrant<'_> {
    /// Whether the scheduler has granted this request its turn.
    pub fn is_live(&self) -> bool {
        self.ticket.is_granted()
    }

    /// Blocks the calling thread until the grant is live.
    pub fn wait(&self) {
        self.ticket.wait();
    }
}

impl Drop for SchedulerGrant<'_> {
    fn drop(&mut self) {
        self.scheduler.release(self);
    }
}

impl Middleware for FairScheduler {
    fn name(&self) -> &'static str {
        "fair-scheduler"
    }

    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
        let grant = self.submit(&req.tenant, req.payload.len() as u64);
        grant.wait();
        next.run(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Operation, ResponseEnvelope, ServiceBuilder};
    use parking_lot::Mutex as PlMutex;
    use std::sync::mpsc;

    fn backup(id: u64, tenant: &str, bytes: usize) -> RequestEnvelope {
        RequestEnvelope::new(
            id,
            tenant,
            Operation::Backup {
                file_name: format!("f{}", id),
                generation: 0,
            },
        )
        .with_payload(vec![0u8; bytes])
    }

    /// Backend that records the tenant order of execution and can be gated.
    struct Recorder {
        order: PlMutex<Vec<String>>,
        gate: PlMutex<mpsc::Receiver<()>>,
    }

    #[test]
    fn single_tenant_requests_flow_through() {
        let sched = Arc::new(FairScheduler::new(1024, 4096, 2));
        let p = ServiceBuilder::new()
            .layer(sched.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }));
        for i in 0..5 {
            assert!(p.call(backup(i, "t", 100)).is_ok());
        }
        assert_eq!(sched.granted_count(), 5);
        assert_eq!(sched.completed_bytes()["t"], 500);
        assert_eq!(sched.pending_requests("t"), 0);
        assert_eq!(sched.inflight_bytes("t"), 0);
    }

    #[test]
    fn oversized_request_runs_when_tenant_is_idle() {
        // Cost exceeds both the quantum and the per-tenant cap; an idle
        // scheduler must still run it (bounds cap aggregates, not size).
        let sched = Arc::new(FairScheduler::new(16, 64, 1));
        let p = ServiceBuilder::new()
            .layer(sched.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }));
        assert!(p.call(backup(1, "t", 10_000)).is_ok());
        assert_eq!(sched.completed_bytes()["t"], 10_000);
    }

    #[test]
    fn drr_interleaves_a_hot_tenant_with_a_cold_one() {
        // One execution slot; the hot tenant parks 6 requests before the
        // cold tenant parks 3.  Strict FIFO would run all of hot first; DRR
        // with equal quanta must alternate once both are backlogged.
        let (gate_tx, gate_rx) = mpsc::channel();
        let recorder = Arc::new(Recorder {
            order: PlMutex::new(Vec::new()),
            gate: PlMutex::new(gate_rx),
        });
        let sched = Arc::new(FairScheduler::new(100, 1000, 1));
        let p = Arc::new(
            ServiceBuilder::new()
                .layer(sched.clone())
                .build_with_backend(Arc::new({
                    let recorder = recorder.clone();
                    move |r: RequestEnvelope| {
                        recorder.order.lock().push(r.tenant.clone());
                        recorder.gate.lock().recv().unwrap();
                        Ok(ResponseEnvelope::ok(r.request_id))
                    }
                })),
        );

        // Request 0 occupies the slot and blocks on the gate; everything
        // else parks behind it in a known arrival order.
        let first = {
            let p = p.clone();
            std::thread::spawn(move || p.call(backup(0, "warmup", 100)))
        };
        while sched.granted_count() == 0 {
            std::thread::yield_now();
        }

        let mut workers = Vec::new();
        for i in 0..6 {
            let p = p.clone();
            workers.push(std::thread::spawn(move || {
                p.call(backup(100 + i, "hot", 100))
            }));
            // Deterministic arrival order within the hot queue.
            while sched.pending_requests("hot") < (i + 1) as usize {
                std::thread::yield_now();
            }
        }
        for i in 0..3 {
            let p = p.clone();
            workers.push(std::thread::spawn(move || {
                p.call(backup(200 + i, "cold", 100))
            }));
            while sched.pending_requests("cold") < (i + 1) as usize {
                std::thread::yield_now();
            }
        }

        // Release everything, one grant at a time.
        for _ in 0..10 {
            gate_tx.send(()).unwrap();
        }
        assert!(first.join().unwrap().is_ok());
        for w in workers {
            assert!(w.join().unwrap().is_ok());
        }

        let order = recorder.order.lock().clone();
        assert_eq!(order.len(), 10);
        // While both tenants are backlogged (execution slots 1..=6 after the
        // warmup), service must alternate rather than drain hot first.
        let contended = &order[1..7];
        let cold_served = contended.iter().filter(|t| *t == "cold").count();
        assert_eq!(
            cold_served, 3,
            "all cold requests overtake the hot backlog: {:?}",
            order
        );
        assert!(
            contended.windows(2).any(|w| w[0] != w[1]),
            "interleaved, not batched: {:?}",
            order
        );
        let done = sched.completed_bytes();
        assert_eq!(done["hot"], 600);
        assert_eq!(done["cold"], 300);
    }

    #[test]
    fn per_tenant_inflight_cap_holds_back_second_request() {
        // Plenty of slots and quantum, but only 100 in-flight bytes per
        // tenant: the second 100-byte request must wait for the first.
        let sched = FairScheduler::new(1000, 100, 8);
        let first = sched.submit("t", 100);
        let second = sched.submit("t", 100);
        assert!(first.is_live());
        assert!(
            !second.is_live(),
            "cap keeps the second request queued while the first runs"
        );
        assert_eq!(sched.inflight_bytes("t"), 100);
        drop(first);
        assert!(second.is_live(), "the first's completion frees the cap");
        drop(second);
        assert_eq!(sched.completed_bytes()["t"], 200);
    }

    #[test]
    fn a_grant_dropped_before_its_turn_leaves_nothing_pending() {
        let sched = FairScheduler::new(100, 100, 1);
        let running = sched.submit("a", 100);
        let queued = sched.submit("b", 100);
        assert!(!queued.is_live(), "the one slot is taken");
        assert_eq!(sched.pending_requests("b"), 1);
        drop(queued);
        assert_eq!(sched.pending_requests("b"), 0);
        drop(running);
        assert_eq!(sched.inflight_bytes("b"), 0);
        assert!(
            !sched.completed_bytes().contains_key("b"),
            "a withdrawn request never ran"
        );
        assert!(sched.submit("a", 100).is_live(), "the slot is free again");
    }

    #[test]
    fn slot_released_on_backend_error() {
        let sched = Arc::new(FairScheduler::new(100, 100, 1));
        let p = ServiceBuilder::new()
            .layer(sched.clone())
            .build_with_backend(Arc::new(|_r: RequestEnvelope| -> ServiceResult {
                Err(sigma_core::SigmaError::FileNotFound(7))
            }));
        let resp = p.call(backup(1, "t", 50));
        assert_eq!(resp.code, sigma_core::ServiceCode::NotFound);
        // The slot and bytes must be free again: the next request reaches
        // the backend (and its error) instead of parking forever.
        assert_eq!(sched.inflight_bytes("t"), 0);
        let again = p.call(backup(2, "t", 50));
        assert_eq!(again.code, sigma_core::ServiceCode::NotFound);
        assert_eq!(sched.granted_count(), 2);
        assert_eq!(sched.inflight_bytes("t"), 0);
    }

    #[test]
    fn zero_payload_operations_take_a_turn() {
        let sched = Arc::new(FairScheduler::new(10, 10, 1));
        let p = ServiceBuilder::new()
            .layer(sched.clone())
            .build_with_backend(Arc::new(|r: RequestEnvelope| {
                Ok(ResponseEnvelope::ok(r.request_id))
            }));
        assert!(p
            .call(RequestEnvelope::new(1, "t", Operation::Stats))
            .is_ok());
        assert_eq!(sched.completed_bytes()["t"], 1, "stats costs one byte");
    }
}
