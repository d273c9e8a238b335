//! Assembly of a middleware stack: [`ServiceBuilder`] layers it,
//! [`ServiceStack`] is the runnable (in-process) result.
//!
//! ```text
//! RequestEnvelope → middleware[0] → middleware[1] → … → Backend
//!                                                          │
//! ResponseEnvelope ← middleware[0] ← middleware[1] ← … ←───┘
//! ```
//!
//! Each middleware sees the request on the way in and the response on the
//! way out; an `Err` anywhere short-circuits the layers below it and is
//! converted into a rejection [`ResponseEnvelope`] exactly once, at
//! [`ServiceStack::call`].

use crate::middleware::{
    AdmissionControl, FairScheduler, Middleware, Next, RateLimit, RequestLog, ServiceResult,
    TenantQuota, TokenAuth,
};
use crate::{BackupService, RequestEnvelope, ResponseEnvelope};
use sigma_core::DedupCluster;
use std::sync::Arc;

/// The innermost handler of a stack — the thing the middlewares guard.
/// [`BackupService`] is the production backend; tests substitute their own.
pub trait Backend: Send + Sync {
    /// Executes the request against the underlying system.
    fn call(&self, req: RequestEnvelope) -> ServiceResult;
}

impl<F> Backend for F
where
    F: Fn(RequestEnvelope) -> ServiceResult + Send + Sync,
{
    fn call(&self, req: RequestEnvelope) -> ServiceResult {
        self(req)
    }
}

/// A fully-assembled service: an ordered middleware stack (outermost first)
/// in front of a backend.
///
/// This *is* the in-process transport — [`call`](Self::call) takes a request
/// envelope and returns the response envelope, exactly what the framed-TCP
/// server does per frame.  Wrap it in an `Arc` to share it between transports
/// and threads.
pub struct ServiceStack {
    middlewares: Vec<Arc<dyn Middleware>>,
    backend: Arc<dyn Backend>,
    log: Option<Arc<RequestLog>>,
}

/// One suffix of the middleware stack plus the backend — the [`Next`] handle
/// a middleware calls to run everything below itself.
struct Chain<'a> {
    rest: &'a [Arc<dyn Middleware>],
    backend: &'a dyn Backend,
}

impl Next for Chain<'_> {
    fn run(&self, req: RequestEnvelope) -> ServiceResult {
        match self.rest.split_first() {
            Some((mw, rest)) => mw.handle(
                req,
                &Chain {
                    rest,
                    backend: self.backend,
                },
            ),
            None => self.backend.call(req),
        }
    }
}

impl ServiceStack {
    /// Runs one request through the full stack.  Never panics on user error:
    /// any `Err` from a middleware or the backend becomes a rejection
    /// envelope whose code derives from
    /// [`SigmaError::code`](sigma_core::SigmaError::code).
    pub fn call(&self, req: RequestEnvelope) -> ResponseEnvelope {
        let request_id = req.request_id;
        let chain = Chain {
            rest: &self.middlewares,
            backend: self.backend.as_ref(),
        };
        chain
            .run(req)
            .unwrap_or_else(|err| ResponseEnvelope::rejection(request_id, &err))
    }

    /// Names of the stacked middlewares, outermost first.
    pub fn middleware_names(&self) -> Vec<&'static str> {
        self.middlewares.iter().map(|m| m.name()).collect()
    }

    /// The request log, when the stack includes the logging middleware.
    pub fn log(&self) -> Option<&Arc<RequestLog>> {
        self.log.as_ref()
    }
}

impl std::fmt::Debug for ServiceStack {
    /// Shows the stack shape, not the (unprintable) trait objects.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceStack")
            .field("stack", &self.middleware_names())
            .finish_non_exhaustive()
    }
}

/// Builds a middleware stack layer by layer.
///
/// Layers run in the order they are added (first added = outermost).  The
/// production-shaped default order — auth rejects before quota reserves,
/// quota before rate limiting, logging just above the backend — is what
/// [`default_stack`](Self::default_stack) produces:
///
/// ```text
/// request → auth → quota → rate-limit → logging → BackupService
/// ```
///
/// The multi-tenant heavy-traffic order adds admission control right after
/// auth (shed unauthenticated work *after* it is rejected cheaply, shed the
/// rest before it reserves quota) and fair scheduling right above logging, so
/// every queued request has already paid auth, admission, quota and rate
/// limiting ([`full_stack`](Self::full_stack)):
///
/// ```text
/// request → auth → admission → quota → rate-limit → fair-scheduler → logging → BackupService
/// ```
///
/// # Example
///
/// ```
/// use sigma_core::{DedupCluster, SigmaConfig};
/// use sigma_service::middleware::{RateLimit, TenantQuota, TokenAuth};
/// use sigma_service::ServiceBuilder;
/// use std::sync::Arc;
///
/// let cluster = Arc::new(DedupCluster::with_similarity_router(2, SigmaConfig::default()));
/// let stack = ServiceBuilder::default_stack(
///     TokenAuth::new().tenant("acme", "s3cret"),
///     TenantQuota::new().budget("acme", 1 << 30),
///     RateLimit::new(100, 50.0),
/// )
/// .build(cluster);
/// assert_eq!(
///     stack.middleware_names(),
///     vec!["auth", "quota", "rate-limit", "logging"]
/// );
/// ```
#[derive(Default)]
pub struct ServiceBuilder {
    middlewares: Vec<Arc<dyn Middleware>>,
    log: Option<Arc<RequestLog>>,
}

impl ServiceBuilder {
    /// Starts an empty stack.
    pub fn new() -> Self {
        ServiceBuilder::default()
    }

    /// Appends token authentication.
    pub fn auth(self, auth: TokenAuth) -> Self {
        self.layer(Arc::new(auth))
    }

    /// Appends per-tenant quota enforcement.
    pub fn quota(self, quota: TenantQuota) -> Self {
        self.layer(Arc::new(quota))
    }

    /// Appends global admission control (bounded in-flight work, typed 503
    /// shedding with deterministic retry-after hints).
    pub fn admission(self, admission: AdmissionControl) -> Self {
        self.layer(Arc::new(admission))
    }

    /// Appends deficit-round-robin fair scheduling over per-tenant queues,
    /// caller-held (keep the handle to read per-tenant completed bytes and
    /// compute fairness indices).
    pub fn fair_scheduler_with(self, scheduler: Arc<FairScheduler>) -> Self {
        self.layer(scheduler)
    }

    /// Appends token-bucket rate limiting.
    pub fn rate_limit(self, limiter: RateLimit) -> Self {
        self.layer(Arc::new(limiter))
    }

    /// Appends request logging; the log handle stays readable through
    /// [`ServiceStack::log`].
    pub fn logging(self) -> Self {
        self.logging_with(Arc::new(RequestLog::new()))
    }

    /// Appends request logging using a caller-held [`RequestLog`] (share one
    /// log across stacks, or keep a handle for assertions).
    pub fn logging_with(mut self, log: Arc<RequestLog>) -> Self {
        self.log = Some(log.clone());
        self.layer(log)
    }

    /// Appends any custom middleware.
    pub fn layer(mut self, middleware: Arc<dyn Middleware>) -> Self {
        self.middlewares.push(middleware);
        self
    }

    /// The canonical four-layer stack in production order.
    pub fn default_stack(auth: TokenAuth, quota: TenantQuota, limiter: RateLimit) -> Self {
        ServiceBuilder::new()
            .auth(auth)
            .quota(quota)
            .rate_limit(limiter)
            .logging()
    }

    /// The full multi-tenant heavy-traffic stack: auth → admission → quota →
    /// rate-limit → fair-scheduler → logging.
    ///
    /// Admission sits directly under auth so overload shedding happens before
    /// quota is reserved; the fair scheduler sits just above logging so a
    /// parked request has already passed every policy layer and the log
    /// records scheduler queueing as part of request latency.
    pub fn full_stack(
        auth: TokenAuth,
        admission: AdmissionControl,
        quota: TenantQuota,
        limiter: RateLimit,
        scheduler: Arc<FairScheduler>,
    ) -> Self {
        ServiceBuilder::new()
            .auth(auth)
            .admission(admission)
            .quota(quota)
            .rate_limit(limiter)
            .fair_scheduler_with(scheduler)
            .logging()
    }

    /// Finishes the stack in front of a [`BackupService`] owning `cluster`.
    pub fn build(self, cluster: Arc<DedupCluster>) -> ServiceStack {
        self.build_with_backend(Arc::new(BackupService::new(cluster)))
    }

    /// Finishes the stack in front of an arbitrary backend (tests, fakes,
    /// future non-cluster services).
    pub fn build_with_backend(self, backend: Arc<dyn Backend>) -> ServiceStack {
        ServiceStack {
            middlewares: self.middlewares,
            backend,
            log: self.log,
        }
    }
}

impl std::fmt::Debug for ServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.middlewares.iter().map(|m| m.name()).collect();
        f.debug_struct("ServiceBuilder")
            .field("stack", &names)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Operation;
    use sigma_core::{ServiceCode, SigmaConfig, SigmaError};

    fn cluster() -> Arc<DedupCluster> {
        Arc::new(DedupCluster::with_similarity_router(
            2,
            SigmaConfig::default(),
        ))
    }

    #[test]
    fn default_stack_orders_the_four_layers() {
        let stack = ServiceBuilder::default_stack(
            TokenAuth::new().tenant("t", "s"),
            TenantQuota::new(),
            RateLimit::new(100, 100.0),
        )
        .build(cluster());
        assert_eq!(
            stack.middleware_names(),
            vec!["auth", "quota", "rate-limit", "logging"]
        );
        assert!(stack.log().is_some());
    }

    #[test]
    fn full_stack_orders_the_six_layers() {
        let scheduler = Arc::new(FairScheduler::new(64 << 10, 8 << 20, 4));
        let stack = ServiceBuilder::full_stack(
            TokenAuth::new().tenant("t", "s"),
            AdmissionControl::new(64, 64 << 20),
            TenantQuota::new(),
            RateLimit::new(100, 100.0),
            scheduler.clone(),
        )
        .build(cluster());
        assert_eq!(
            stack.middleware_names(),
            vec![
                "auth",
                "admission",
                "quota",
                "rate-limit",
                "fair-scheduler",
                "logging"
            ]
        );
        // The caller-held handle observes traffic through the stack.
        let resp = stack.call(
            RequestEnvelope::new(
                1,
                "t",
                Operation::Backup {
                    file_name: "f".into(),
                    generation: 0,
                },
            )
            .with_payload(vec![1u8; 2048])
            .with_token("s"),
        );
        assert!(resp.is_ok(), "{:?}", resp);
        assert_eq!(scheduler.granted_count(), 1);
        assert_eq!(scheduler.completed_bytes().get("t"), Some(&2048));
    }

    #[test]
    fn layers_run_in_addition_order() {
        // Logging outermost: it must observe the auth rejection.
        let log = Arc::new(RequestLog::new());
        let stack = ServiceBuilder::new()
            .logging_with(log.clone())
            .auth(TokenAuth::new())
            .build(cluster());
        assert_eq!(stack.middleware_names(), vec!["logging", "auth"]);
        let resp = stack.call(RequestEnvelope::new(1, "t", Operation::Stats));
        assert_eq!(resp.code, ServiceCode::Unauthorized);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].code, ServiceCode::Unauthorized);
    }

    #[test]
    fn empty_builder_is_a_bare_backend() {
        let stack = ServiceBuilder::new().build(cluster());
        assert!(stack.middleware_names().is_empty());
        assert!(stack.log().is_none());
        let resp = stack.call(RequestEnvelope::new(1, "anyone", Operation::Stats));
        assert!(resp.is_ok(), "no auth layer, so anyone passes");
    }

    #[test]
    fn end_to_end_through_the_default_stack() {
        let stack = ServiceBuilder::default_stack(
            TokenAuth::new().tenant("acme", "s3cret"),
            TenantQuota::new().budget("acme", 10 << 20),
            RateLimit::new(100, 0.0),
        )
        .build(cluster());
        let payload = vec![7u8; 100_000];
        let resp = stack.call(
            RequestEnvelope::new(
                1,
                "acme",
                Operation::Backup {
                    file_name: "f".into(),
                    generation: 0,
                },
            )
            .with_payload(payload.clone())
            .with_token("s3cret"),
        );
        assert!(resp.is_ok(), "{:?}", resp);
        let file_id = resp.metadata_u64(crate::backend::FILE_ID_KEY).unwrap();
        let restored = stack.call(
            RequestEnvelope::new(2, "acme", Operation::Restore { file_id }).with_token("s3cret"),
        );
        assert_eq!(restored.payload, payload);
        let log = stack.log().unwrap();
        assert_eq!(log.entries().len(), 2);
    }

    fn stats_req(id: u64) -> RequestEnvelope {
        RequestEnvelope::new(id, "t", Operation::Stats)
    }

    fn echo_backend() -> Arc<dyn Backend> {
        Arc::new(|r: RequestEnvelope| {
            Ok(ResponseEnvelope::ok(r.request_id).with_metadata("backend", "echo"))
        })
    }

    /// Tags requests on the way in and responses on the way out, recording
    /// call order in a shared log.
    struct Tag {
        label: &'static str,
        log: Arc<parking_lot::Mutex<Vec<String>>>,
    }

    impl Middleware for Tag {
        fn name(&self) -> &'static str {
            self.label
        }
        fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult {
            self.log.lock().push(format!("{}>in", self.label));
            let resp = next.run(req)?;
            self.log.lock().push(format!("{}>out", self.label));
            Ok(resp.with_metadata(self.label, "seen"))
        }
    }

    struct Reject;
    impl Middleware for Reject {
        fn name(&self) -> &'static str {
            "reject"
        }
        fn handle(&self, req: RequestEnvelope, _next: &dyn Next) -> ServiceResult {
            Err(SigmaError::Unauthorized { tenant: req.tenant })
        }
    }

    #[test]
    fn empty_stack_reaches_the_backend() {
        let stack = ServiceBuilder::new().build_with_backend(echo_backend());
        let resp = stack.call(stats_req(5));
        assert_eq!(resp.request_id, 5);
        assert_eq!(resp.metadata["backend"], "echo");
        assert!(stack.middleware_names().is_empty());
    }

    #[test]
    fn middlewares_run_outermost_first_and_unwind_in_reverse() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stack = ServiceBuilder::new()
            .layer(Arc::new(Tag {
                label: "outer",
                log: log.clone(),
            }))
            .layer(Arc::new(Tag {
                label: "inner",
                log: log.clone(),
            }))
            .build_with_backend(echo_backend());
        let resp = stack.call(stats_req(1));
        assert!(resp.is_ok());
        assert_eq!(resp.metadata["outer"], "seen");
        assert_eq!(resp.metadata["inner"], "seen");
        assert_eq!(
            *log.lock(),
            vec!["outer>in", "inner>in", "inner>out", "outer>out"]
        );
        assert_eq!(stack.middleware_names(), vec!["outer", "inner"]);
    }

    #[test]
    fn rejection_short_circuits_lower_layers() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stack = ServiceBuilder::new()
            .layer(Arc::new(Tag {
                label: "outer",
                log: log.clone(),
            }))
            .layer(Arc::new(Reject))
            .layer(Arc::new(Tag {
                label: "never",
                log: log.clone(),
            }))
            .build_with_backend(Arc::new(|_r: RequestEnvelope| -> ServiceResult {
                panic!("backend must not run")
            }));
        let resp = stack.call(stats_req(9));
        assert_eq!(resp.request_id, 9);
        assert_eq!(resp.code, ServiceCode::Unauthorized);
        assert_eq!(*log.lock(), vec!["outer>in"], "inner layers never ran");
    }

    #[test]
    fn debug_shows_the_stack() {
        let stack = ServiceBuilder::new()
            .layer(Arc::new(Reject))
            .build_with_backend(echo_backend());
        let dbg = format!("{:?}", stack);
        assert!(dbg.contains("reject"), "{}", dbg);
    }
}
