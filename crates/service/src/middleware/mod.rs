//! The composable middleware abstraction and the six production-shaped
//! middlewares that ship with the service.
//!
//! A [`Middleware`] wraps the rest of the pipeline: it receives the request
//! and a [`Next`] handle, and decides whether to pass the request on
//! (optionally transformed), short-circuit with an error, or post-process the
//! response on the way out.  Errors returned anywhere in the chain become
//! [`ResponseEnvelope`] rejections at the pipeline
//! boundary, with the [`ServiceCode`](sigma_core::ServiceCode) derived from
//! [`SigmaError::code`](sigma_core::SigmaError::code).

mod admission;
mod auth;
mod fair_scheduler;
mod logging;
mod quota;
mod rate_limit;

pub use admission::{AdmissionControl, AdmissionPermit};
pub use auth::TokenAuth;
pub use fair_scheduler::{FairScheduler, SchedulerGrant};
pub use logging::{LogEntry, RequestLog};
pub use quota::TenantQuota;
pub use rate_limit::{ManualClock, RateLimit, RateLimitClock, SystemClock};

use crate::{RequestEnvelope, ResponseEnvelope};
use sigma_core::SigmaError;

/// Result of one step of the pipeline: a response, or an error the pipeline
/// boundary turns into a rejection envelope.
pub type ServiceResult = Result<ResponseEnvelope, SigmaError>;

/// The rest of the pipeline, seen from inside a middleware.
pub trait Next {
    /// Runs the remaining middlewares and the backend on `req`.
    fn run(&self, req: RequestEnvelope) -> ServiceResult;
}

/// One composable layer of the request/response pipeline.
///
/// Implementations must be `Send + Sync`: one middleware instance serves
/// every connection of every transport concurrently.
pub trait Middleware: Send + Sync {
    /// Short stable name (shown in logs and stack descriptions).
    fn name(&self) -> &'static str;

    /// Handles `req`, normally by delegating to `next.run(req)` and possibly
    /// inspecting or enriching the response on the way back out.  Returning
    /// `Err` short-circuits: no layer below (including the backend) sees the
    /// request.
    fn handle(&self, req: RequestEnvelope, next: &dyn Next) -> ServiceResult;
}
