//! # Σ-Dedupe service layer
//!
//! A typed, transport-agnostic front door for the dedup cluster: every
//! operation travels as a [`RequestEnvelope`], flows through a composable
//! [`Middleware`] pipeline (token auth → admission control → tenant quota →
//! rate limiting → fair scheduling → request logging), reaches the
//! [`BackupService`] backend that owns the
//! [`DedupCluster`](sigma_core::DedupCluster), and comes back as a
//! [`ResponseEnvelope`] whose [`ServiceCode`] derives from
//! [`SigmaError::code`](sigma_core::SigmaError::code) in exactly one place.
//!
//! ```text
//!            in-process            framed TCP
//!          ServiceStack::call    TcpClient ──frames──▶ TcpService
//!                   │                                       │
//!                   ▼                                       ▼
//!            RequestEnvelope ──▶ auth ─▶ admission ─▶ quota ─▶ rate-limit
//!                                             │ 503 shed           │
//!                                             ▼                    ▼
//!                                        (rejection)        fair-scheduler
//!                                                        DRR per-tenant queues
//!                                                                  │
//!                                                                  ▼
//!            ResponseEnvelope ◀─────────────── logging ◀── BackupService
//! ```
//!
//! The admission and fair-scheduler layers are the multi-tenant
//! heavy-traffic additions: admission bounds how much work may exist at once
//! (shedding the excess with a typed 503 and a deterministic retry-after
//! hint), the deficit-round-robin scheduler divides execution *fairly* among
//! tenants so one hot tenant cannot starve the rest, and the backend keeps
//! per-tenant accounting ([`sigma_metrics::TenantStatsReport`], surfaced
//! through the `Stats` operation).
//!
//! Two transports share the pipeline byte-for-byte: the in-process
//! [`ServiceStack::call`] used by tests and embedders, and the framed-TCP
//! pair [`TcpService`]/[`TcpClient`] whose wire format lives in [`codec`].
//! Stacks are assembled in code, with [`ServiceBuilder`].
//!
//! ## Quick start
//!
//! ```
//! use sigma_core::{DedupCluster, SigmaConfig};
//! use sigma_service::middleware::{RateLimit, TenantQuota, TokenAuth};
//! use sigma_service::{Operation, RequestEnvelope, ServiceBuilder};
//! use std::sync::Arc;
//!
//! let cluster = Arc::new(DedupCluster::with_similarity_router(2, SigmaConfig::default()));
//! let stack = ServiceBuilder::default_stack(
//!     TokenAuth::new().tenant("acme", "s3cret"),
//!     TenantQuota::new().budget("acme", 1 << 30),
//!     RateLimit::new(100, 50.0),
//! )
//! .build(cluster);
//!
//! let backup = stack.call(
//!     RequestEnvelope::new(1, "acme", Operation::Backup { file_name: "db".into(), generation: 0 })
//!         .with_payload(b"hello world".to_vec())
//!         .with_token("s3cret"),
//! );
//! assert!(backup.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod builder;
pub mod codec;
mod envelope;
pub mod middleware;
mod tcp;

pub use backend::BackupService;
pub use builder::{Backend, ServiceBuilder, ServiceStack};
pub use envelope::{Operation, RequestEnvelope, ResponseEnvelope, AUTH_TOKEN_KEY};
pub use middleware::{Middleware, Next, ServiceResult};
pub use tcp::{TcpClient, TcpService};

// Re-exported so envelope consumers don't need a direct sigma-core
// dependency to inspect response codes.
pub use sigma_core::ServiceCode;
