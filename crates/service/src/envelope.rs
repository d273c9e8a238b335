//! Typed request/response envelopes — the protocol-agnostic unit every
//! middleware and transport works with.
//!
//! A [`RequestEnvelope`] names a tenant, a request ID, an [`Operation`], a
//! free-form metadata map (the "headers") and an opaque payload (the bytes to
//! back up).  A [`ResponseEnvelope`] carries the mirrored request ID, a
//! [`ServiceCode`] derived from [`SigmaError::code`] in exactly one place,
//! response metadata and an opaque payload (the restored bytes).  Middleware
//! is protocol-agnostic by construction: it sees envelopes, never sockets.

use sigma_core::{ServiceCode, SigmaError};
use std::collections::BTreeMap;

/// Metadata key under which [`RequestEnvelope::with_token`] stores the
/// caller's bearer token (the envelope equivalent of an `Authorization`
/// header).
pub const AUTH_TOKEN_KEY: &str = "auth-token";

/// The operations the backup service exposes — the cluster's whole lifecycle
/// behind one request shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Back up the request payload as one file.
    Backup {
        /// File name recorded in the tenant's backup session.
        file_name: String,
        /// Backup generation the session is opened in (retention unit).
        generation: u64,
    },
    /// Restore a previously backed-up file; the bytes come back as the
    /// response payload.
    Restore {
        /// File ID returned by the backup response.
        file_id: u64,
    },
    /// Delete one backed-up file (space is reclaimed by the next GC).
    DeleteFile {
        /// File ID to delete.
        file_id: u64,
    },
    /// Delete a whole backup session and every file registered in it.
    DeleteBackup {
        /// Session ID returned by backup responses.
        session_id: u64,
    },
    /// Expire every session the tenant opened in a generation.
    DeleteGeneration {
        /// Generation to expire.
        generation: u64,
    },
    /// Run a cluster-wide mark-and-sweep garbage collection.
    CollectGarbage,
    /// Report cluster statistics (logical/physical bytes, dedup ratio, …).
    Stats,
}

impl Operation {
    /// Stable lower-case name of the operation, used as the metrics key and
    /// in log entries.
    pub fn name(&self) -> &'static str {
        match self {
            Operation::Backup { .. } => "backup",
            Operation::Restore { .. } => "restore",
            Operation::DeleteFile { .. } => "delete-file",
            Operation::DeleteBackup { .. } => "delete-backup",
            Operation::DeleteGeneration { .. } => "delete-generation",
            Operation::CollectGarbage => "collect-garbage",
            Operation::Stats => "stats",
        }
    }

    /// Whether the operation ingests new logical bytes (quota middleware
    /// debits these against the tenant's budget before they reach the
    /// cluster).
    pub fn ingests(&self) -> bool {
        matches!(self, Operation::Backup { .. })
    }
}

/// One request flowing into the service pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEnvelope {
    /// Caller-chosen request correlator, echoed verbatim in the response.
    pub request_id: u64,
    /// Tenant on whose behalf the request runs (auth, quota and rate-limit
    /// state are all keyed by this).
    pub tenant: String,
    /// What to do.
    pub operation: Operation,
    /// Free-form string metadata (the protocol-agnostic "headers"); the auth
    /// token travels under [`AUTH_TOKEN_KEY`].
    pub metadata: BTreeMap<String, String>,
    /// Opaque payload: the bytes to back up for [`Operation::Backup`], empty
    /// otherwise.
    pub payload: Vec<u8>,
}

impl RequestEnvelope {
    /// Creates an envelope with empty metadata and payload.
    pub fn new(request_id: u64, tenant: impl Into<String>, operation: Operation) -> Self {
        RequestEnvelope {
            request_id,
            tenant: tenant.into(),
            operation,
            metadata: BTreeMap::new(),
            payload: Vec::new(),
        }
    }

    /// Sets the opaque payload.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Adds one metadata entry.
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Stores a bearer token under [`AUTH_TOKEN_KEY`].
    pub fn with_token(self, token: impl Into<String>) -> Self {
        self.with_metadata(AUTH_TOKEN_KEY, token)
    }

    /// The bearer token, if any.
    pub fn token(&self) -> Option<&str> {
        self.metadata.get(AUTH_TOKEN_KEY).map(String::as_str)
    }
}

/// One response flowing back out of the service pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEnvelope {
    /// The request's correlator, echoed back.
    pub request_id: u64,
    /// Status class; [`ServiceCode::Ok`] on success.
    pub code: ServiceCode,
    /// Human-readable status detail (the error's `Display` on failure).
    pub message: String,
    /// Free-form response metadata (`file_id`, `freed_bytes`, stats figures…).
    pub metadata: BTreeMap<String, String>,
    /// Opaque payload: restored bytes for [`Operation::Restore`], empty
    /// otherwise.
    pub payload: Vec<u8>,
}

impl ResponseEnvelope {
    /// A successful response with empty metadata and payload.
    pub fn ok(request_id: u64) -> Self {
        ResponseEnvelope {
            request_id,
            code: ServiceCode::Ok,
            message: String::new(),
            metadata: BTreeMap::new(),
            payload: Vec::new(),
        }
    }

    /// A rejection whose code and message derive from the error — the single
    /// place a [`SigmaError`] becomes transport status.
    pub fn rejection(request_id: u64, error: &SigmaError) -> Self {
        ResponseEnvelope {
            request_id,
            code: error.code(),
            message: error.to_string(),
            metadata: BTreeMap::new(),
            payload: Vec::new(),
        }
    }

    /// Sets the opaque payload.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Adds one metadata entry.
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// `true` when the status is [`ServiceCode::Ok`].
    pub fn is_ok(&self) -> bool {
        self.code.is_ok()
    }

    /// Parses a numeric metadata entry (`None` when absent or non-numeric).
    pub fn metadata_u64(&self, key: &str) -> Option<u64> {
        self.metadata.get(key).and_then(|v| v.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let req = RequestEnvelope::new(
            7,
            "acme",
            Operation::Backup {
                file_name: "db.dump".into(),
                generation: 3,
            },
        )
        .with_payload(vec![1, 2, 3])
        .with_token("secret")
        .with_metadata("trace", "abc");
        assert_eq!(req.request_id, 7);
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.token(), Some("secret"));
        assert_eq!(req.metadata["trace"], "abc");
        assert_eq!(req.payload, vec![1, 2, 3]);
        assert_eq!(req.operation.name(), "backup");
        assert!(req.operation.ingests());
    }

    #[test]
    fn rejection_code_comes_from_the_error() {
        let err = SigmaError::FileNotFound(99);
        let resp = ResponseEnvelope::rejection(12, &err);
        assert_eq!(resp.request_id, 12);
        assert_eq!(resp.code, ServiceCode::NotFound);
        assert!(resp.message.contains("99"));
        assert!(!resp.is_ok());
    }

    #[test]
    fn metadata_u64_parses_or_none() {
        let resp = ResponseEnvelope::ok(1)
            .with_metadata("file_id", "42")
            .with_metadata("note", "not a number");
        assert_eq!(resp.metadata_u64("file_id"), Some(42));
        assert_eq!(resp.metadata_u64("note"), None);
        assert_eq!(resp.metadata_u64("absent"), None);
        assert!(resp.is_ok());
    }

    #[test]
    fn every_operation_has_a_stable_name() {
        let ops = [
            Operation::Backup {
                file_name: "f".into(),
                generation: 0,
            },
            Operation::Restore { file_id: 1 },
            Operation::DeleteFile { file_id: 1 },
            Operation::DeleteBackup { session_id: 1 },
            Operation::DeleteGeneration { generation: 1 },
            Operation::CollectGarbage,
            Operation::Stats,
        ];
        let names: std::collections::BTreeSet<_> = ops.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), ops.len(), "names are distinct");
        assert!(ops.iter().filter(|o| o.ingests()).count() == 1);
    }
}
