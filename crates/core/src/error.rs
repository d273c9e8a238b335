//! Error type for the Σ-Dedupe core, and its stable service-code mapping.

use sigma_storage::StorageError;

/// Stable, transport-facing status code classifying every [`SigmaError`].
///
/// The service layer (`sigma-service`) derives the status of a
/// `ResponseEnvelope` from [`SigmaError::code`] — one mapping in one place —
/// so a new error variant only has to pick its class here and every
/// transport (in-process, framed TCP, future protocols) reports it
/// consistently.  The numeric values returned by [`wire`](Self::wire) are
/// part of the wire format and must never be reused or renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceCode {
    /// The request succeeded.
    Ok,
    /// The request itself was malformed (unknown operation, undecodable
    /// envelope, invalid parameters).
    InvalidRequest,
    /// The addressed entity (file, backup session, node) does not exist —
    /// including "existed, already deleted".
    NotFound,
    /// The request is valid but conflicts with the current cluster state
    /// (e.g. removing the last node).
    Conflict,
    /// The caller's credentials are missing, unknown or wrong.
    Unauthorized,
    /// A per-tenant budget (quota bytes, rate-limit tokens) is exhausted;
    /// retrying later or freeing space may succeed.
    ResourceExhausted,
    /// An internal invariant failed (missing chunk, storage corruption);
    /// retrying will not help.
    Internal,
    /// The cluster is temporarily unable to serve the request (crashed node
    /// awaiting recovery, container mid-migration); retrying may succeed.
    Unavailable,
}

impl ServiceCode {
    /// The stable numeric form used by wire codecs (HTTP-status-shaped, so
    /// logs read naturally).
    pub fn wire(self) -> u16 {
        match self {
            ServiceCode::Ok => 0,
            ServiceCode::InvalidRequest => 400,
            ServiceCode::Unauthorized => 401,
            ServiceCode::NotFound => 404,
            ServiceCode::Conflict => 409,
            ServiceCode::ResourceExhausted => 429,
            ServiceCode::Internal => 500,
            ServiceCode::Unavailable => 503,
        }
    }

    /// Decodes a [`wire`](Self::wire) value; `None` for unknown numbers.
    pub fn from_wire(value: u16) -> Option<ServiceCode> {
        Some(match value {
            0 => ServiceCode::Ok,
            400 => ServiceCode::InvalidRequest,
            401 => ServiceCode::Unauthorized,
            404 => ServiceCode::NotFound,
            409 => ServiceCode::Conflict,
            429 => ServiceCode::ResourceExhausted,
            500 => ServiceCode::Internal,
            503 => ServiceCode::Unavailable,
            _ => return None,
        })
    }

    /// `true` only for [`ServiceCode::Ok`].
    pub fn is_ok(self) -> bool {
        self == ServiceCode::Ok
    }
}

impl std::fmt::Display for ServiceCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ServiceCode::Ok => "ok",
            ServiceCode::InvalidRequest => "invalid-request",
            ServiceCode::NotFound => "not-found",
            ServiceCode::Conflict => "conflict",
            ServiceCode::Unauthorized => "unauthorized",
            ServiceCode::ResourceExhausted => "resource-exhausted",
            ServiceCode::Internal => "internal",
            ServiceCode::Unavailable => "unavailable",
        };
        f.write_str(name)
    }
}

/// Errors produced by backup, deduplication and restore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigmaError {
    /// An underlying storage operation failed: a backend error, or a chunk
    /// record with no bytes behind it in its container (corruption).
    Storage(StorageError),
    /// No file recipe exists for this file ID.
    FileNotFound(u64),
    /// No backup session exists with this session ID (already deleted or never
    /// opened).
    BackupNotFound(u64),
    /// A chunk referenced by a file recipe could not be found on its node.
    ChunkMissing {
        /// Node that was expected to hold the chunk.
        node: usize,
        /// Hex form of the missing fingerprint.
        fingerprint: String,
    },
    /// The chunk's container was migrated to another node; the error carries the
    /// forwarding tombstone's destination.  Cluster-level restores follow the
    /// chain transparently, so callers normally never observe this variant.
    ChunkMigrated {
        /// Hex form of the migrated chunk's fingerprint.
        fingerprint: String,
        /// Node the container was forwarded to.
        node: usize,
    },
    /// Membership operation referenced a node ID that is not in the cluster.
    UnknownNode(usize),
    /// Membership operation would leave the cluster without any node.
    ClusterTooSmall,
    /// A restore rebuilt fewer (or more) bytes than the file recipe records —
    /// chunk payloads and recipe metadata disagree, so the returned data would
    /// be corrupt.  Restores fail loudly instead of handing back a silently
    /// truncated file.
    RestoreTruncated {
        /// File whose restore diverged.
        file_id: u64,
        /// Logical size the recipe records.
        expected: u64,
        /// Bytes the chunk payloads actually rebuilt.
        actual: u64,
    },
    /// A super-chunk reached a node with a chunk whose payload is missing,
    /// surplus, or not as long as its descriptor says.  The node refuses the
    /// whole super-chunk before storing any of it.
    PayloadMismatch {
        /// Index of the first disagreeing chunk in the super-chunk.
        chunk: usize,
        /// The length its descriptor gives (`None`: no descriptor).
        descriptor_len: Option<usize>,
        /// The length of its payload (`None`: no payload).
        payload_len: Option<usize>,
    },
    /// The routing scheme requires file boundaries but none were provided.
    FileBoundariesRequired {
        /// Name of the routing scheme that raised the error.
        router: String,
    },
    /// Configuration rejected at validation time.
    InvalidConfig(String),
    /// The service layer rejected the request's credentials (unknown tenant,
    /// missing or mismatched token).
    Unauthorized {
        /// Tenant named by the request.
        tenant: String,
    },
    /// The tenant's logical-bytes quota cannot cover the request.
    QuotaExceeded {
        /// Tenant whose budget is exhausted.
        tenant: String,
        /// Logical bytes the request asked to ingest.
        requested_bytes: u64,
        /// Logical bytes still available in the tenant's budget.
        remaining_bytes: u64,
    },
    /// The tenant's request rate exceeded its token bucket.
    RateLimited {
        /// Tenant that ran out of tokens.
        tenant: String,
        /// Milliseconds until the bucket refills enough for one request
        /// (0 when the bucket never refills).
        retry_after_ms: u64,
    },
    /// The service shed the request because the whole cluster's bounded
    /// in-flight work is saturated — not a per-tenant condition.  Maps to
    /// [`ServiceCode::Unavailable`] (wire 503): the request was valid and
    /// retrying after `retry_after_ms` may succeed.
    Overloaded {
        /// In-flight payload bytes already admitted when the request arrived.
        inflight_bytes: u64,
        /// The configured in-flight byte ceiling that was hit.
        limit_bytes: u64,
        /// Deterministic retry hint in milliseconds, scaled by how far past
        /// the ceiling the cluster is (same state ⇒ same hint).
        retry_after_ms: u64,
    },
}

impl SigmaError {
    /// The stable [`ServiceCode`] class of this error — the single place
    /// transport status is derived from (response envelopes call this instead
    /// of matching variants per call site).
    pub fn code(&self) -> ServiceCode {
        match self {
            SigmaError::Storage(StorageError::Crashed) => ServiceCode::Unavailable,
            SigmaError::Storage(_) => ServiceCode::Internal,
            SigmaError::FileNotFound(_) | SigmaError::BackupNotFound(_) => ServiceCode::NotFound,
            SigmaError::ChunkMissing { .. } | SigmaError::RestoreTruncated { .. } => {
                ServiceCode::Internal
            }
            SigmaError::ChunkMigrated { .. } => ServiceCode::Unavailable,
            SigmaError::UnknownNode(_) => ServiceCode::NotFound,
            SigmaError::ClusterTooSmall => ServiceCode::Conflict,
            SigmaError::PayloadMismatch { .. }
            | SigmaError::FileBoundariesRequired { .. }
            | SigmaError::InvalidConfig(_) => ServiceCode::InvalidRequest,
            SigmaError::Unauthorized { .. } => ServiceCode::Unauthorized,
            SigmaError::QuotaExceeded { .. } | SigmaError::RateLimited { .. } => {
                ServiceCode::ResourceExhausted
            }
            SigmaError::Overloaded { .. } => ServiceCode::Unavailable,
        }
    }
}

impl std::fmt::Display for SigmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigmaError::Storage(e) => write!(f, "storage error: {}", e),
            SigmaError::FileNotFound(id) => write!(f, "no file recipe for file id {}", id),
            SigmaError::BackupNotFound(id) => {
                write!(f, "no backup session with id {}", id)
            }
            SigmaError::ChunkMissing { node, fingerprint } => {
                write!(f, "chunk {} missing on node {}", fingerprint, node)
            }
            SigmaError::ChunkMigrated { fingerprint, node } => {
                write!(f, "chunk {} was migrated to node {}", fingerprint, node)
            }
            SigmaError::RestoreTruncated {
                file_id,
                expected,
                actual,
            } => write!(
                f,
                "restore of file {} rebuilt {} bytes but the recipe records {}",
                file_id, actual, expected
            ),
            SigmaError::UnknownNode(id) => write!(f, "no active node with id {}", id),
            SigmaError::ClusterTooSmall => {
                write!(f, "cannot remove the last node of a cluster")
            }
            SigmaError::PayloadMismatch {
                chunk,
                descriptor_len,
                payload_len,
            } => write!(
                f,
                "super-chunk chunk {} has a payload of {:?} bytes but a descriptor of {:?}",
                chunk, payload_len, descriptor_len
            ),
            SigmaError::FileBoundariesRequired { router } => write!(
                f,
                "routing scheme {} requires file boundary information",
                router
            ),
            SigmaError::InvalidConfig(msg) => write!(f, "invalid configuration: {}", msg),
            SigmaError::Unauthorized { tenant } => {
                write!(f, "unauthorized request for tenant {:?}", tenant)
            }
            SigmaError::QuotaExceeded {
                tenant,
                requested_bytes,
                remaining_bytes,
            } => write!(
                f,
                "tenant {:?} quota exceeded: requested {} bytes, {} remaining",
                tenant, requested_bytes, remaining_bytes
            ),
            SigmaError::RateLimited {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "tenant {:?} rate limited (retry after {} ms)",
                tenant, retry_after_ms
            ),
            SigmaError::Overloaded {
                inflight_bytes,
                limit_bytes,
                retry_after_ms,
            } => write!(
                f,
                "service overloaded: {} of {} in-flight bytes (retry after {} ms)",
                inflight_bytes, limit_bytes, retry_after_ms
            ),
        }
    }
}

impl std::error::Error for SigmaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SigmaError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SigmaError {
    fn from(e: StorageError) -> Self {
        SigmaError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_storage::ContainerId;

    #[test]
    fn display_and_source() {
        let e = SigmaError::from(StorageError::ContainerNotFound(ContainerId::new(3)));
        assert!(e.to_string().contains("container-3"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&SigmaError::FileNotFound(1)).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SigmaError>();
    }

    #[test]
    fn every_variant_maps_to_one_service_code() {
        let cases: Vec<(SigmaError, ServiceCode)> = vec![
            (
                SigmaError::Storage(StorageError::Crashed),
                ServiceCode::Unavailable,
            ),
            (
                SigmaError::Storage(StorageError::ContainerNotFound(ContainerId::new(1))),
                ServiceCode::Internal,
            ),
            (SigmaError::FileNotFound(9), ServiceCode::NotFound),
            (SigmaError::BackupNotFound(9), ServiceCode::NotFound),
            (
                SigmaError::ChunkMissing {
                    node: 0,
                    fingerprint: "aa".into(),
                },
                ServiceCode::Internal,
            ),
            (
                SigmaError::ChunkMigrated {
                    fingerprint: "aa".into(),
                    node: 1,
                },
                ServiceCode::Unavailable,
            ),
            (
                SigmaError::RestoreTruncated {
                    file_id: 3,
                    expected: 4096,
                    actual: 1024,
                },
                ServiceCode::Internal,
            ),
            (SigmaError::UnknownNode(4), ServiceCode::NotFound),
            (SigmaError::ClusterTooSmall, ServiceCode::Conflict),
            (
                SigmaError::PayloadMismatch {
                    chunk: 2,
                    descriptor_len: Some(4096),
                    payload_len: Some(4095),
                },
                ServiceCode::InvalidRequest,
            ),
            (
                SigmaError::FileBoundariesRequired { router: "x".into() },
                ServiceCode::InvalidRequest,
            ),
            (
                SigmaError::InvalidConfig("bad".into()),
                ServiceCode::InvalidRequest,
            ),
            (
                SigmaError::Unauthorized { tenant: "t".into() },
                ServiceCode::Unauthorized,
            ),
            (
                SigmaError::QuotaExceeded {
                    tenant: "t".into(),
                    requested_bytes: 10,
                    remaining_bytes: 2,
                },
                ServiceCode::ResourceExhausted,
            ),
            (
                SigmaError::RateLimited {
                    tenant: "t".into(),
                    retry_after_ms: 50,
                },
                ServiceCode::ResourceExhausted,
            ),
            (
                SigmaError::Overloaded {
                    inflight_bytes: 4096,
                    limit_bytes: 2048,
                    retry_after_ms: 25,
                },
                ServiceCode::Unavailable,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "wrong class for {:?}", err);
        }
    }

    #[test]
    fn service_code_wire_round_trips() {
        for code in [
            ServiceCode::Ok,
            ServiceCode::InvalidRequest,
            ServiceCode::NotFound,
            ServiceCode::Conflict,
            ServiceCode::Unauthorized,
            ServiceCode::ResourceExhausted,
            ServiceCode::Internal,
            ServiceCode::Unavailable,
        ] {
            assert_eq!(ServiceCode::from_wire(code.wire()), Some(code));
            assert_eq!(code.is_ok(), code == ServiceCode::Ok);
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ServiceCode::from_wire(999), None);
        assert_eq!(ServiceCode::from_wire(1), None);
    }

    #[test]
    fn new_service_variants_display_their_context() {
        let e = SigmaError::Unauthorized {
            tenant: "acme".into(),
        };
        assert!(e.to_string().contains("acme"));
        let e = SigmaError::QuotaExceeded {
            tenant: "acme".into(),
            requested_bytes: 2048,
            remaining_bytes: 100,
        };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("100"));
        let e = SigmaError::RateLimited {
            tenant: "acme".into(),
            retry_after_ms: 750,
        };
        assert!(e.to_string().contains("750"));
        let e = SigmaError::Overloaded {
            inflight_bytes: 9000,
            limit_bytes: 8192,
            retry_after_ms: 40,
        };
        for needle in ["9000", "8192", "40"] {
            assert!(e.to_string().contains(needle), "missing {}", needle);
        }
    }
}
