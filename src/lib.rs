//! Σ-Dedupe: a scalable inline cluster deduplication framework for Big Data
//! protection.
//!
//! This is the façade crate of the workspace: it re-exports the public API of every
//! component crate so applications can depend on `sigma-dedupe` alone.
//!
//! * [`core`] — super-chunks, handprinting, similarity-based stateful routing,
//!   deduplication nodes, backup clients, the director and cluster orchestration
//!   (the paper's primary contribution), plus elastic membership: add/remove
//!   nodes on a live cluster with recipe-preserving rebalancing.
//! * [`hashkit`] — SHA-1, MD5, Rabin and FNV hashes, and the [`Fingerprint`] type.
//! * [`chunking`] — static, CDC and TTTD chunkers.
//! * [`storage`] — containers, chunk index, fingerprint cache, similarity index.
//! * [`baselines`] — the comparison routing schemes (EMC stateless/stateful,
//!   Extreme Binning, chunk-level DHT, round-robin).
//! * [`workloads`] — generated stand-ins for the paper's four evaluation datasets.
//! * [`metrics`] — deduplication ratio/efficiency, NEDR, skew, reporting helpers.
//! * [`simulation`] — the trace-driven cluster simulation and the per-figure
//!   experiment drivers.
//! * [`service`] — the backup service layer: request/response envelopes, the
//!   middleware pipeline (auth, admission control, quota, rate limiting, fair
//!   scheduling, logging) and the in-process + framed-TCP transports in front
//!   of the cluster, with per-tenant accounting surfaced through `Stats`.
//!
//! Most programs only need [`prelude`]:
//!
//! ```
//! use sigma_dedupe::prelude::*;
//! ```
//!
//! # Quick start
//!
//! ```
//! use sigma_dedupe::{BackupClient, DedupCluster, SigmaConfig};
//! use std::sync::Arc;
//!
//! let cluster = Arc::new(DedupCluster::with_similarity_router(4, SigmaConfig::default()));
//! let client = BackupClient::new(cluster.clone(), 0);
//! let report = client.backup_bytes("hello.txt", b"hello sigma-dedupe").unwrap();
//! assert_eq!(cluster.restore_file(report.file_id).unwrap(), b"hello sigma-dedupe");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sigma_baselines as baselines;
pub use sigma_chunking as chunking;
pub use sigma_core as core;
pub use sigma_hashkit as hashkit;
pub use sigma_metrics as metrics;
pub use sigma_service as service;
pub use sigma_simulation as simulation;
pub use sigma_storage as storage;
pub use sigma_workloads as workloads;

pub use sigma_baselines::{
    ChunkDhtRouter, ExtremeBinningRouter, RoundRobinRouter, StatefulRouter, StatelessRouter,
};
pub use sigma_core::ServiceCode;
pub use sigma_core::{
    BackupClient, ChunkDescriptor, DataRouter, DedupCluster, DedupNode, Director, FileBackupReport,
    FileRecipe, GcReport, Handprint, NodeGcReport, NodeMap, RebalanceReport, Rebalancer,
    RecipeEntry, RecoveryReport, RestoreReport, SigmaConfig, SigmaError, SimilarityRouter,
    StreamPayload, SuperChunk, SuperChunkBuilder, SuperChunkView,
};
pub use sigma_hashkit::{Digest, Fingerprint, FingerprintAlgorithm, Md5, Sha1};
pub use sigma_service::{
    BackupService, Operation, RequestEnvelope, ResponseEnvelope, ServiceBuilder, ServiceStack,
    TcpClient, TcpService,
};
pub use sigma_storage::{
    BackendKind, CrashMode, FileBackend, Journal, JournalRecord, MemoryBackend, StorageBackend,
    StorageError,
};

/// One-line import for programs and tests: every commonly-used type from the
/// façade plus the helper modules (`payload`, `presets`, `runner`,
/// `experiments`, `retention_churn`, `tenant_storm`, `report`) under their
/// short names.
///
/// ```
/// use sigma_dedupe::prelude::*;
/// use std::sync::Arc;
///
/// let cluster = Arc::new(DedupCluster::with_similarity_router(2, SigmaConfig::default()));
/// let client = BackupClient::new(cluster.clone(), 0);
/// let report = client.backup_bytes("p.txt", b"prelude").unwrap();
/// assert_eq!(cluster.restore_file(report.file_id).unwrap(), b"prelude");
/// ```
pub mod prelude {
    // Cluster, client and configuration.
    pub use sigma_core::{
        BackupClient, ChunkDescriptor, DataRouter, DedupCluster, DedupNode, Director,
        FileBackupReport, FileRecipe, GcReport, Handprint, NodeGcReport, NodeMap, RebalanceReport,
        Rebalancer, RecipeEntry, RecoveryReport, RestoreReport, ServiceCode, SigmaConfig,
        SigmaError, SimilarityRouter, StreamPayload, SuperChunk, SuperChunkBuilder, SuperChunkView,
    };

    // Hashes and chunking.
    pub use sigma_chunking::ChunkerParams;
    pub use sigma_hashkit::{Digest, Fingerprint, FingerprintAlgorithm, Md5, Sha1};

    // Routing baselines.
    pub use sigma_baselines::{
        ChunkDhtRouter, ExtremeBinningRouter, RoundRobinRouter, StatefulRouter, StatelessRouter,
    };

    // Durable storage.
    pub use sigma_storage::{
        BackendKind, ContainerId, ContainerState, CrashMode, FileBackend, Journal, JournalRecord,
        MemoryBackend, StorageBackend, StorageError,
    };

    // Reporting and workload generation.
    pub use sigma_metrics::report::{self, human_bytes, TextTable};
    pub use sigma_workloads::payload::{
        self, generational_payloads, random_bytes, versioned_payloads, GenerationalPayloadParams,
        VersionedPayloadParams,
    };
    pub use sigma_workloads::{presets, Scale};

    // Simulation drivers.
    pub use sigma_simulation::experiments;
    pub use sigma_simulation::retention_churn::{self, run_retention, RetentionConfig};
    pub use sigma_simulation::runner::{self, run_cluster, SimulationConfig};
    pub use sigma_simulation::tenant_storm::{
        self, run_tenant_storm, TenantStormConfig, TenantStormReport,
    };

    // Service layer.
    pub use sigma_metrics::{jain_fairness_index, TenantStatsReport};
    pub use sigma_service::middleware::{
        AdmissionControl, FairScheduler, RateLimit, RequestLog, TenantQuota, TokenAuth,
    };
    pub use sigma_service::{
        BackupService, Operation, RequestEnvelope, ResponseEnvelope, ServiceBuilder, ServiceStack,
        TcpClient, TcpService, AUTH_TOKEN_KEY,
    };
}

#[cfg(test)]
mod tests {
    use crate::Digest;

    #[test]
    fn facade_reexports_are_usable() {
        let config = crate::SigmaConfig::default();
        assert_eq!(config.handprint_size, 8);
        let fp = crate::Sha1::fingerprint(b"reexport");
        assert_eq!(fp.as_bytes().len(), crate::Fingerprint::LEN);
    }
}
