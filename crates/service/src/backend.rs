//! The [`BackupService`] backend: the innermost handler that owns the
//! [`DedupCluster`] and executes envelope operations against it.

use crate::middleware::ServiceResult;
use crate::pipeline::Backend;
use crate::{Operation, RequestEnvelope, ResponseEnvelope};
use parking_lot::Mutex;
use sigma_core::{BackupClient, DedupCluster, RestoreReport, SigmaError};
use sigma_metrics::{MetricsRegistry, TenantStatsReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Response-metadata key: the file ID a backup assigned (use it to restore).
pub const FILE_ID_KEY: &str = "file_id";
/// Response-metadata key: the backup session the file was registered under.
pub const SESSION_ID_KEY: &str = "session_id";
/// Response-metadata key: logical bytes of the operation's subject.
pub const LOGICAL_BYTES_KEY: &str = "logical_bytes";
/// Response-metadata key: bytes a backup actually had to transfer (unique).
pub const TRANSFERRED_BYTES_KEY: &str = "transferred_bytes";
/// Response-metadata key: chunks the backup was partitioned into.
pub const CHUNKS_KEY: &str = "chunks";
/// Response-metadata key: chunks found to be duplicates cluster-wide.
pub const DUPLICATE_CHUNKS_KEY: &str = "duplicate_chunks";
/// Response-metadata key: logical bytes a delete released (the quota
/// middleware credits this against the tenant's budget).
pub const FREED_BYTES_KEY: &str = "freed_bytes";
/// Response-metadata key: physical bytes a garbage collection reclaimed.
pub const BYTES_RECLAIMED_KEY: &str = "bytes_reclaimed";
/// Response-metadata key: chunk payloads a restore decoded.
pub const CHUNKS_READ_KEY: &str = "chunks_read";
/// Response-metadata key: `(node, container)` groups a restore read.
pub const CONTAINERS_OPENED_KEY: &str = "containers_opened";
/// Response-metadata key: container-read-cache hits during a restore.
pub const CACHE_HITS_KEY: &str = "cache_hits";
/// Response-metadata key: container-read-cache misses during a restore.
pub const CACHE_MISSES_KEY: &str = "cache_misses";
/// Response-metadata key: bytes a restore actually read from storage backends.
pub const BACKEND_BYTES_READ_KEY: &str = "backend_bytes_read";
/// Response-metadata key: a restore's backend-bytes-read over logical-bytes
/// ratio (1.0 = seek-free, below 1.0 = the read cache absorbed repeats).
pub const READ_AMPLIFICATION_KEY: &str = "read_amplification";
/// Response-metadata prefix: the calling tenant's [`TenantStatsReport`]
/// fields on a `Stats` response (`tenant_logical_bytes`,
/// `tenant_live_logical_bytes`, `tenant_files`, …).
pub const TENANT_STATS_PREFIX: &str = "tenant_";

/// Base for service-allocated stream IDs, far above the IDs hand-picked by
/// library users and simulations sharing the cluster.
const STREAM_ID_BASE: u64 = 1 << 32;

#[derive(Default)]
struct Inner {
    /// One lazily-created client (= one open session) per tenant × generation.
    clients: HashMap<(String, u64), Arc<BackupClient>>,
    next_stream: u64,
}

/// The production [`Backend`]: executes [`Operation`]s against a
/// [`DedupCluster`] it owns, keyed by tenant.
///
/// Every session the service opens is tenant-tagged in the cluster's
/// director, and the director is the one record of who owns what: a tenant
/// owns a file whose session carries its tag, and a session that still
/// exists and carries its tag.  Whichever `BackupService` (or direct
/// [`BackupClient::with_tenant`] caller) created them, a tenant can restore
/// or delete only what it owns, and a cross-tenant (or unknown) ID is
/// answered with the same `NotFound` as a genuinely absent one, so IDs
/// cannot be probed across tenants.  `CollectGarbage` is cluster-scoped and
/// available to any authenticated tenant; `Stats` reports cluster-wide
/// figures *plus* the calling tenant's own [`TenantStatsReport`].
pub struct BackupService {
    cluster: Arc<DedupCluster>,
    inner: Mutex<Inner>,
    metrics: Arc<MetricsRegistry>,
    /// Restores served and the sum of their reports.
    restores: Mutex<(u64, RestoreReport)>,
}

impl std::fmt::Debug for BackupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupService")
            .field("clients", &self.inner.lock().clients.len())
            .finish_non_exhaustive()
    }
}

impl BackupService {
    /// Creates a service owning `cluster`.
    pub fn new(cluster: Arc<DedupCluster>) -> Self {
        BackupService {
            cluster,
            inner: Mutex::new(Inner::default()),
            metrics: Arc::new(MetricsRegistry::new()),
            restores: Mutex::new((0, RestoreReport::default())),
        }
    }

    /// Restores served across every tenant, and the sum of their
    /// [`RestoreReport`]s (chunks read, container visits, cache hits and
    /// misses, backend bytes read).
    pub fn restore_totals(&self) -> (u64, RestoreReport) {
        *self.restores.lock()
    }

    /// The cluster behind the service (stats, direct experimentation).
    pub fn cluster(&self) -> &Arc<DedupCluster> {
        &self.cluster
    }

    /// The registry holding this service's per-tenant counters.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// One tenant's accounting report: cumulative counters plus the current
    /// live state (surviving files and their logical bytes).
    pub fn tenant_stats_for(&self, tenant: &str) -> TenantStatsReport {
        let mut report = self.metrics.tenant(tenant).report(tenant);
        let live = self.cluster.director().tenant_recipes(tenant);
        report.live_logical_bytes = live.iter().map(|r| r.size).sum();
        report.files = live.len() as u64;
        report
    }

    /// Reports for every tenant that has sent at least one request, keyed by
    /// tenant name.
    pub fn tenant_stats(&self) -> BTreeMap<String, TenantStatsReport> {
        self.metrics
            .tenant_reports()
            .into_keys()
            .map(|tenant| {
                let report = self.tenant_stats_for(&tenant);
                (tenant, report)
            })
            .collect()
    }

    /// The client for `(tenant, generation)`, created (with a fresh session)
    /// on first use.
    fn client_for(&self, tenant: &str, generation: u64) -> Arc<BackupClient> {
        let mut inner = self.inner.lock();
        let key = (tenant.to_string(), generation);
        if let Some(client) = inner.clients.get(&key) {
            return client.clone();
        }
        let stream_id = STREAM_ID_BASE + inner.next_stream;
        inner.next_stream += 1;
        let client = Arc::new(BackupClient::with_tenant(
            self.cluster.clone(),
            stream_id,
            generation,
            tenant,
        ));
        inner.clients.insert(key, client.clone());
        client
    }

    fn backup(&self, req: &RequestEnvelope, file_name: &str, generation: u64) -> ServiceResult {
        let client = self.client_for(&req.tenant, generation);
        let report = client.backup_bytes(file_name, &req.payload)?;
        self.metrics
            .tenant(&req.tenant)
            .record_ingest(report.logical_bytes, report.transferred_bytes);
        Ok(ResponseEnvelope::ok(req.request_id)
            .with_metadata(FILE_ID_KEY, report.file_id.to_string())
            .with_metadata(SESSION_ID_KEY, client.session_id().to_string())
            .with_metadata(LOGICAL_BYTES_KEY, report.logical_bytes.to_string())
            .with_metadata(TRANSFERRED_BYTES_KEY, report.transferred_bytes.to_string())
            .with_metadata(CHUNKS_KEY, report.chunks.to_string())
            .with_metadata(DUPLICATE_CHUNKS_KEY, report.duplicate_chunks.to_string()))
    }

    /// Checks that `file_id` exists and its session carries `tenant`'s tag;
    /// answers cross-tenant probes with the same error as absent files.
    fn authorize_file(&self, tenant: &str, file_id: u64) -> Result<(), SigmaError> {
        match self.cluster.director().file_tenant(file_id) {
            Some(owner) if owner == tenant => Ok(()),
            _ => Err(SigmaError::FileNotFound(file_id)),
        }
    }

    fn restore(&self, req: &RequestEnvelope, file_id: u64) -> ServiceResult {
        self.authorize_file(&req.tenant, file_id)?;
        let (data, report) = self.cluster.restore_file_with_report(file_id)?;
        self.metrics
            .tenant(&req.tenant)
            .record_restored(data.len() as u64);
        {
            let mut totals = self.restores.lock();
            totals.0 += 1;
            totals.1.absorb(&report);
        }
        Ok(ResponseEnvelope::ok(req.request_id)
            .with_metadata(LOGICAL_BYTES_KEY, data.len().to_string())
            .with_metadata(CHUNKS_READ_KEY, report.chunks_read.to_string())
            .with_metadata(CONTAINERS_OPENED_KEY, report.containers_read.to_string())
            .with_metadata(CACHE_HITS_KEY, report.cache_hits.to_string())
            .with_metadata(CACHE_MISSES_KEY, report.cache_misses.to_string())
            .with_metadata(
                BACKEND_BYTES_READ_KEY,
                report.backend_bytes_read.to_string(),
            )
            .with_metadata(
                READ_AMPLIFICATION_KEY,
                format!("{:.4}", report.read_amplification()),
            )
            .with_payload(data))
    }

    fn delete_file(&self, req: &RequestEnvelope, file_id: u64) -> ServiceResult {
        self.authorize_file(&req.tenant, file_id)?;
        let freed = self.cluster.delete_file(file_id)?;
        self.metrics.tenant(&req.tenant).record_freed(freed);
        Ok(ResponseEnvelope::ok(req.request_id).with_metadata(FREED_BYTES_KEY, freed.to_string()))
    }

    /// Whether `session_id` carries `tenant`'s tag.  The tag outlives the
    /// session, so the delete that follows is what finds an expired one
    /// absent.
    fn tags_session(&self, tenant: &str, session_id: u64) -> bool {
        self.cluster
            .director()
            .session_tenant(session_id)
            .as_deref()
            == Some(tenant)
    }

    /// Deletes one owned session from the cluster and drops the client that
    /// held it open, so the tenant's next backup in that generation opens a
    /// fresh session.  Caller must have verified ownership.
    fn delete_session(&self, session_id: u64) -> Result<u64, SigmaError> {
        let freed = self.cluster.delete_backup(session_id)?;
        self.inner
            .lock()
            .clients
            .retain(|_, client| client.session_id() != session_id);
        Ok(freed)
    }

    fn delete_backup(&self, req: &RequestEnvelope, session_id: u64) -> ServiceResult {
        if !self.tags_session(&req.tenant, session_id) {
            return Err(SigmaError::BackupNotFound(session_id));
        }
        let freed = self.delete_session(session_id)?;
        self.metrics.tenant(&req.tenant).record_freed(freed);
        Ok(ResponseEnvelope::ok(req.request_id).with_metadata(FREED_BYTES_KEY, freed.to_string()))
    }

    fn delete_generation(&self, req: &RequestEnvelope, generation: u64) -> ServiceResult {
        // Only the *tenant's* sessions in this generation are expired — the
        // generation is a retention unit per tenant at this layer, even
        // though the cluster could expire it globally.
        let mut freed = 0u64;
        for session_id in self.cluster.director().sessions_in_generation(generation) {
            if !self.tags_session(&req.tenant, session_id) {
                continue;
            }
            freed += match self.delete_session(session_id) {
                // A concurrent DeleteBackup removed it since the listing:
                // it frees nothing here, and what the others free counts.
                Err(SigmaError::BackupNotFound(_)) => 0,
                result => result?,
            };
        }
        self.metrics.tenant(&req.tenant).record_freed(freed);
        Ok(ResponseEnvelope::ok(req.request_id).with_metadata(FREED_BYTES_KEY, freed.to_string()))
    }

    fn collect_garbage(&self, req: &RequestEnvelope) -> ServiceResult {
        let report = self.cluster.collect_garbage()?;
        Ok(ResponseEnvelope::ok(req.request_id)
            .with_metadata(BYTES_RECLAIMED_KEY, report.bytes_reclaimed.to_string())
            .with_metadata("containers_dropped", report.containers_dropped.to_string())
            .with_metadata(
                "containers_compacted",
                report.containers_compacted.to_string(),
            )
            .with_metadata("live_bytes", report.live_bytes.to_string()))
    }

    fn stats(&self, req: &RequestEnvelope) -> ServiceResult {
        let stats = self.cluster.stats();
        let tenant = self.tenant_stats_for(&req.tenant);
        let (restores, restore) = self.restore_totals();
        let cache_lookups = restore.cache_hits + restore.cache_misses;
        let cache_hit_rate = if cache_lookups == 0 {
            0.0
        } else {
            restore.cache_hits as f64 / cache_lookups as f64
        };
        Ok(ResponseEnvelope::ok(req.request_id)
            .with_metadata("restores", restores.to_string())
            .with_metadata("restore_chunks_read", restore.chunks_read.to_string())
            .with_metadata(
                "restore_containers_opened",
                restore.containers_read.to_string(),
            )
            .with_metadata("restore_cache_hits", restore.cache_hits.to_string())
            .with_metadata("restore_cache_misses", restore.cache_misses.to_string())
            .with_metadata(
                "restore_backend_bytes_read",
                restore.backend_bytes_read.to_string(),
            )
            .with_metadata(
                "restore_read_amplification",
                format!("{:.4}", restore.read_amplification()),
            )
            .with_metadata("restore_cache_hit_rate", format!("{cache_hit_rate:.4}"))
            .with_metadata("router", stats.router.clone())
            .with_metadata("node_count", stats.node_count.to_string())
            .with_metadata(LOGICAL_BYTES_KEY, stats.logical_bytes.to_string())
            .with_metadata("physical_bytes", stats.physical_bytes.to_string())
            .with_metadata("dedup_ratio", format!("{:.4}", stats.dedup_ratio))
            .with_metadata("usage_skew", format!("{:.4}", stats.usage_skew))
            .with_metadata("tenant_requests", tenant.requests.to_string())
            .with_metadata("tenant_rejected", tenant.rejected.to_string())
            .with_metadata("tenant_logical_bytes", tenant.logical_bytes.to_string())
            .with_metadata(
                "tenant_transferred_bytes",
                tenant.transferred_bytes.to_string(),
            )
            .with_metadata("tenant_freed_bytes", tenant.freed_bytes.to_string())
            .with_metadata("tenant_restored_bytes", tenant.restored_bytes.to_string())
            .with_metadata(
                "tenant_live_logical_bytes",
                tenant.live_logical_bytes.to_string(),
            )
            .with_metadata("tenant_dedup_ratio", format!("{:.4}", tenant.dedup_ratio()))
            .with_metadata("tenant_files", tenant.files.to_string()))
    }
}

impl Backend for BackupService {
    fn call(&self, req: RequestEnvelope) -> ServiceResult {
        let tenant = req.tenant.clone();
        let result = match req.operation.clone() {
            Operation::Backup {
                file_name,
                generation,
            } => self.backup(&req, &file_name, generation),
            Operation::Restore { file_id } => self.restore(&req, file_id),
            Operation::DeleteFile { file_id } => self.delete_file(&req, file_id),
            Operation::DeleteBackup { session_id } => self.delete_backup(&req, session_id),
            Operation::DeleteGeneration { generation } => self.delete_generation(&req, generation),
            Operation::CollectGarbage => self.collect_garbage(&req),
            Operation::Stats => self.stats(&req),
        };
        self.metrics.tenant(&tenant).record_request(result.is_err());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::{ServiceCode, SigmaConfig};

    fn service() -> BackupService {
        let config = SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .chunker(sigma_chunking_params())
            .build()
            .unwrap();
        BackupService::new(Arc::new(DedupCluster::with_similarity_router(2, config)))
    }

    fn sigma_chunking_params() -> sigma_chunking::ChunkerParams {
        sigma_chunking::ChunkerParams::fixed(4096)
    }

    fn data(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn backup_req(id: u64, tenant: &str, name: &str, payload: Vec<u8>) -> RequestEnvelope {
        RequestEnvelope::new(
            id,
            tenant,
            Operation::Backup {
                file_name: name.into(),
                generation: 0,
            },
        )
        .with_payload(payload)
    }

    #[test]
    fn backup_restore_round_trip() {
        let svc = service();
        let payload = data(200_000, 1);
        let resp = svc
            .call(backup_req(1, "acme", "db.bin", payload.clone()))
            .unwrap();
        assert!(resp.is_ok());
        let file_id = resp.metadata_u64(FILE_ID_KEY).unwrap();
        assert_eq!(
            resp.metadata_u64(LOGICAL_BYTES_KEY),
            Some(payload.len() as u64)
        );
        let restored = svc
            .call(RequestEnvelope::new(
                2,
                "acme",
                Operation::Restore { file_id },
            ))
            .unwrap();
        assert_eq!(restored.payload, payload, "byte-identical restore");
    }

    #[test]
    fn restore_reports_pipeline_counters() {
        let svc = service();
        let payload = data(200_000, 30);
        let resp = svc
            .call(backup_req(1, "acme", "db.bin", payload.clone()))
            .unwrap();
        let file_id = resp.metadata_u64(FILE_ID_KEY).unwrap();
        svc.cluster().try_flush().unwrap();
        let restored = svc
            .call(RequestEnvelope::new(
                2,
                "acme",
                Operation::Restore { file_id },
            ))
            .unwrap();
        assert_eq!(restored.payload, payload);
        assert!(restored.metadata_u64(CHUNKS_READ_KEY).unwrap() > 0);
        assert!(restored.metadata_u64(CONTAINERS_OPENED_KEY).unwrap() > 0);
        assert!(restored.metadata.contains_key(READ_AMPLIFICATION_KEY));
        // The memory backend serves from RAM: every backend byte is a
        // delivered byte, so amplification is exactly 1.
        assert_eq!(
            restored.metadata_u64(BACKEND_BYTES_READ_KEY),
            Some(payload.len() as u64)
        );
        let (restores, agg) = svc.restore_totals();
        assert_eq!(restores, 1);
        assert_eq!(agg.logical_bytes, payload.len() as u64);
        assert!((agg.read_amplification() - 1.0).abs() < 1e-9);
        // Stats surfaces the aggregate.
        let stats = svc
            .call(RequestEnvelope::new(3, "acme", Operation::Stats))
            .unwrap();
        assert_eq!(stats.metadata_u64("restores"), Some(1));
        assert_eq!(
            stats.metadata_u64("restore_chunks_read"),
            Some(agg.chunks_read)
        );
        assert!(stats.metadata.contains_key("restore_read_amplification"));
        assert!(stats.metadata.contains_key("restore_cache_hit_rate"));
    }

    #[test]
    fn cross_tenant_access_reads_as_not_found() {
        let svc = service();
        let resp = svc
            .call(backup_req(1, "acme", "f", data(50_000, 2)))
            .unwrap();
        let file_id = resp.metadata_u64(FILE_ID_KEY).unwrap();
        let session_id = resp.metadata_u64(SESSION_ID_KEY).unwrap();
        // Another tenant cannot restore, delete the file, or delete the session.
        let err = svc
            .call(RequestEnvelope::new(
                2,
                "evil",
                Operation::Restore { file_id },
            ))
            .unwrap_err();
        assert_eq!(err.code(), ServiceCode::NotFound);
        let err = svc
            .call(RequestEnvelope::new(
                3,
                "evil",
                Operation::DeleteFile { file_id },
            ))
            .unwrap_err();
        assert_eq!(err.code(), ServiceCode::NotFound);
        let err = svc
            .call(RequestEnvelope::new(
                4,
                "evil",
                Operation::DeleteBackup { session_id },
            ))
            .unwrap_err();
        assert_eq!(err.code(), ServiceCode::NotFound);
        // The rightful owner still can.
        assert!(svc
            .call(RequestEnvelope::new(
                5,
                "acme",
                Operation::Restore { file_id }
            ))
            .is_ok());
    }

    #[test]
    fn delete_file_frees_logical_bytes() {
        let svc = service();
        let payload = data(120_000, 3);
        let resp = svc
            .call(backup_req(1, "acme", "f", payload.clone()))
            .unwrap();
        let file_id = resp.metadata_u64(FILE_ID_KEY).unwrap();
        let del = svc
            .call(RequestEnvelope::new(
                2,
                "acme",
                Operation::DeleteFile { file_id },
            ))
            .unwrap();
        assert_eq!(
            del.metadata_u64(FREED_BYTES_KEY),
            Some(payload.len() as u64)
        );
        // Double delete is NotFound (the recipe is gone).
        let err = svc
            .call(RequestEnvelope::new(
                3,
                "acme",
                Operation::DeleteFile { file_id },
            ))
            .unwrap_err();
        assert_eq!(err.code(), ServiceCode::NotFound);
    }

    #[test]
    fn delete_generation_expires_only_that_tenant() {
        let svc = service();
        let a = data(80_000, 4);
        let b = data(80_000, 5);
        svc.call(backup_req(1, "acme", "a", a)).unwrap();
        let other = svc.call(backup_req(2, "globex", "b", b.clone())).unwrap();
        let freed = svc
            .call(RequestEnvelope::new(
                3,
                "acme",
                Operation::DeleteGeneration { generation: 0 },
            ))
            .unwrap();
        assert_eq!(freed.metadata_u64(FREED_BYTES_KEY), Some(80_000));
        // globex's file in the same generation survives.
        let file_id = other.metadata_u64(FILE_ID_KEY).unwrap();
        let restored = svc
            .call(RequestEnvelope::new(
                4,
                "globex",
                Operation::Restore { file_id },
            ))
            .unwrap();
        assert_eq!(restored.payload, b);
        // Expiring an empty generation is Ok(0) — idempotent retention loops.
        let again = svc
            .call(RequestEnvelope::new(
                5,
                "acme",
                Operation::DeleteGeneration { generation: 0 },
            ))
            .unwrap();
        assert_eq!(again.metadata_u64(FREED_BYTES_KEY), Some(0));
    }

    #[test]
    fn a_file_registered_after_its_generation_expired_stays_the_tenants() {
        let svc = service();
        let resp = svc
            .call(backup_req(1, "acme", "f", data(50_000, 12)))
            .unwrap();
        let s = resp.metadata_u64(SESSION_ID_KEY).unwrap();
        svc.call(RequestEnvelope::new(
            2,
            "acme",
            Operation::DeleteGeneration { generation: 0 },
        ))
        .unwrap();
        // A backup that held acme's client across the expiry registers its
        // file late: the director recreates the session in generation 0.
        let late = svc
            .cluster()
            .director()
            .register_file(s, "late", 4096, Vec::new());
        let err = svc
            .call(RequestEnvelope::new(
                3,
                "globex",
                Operation::DeleteFile { file_id: late },
            ))
            .unwrap_err();
        assert_eq!(err.code(), ServiceCode::NotFound);
        assert_eq!(svc.tenant_stats_for("acme").files, 1);
        // The next expiry of the generation reaches it.
        let again = svc
            .call(RequestEnvelope::new(
                4,
                "acme",
                Operation::DeleteGeneration { generation: 0 },
            ))
            .unwrap();
        assert_eq!(again.metadata_u64(FREED_BYTES_KEY), Some(4096));
        assert!(svc.cluster().director().recipe(late).is_none());
    }

    #[test]
    fn gc_after_delete_reclaims_bytes() {
        let svc = service();
        let resp = svc
            .call(backup_req(1, "acme", "f", data(300_000, 6)))
            .unwrap();
        let file_id = resp.metadata_u64(FILE_ID_KEY).unwrap();
        svc.cluster().try_flush().unwrap();
        svc.call(RequestEnvelope::new(
            2,
            "acme",
            Operation::DeleteFile { file_id },
        ))
        .unwrap();
        let gc = svc
            .call(RequestEnvelope::new(3, "acme", Operation::CollectGarbage))
            .unwrap();
        assert!(gc.metadata_u64(BYTES_RECLAIMED_KEY).unwrap() > 0);
    }

    #[test]
    fn stats_reports_cluster_and_tenant_figures() {
        let svc = service();
        svc.call(backup_req(1, "acme", "f", data(64_000, 7)))
            .unwrap();
        let stats = svc
            .call(RequestEnvelope::new(2, "acme", Operation::Stats))
            .unwrap();
        assert_eq!(stats.metadata_u64("node_count"), Some(2));
        assert_eq!(stats.metadata_u64(LOGICAL_BYTES_KEY), Some(64_000));
        assert_eq!(stats.metadata_u64("tenant_files"), Some(1));
        assert!(stats.metadata.contains_key("dedup_ratio"));
    }

    #[test]
    fn per_tenant_accounting_tracks_ingest_frees_and_live_state() {
        let svc = service();
        let a = data(100_000, 20);
        let b = data(60_000, 21);
        let ra = svc.call(backup_req(1, "acme", "a", a.clone())).unwrap();
        svc.call(backup_req(2, "globex", "b", b)).unwrap();
        // acme backs up the same bytes again: logical grows, transferred
        // barely does (first-writer-pays).
        svc.call(backup_req(3, "acme", "a2", a.clone())).unwrap();
        let acme = svc.tenant_stats_for("acme");
        assert_eq!(acme.logical_bytes, 200_000);
        assert!(
            acme.transferred_bytes < 110_000,
            "duplicate ingest must not re-pay: {}",
            acme.transferred_bytes
        );
        assert_eq!(acme.live_logical_bytes, 200_000);
        assert_eq!(acme.files, 2);
        assert!(acme.dedup_ratio() > 1.8);
        // Director-tagged live bytes partition the cluster's logical total.
        let by_tenant = svc.cluster().tenant_logical_bytes();
        assert_eq!(by_tenant["acme"], 200_000);
        assert_eq!(by_tenant["globex"], 60_000);
        assert_eq!(
            by_tenant.values().sum::<u64>(),
            svc.cluster().stats().logical_bytes
        );
        // A delete moves bytes from live to freed without touching globex.
        let file_id = ra.metadata_u64(FILE_ID_KEY).unwrap();
        svc.call(RequestEnvelope::new(
            4,
            "acme",
            Operation::DeleteFile { file_id },
        ))
        .unwrap();
        let acme = svc.tenant_stats_for("acme");
        assert_eq!(acme.freed_bytes, 100_000);
        assert_eq!(acme.live_logical_bytes, 100_000);
        assert_eq!(acme.files, 1);
        assert_eq!(svc.tenant_stats_for("globex").live_logical_bytes, 60_000);
        // Requests and rejections are tallied per tenant.
        assert!(svc
            .call(RequestEnvelope::new(
                5,
                "acme",
                Operation::Restore { file_id }
            ))
            .is_err());
        let acme = svc.tenant_stats_for("acme");
        assert_eq!(acme.requests, 4);
        assert_eq!(acme.rejected, 1);
        assert_eq!(svc.tenant_stats().len(), 2);
    }

    #[test]
    fn stats_surface_the_tenant_report() {
        let svc = service();
        svc.call(backup_req(1, "acme", "f", data(64_000, 22)))
            .unwrap();
        let stats = svc
            .call(RequestEnvelope::new(2, "acme", Operation::Stats))
            .unwrap();
        assert_eq!(stats.metadata_u64("tenant_logical_bytes"), Some(64_000));
        assert_eq!(
            stats.metadata_u64("tenant_live_logical_bytes"),
            Some(64_000)
        );
        assert_eq!(stats.metadata_u64("tenant_files"), Some(1));
        assert_eq!(stats.metadata_u64("tenant_freed_bytes"), Some(0));
        assert!(stats.metadata.contains_key("tenant_dedup_ratio"));
        // Another tenant's Stats sees its own (empty) report, not acme's.
        let other = svc
            .call(RequestEnvelope::new(3, "globex", Operation::Stats))
            .unwrap();
        assert_eq!(other.metadata_u64("tenant_logical_bytes"), Some(0));
        assert_eq!(other.metadata_u64("tenant_files"), Some(0));
    }

    #[test]
    fn sessions_are_per_tenant_and_generation() {
        let svc = service();
        let a0 = svc
            .call(backup_req(1, "acme", "a", data(8_000, 8)))
            .unwrap();
        let a0b = svc
            .call(backup_req(2, "acme", "b", data(8_000, 9)))
            .unwrap();
        let a1 = svc
            .call(
                RequestEnvelope::new(
                    3,
                    "acme",
                    Operation::Backup {
                        file_name: "c".into(),
                        generation: 1,
                    },
                )
                .with_payload(data(8_000, 10)),
            )
            .unwrap();
        let g = svc
            .call(backup_req(4, "globex", "d", data(8_000, 11)))
            .unwrap();
        let s = |r: &ResponseEnvelope| r.metadata_u64(SESSION_ID_KEY).unwrap();
        assert_eq!(s(&a0), s(&a0b), "same tenant+generation shares a session");
        assert_ne!(s(&a0), s(&a1), "generations get their own session");
        assert_ne!(s(&a0), s(&g), "tenants get their own session");
    }
}
