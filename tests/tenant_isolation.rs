//! Property tests for multi-tenant isolation and accounting through the full
//! service stack (auth → admission → quota → rate-limit → fair-scheduler).
//!
//! Three properties plus two edge-case suites:
//!
//! * **partition** — for random tenant/file/overlap shapes, per-tenant live
//!   logical bytes always sum to exactly the cluster's logical total, before
//!   churn, after deletes and after garbage collection; foreign file IDs read
//!   as `NotFound` no matter how much physical data tenants share.
//! * **storm shapes** — random reductions of the tenant-storm scenario
//!   (including churn) keep byte-level isolation, the partition invariant and
//!   cumulative accounting (`live == ingested − freed`) regardless of shape.
//! * **quota round-trip** — deleting through the real backend returns the
//!   file's logical bytes to the tenant's budget exactly once, even when the
//!   delete envelope is replayed by a retrying transport.
//!
//! `SIGMA_FAULT_SEED` perturbs the payload seeds so the CI matrix explores
//! different workloads with the same deterministic harness.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use sigma_dedupe::service::backend::{FILE_ID_KEY, FREED_BYTES_KEY};
use std::sync::Arc;

/// Extra seed from the environment so a CI matrix varies the workloads.
fn env_seed() -> u64 {
    std::env::var("SIGMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Deterministic pseudo-random payload, perturbed by `SIGMA_FAULT_SEED`.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut state = (seed ^ env_seed().wrapping_mul(0x9E37_79B9)).wrapping_mul(0x2545_F491) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

fn tenant(t: usize) -> String {
    format!("tenant-{t:02}")
}

fn token(t: usize) -> String {
    format!("token-{t}")
}

/// The full six-layer production stack over a real cluster, with the quota
/// and backend handles kept out for assertions.
struct Harness {
    stack: ServiceStack,
    service: Arc<BackupService>,
    quota: Arc<TenantQuota>,
    cluster: Arc<DedupCluster>,
    next_id: std::cell::Cell<u64>,
}

impl Harness {
    fn new(tenants: usize, budget: u64) -> Harness {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            3,
            SigmaConfig::builder()
                .super_chunk_size(16 * 1024)
                .container_capacity(64 * 1024)
                .build()
                .expect("valid test config"),
        ));
        let service = Arc::new(BackupService::new(cluster.clone()));
        let mut auth = TokenAuth::new();
        let mut quota = TenantQuota::new();
        for t in 0..tenants {
            auth = auth.tenant(tenant(t), token(t));
            quota = quota.budget(tenant(t), budget);
        }
        let quota = Arc::new(quota);
        let stack = ServiceBuilder::new()
            .auth(auth)
            .admission(AdmissionControl::new(64, 64 << 20))
            .layer(quota.clone())
            .rate_limit(RateLimit::new(1 << 20, (1 << 20) as f64))
            .fair_scheduler_with(Arc::new(FairScheduler::new(64 << 10, 8 << 20, 4)))
            .build_with_backend(service.clone());
        Harness {
            stack,
            service,
            quota,
            cluster,
            next_id: std::cell::Cell::new(1),
        }
    }

    fn call(&self, t: usize, op: Operation, payload: Vec<u8>) -> ResponseEnvelope {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let mut req = RequestEnvelope::new(id, tenant(t), op).with_token(token(t));
        if !payload.is_empty() {
            req = req.with_payload(payload);
        }
        self.stack.call(req)
    }

    fn backup(&self, t: usize, name: &str, data: &[u8]) -> u64 {
        let resp = self.call(
            t,
            Operation::Backup {
                file_name: name.to_string(),
                generation: 0,
            },
            data.to_vec(),
        );
        assert!(
            resp.is_ok(),
            "backup rejected: {:?} {}",
            resp.code,
            resp.message
        );
        resp.metadata_u64(FILE_ID_KEY).expect("backup returns id")
    }

    /// Σ per-tenant live logical bytes, straight from the service's stats.
    fn sum_live(&self) -> u64 {
        self.service
            .tenant_stats()
            .values()
            .map(|r| r.live_logical_bytes)
            .sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-tenant live logical bytes partition the cluster's logical total at
    /// every lifecycle step, and a tenant's file IDs are invisible to every
    /// other tenant — even when overlapping payloads make them share all
    /// their physical chunks.
    #[test]
    fn tenant_live_bytes_partition_the_cluster(
        tenants in 2usize..5,
        files_per_tenant in 1usize..4,
        payload_kib in 4usize..33,
        overlap in 0usize..2,
    ) {
        let h = Harness::new(tenants, 1 << 30);

        // Ingest: identical datasets across tenants when overlapping (chunks
        // dedupe cluster-wide), unique ones otherwise.
        let mut owned: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); tenants];
        for (t, owned_t) in owned.iter_mut().enumerate() {
            for f in 0..files_per_tenant {
                let seed = if overlap == 1 { f as u64 } else { (t * 100 + f) as u64 };
                let data = payload(payload_kib * 1024, 0xB0B + seed);
                let id = h.backup(t, &format!("file-{f}"), &data);
                owned_t.push((id, data));
            }
        }
        h.cluster.try_flush().unwrap();

        // Accounting: every tenant's report is exact, and the live bytes
        // partition the cluster's logical total.
        let per_tenant_logical = (files_per_tenant * payload_kib * 1024) as u64;
        for t in 0..tenants {
            let report = h.service.tenant_stats_for(&tenant(t));
            prop_assert_eq!(report.logical_bytes, per_tenant_logical);
            prop_assert_eq!(report.live_logical_bytes, per_tenant_logical);
            prop_assert_eq!(report.freed_bytes, 0);
            prop_assert_eq!(report.files, files_per_tenant as u64);
            prop_assert_eq!(h.quota.usage(&tenant(t)), per_tenant_logical);
        }
        prop_assert_eq!(h.sum_live(), h.cluster.stats().logical_bytes);
        if overlap == 1 && tenants > 1 {
            prop_assert!(
                h.cluster.stats().physical_bytes < h.sum_live(),
                "overlapping tenants must share chunks"
            );
        }

        // Isolation: owners restore byte-identically, everyone else gets
        // NotFound for the same IDs.
        for (t, owned_t) in owned.iter().enumerate() {
            for (id, data) in owned_t {
                let own = h.call(t, Operation::Restore { file_id: *id }, Vec::new());
                prop_assert!(own.is_ok());
                prop_assert_eq!(&own.payload, data);
                let probe = h.call((t + 1) % tenants, Operation::Restore { file_id: *id }, Vec::new());
                prop_assert_eq!(
                    probe.code,
                    ServiceCode::NotFound,
                    "tenant {} saw tenant {}'s file {}",
                    (t + 1) % tenants, t, id
                );
            }
        }

        // Churn tenant 0: delete one file, collect garbage, re-check the
        // partition and everyone else's bytes.
        let (deleted_id, _) = owned[0][0].clone();
        let del = h.call(0, Operation::DeleteFile { file_id: deleted_id }, Vec::new());
        prop_assert!(del.is_ok());
        let freed = del.metadata_u64(FREED_BYTES_KEY).expect("delete reports freed bytes");
        prop_assert_eq!(freed, (payload_kib * 1024) as u64);
        let gc = h.call(0, Operation::CollectGarbage, Vec::new());
        prop_assert!(gc.is_ok());

        let report = h.service.tenant_stats_for(&tenant(0));
        prop_assert_eq!(report.freed_bytes, freed);
        prop_assert_eq!(report.live_logical_bytes, per_tenant_logical - freed);
        prop_assert_eq!(h.quota.usage(&tenant(0)), per_tenant_logical - freed);
        prop_assert_eq!(h.sum_live(), h.cluster.stats().logical_bytes);

        let gone = h.call(0, Operation::Restore { file_id: deleted_id }, Vec::new());
        prop_assert_eq!(gone.code, ServiceCode::NotFound, "deleted file must stay deleted");
        for (t, owned_t) in owned.iter().enumerate().skip(1) {
            for (id, data) in owned_t {
                let resp = h.call(t, Operation::Restore { file_id: *id }, Vec::new());
                prop_assert!(resp.is_ok(), "tenant 0's churn broke tenant {}'s file {}", t, id);
                prop_assert_eq!(&resp.payload, data);
            }
        }
    }

    /// Random reductions of the tenant storm — many clients, a hot tenant,
    /// churn — always preserve isolation, the partition invariant and
    /// cumulative accounting, whatever the shape.
    #[test]
    fn storm_shapes_preserve_isolation_and_accounting(
        tenants in 2usize..5,
        clients_per_tenant in 1usize..3,
        hot_extra in 0usize..3,
        generations in 1usize..3,
        churn_every in 0usize..3,
    ) {
        let config = TenantStormConfig {
            tenants,
            clients_per_tenant,
            hot_tenant_extra_clients: hot_extra,
            generations,
            initial_payload_bytes: 4 * 1024,
            growth_per_generation: 1024,
            overlap_group: 2,
            churn_every,
            seed: 0x150 ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..TenantStormConfig::default()
        };
        let report = run_tenant_storm(&config);
        prop_assert_eq!(report.backups, config.total_clients() * generations);
        prop_assert!(
            report.isolation_holds(),
            "restores {}/{}, expired {}/{}, probes {}/{}",
            report.intact_restores, report.expected_restores,
            report.expired_unreachable, report.expired_files,
            report.foreign_probes_isolated, report.foreign_probes
        );
        prop_assert!(
            report.partition_holds(),
            "Σ live {} != cluster logical {}",
            report.sum_tenant_live_bytes, report.cluster_logical_bytes
        );
        prop_assert!(report.accounting_consistent);
    }
}

/// Deleting through the real backend credits the freed logical bytes back to
/// the tenant's quota exactly once; a replayed delete envelope (same request
/// id, retrying transport) cannot mint extra budget.
#[test]
fn delete_credits_quota_exactly_once_end_to_end() {
    let size = 32 * 1024;
    let h = Harness::new(1, 2 * size as u64);
    let data = payload(size, 0xC4ED17);
    let id = h.backup(0, "victim", &data);
    h.cluster.try_flush().unwrap();
    assert_eq!(h.quota.usage(&tenant(0)), size as u64);

    // One more backup fits; a third would not (budget is 2 files).
    let second = h.backup(0, "second", &payload(size, 0xC4ED18));
    assert_eq!(h.quota.usage(&tenant(0)), 2 * size as u64);
    let over = h.call(
        0,
        Operation::Backup {
            file_name: "third".into(),
            generation: 0,
        },
        payload(size, 0xC4ED19),
    );
    assert_eq!(over.code, ServiceCode::ResourceExhausted);

    // Delete the first file: its logical bytes come back to the budget.
    let delete = RequestEnvelope::new(999, tenant(0), Operation::DeleteFile { file_id: id })
        .with_token(token(0));
    let resp = h.stack.call(delete.clone());
    assert!(resp.is_ok(), "{}", resp.message);
    assert_eq!(resp.metadata_u64(FREED_BYTES_KEY), Some(size as u64));
    assert_eq!(h.quota.usage(&tenant(0)), size as u64);

    // The transport lost the response and replays the very same envelope:
    // the file is already gone, and the budget must not move again.
    let replay = h.stack.call(delete);
    assert_eq!(replay.code, ServiceCode::NotFound);
    assert_eq!(
        h.quota.usage(&tenant(0)),
        size as u64,
        "replayed delete must not change the budget"
    );

    // The freed budget is real: a new file of the same size fits again.
    let third = h.backup(0, "third", &payload(size, 0xC4ED1A));
    assert_eq!(h.quota.usage(&tenant(0)), 2 * size as u64);
    assert_ne!(third, second);
}

/// A tenant's credentials only reach its own namespace: deletes aimed at a
/// foreign file ID fail, and tenant-scoped generation expiry leaves other
/// tenants' files alone.
#[test]
fn foreign_credentials_cannot_delete_across_tenants() {
    let h = Harness::new(2, 1 << 30);
    let data = payload(24 * 1024, 0x150_1A7E);
    let id = h.backup(0, "mine", &data);
    // Identical payload: the two tenants share every physical chunk.
    let other = h.backup(1, "theirs", &data);
    h.cluster.try_flush().unwrap();

    // Tenant 1 aims straight at tenant 0's file ID.
    let stab = h.call(1, Operation::DeleteFile { file_id: id }, Vec::new());
    assert_eq!(stab.code, ServiceCode::NotFound);

    // Tenant 1 expires its whole generation 0 and sweeps: only *its* file
    // goes, even though every chunk is shared with tenant 0.
    let expire = h.call(1, Operation::DeleteGeneration { generation: 0 }, Vec::new());
    assert!(expire.is_ok(), "{}", expire.message);
    assert_eq!(
        expire.metadata_u64(FREED_BYTES_KEY),
        Some(24 * 1024),
        "expiry frees exactly tenant 1's logical bytes"
    );
    let gc = h.call(1, Operation::CollectGarbage, Vec::new());
    assert!(gc.is_ok());
    let gone = h.call(1, Operation::Restore { file_id: other }, Vec::new());
    assert_eq!(gone.code, ServiceCode::NotFound);

    // Tenant 0's file is untouched.
    let resp = h.call(0, Operation::Restore { file_id: id }, Vec::new());
    assert!(resp.is_ok());
    assert_eq!(resp.payload, data);
    assert_eq!(
        h.service.tenant_stats_for(&tenant(0)).live_logical_bytes,
        24 * 1024
    );
    assert_eq!(h.service.tenant_stats_for(&tenant(1)).live_logical_bytes, 0);
}
