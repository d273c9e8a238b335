//! Middleware-ordering and short-circuit properties of the service layer,
//! checked through the public façade:
//!
//! * an unauthorized request is rejected by the auth layer and **never
//!   reaches quota** — no reservation, no usage drift, regardless of the
//!   request mix;
//! * an over-quota request is rejected before the backend, leaving the
//!   cluster's logical *and* physical accounting untouched;
//! * the logging layer observes **exactly one** entry per request, error
//!   paths included, and both transports agree byte-for-byte.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn small_cluster() -> Arc<DedupCluster> {
    let config = SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(32 * 1024)
        .build()
        .expect("valid config");
    Arc::new(DedupCluster::with_similarity_router(2, config))
}

fn backup_req(id: u64, tenant: &str, bytes: usize) -> RequestEnvelope {
    RequestEnvelope::new(
        id,
        tenant,
        Operation::Backup {
            file_name: format!("f{}", id),
            generation: 0,
        },
    )
    .with_payload(vec![(id % 251) as u8; bytes])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Auth is outermost: whatever the request mix, unauthorized requests are
    /// answered before the quota layer sees them, so the quota's usage figure
    /// equals exactly the sum of *authorized* ingests.
    #[test]
    fn auth_rejections_never_reach_quota(
        sizes in proptest::collection::vec(1usize..2048, 1..16),
        auth_mask in any::<u32>(),
    ) {
        let quota = Arc::new(TenantQuota::new()); // unlimited, tracks usage
        let stack = ServiceBuilder::new()
            .auth(TokenAuth::new().tenant("acme", "s3cret"))
            .layer(quota.clone())
            .build(small_cluster());

        let mut authorized_bytes = 0u64;
        for (i, &bytes) in sizes.iter().enumerate() {
            let authorized = (auth_mask >> (i % 32)) & 1 == 1;
            let mut req = backup_req(i as u64, "acme", bytes);
            if authorized {
                req = req.with_token("s3cret");
                authorized_bytes += bytes as u64;
            } else if i % 2 == 0 {
                req = req.with_token("wrong");
            } // odd unauthorized requests carry no token at all
            let resp = stack.call(req);
            if authorized {
                prop_assert!(resp.is_ok(), "{}", resp.message);
            } else {
                prop_assert_eq!(resp.code, ServiceCode::Unauthorized);
            }
        }
        prop_assert_eq!(quota.usage("acme"), authorized_bytes,
            "quota saw only authorized ingests");
    }

    /// Quota admission happens before the backend: a rejected request leaves
    /// both logical and physical cluster accounting exactly where they were.
    #[test]
    fn quota_rejection_leaves_cluster_accounting_untouched(
        budget in 1u64..4096,
        overshoot in 1u64..4096,
    ) {
        let cluster = small_cluster();
        let stack = ServiceBuilder::new()
            .auth(TokenAuth::new().tenant("acme", "s3cret"))
            .quota(TenantQuota::new().budget("acme", budget))
            .build(cluster.clone());

        // Fill part of the budget legitimately so the cluster is non-empty.
        let within = (budget / 2).max(1) as usize;
        let ok = stack.call(backup_req(1, "acme", within).with_token("s3cret"));
        prop_assert!(ok.is_ok(), "{}", ok.message);
        cluster.try_flush().unwrap();

        let logical_before = cluster.logical_bytes();
        let physical_before = cluster.physical_bytes();

        let req_bytes = (budget - within as u64 + overshoot) as usize;
        let over = stack.call(backup_req(2, "acme", req_bytes).with_token("s3cret"));
        prop_assert_eq!(over.code, ServiceCode::ResourceExhausted);

        cluster.try_flush().unwrap();
        prop_assert_eq!(cluster.logical_bytes(), logical_before,
            "rejected ingest routed no logical bytes");
        prop_assert_eq!(cluster.physical_bytes(), physical_before,
            "rejected ingest stored no physical bytes");
    }

    /// The logging layer records exactly one entry per request — successes,
    /// envelope rejections from inner layers, and backend errors alike.
    #[test]
    fn logging_observes_exactly_one_entry_per_request(
        kinds in proptest::collection::vec(0u8..3, 1..24),
    ) {
        let log = Arc::new(RequestLog::new());
        let stack = ServiceBuilder::new()
            .logging_with(log.clone()) // outermost: sees every outcome
            .auth(TokenAuth::new().tenant("acme", "s3cret"))
            .build(small_cluster());

        for (i, kind) in kinds.iter().enumerate() {
            let id = i as u64;
            let (req, expected) = match kind {
                // A successful stats call.
                0 => (
                    RequestEnvelope::new(id, "acme", Operation::Stats).with_token("s3cret"),
                    ServiceCode::Ok,
                ),
                // Rejected by the auth middleware.
                1 => (
                    RequestEnvelope::new(id, "acme", Operation::Stats),
                    ServiceCode::Unauthorized,
                ),
                // Passes auth, fails in the backend.
                _ => (
                    RequestEnvelope::new(id, "acme", Operation::Restore { file_id: 999_999 })
                        .with_token("s3cret"),
                    ServiceCode::NotFound,
                ),
            };
            let resp = stack.call(req);
            prop_assert_eq!(resp.code, expected);
            prop_assert_eq!(resp.request_id, id);
        }

        let entries = log.entries();
        prop_assert_eq!(entries.len(), kinds.len(), "one entry per request");
        for (entry, kind) in entries.iter().zip(&kinds) {
            let expected = match kind {
                0 => ServiceCode::Ok,
                1 => ServiceCode::Unauthorized,
                _ => ServiceCode::NotFound,
            };
            prop_assert_eq!(entry.code, expected);
        }
        // The metrics registry agrees with the log.
        let total: u64 = log.metrics().values().map(|s| s.count).sum();
        prop_assert_eq!(total as usize, kinds.len());
    }
}

/// The full default stack admits an authorized, within-quota backup and
/// restores it byte-identically; quota usage then reflects the cluster's
/// delete accounting when the file is removed and collected.
#[test]
fn default_stack_end_to_end_with_delete_credit() {
    let cluster = small_cluster();
    let quota = Arc::new(TenantQuota::new().budget("acme", 1 << 20));
    let stack = ServiceBuilder::new()
        .auth(TokenAuth::new().tenant("acme", "s3cret"))
        .layer(quota.clone())
        .rate_limit(RateLimit::new(100, 100.0))
        .logging()
        .build(cluster.clone());

    let payload: Vec<u8> = (0..60_000usize).map(|i| (i * 31 % 251) as u8).collect();
    let backup = stack.call(
        backup_req(1, "acme", 0)
            .with_payload(payload.clone())
            .with_token("s3cret"),
    );
    assert!(backup.is_ok(), "{}", backup.message);
    assert_eq!(quota.usage("acme"), payload.len() as u64);

    let file_id = backup
        .metadata_u64(sigma_dedupe::service::backend::FILE_ID_KEY)
        .expect("backup reports file_id");
    let restored = stack
        .call(RequestEnvelope::new(2, "acme", Operation::Restore { file_id }).with_token("s3cret"));
    assert_eq!(restored.payload, payload, "byte-identical restore");

    let deleted = stack.call(
        RequestEnvelope::new(3, "acme", Operation::DeleteFile { file_id }).with_token("s3cret"),
    );
    assert!(deleted.is_ok(), "{}", deleted.message);
    assert_eq!(
        quota.usage("acme"),
        0,
        "delete's freed_bytes credited back to the tenant budget"
    );

    let log = stack.log().expect("logging layer present");
    assert_eq!(log.len(), 3);
    assert!(log.entries().iter().all(|e| e.code == ServiceCode::Ok));
}
