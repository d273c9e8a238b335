//! Golden `Stats` replies: two tenants are scripted through backups,
//! restores (one of an absent file), `DeleteFile`, `DeleteGeneration` and
//! `Stats` against one `BackupService`, and every `Stats` reply's whole
//! metadata map is compared with literal values.  Any change to what the
//! service counts, or to how it renders a figure, shows here.

use sigma_chunking::ChunkerParams;
use sigma_core::{DedupCluster, ServiceCode, SigmaConfig};
use sigma_service::backend::FILE_ID_KEY;
use sigma_service::{Backend, BackupService, Operation, RequestEnvelope, ResponseEnvelope};
use std::collections::BTreeMap;
use std::sync::Arc;

fn service() -> BackupService {
    let config = SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .chunker(ChunkerParams::fixed(4096))
        .build()
        .unwrap();
    BackupService::new(Arc::new(DedupCluster::with_similarity_router(2, config)))
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

fn backup(svc: &BackupService, id: u64, tenant: &str, name: &str, gen: u64, payload: &[u8]) -> u64 {
    let resp = svc
        .call(
            RequestEnvelope::new(
                id,
                tenant,
                Operation::Backup {
                    file_name: name.into(),
                    generation: gen,
                },
            )
            .with_payload(payload.to_vec()),
        )
        .unwrap();
    resp.metadata_u64(FILE_ID_KEY).unwrap()
}

fn call(svc: &BackupService, id: u64, tenant: &str, op: Operation) -> ResponseEnvelope {
    svc.call(RequestEnvelope::new(id, tenant, op)).unwrap()
}

fn assert_stats(resp: &ResponseEnvelope, expected: &[(&str, &str)]) {
    let expected: BTreeMap<String, String> = expected
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert_eq!(resp.metadata, expected, "Stats reply {}", resp.request_id);
}

#[test]
fn stats_replies_match_the_golden_maps() {
    let svc = service();
    let a = data(100_000, 1);
    let b = data(60_000, 2);

    let a0 = backup(&svc, 1, "acme", "a", 0, &a);
    backup(&svc, 2, "globex", "b", 0, &b);
    // The same bytes again in a later generation: logical grows, transferred
    // barely does.
    let a1 = backup(&svc, 3, "acme", "a-again", 1, &a);
    // Sealed containers are read through the read cache: the first restore
    // misses, the second (the same chunks) hits.
    svc.cluster().try_flush().unwrap();
    for (id, file_id) in [(4, a0), (12, a1)] {
        let restored = call(&svc, id, "acme", Operation::Restore { file_id });
        assert_eq!(restored.payload, a);
    }
    let absent = svc
        .call(RequestEnvelope::new(
            5,
            "acme",
            Operation::Restore { file_id: 999_999 },
        ))
        .unwrap_err();
    assert_eq!(absent.code(), ServiceCode::NotFound);

    assert_stats(
        &call(&svc, 6, "globex", Operation::Stats),
        &[
            ("dedup_ratio", "1.6250"),
            ("logical_bytes", "260000"),
            ("node_count", "2"),
            ("physical_bytes", "160000"),
            ("restore_backend_bytes_read", "100000"),
            ("restore_cache_hit_rate", "0.5000"),
            ("restore_cache_hits", "2"),
            ("restore_cache_misses", "2"),
            ("restore_chunks_read", "50"),
            ("restore_containers_opened", "4"),
            ("restore_read_amplification", "0.5000"),
            ("restores", "2"),
            ("router", "sigma"),
            ("tenant_dedup_ratio", "1.0000"),
            ("tenant_files", "1"),
            ("tenant_freed_bytes", "0"),
            ("tenant_live_logical_bytes", "60000"),
            ("tenant_logical_bytes", "60000"),
            ("tenant_rejected", "0"),
            ("tenant_requests", "1"),
            ("tenant_restored_bytes", "0"),
            ("tenant_transferred_bytes", "60000"),
            ("usage_skew", "0.1808"),
        ],
    );

    call(&svc, 7, "acme", Operation::DeleteFile { file_id: a0 });
    call(
        &svc,
        8,
        "globex",
        Operation::DeleteGeneration { generation: 0 },
    );

    assert_stats(
        &call(&svc, 9, "acme", Operation::Stats),
        &[
            ("dedup_ratio", "0.6250"),
            ("logical_bytes", "100000"),
            ("node_count", "2"),
            ("physical_bytes", "160000"),
            ("restore_backend_bytes_read", "100000"),
            ("restore_cache_hit_rate", "0.5000"),
            ("restore_cache_hits", "2"),
            ("restore_cache_misses", "2"),
            ("restore_chunks_read", "50"),
            ("restore_containers_opened", "4"),
            ("restore_read_amplification", "0.5000"),
            ("restores", "2"),
            ("router", "sigma"),
            ("tenant_dedup_ratio", "2.0000"),
            ("tenant_files", "1"),
            ("tenant_freed_bytes", "100000"),
            ("tenant_live_logical_bytes", "100000"),
            ("tenant_logical_bytes", "200000"),
            ("tenant_rejected", "1"),
            ("tenant_requests", "6"),
            ("tenant_restored_bytes", "200000"),
            ("tenant_transferred_bytes", "100000"),
            ("usage_skew", "0.1808"),
        ],
    );
    assert_stats(
        &call(&svc, 10, "globex", Operation::Stats),
        &[
            ("dedup_ratio", "0.6250"),
            ("logical_bytes", "100000"),
            ("node_count", "2"),
            ("physical_bytes", "160000"),
            ("restore_backend_bytes_read", "100000"),
            ("restore_cache_hit_rate", "0.5000"),
            ("restore_cache_hits", "2"),
            ("restore_cache_misses", "2"),
            ("restore_chunks_read", "50"),
            ("restore_containers_opened", "4"),
            ("restore_read_amplification", "0.5000"),
            ("restores", "2"),
            ("router", "sigma"),
            ("tenant_dedup_ratio", "1.0000"),
            ("tenant_files", "0"),
            ("tenant_freed_bytes", "60000"),
            ("tenant_live_logical_bytes", "0"),
            ("tenant_logical_bytes", "60000"),
            ("tenant_rejected", "0"),
            ("tenant_requests", "3"),
            ("tenant_restored_bytes", "0"),
            ("tenant_transferred_bytes", "60000"),
            ("usage_skew", "0.1808"),
        ],
    );
    // A tenant that never sent a request before its Stats.
    assert_stats(
        &call(&svc, 11, "initech", Operation::Stats),
        &[
            ("dedup_ratio", "0.6250"),
            ("logical_bytes", "100000"),
            ("node_count", "2"),
            ("physical_bytes", "160000"),
            ("restore_backend_bytes_read", "100000"),
            ("restore_cache_hit_rate", "0.5000"),
            ("restore_cache_hits", "2"),
            ("restore_cache_misses", "2"),
            ("restore_chunks_read", "50"),
            ("restore_containers_opened", "4"),
            ("restore_read_amplification", "0.5000"),
            ("restores", "2"),
            ("router", "sigma"),
            ("tenant_dedup_ratio", "1.0000"),
            ("tenant_files", "0"),
            ("tenant_freed_bytes", "0"),
            ("tenant_live_logical_bytes", "0"),
            ("tenant_logical_bytes", "0"),
            ("tenant_rejected", "0"),
            ("tenant_requests", "0"),
            ("tenant_restored_bytes", "0"),
            ("tenant_transferred_bytes", "0"),
            ("usage_skew", "0.1808"),
        ],
    );
}
