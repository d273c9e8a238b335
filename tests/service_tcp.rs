//! Framed-TCP transport acceptance: a backup/restore round trip through the
//! full default stack over a loopback socket is byte-identical to the same
//! requests through the in-process transport, and service-level rejections
//! (unauthorized, over-quota) travel the wire with their correct codes while
//! leaving cluster accounting untouched.

use sigma_dedupe::prelude::*;
use std::sync::Arc;

const TOKEN: &str = "s3cret";

fn service_fixture(budget: u64) -> (Arc<DedupCluster>, Arc<ServiceStack>, TcpService) {
    let config = SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(32 * 1024)
        .build()
        .expect("valid config");
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
    let stack = Arc::new(
        ServiceBuilder::default_stack(
            TokenAuth::new().tenant("acme", TOKEN),
            TenantQuota::new().budget("acme", budget),
            RateLimit::new(1000, 1000.0),
        )
        .build(cluster.clone()),
    );
    let service = TcpService::bind("127.0.0.1:0", stack.clone()).expect("bind loopback");
    (cluster, stack, service)
}

fn backup_req(id: u64, name: &str, payload: Vec<u8>) -> RequestEnvelope {
    RequestEnvelope::new(
        id,
        "acme",
        Operation::Backup {
            file_name: name.into(),
            generation: 0,
        },
    )
    .with_payload(payload)
    .with_token(TOKEN)
}

#[test]
fn tcp_round_trip_matches_in_process_transport() {
    let (_cluster, stack, mut service) = service_fixture(4 << 20);
    let mut client = TcpClient::connect(service.local_addr()).expect("connect");

    let payload: Vec<u8> = (0..150_000usize).map(|i| (i * 131 % 251) as u8).collect();

    // Same logical content backed up once over each transport (distinct file
    // names, so both ingest the same bytes independently).
    let wire_backup = client
        .call(&backup_req(1, "wire.bin", payload.clone()))
        .unwrap();
    assert!(wire_backup.is_ok(), "{}", wire_backup.message);
    let local_backup = stack.call(backup_req(2, "local.bin", payload.clone()));
    assert!(local_backup.is_ok(), "{}", local_backup.message);

    let wire_id = wire_backup
        .metadata_u64(sigma_dedupe::service::backend::FILE_ID_KEY)
        .unwrap();
    let local_id = local_backup
        .metadata_u64(sigma_dedupe::service::backend::FILE_ID_KEY)
        .unwrap();

    // Restore each file over the *other* transport: every combination must be
    // byte-identical to the original payload.
    let wire_restore = client
        .call(
            &RequestEnvelope::new(3, "acme", Operation::Restore { file_id: local_id })
                .with_token(TOKEN),
        )
        .unwrap();
    let local_restore = stack.call(
        RequestEnvelope::new(4, "acme", Operation::Restore { file_id: wire_id }).with_token(TOKEN),
    );
    assert_eq!(wire_restore.payload, payload, "TCP restore of local backup");
    assert_eq!(
        local_restore.payload, payload,
        "local restore of TCP backup"
    );
    assert_eq!(
        wire_restore.payload, local_restore.payload,
        "transports agree byte-for-byte"
    );

    // The logging layer saw all four requests regardless of transport.
    let log = stack.log().expect("default stack logs");
    assert_eq!(log.len(), 4);
    service.shutdown();
}

#[test]
fn unauthorized_and_over_quota_reject_over_the_wire() {
    let (cluster, _stack, mut service) = service_fixture(10_000);
    let mut client = TcpClient::connect(service.local_addr()).expect("connect");

    // Seed a small legitimate backup, then snapshot accounting.
    let ok = client
        .call(&backup_req(1, "seed.bin", vec![7u8; 4_000]))
        .unwrap();
    assert!(ok.is_ok(), "{}", ok.message);
    cluster.try_flush().unwrap();
    let logical_before = cluster.logical_bytes();
    let physical_before = cluster.physical_bytes();

    // Wrong token: Unauthorized, before any other layer.
    let resp = client
        .call(&backup_req(2, "x.bin", vec![1u8; 100]).with_metadata(AUTH_TOKEN_KEY, "wrong"))
        .unwrap();
    assert_eq!(resp.code, ServiceCode::Unauthorized);
    assert!(!resp.message.is_empty(), "rejection carries a message");

    // Over budget: ResourceExhausted, before the backend.
    let resp = client
        .call(&backup_req(3, "big.bin", vec![2u8; 60_000]))
        .unwrap();
    assert_eq!(resp.code, ServiceCode::ResourceExhausted);

    // Unknown file for this tenant: NotFound travels the wire too.
    let resp = client
        .call(
            &RequestEnvelope::new(4, "acme", Operation::Restore { file_id: 123_456 })
                .with_token(TOKEN),
        )
        .unwrap();
    assert_eq!(resp.code, ServiceCode::NotFound);

    // None of the rejected requests moved cluster accounting.
    cluster.try_flush().unwrap();
    assert_eq!(cluster.logical_bytes(), logical_before);
    assert_eq!(cluster.physical_bytes(), physical_before);

    // The connection is still healthy after three rejections.
    let stats = client
        .call(&RequestEnvelope::new(5, "acme", Operation::Stats).with_token(TOKEN))
        .unwrap();
    assert!(stats.is_ok(), "{}", stats.message);
    service.shutdown();
}
