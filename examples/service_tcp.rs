//! The backup service over framed TCP: a [`ServiceBuilder`] middleware stack
//! (auth → quota → rate-limit → logging) in front of a two-node cluster,
//! served on a loopback socket and exercised by a [`TcpClient`].
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example service_tcp
//! ```
//!
//! The final line is asserted by CI:
//!
//! ```text
//! service_tcp: round-trip OK (restored 2097152 bytes, unauthorized=401, over-quota=429)
//! ```

use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        2,
        SigmaConfig::default(),
    ));
    let stack = Arc::new(
        ServiceBuilder::default_stack(
            TokenAuth::new().tenant("acme", "s3cret"),
            TenantQuota::new().budget("acme", 16 << 20), // 16 MiB logical budget
            RateLimit::new(100, 50.0),
        )
        .build(cluster),
    );
    println!("middleware stack: {:?}", stack.middleware_names());

    let mut service = TcpService::bind("127.0.0.1:0", stack.clone())?;
    println!("serving on {}", service.local_addr());
    let mut client = TcpClient::connect(service.local_addr())?;

    // Back up 2 MiB of versioned data and restore it over the socket.
    let payload: Vec<u8> = (0..2 << 20)
        .map(|i| ((i * 2654435761usize) >> 13) as u8)
        .collect();
    let backup = client.call(
        &RequestEnvelope::new(
            1,
            "acme",
            Operation::Backup {
                file_name: "volume.img".into(),
                generation: 0,
            },
        )
        .with_payload(payload.clone())
        .with_token("s3cret"),
    )?;
    assert!(backup.is_ok(), "backup failed: {}", backup.message);
    let file_id = backup
        .metadata_u64(sigma_dedupe::service::backend::FILE_ID_KEY)
        .expect("backup reports file_id");
    println!(
        "backed up file {} ({} logical bytes)",
        file_id,
        payload.len()
    );

    let restore = client.call(
        &RequestEnvelope::new(2, "acme", Operation::Restore { file_id }).with_token("s3cret"),
    )?;
    assert_eq!(restore.payload, payload, "restore must be byte-identical");

    // Rejections travel as envelopes with their wire codes.
    let unauthorized =
        client.call(&RequestEnvelope::new(3, "acme", Operation::Stats).with_token("wrong"))?;
    assert_eq!(unauthorized.code, ServiceCode::Unauthorized);
    let over_quota = client.call(
        &RequestEnvelope::new(
            4,
            "acme",
            Operation::Backup {
                file_name: "too-big.img".into(),
                generation: 0,
            },
        )
        .with_payload(vec![0u8; 32 << 20])
        .with_token("s3cret"),
    )?;
    assert_eq!(over_quota.code, ServiceCode::ResourceExhausted);

    if let Some(log) = stack.log() {
        println!("\nrequest log ({} entries):", log.len());
        for e in log.entries() {
            println!(
                "  #{:<3} {:<18} {:>4}  {:>9}B in  {:>9}B out  {:.3}ms",
                e.request_id,
                e.operation,
                e.code.wire(),
                e.request_bytes,
                e.response_bytes,
                e.latency_secs * 1e3,
            );
        }
    }

    service.shutdown();
    println!(
        "service_tcp: round-trip OK (restored {} bytes, unauthorized={}, over-quota={})",
        restore.payload.len(),
        unauthorized.code.wire(),
        over_quota.code.wire(),
    );
    Ok(())
}
