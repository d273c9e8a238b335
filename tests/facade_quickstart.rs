//! Workspace smoke test: the façade's quick-start path must keep working
//! exactly as documented in `src/lib.rs` — back up through a multi-node
//! cluster, flush open containers, and restore bit-exactly.

use sigma_dedupe::prelude::*;
use std::sync::Arc;

#[test]
fn quickstart_backup_flush_restore_round_trip() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        4,
        SigmaConfig::default(),
    ));
    let client = BackupClient::new(cluster.clone(), 0);

    // Two generations of mostly identical data, as in the crate-level example.
    let generation_1 = vec![42u8; 4 << 20];
    let generation_2 = generation_1.clone();
    let report_1 = client
        .backup_bytes("vm-image, monday", &generation_1)
        .unwrap();
    let report_2 = client
        .backup_bytes("vm-image, tuesday", &generation_2)
        .unwrap();
    assert_eq!(report_1.logical_bytes, generation_1.len() as u64);
    assert!(
        report_2.transferred_bytes < report_1.transferred_bytes / 10,
        "second generation should deduplicate almost entirely: {} vs {}",
        report_2.transferred_bytes,
        report_1.transferred_bytes
    );

    // Flush open containers, then both generations restore bit-exactly.
    cluster.try_flush().unwrap();
    assert_eq!(
        cluster.restore_file(report_1.file_id).unwrap(),
        generation_1
    );
    assert_eq!(
        cluster.restore_file(report_2.file_id).unwrap(),
        generation_2
    );

    // The cluster accounted both backups logically but stored the data once.
    let stats = cluster.stats();
    assert_eq!(stats.logical_bytes, 2 * generation_1.len() as u64);
    assert!(stats.physical_bytes <= generation_1.len() as u64);
}
