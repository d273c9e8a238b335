//! End-to-end integration tests spanning the client, cluster, nodes and director.

use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn cluster(nodes: usize) -> Arc<DedupCluster> {
    Arc::new(DedupCluster::with_similarity_router(
        nodes,
        SigmaConfig::default(),
    ))
}

#[test]
fn incremental_generations_deduplicate_and_restore() {
    let cluster = cluster(4);
    let client = BackupClient::new(cluster.clone(), 0);
    let generations = versioned_payloads(VersionedPayloadParams {
        seed: 11,
        versions: 4,
        version_size: 8 << 20,
        mutation_rate: 0.04,
    });

    let mut reports = Vec::new();
    for (name, data) in &generations {
        reports.push((client.backup_bytes(name, data).unwrap(), data));
    }
    cluster.try_flush().unwrap();

    // Generation 1 transfers everything; later generations transfer only the churn.
    assert_eq!(reports[0].0.transferred_bytes, (8 << 20) as u64);
    for (report, _) in &reports[1..] {
        assert!(
            report.transferred_bytes < (8 << 20) / 5,
            "incremental generation transferred {} bytes",
            report.transferred_bytes
        );
    }

    // Every generation restores bit-exactly.
    for (report, data) in &reports {
        assert_eq!(&cluster.restore_file(report.file_id).unwrap(), *data);
    }

    // Cluster-wide dedup ratio reflects the 4 nearly identical generations.
    let stats = cluster.stats();
    assert!(stats.dedup_ratio > 3.0, "dr = {}", stats.dedup_ratio);
}

#[test]
fn many_clients_share_duplicate_data_across_the_cluster() {
    let cluster = cluster(8);
    let shared = random_bytes(4 << 20, 77);
    let mut total_transferred = 0u64;
    for client_id in 0..6u64 {
        let client = BackupClient::new(cluster.clone(), client_id);
        let report = client
            .backup_bytes(&format!("shared-{}", client_id), &shared)
            .unwrap();
        total_transferred += report.transferred_bytes;
    }
    cluster.try_flush().unwrap();
    // Only the first client pays for the data.
    assert_eq!(total_transferred, (4 << 20) as u64);
    let stats = cluster.stats();
    assert!(
        (stats.dedup_ratio - 6.0).abs() < 0.5,
        "dr = {}",
        stats.dedup_ratio
    );
    assert_eq!(cluster.director().session_count(), 6);
}

#[test]
fn unique_data_spreads_across_nodes() {
    let cluster = cluster(8);
    let client = BackupClient::new(cluster.clone(), 0);
    // 64 MB of unique data must not pile up on one node.
    for i in 0..8u64 {
        let data = random_bytes(8 << 20, 1000 + i);
        client
            .backup_bytes(&format!("unique-{}", i), &data)
            .unwrap();
    }
    cluster.try_flush().unwrap();
    let stats = cluster.stats();
    let used_nodes = stats.node_usage.iter().filter(|&&u| u > 0).count();
    assert!(used_nodes >= 6, "only {} of 8 nodes used", used_nodes);
    assert!(stats.usage_skew < 1.0, "skew = {}", stats.usage_skew);
}

#[test]
fn restore_errors_are_reported() {
    let cluster = cluster(2);
    assert!(matches!(
        cluster.restore_file(123),
        Err(SigmaError::FileNotFound(123))
    ));
}

#[test]
fn mixed_file_sizes_round_trip() {
    let cluster = cluster(4);
    let client = BackupClient::new(cluster.clone(), 0);
    let files: Vec<(String, Vec<u8>)> = vec![
        ("empty".into(), Vec::new()),
        ("tiny".into(), b"x".to_vec()),
        ("one-chunk".into(), random_bytes(4096, 1)),
        ("odd-size".into(), random_bytes(123_457, 2)),
        ("big".into(), random_bytes(3 << 20, 3)),
    ];
    let mut ids = Vec::new();
    for (name, data) in &files {
        ids.push(client.backup_bytes(name, data).unwrap().file_id);
    }
    cluster.try_flush().unwrap();
    for ((_, data), id) in files.iter().zip(ids) {
        assert_eq!(&cluster.restore_file(id).unwrap(), data);
    }
}
