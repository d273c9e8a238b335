//! Concurrency stress: many threads backing up overlapping datasets into one
//! cluster, checking for deadlocks, consistent accounting and intact restores.
//!
//! CI runs this suite under `--release` with `RUST_TEST_THREADS` unpinned so the
//! tests inside one binary also race each other — lock-ordering bugs in the
//! striped indexes or the per-container store locks surface here rather than on
//! main.

use sigma_dedupe::prelude::*;
use std::sync::{Arc, Barrier};

fn stress_config(parallelism: usize) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(32 * 1024)
        .cache_containers(4)
        .parallelism(parallelism)
        .build()
        .expect("valid stress config")
}

/// Deterministic pseudo-random block so threads can overlap on shared content.
fn block(id: u64, len: usize) -> Vec<u8> {
    let mut state = id.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// A thread's dataset: a shared prefix every thread writes (heavy cross-thread
/// duplication) plus a private suffix unique to the thread.
fn dataset(thread: u64) -> Vec<u8> {
    let mut data = Vec::new();
    for shared in 0..16u64 {
        data.extend_from_slice(&block(shared, 2048));
    }
    for private in 0..8u64 {
        data.extend_from_slice(&block(1_000 + thread * 100 + private, 2048));
    }
    data
}

#[test]
fn threads_share_cluster_without_deadlock_and_stats_sum() {
    const THREADS: u64 = 8;
    let cluster = Arc::new(DedupCluster::with_similarity_router(4, stress_config(1)));
    let barrier = Arc::new(Barrier::new(THREADS as usize));

    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let cluster = cluster.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let client = BackupClient::new(cluster.clone(), thread);
            let data = dataset(thread);
            barrier.wait();
            let mut reports: Vec<(FileBackupReport, Vec<u8>)> = Vec::new();
            for generation in 0..2 {
                let report = client
                    .backup_bytes(&format!("t{thread}-g{generation}"), &data)
                    .expect("backup under contention");
                reports.push((report, data.clone()));
            }
            reports
        }));
    }
    let all: Vec<(FileBackupReport, Vec<u8>)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("no stream worker may deadlock or panic"))
        .collect();
    cluster.try_flush().unwrap();

    // Accounting: the cluster-side counters must equal the sum of what the
    // clients observed, no matter how the streams interleaved.
    let stats = cluster.stats();
    let logical: u64 = all.iter().map(|(r, _)| r.logical_bytes).sum();
    let super_chunks: u64 = all.iter().map(|(r, _)| r.super_chunks).sum();
    let chunks: u64 = all.iter().map(|(r, _)| r.chunks).sum();
    assert_eq!(stats.logical_bytes, logical);
    assert_eq!(stats.messages.super_chunks_routed, super_chunks);
    assert_eq!(
        stats.messages.postrouting_lookups, chunks,
        "one batched duplicate-or-unique lookup per chunk"
    );
    assert_eq!(
        stats.node_usage.iter().sum::<u64>(),
        stats.physical_bytes,
        "per-node usage must sum to the cluster total"
    );
    assert!(stats.physical_bytes <= stats.logical_bytes);
    let per_node_logical: u64 = stats.nodes.iter().map(|n| n.logical_bytes).sum();
    assert_eq!(per_node_logical, stats.logical_bytes);

    // The shared prefix must deduplicate across threads: 8 threads x 2 generations
    // wrote the same 32 KB prefix, so the cluster stores far less than logical.
    // (The bound is conservative: racing first-generation streams may seed the
    // same shared super-chunk on several nodes before resemblance kicks in.)
    assert!(
        stats.dedup_ratio > 1.5,
        "overlapping datasets must deduplicate, got {}",
        stats.dedup_ratio
    );

    // Every file restores byte-identically.
    for (report, data) in &all {
        assert_eq!(&cluster.restore_file(report.file_id).unwrap(), data);
    }
}

#[test]
fn pipeline_stress_matches_serial_physical_bytes() {
    const STREAMS: u64 = 16;
    let inputs: Vec<StreamPayload> = (0..STREAMS)
        .map(|s| StreamPayload::new(s, format!("s{s}"), dataset(s % 4)))
        .collect();

    // Serial reference on an identical single-node cluster.
    let serial = Arc::new(DedupCluster::with_similarity_router(1, stress_config(1)));
    for input in &inputs {
        BackupClient::new(serial.clone(), input.stream_id)
            .backup_bytes(&input.name, &input.data)
            .unwrap();
    }
    serial.try_flush().unwrap();

    let parallel = Arc::new(DedupCluster::with_similarity_router(1, stress_config(8)));
    let reports = BackupClient::new(parallel.clone(), 0)
        .backup_streams(&inputs)
        .unwrap();
    parallel.try_flush().unwrap();

    let serial_stats = serial.stats();
    let parallel_stats = parallel.stats();
    assert_eq!(parallel_stats.logical_bytes, serial_stats.logical_bytes);
    assert_eq!(
        parallel_stats.physical_bytes, serial_stats.physical_bytes,
        "16 racing streams over 4 overlapping datasets must not double-store"
    );
    for (report, input) in reports.iter().zip(&inputs) {
        assert_eq!(parallel.restore_file(report.file_id).unwrap(), input.data);
    }
}

#[test]
fn backups_racing_with_flush_lose_nothing() {
    const THREADS: u64 = 4;
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, stress_config(1)));
    let barrier = Arc::new(Barrier::new(THREADS as usize + 1));

    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let cluster = cluster.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let client = BackupClient::new(cluster.clone(), thread);
            barrier.wait();
            (0..8u64)
                .map(|generation| {
                    let data = dataset(thread * 10 + generation);
                    let report = client
                        .backup_bytes(&format!("t{thread}-g{generation}"), &data)
                        .expect("backup racing a flush");
                    (report, data)
                })
                .collect::<Vec<_>>()
        }));
    }
    // A dedicated thread hammers flush() while the clients ingest.
    let flusher = {
        let cluster = cluster.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            for _ in 0..64 {
                cluster.try_flush().unwrap();
                std::thread::yield_now();
            }
        })
    };

    let all: Vec<(FileBackupReport, Vec<u8>)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("no client may deadlock"))
        .collect();
    flusher.join().expect("flusher must finish");
    cluster.try_flush().unwrap();

    for (report, data) in &all {
        assert_eq!(
            &cluster.restore_file(report.file_id).unwrap(),
            data,
            "a flush racing an ingest must never lose chunks"
        );
    }
}
