//! Error-path and edge-case coverage for the ingest core behind
//! `BackupClient`: cache-eviction restores, empty/single-chunk streams,
//! file-boundary hints, and the `SuperChunkBuilder` drop contract.

use sigma_dedupe::core::{RoutingContext, RoutingDecision};
use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn tiny_cache_config() -> SigmaConfig {
    // One cached container and many small containers: every prefetch evicts the
    // previous container, so restores *must* go through the chunk index, not the
    // fingerprint cache.
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(8 * 1024)
        .cache_containers(1)
        .parallelism(4)
        .build()
        .expect("valid config")
}

fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
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

#[test]
fn restore_survives_fingerprint_cache_eviction() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, tiny_cache_config()));
    let client = BackupClient::new(cluster.clone(), 0);

    // 6 streams x 64 KB >> 1 cached container of 8 KB: containers are evicted
    // constantly during ingest of the duplicate generation.
    let inputs: Vec<StreamPayload> = (0..6u64)
        .map(|s| StreamPayload::new(s, format!("gen1-{s}"), pseudo_random(64 * 1024, s / 2)))
        .collect();
    let first = client.backup_streams(&inputs).unwrap();
    let second = client
        .backup_streams(
            &inputs
                .iter()
                .map(|i| {
                    StreamPayload::new(i.stream_id, format!("gen2-{}", i.stream_id), i.data.clone())
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
    cluster.try_flush().unwrap();

    let evictions: u64 = cluster
        .nodes()
        .iter()
        .map(|n| n.stats().cache.evictions)
        .sum();
    assert!(
        evictions > 0,
        "the test must actually exercise cache eviction"
    );

    // Every file — including those whose containers were long evicted from the
    // fingerprint cache — restores byte-identically: eviction affects only the
    // in-RAM prefetch cache, never the containers or the chunk index.
    for (report, input) in first.iter().chain(second.iter()).zip(inputs.iter().cycle()) {
        assert_eq!(cluster.restore_file(report.file_id).unwrap(), input.data);
    }
}

#[test]
fn empty_and_single_chunk_streams_mixed_into_a_batch() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, tiny_cache_config()));
    let reports = BackupClient::new(cluster.clone(), 0)
        .backup_streams(&[
            StreamPayload::new(0, "empty", Vec::new()),
            StreamPayload::new(1, "single-chunk", vec![7u8; 512]),
            StreamPayload::new(2, "exactly-one-chunker-unit", vec![8u8; 1024]),
            StreamPayload::new(3, "bulk", pseudo_random(32 * 1024, 99)),
        ])
        .unwrap();
    cluster.try_flush().unwrap();

    assert_eq!(reports[0].logical_bytes, 0);
    assert_eq!(reports[0].chunks, 0);
    assert_eq!(reports[0].super_chunks, 0);
    assert_eq!(reports[0].bandwidth_saving(), 0.0);
    assert_eq!(cluster.restore_file(reports[0].file_id).unwrap(), b"");

    assert_eq!(reports[1].chunks, 1);
    assert_eq!(
        reports[1].super_chunks, 1,
        "a lone undersized chunk still ships"
    );
    assert_eq!(
        cluster.restore_file(reports[1].file_id).unwrap(),
        vec![7u8; 512]
    );
    assert_eq!(reports[2].chunks, 1);
    assert_eq!(
        cluster.restore_file(reports[2].file_id).unwrap(),
        vec![8u8; 1024]
    );
    assert_eq!(
        cluster.restore_file(reports[3].file_id).unwrap(),
        pseudo_random(32 * 1024, 99)
    );
}

#[test]
fn restore_of_unknown_file_is_an_error_through_the_pipeline_cluster() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, tiny_cache_config()));
    BackupClient::new(cluster.clone(), 0)
        .backup_bytes("present", &[1u8; 2048])
        .unwrap();
    assert!(matches!(
        cluster.restore_file(12345),
        Err(SigmaError::FileNotFound(12345))
    ));
}

/// Lends the cluster an `ExtremeBinningRouter` the test keeps a handle on, so
/// the test can count the router's bin assignments.
struct SharedRouter(Arc<ExtremeBinningRouter>);

impl DataRouter for SharedRouter {
    fn name(&self) -> String {
        self.0.name()
    }

    fn route(&self, ctx: &RoutingContext<'_>) -> RoutingDecision {
        self.0.route(ctx)
    }

    fn requires_file_boundaries(&self) -> bool {
        self.0.requires_file_boundaries()
    }
}

#[test]
fn a_delete_does_not_hand_a_live_files_hint_to_the_next_file() {
    // Extreme Binning pins each file-boundary hint to one bin.  A hint taken
    // from the live file count repeats after a delete, and file C would then
    // land in file B's bin instead of a bin of its own.
    let router = Arc::new(ExtremeBinningRouter::new());
    let cluster = Arc::new(DedupCluster::new(
        4,
        tiny_cache_config(),
        Box::new(SharedRouter(router.clone())),
    ));
    let client = BackupClient::new(cluster.clone(), 0);
    let a = client
        .backup_bytes("a", &pseudo_random(4 * 1024, 1))
        .unwrap();
    client
        .backup_bytes("b", &pseudo_random(4 * 1024, 2))
        .unwrap();
    cluster.delete_file(a.file_id).unwrap();
    client
        .backup_bytes("c", &pseudo_random(4 * 1024, 3))
        .unwrap();
    assert_eq!(
        router.assigned_files(),
        3,
        "every file gets a bin of its own"
    );
}

#[test]
fn super_chunk_builder_drop_discards_pending_chunks() {
    // The builder cannot emit from Drop; the documented contract is that pending
    // chunks are silently discarded.  Pin both halves down: (a) what finish()
    // would have returned is lost on drop, (b) a finished builder drops empty.
    let chunk = |i: u64| {
        let payload = i.to_le_bytes().repeat(128);
        (
            ChunkDescriptor::new(Sha1::fingerprint(&payload), 1024),
            payload,
        )
    };

    let mut builder = SuperChunkBuilder::new(1 << 20);
    for i in 0..5 {
        let (descriptor, payload) = chunk(i);
        assert!(builder.push_chunk(descriptor, payload).is_none());
    }
    assert_eq!(builder.pending_chunk_count(), 5);
    assert_eq!(builder.pending_bytes(), 5 * 1024);
    assert!(!builder.is_empty());
    drop(builder); // no panic, pending chunks gone

    let mut builder = SuperChunkBuilder::new(1 << 20);
    for i in 0..5 {
        let (descriptor, payload) = chunk(i);
        builder.push_chunk(descriptor, payload);
    }
    let last = builder.finish().expect("pending chunks flush");
    assert_eq!(last.chunk_count(), 5);
    assert!(builder.is_empty());
    assert_eq!(builder.pending_chunk_count(), 0);
    drop(builder); // nothing left to lose
}

#[test]
fn serial_client_flushes_its_builder_so_no_tail_is_lost() {
    // Regression guard for the drop contract at the call sites that matter: a
    // backup whose size is not a multiple of the super-chunk size still stores
    // its undersized tail (the client calls finish(), never relying on drop).
    let config = SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .build()
        .unwrap();
    let cluster = Arc::new(DedupCluster::with_similarity_router(1, config));
    let client = BackupClient::new(cluster.clone(), 0);
    // 9.5 super-chunks worth of data: the last half-full super-chunk is the tail.
    let data = pseudo_random(38 * 1024, 5);
    let report = client.backup_bytes("tail", &data).unwrap();
    assert_eq!(report.logical_bytes, data.len() as u64);
    assert_eq!(report.super_chunks, 10, "9 full + 1 undersized tail");
    cluster.try_flush().unwrap();
    assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);
}
