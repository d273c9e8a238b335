//! Property tests: the ingest core's worker-pool width is unobservable.
//!
//! Two properties, each over 256 deterministically generated cases:
//!
//! * on a single node (exact deduplication), arbitrary payloads spread over
//!   arbitrary stream counts yield the same `dedup_ratio`, the same
//!   `physical_bytes` and byte-identical `restore_file` output whether they go
//!   through one `backup_streams` call on 4 workers or one `backup_bytes` per
//!   stream on 1, however the workers interleave — the chunk-index claim
//!   protocol stores every unique fingerprint exactly once;
//! * with a single stream the submission order does not depend on the width,
//!   so on a multi-node cluster `backup_bytes` at width 4 matches width 1 bit
//!   for bit: same report, per-node usage, message counters and restore.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::sync::Arc;

/// Small chunks and super-chunks so even a few KB of payload crosses several
/// super-chunk and container boundaries.
fn equivalence_config(parallelism: usize) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(16 * 1024)
        .cache_containers(4)
        .parallelism(parallelism)
        .build()
        .expect("valid test config")
}

/// Builds one stream's payload by concatenating blocks from a shared pool, so
/// streams overlap with each other and with themselves.
fn compose(blocks: &[Vec<u8>], picks: &[usize]) -> Vec<u8> {
    let mut data = Vec::new();
    for &pick in picks {
        data.extend_from_slice(&blocks[pick % blocks.len()]);
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One `backup_streams` call on 4 workers agrees with per-stream
    /// `backup_bytes` on one, on a single exact-dedup node, for any payloads
    /// and stream counts.
    #[test]
    fn parallel_matches_serial_on_one_node(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..1024),
            1..6,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 0..16),
            1..4,
        ),
    ) {
        let streams: Vec<StreamPayload> = compositions
            .iter()
            .enumerate()
            .map(|(stream, picks)| {
                StreamPayload::new(stream as u64, format!("f{stream}"), compose(&blocks, picks))
            })
            .collect();

        // Serial reference: one client per stream, driven back to back.
        let serial_cluster =
            Arc::new(DedupCluster::with_similarity_router(1, equivalence_config(1)));
        let mut serial_restored = Vec::new();
        for stream in &streams {
            let client = BackupClient::new(serial_cluster.clone(), stream.stream_id);
            let report = client.backup_bytes(&stream.name, &stream.data).unwrap();
            serial_restored.push(serial_cluster.restore_file(report.file_id).unwrap());
        }
        serial_cluster.try_flush().unwrap();

        // The same streams through one `backup_streams` call, 4 workers.
        let parallel_cluster =
            Arc::new(DedupCluster::with_similarity_router(1, equivalence_config(4)));
        let reports = BackupClient::new(parallel_cluster.clone(), 0)
            .backup_streams(&streams)
            .unwrap();
        parallel_cluster.try_flush().unwrap();

        let serial_stats = serial_cluster.stats();
        let parallel_stats = parallel_cluster.stats();
        prop_assert_eq!(parallel_stats.logical_bytes, serial_stats.logical_bytes);
        prop_assert_eq!(
            parallel_stats.physical_bytes,
            serial_stats.physical_bytes,
            "the claim protocol must store each unique chunk exactly once"
        );
        prop_assert_eq!(parallel_stats.dedup_ratio, serial_stats.dedup_ratio);

        for ((report, stream), serial) in reports.iter().zip(&streams).zip(&serial_restored) {
            let restored = parallel_cluster.restore_file(report.file_id).unwrap();
            prop_assert_eq!(&restored, &stream.data, "parallel restore must match the original");
            prop_assert_eq!(&restored, serial, "parallel restore must match the serial path");
        }
    }

    /// With one stream the submission order does not depend on the width, so
    /// `backup_bytes` on a multi-node cluster is bit-for-bit equivalent at
    /// width 1 and width 4: same routing, same per-node usage, same message
    /// counters.  Payloads run to a few hundred chunks, so the width-4 side
    /// hashes several chunk ranges at once.
    #[test]
    fn single_stream_matches_serial_on_multinode(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..1024),
            1..6,
        ),
        picks in proptest::collection::vec(0usize..8, 0..512),
        nodes in 2usize..5,
    ) {
        let data = compose(&blocks, &picks);
        let backup = |parallelism: usize| {
            let cluster = Arc::new(DedupCluster::with_similarity_router(
                nodes,
                equivalence_config(parallelism),
            ));
            let report = BackupClient::new(cluster.clone(), 0)
                .backup_bytes("stream", &data)
                .unwrap();
            cluster.try_flush().unwrap();
            (cluster, report)
        };
        let (serial_cluster, serial_report) = backup(1);
        let (parallel_cluster, parallel_report) = backup(4);

        prop_assert_eq!(parallel_report, serial_report);
        let serial_stats = serial_cluster.stats();
        let parallel_stats = parallel_cluster.stats();
        prop_assert_eq!(parallel_stats.physical_bytes, serial_stats.physical_bytes);
        prop_assert_eq!(&parallel_stats.node_usage, &serial_stats.node_usage);
        prop_assert_eq!(parallel_stats.messages, serial_stats.messages);
        prop_assert_eq!(&serial_cluster.restore_file(serial_report.file_id).unwrap(), &data);
        prop_assert_eq!(&parallel_cluster.restore_file(parallel_report.file_id).unwrap(), &data);
    }
}
