//! Property tests pinning the planned restore pipeline to the serial
//! reference path.
//!
//! `DedupCluster::restore_file` now plans per-container batched reads and
//! serves repeats from the container read cache;
//! `DedupCluster::restore_file_reference` remains the serial per-chunk
//! arbiter.  These properties assert the two are **byte-identical** —
//!
//! * across the in-memory and real-file backends,
//! * after every individual `Rebalancer::step` of a node-removal drain and
//!   through multi-hop tombstone chains,
//! * and after a mark-and-sweep GC has compacted containers —
//!
//! and that the pipeline's report keeps the perf contract the batching exists
//! for: one assembly copy per logical byte (`bytes_copied == logical_bytes`,
//! the double-copy regression guard) and read amplification that drops below
//! 1.0 when the read cache serves a repeat restore.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sigma-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Small super-chunks and containers so a few KB of payload spans several
/// containers (several pipeline groups), on the requested backend.
fn config_for(kind: BackendKind, root: Option<&std::path::Path>) -> SigmaConfig {
    let mut builder = SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        .gc_liveness_threshold(1.0)
        .storage_backend(kind);
    if let Some(root) = root {
        builder = builder.storage_root(root);
    }
    builder.build().expect("valid test config")
}

/// Builds one stream's payload by concatenating blocks from a shared pool, so
/// streams overlap (cluster-wide duplicates, repeat container visits).
fn compose(blocks: &[Vec<u8>], picks: &[usize]) -> Vec<u8> {
    let mut data = Vec::new();
    for &pick in picks {
        data.extend_from_slice(&blocks[pick % blocks.len()]);
    }
    data
}

fn backup_all(cluster: &Arc<DedupCluster>, datas: &[Vec<u8>]) -> Vec<(u64, Vec<u8>)> {
    let mut files = Vec::new();
    for (stream, data) in datas.iter().enumerate() {
        let client = BackupClient::new(cluster.clone(), stream as u64);
        let report = client
            .backup_bytes(&format!("stream-{stream}"), data)
            .expect("payload backup cannot fail");
        files.push((report.file_id, data.clone()));
    }
    cluster.try_flush().unwrap();
    files
}

/// Every file: reference output == expected bytes, and the pipelined restore
/// reproduces it exactly.
fn assert_pipeline_matches_reference(cluster: &DedupCluster, files: &[(u64, Vec<u8>)]) {
    for (file_id, expected) in files {
        let reference = cluster
            .restore_file_reference(*file_id)
            .unwrap_or_else(|e| panic!("file {file_id} failed the reference restore: {e}"));
        assert_eq!(&reference, expected, "reference corrupted file {file_id}");
        let (piped, report) = cluster
            .restore_file_with_report(*file_id)
            .unwrap_or_else(|e| panic!("file {file_id} failed the pipelined restore: {e}"));
        assert_eq!(
            &piped, expected,
            "pipelined restore corrupted file {file_id}"
        );
        assert_eq!(report.logical_bytes, expected.len() as u64);
        assert_eq!(report.chunks_read as usize, chunk_count(cluster, *file_id));
    }
}

fn chunk_count(cluster: &DedupCluster, file_id: u64) -> usize {
    cluster
        .director()
        .recipe(file_id)
        .expect("recipe exists")
        .chunks
        .len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-identity on every backend, steady state.
    #[test]
    fn pipelined_restore_matches_reference_on_every_backend(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..768),
            1..5,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..24),
            1..4,
        ),
    ) {
        let datas: Vec<Vec<u8>> = compositions.iter().map(|p| compose(&blocks, p)).collect();
        for kind in [BackendKind::Memory, BackendKind::File] {
            let root = (kind == BackendKind::File).then(|| scratch_dir("restore-eq"));
            let config = config_for(kind, root.as_deref());
            let cluster = Arc::new(DedupCluster::with_similarity_router(3, config));
            let files = backup_all(&cluster, &datas);
            assert_pipeline_matches_reference(&cluster, &files);
            if let Some(root) = root {
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }

    /// Byte-identity after *each individual* container migration of a drain,
    /// and through the multi-hop tombstone chains repeated removals leave.
    #[test]
    fn pipelined_restore_matches_reference_mid_rebalance(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..768),
            1..4,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 1..16),
            1..3,
        ),
    ) {
        let datas: Vec<Vec<u8>> = compositions.iter().map(|p| compose(&blocks, p)).collect();
        let config = config_for(BackendKind::Memory, None);
        let cluster = Arc::new(DedupCluster::with_similarity_router(3, config));
        let files = backup_all(&cluster, &datas);

        let mut rebalancer = cluster.begin_remove_node(0).expect("3-node cluster");
        while rebalancer.step().expect("no faults in this test").is_some() {
            assert_pipeline_matches_reference(&cluster, &files);
        }
        rebalancer.run().expect("no faults in this test");
        assert_pipeline_matches_reference(&cluster, &files);

        // Second removal: chunks first written to node 0 may now sit behind a
        // 0 -> 1 -> 2 forwarding chain; the planner must follow every hop.
        cluster.remove_node(1).expect("2 nodes active");
        prop_assert_eq!(cluster.node_count(), 1);
        assert_pipeline_matches_reference(&cluster, &files);
    }

    /// Byte-identity after deletions and a mark-and-sweep GC have compacted
    /// containers (records relocated, read-cache entries invalidated).
    #[test]
    fn pipelined_restore_matches_reference_after_gc_compaction(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 64..768),
            1..4,
        ),
        compositions in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..16),
            2..4,
        ),
    ) {
        let datas: Vec<Vec<u8>> = compositions.iter().map(|p| compose(&blocks, p)).collect();
        let config = config_for(BackendKind::Memory, None);
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let files = backup_all(&cluster, &datas);

        // Warm the read cache on the survivors, delete the first file, sweep.
        assert_pipeline_matches_reference(&cluster, &files);
        cluster.delete_file(files[0].0).expect("file exists");
        cluster.collect_garbage().expect("no faults in this test");
        assert_pipeline_matches_reference(&cluster, &files[1..]);
    }
}

/// The double-copy regression guard (deterministic, not property-based): on
/// the happy path every logical byte is written into the output exactly once
/// — the `Vec`-per-chunk + `extend_from_slice` second copy of the reference
/// path is gone.
#[test]
fn happy_path_copies_each_byte_exactly_once() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        2,
        config_for(BackendKind::Memory, None),
    ));
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
    let client = BackupClient::new(cluster.clone(), 0);
    let report = client.backup_bytes("copy-once.bin", &data).unwrap();
    cluster.try_flush().unwrap();
    let (restored, restore) = cluster.restore_file_with_report(report.file_id).unwrap();
    assert_eq!(restored, data);
    assert_eq!(
        restore.bytes_copied,
        data.len() as u64,
        "restore copied bytes more than once"
    );
    assert_eq!(restore.serial_fallback_chunks, 0, "no fallback expected");
}

/// On a persistent backend a repeat restore is served by the container read
/// cache: hits are counted and read amplification drops below 1.
#[test]
fn repeat_restore_on_file_backend_hits_the_read_cache() {
    let root = scratch_dir("restore-cache");
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        2,
        config_for(BackendKind::File, Some(&root)),
    ));
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
    let client = BackupClient::new(cluster.clone(), 0);
    let report = client.backup_bytes("cached.bin", &data).unwrap();
    cluster.try_flush().unwrap();

    let (cold, first) = cluster.restore_file_with_report(report.file_id).unwrap();
    assert_eq!(cold, data);
    assert_eq!(first.cache_hits, 0, "cold cache cannot hit");
    assert!(
        first.backend_bytes_read > 0,
        "cold restore reads the medium"
    );
    assert_eq!(
        first.coalesced_runs, first.cache_misses,
        "one whole-section read per cache miss"
    );

    let (warm, second) = cluster.restore_file_with_report(report.file_id).unwrap();
    assert_eq!(warm, data);
    assert!(second.cache_hits > 0, "repeat restore must hit the cache");
    assert!(
        second.backend_bytes_read < first.backend_bytes_read,
        "cache hits must reduce backend reads: {} !< {}",
        second.backend_bytes_read,
        first.backend_bytes_read
    );
    assert!(second.read_amplification() < 1.0);
    assert_eq!(second.coalesced_runs, second.cache_misses);

    let _ = std::fs::remove_dir_all(root);
}
