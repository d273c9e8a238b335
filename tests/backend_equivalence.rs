//! Backend-equivalence property: the storage backend is a *medium*, never a
//! *policy*.  The same deterministic workload — generational backups, a
//! deletion, a mark-and-sweep GC, then restores — run twice against the
//! in-memory backend and once against the real-file backend must produce
//! bit-identical recipes, identical per-node dedup figures, identical post-GC
//! physical bytes, and byte-identical restored files.
//!
//! A second property pins the layout they share: every unique byte is written
//! to the medium once — as part of its container's object — and the journal
//! beside it carries metadata only.
//!
//! The file-backend runs live under a per-case scratch directory that is
//! removed on success (left behind on failure for inspection).

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

fn config_for(kind: BackendKind, root: Option<&std::path::Path>) -> SigmaConfig {
    let mut builder = SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(32 * 1024)
        .cache_containers(4)
        .gc_liveness_threshold(1.0)
        .storage_backend(kind);
    if let Some(root) = root {
        builder = builder.storage_root(root);
    }
    builder.build().expect("valid test config")
}

/// Everything the workload observably produces on one backend.
#[derive(Debug, PartialEq)]
struct Observed {
    recipes: Vec<FileRecipe>,
    node_figures: Vec<(u64, u64, u64, u64)>,
    logical_bytes: u64,
    physical_after_gc: u64,
    bytes_reclaimed: u64,
    restored: Vec<Vec<u8>>,
}

/// Runs the canonical workload on a 2-node cluster over `config`.
fn run_workload(config: SigmaConfig, streams: u64, generations: usize, size: usize) -> Observed {
    let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
    let mut file_ids = Vec::new();
    for stream in 0..streams {
        let dataset = generational_payloads(GenerationalPayloadParams {
            seed: 0xE0_0E ^ stream,
            generations,
            initial_size: size,
            mutation_rate: 0.15,
            growth_per_generation: size / 8,
        });
        for (generation, (name, data)) in dataset.iter().enumerate() {
            let client = BackupClient::with_generation(cluster.clone(), stream, generation as u64);
            let report = client
                .backup_bytes(name, data)
                .expect("payload backup cannot fail");
            file_ids.push(report.file_id);
        }
    }
    cluster.try_flush().expect("no faults armed");
    cluster.delete_generation(0).expect("generation 0 exists");
    let gc = cluster.collect_garbage().expect("no faults armed");

    let recipes: Vec<FileRecipe> = cluster
        .director()
        .recipes()
        .iter()
        .map(|r| (**r).clone())
        .collect();
    let stats = cluster.stats();
    let restored = file_ids
        .iter()
        .filter_map(|&id| cluster.restore_file(id).ok())
        .collect();
    for id in 0..2 {
        cluster
            .node_by_id(id)
            .unwrap()
            .verify_consistency()
            .expect("node is consistent post-GC");
    }
    Observed {
        recipes,
        node_figures: stats
            .nodes
            .iter()
            .map(|n| {
                (
                    n.logical_bytes,
                    n.physical_bytes,
                    n.total_chunks,
                    n.unique_chunks,
                )
            })
            .collect(),
        logical_bytes: stats.logical_bytes,
        physical_after_gc: stats.physical_bytes,
        bytes_reclaimed: gc.bytes_reclaimed,
        restored,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn both_backends_and_a_rerun_observe_identical_worlds(
        streams in 1u64..3,
        generations in 2usize..4,
        size in 16usize..64,
    ) {
        let size = size * 1024;
        let root = scratch_dir("backend-equivalence");

        let memory = run_workload(
            config_for(BackendKind::Memory, None), streams, generations, size);
        let rerun = run_workload(
            config_for(BackendKind::Memory, None), streams, generations, size);
        let file = run_workload(
            config_for(BackendKind::File, Some(&root)), streams, generations, size);

        prop_assert!(!memory.restored.is_empty(), "survivors must restore");
        prop_assert!(memory.bytes_reclaimed > 0, "expiry must reclaim space");
        prop_assert_eq!(&memory, &rerun);
        prop_assert_eq!(&memory, &file);
        std::fs::remove_dir_all(&root).expect("clean up scenario directory");
    }
}

/// Every backend stores a unique byte once: after ingesting `N` unique bytes
/// and flushing, the journal plus all container objects on each node's medium
/// add up to at most `1.05 · N` (the rest is metadata: records, frame headers,
/// handprints).
#[test]
fn every_backend_writes_each_unique_byte_once() {
    let root = scratch_dir("single-write");
    let data = random_bytes(3 << 20, 0x51_0E);
    for kind in [BackendKind::Memory, BackendKind::File] {
        let mut builder = SigmaConfig::builder().storage_backend(kind);
        if kind == BackendKind::File {
            builder = builder.storage_root(root.join(kind.as_str()));
        }
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            builder.build().expect("valid test config"),
        ));
        BackupClient::new(cluster.clone(), 0)
            .backup_bytes("unique.bin", &data)
            .expect("payload backup cannot fail");
        cluster.try_flush().expect("no faults armed");

        let mut medium_bytes = 0u64;
        for id in cluster.node_ids() {
            let node = cluster.node_by_id(id).unwrap();
            let backend = node.journal().backend();
            for obj in backend.list().unwrap() {
                medium_bytes += backend.object_len(obj).unwrap().unwrap_or(0);
            }
        }
        let n = data.len() as u64;
        assert!(
            medium_bytes >= n,
            "{kind}: {medium_bytes} < {n}: data missing"
        );
        assert!(
            medium_bytes * 100 <= n * 105,
            "{kind}: {medium_bytes} bytes on the medium for {n} unique bytes"
        );
    }
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}
