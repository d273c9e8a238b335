//! The tentpole end-to-end proof for the real-file storage backend: data
//! ingested through the **full middleware stack** survives a complete loss of
//! process state.
//!
//! 1. `SigmaConfigBuilder::file_storage` picks the persistence mode and the
//!    cluster is built from it;
//! 2. tenants back up versioned payloads through auth + admission + quota +
//!    logging into a two-node cluster;
//! 3. every in-memory handle — stack, cluster, nodes, journals — is dropped;
//!    only the node directories (`journal.wal` + `container-*.sc`) remain;
//! 4. each node is reopened on its directory with [`DedupNode::open`] and
//!    every file is reassembled from its recipe (the client-side catalog a
//!    real backup application keeps) and compared byte-for-byte;
//! 5. a second scenario tears the journal tail mid-frame before the reopen,
//!    proving the torn suffix is discarded and the prior ack point restored;
//! 6. a third restarts nodes in place with `DedupCluster::restart_node`,
//!    which reopens a file-backed node's directory and a memory node's
//!    surviving backend;
//! 7. a cluster built twice over one storage root serves the first one's
//!    acknowledged chunks, and an empty medium opens as a fresh node.

use sigma_dedupe::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Extra seed from the environment so the CI matrix varies the workloads.
fn env_seed() -> u64 {
    std::env::var("SIGMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A unique scratch directory for one test, removed on success.
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

/// The stack the tenants back up through: auth → admission → logging.
fn service_builder() -> ServiceBuilder {
    ServiceBuilder::new()
        .auth(
            TokenAuth::new()
                .tenant("acme", "s3cret")
                .tenant("globex", "t0ken"),
        )
        .admission(AdmissionControl::new(64, 256 << 20))
        .logging()
}

fn file_sigma_config(root: &std::path::Path) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(8 * 1024)
        .chunker(ChunkerParams::fixed(1024))
        .container_capacity(32 * 1024)
        .cache_containers(4)
        .file_storage(root)
        .build()
        .expect("valid test config")
}

/// Opens node `id` on its directory under `config`, as a new process would.
fn open_dir(id: usize, config: &SigmaConfig) -> (DedupNode, RecoveryReport) {
    let dir = config.node_storage_dir(id).expect("file backend has a dir");
    let medium = FileBackend::open(dir).expect("node directory opens");
    DedupNode::open(id, config, Arc::new(medium)).expect("directory is recoverable")
}

/// Every file under `root` with its bytes, sorted by path.
fn snapshot_tree(root: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("readable file");
                files.push((path, bytes));
            }
        }
    }
    files.sort();
    files
}

/// Reassembles one file from its recipe against recovered nodes — what a
/// restore client does once the cluster is back.
fn reassemble(recipe: &FileRecipe, nodes: &HashMap<usize, DedupNode>) -> Vec<u8> {
    let mut data = Vec::with_capacity(recipe.size as usize);
    for entry in &recipe.chunks {
        let chunk = nodes[&entry.node]
            .read_chunk(&entry.fingerprint)
            .unwrap_or_else(|e| panic!("chunk of file {} lost: {}", recipe.file_id, e));
        assert_eq!(chunk.len() as u32, entry.len, "recipe length drift");
        data.extend_from_slice(&chunk);
    }
    data
}

#[test]
fn full_stack_ingest_survives_process_restart() {
    let root = scratch_dir("persistent-restart");
    let sigma = file_sigma_config(&root);

    // Phase 1: ingest through the full stack, then drop every handle.
    let (recipes, expected) = {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, sigma.clone()));
        let stack = service_builder().build(cluster.clone());

        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut request_id = 1u64;
        for (tenant, token, seed) in [("acme", "s3cret", 0xA11CEu64), ("globex", "t0ken", 0xB0B)] {
            for (name, data) in versioned_payloads(VersionedPayloadParams {
                seed: seed ^ env_seed().wrapping_mul(0x9E37_79B9),
                versions: 3,
                version_size: 96 * 1024,
                mutation_rate: 0.1,
            }) {
                let resp = stack.call(
                    RequestEnvelope::new(
                        request_id,
                        tenant,
                        Operation::Backup {
                            file_name: name,
                            generation: 0,
                        },
                    )
                    .with_token(token)
                    .with_payload(data.clone()),
                );
                assert_eq!(resp.code, ServiceCode::Ok, "authorized backup succeeds");
                let file_id = resp
                    .metadata_u64(sigma_dedupe::service::backend::FILE_ID_KEY)
                    .expect("backup returns a file id");
                expected.insert(file_id, data);
                request_id += 1;
            }
        }
        cluster.try_flush().expect("no faults armed");

        // The recipes are the client-side catalog; they are not cluster state.
        let recipes: Vec<Arc<FileRecipe>> = cluster.director().recipes();
        assert_eq!(recipes.len(), expected.len());
        (recipes, expected)
        // stack, cluster, nodes, journals all dropped here.
    };
    assert!(
        root.join("node-0").join("journal.wal").exists()
            && root.join("node-1").join("journal.wal").exists(),
        "both nodes must have journaled to disk"
    );

    // Phase 2: re-open both nodes from nothing but their directories.
    let mut nodes: HashMap<usize, DedupNode> = HashMap::new();
    for id in 0..2 {
        let (node, report) = open_dir(id, &sigma);
        assert!(report.bytes_replayed > 0, "node {} replayed nothing", id);
        assert_eq!(report.bytes_discarded, 0, "clean shutdown leaves no tail");
        assert!(
            report.backend_objects_verified > 0,
            "node {} verified no container objects",
            id
        );
        assert_eq!(report.containers_discarded, 0, "every object is intact");
        assert_eq!(
            report.orphan_objects_swept, 0,
            "a clean shutdown leaves no orphan"
        );
        node.verify_consistency()
            .expect("recovered node is consistent");
        nodes.insert(id, node);
    }

    // Phase 3: every file reassembles byte-for-byte.
    for recipe in &recipes {
        let data = reassemble(recipe, &nodes);
        assert_eq!(
            &data, &expected[&recipe.file_id],
            "file {} corrupted across the restart",
            recipe.file_id
        );
    }
    drop(nodes);
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}

#[test]
fn torn_journal_tail_recovers_to_the_last_ack_point() {
    let root = scratch_dir("persistent-torn");
    let sigma = file_sigma_config(&root);

    // Two acknowledged waves on one node; remember the first ack point.
    let (first_wave, first_ack, second_wave) = {
        let cluster = Arc::new(DedupCluster::with_similarity_router(1, sigma.clone()));
        let client = BackupClient::new(cluster.clone(), 0);
        let wave = |tag: u64| -> Vec<(FileBackupReport, Vec<u8>)> {
            (0..3u64)
                .map(|i| {
                    let data = random_bytes(
                        48 * 1024,
                        (0x7EA8 + tag * 10 + i) ^ env_seed().wrapping_mul(0x9E37_79B9),
                    );
                    let report = client
                        .backup_bytes(&format!("w{tag}-f{i}"), &data)
                        .expect("backup cannot fail");
                    (report, data)
                })
                .collect()
        };
        let first = wave(0);
        cluster.try_flush().expect("no faults armed");
        let first_ack = cluster.node_by_id(0).unwrap().journal().len_bytes();
        let second = wave(1);
        cluster.try_flush().expect("no faults armed");
        let first_recipes: Vec<Arc<FileRecipe>> = first
            .iter()
            .map(|(r, _)| cluster.director().recipe(r.file_id).unwrap())
            .collect();
        let second_len = second.len();
        (
            first
                .into_iter()
                .zip(first_recipes)
                .map(|((_, data), recipe)| (recipe, data))
                .collect::<Vec<_>>(),
            first_ack,
            second_len,
        )
    };
    assert!(second_wave > 0);

    // The crash: the real journal file loses everything past the first ack
    // point, plus it keeps half of the frame that was being written.
    let journal_path = sigma
        .node_storage_dir(0)
        .expect("file backend has a dir")
        .join("journal.wal");
    let bytes = std::fs::read(&journal_path).expect("journal exists");
    assert!(bytes.len() > first_ack, "second wave appended records");
    let torn = first_ack + (bytes.len() - first_ack) / 2;
    std::fs::write(&journal_path, &bytes[..torn]).expect("tear the tail");

    let (node, report) = open_dir(0, &sigma);
    assert!(
        report.bytes_discarded > 0,
        "the torn suffix must be discarded, not replayed"
    );
    node.verify_consistency()
        .expect("consistent after the tear");
    // Everything acknowledged before the tear is byte-identical.
    for (recipe, data) in &first_wave {
        let mut restored = Vec::new();
        for entry in &recipe.chunks {
            restored.extend_from_slice(&node.read_chunk(&entry.fingerprint).unwrap());
        }
        assert_eq!(
            &restored, data,
            "file {} corrupted by the tear",
            recipe.file_id
        );
    }
    drop(node);
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}

#[test]
fn restart_node_picks_the_medium_by_backend() {
    let root = scratch_dir("restart-medium");
    let file = file_sigma_config(&root);
    let volatile = SigmaConfig {
        storage_backend: BackendKind::Memory,
        storage_root: None,
        ..file.clone()
    };
    for (config, reopens) in [(file, true), (volatile, false)] {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config));
        let client = BackupClient::new(cluster.clone(), 0);
        let files: Vec<(u64, Vec<u8>)> = (0..4u64)
            .map(|i| {
                let data = random_bytes(40 * 1024, (0x5E1F + i) ^ env_seed());
                let report = client
                    .backup_bytes(&format!("f{i}"), &data)
                    .expect("backup cannot fail");
                (report.file_id, data)
            })
            .collect();
        cluster.try_flush().expect("no faults armed");
        let medium = |id: usize| {
            let node = cluster.node_by_id(id).expect("a member");
            node.journal().backend()
        };
        for id in cluster.node_ids() {
            let before = medium(id);
            cluster.restart_node(id).expect("journaled node restarts");
            assert_eq!(
                !Arc::ptr_eq(&before, &medium(id)),
                reopens,
                "node {id} on {:?}: a file-backed restart re-opens the directory, \
                 a volatile one keeps the only copy of its medium",
                cluster.config().storage_backend
            );
        }
        for (file_id, data) in &files {
            let restored = cluster.restore_file(*file_id).expect("acked file restores");
            assert_eq!(&restored, data, "file {file_id} corrupted by the restart");
        }
    }
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}

#[test]
fn a_new_file_backed_node_writes_no_journal_object() {
    let root = scratch_dir("fresh-node");
    let config = file_sigma_config(&root);
    let dir = config.node_storage_dir(0).expect("file backend");
    let listing = || -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("node dir is readable")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    };

    // The node opens its empty directory and starts its journal there without
    // writing it: a `write_object(Journal, ..)` would leave an empty
    // `journal.wal` behind (after a `journal.wal.tmp`, its fsync and a rename).
    let node = DedupNode::new(0, &config);
    assert_eq!(listing(), Vec::<String>::new());

    // The first append creates the log, and the node restarts from it.
    let chunks: Vec<Vec<u8>> = (0..8u64)
        .map(|i| random_bytes(1024, (0xF4E5 + i) ^ env_seed()))
        .collect();
    let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks.clone());
    node.process_super_chunk(0, &sc.view(), &sc.handprint(config.handprint_size))
        .expect("stores");
    node.try_flush().expect("no faults armed");
    assert!(listing().contains(&"journal.wal".to_string()));
    drop(node);
    let (node, report) = open_dir(0, &config);
    assert_eq!(report.bytes_discarded, 0);
    for (descriptor, chunk) in sc.descriptors().iter().zip(&chunks) {
        assert_eq!(
            &node.read_chunk(&descriptor.fingerprint).expect("acked"),
            chunk
        );
    }
    drop(node);
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}

#[test]
fn a_cluster_built_again_over_its_storage_root_serves_the_acked_chunks() {
    let root = scratch_dir("reopen-root");
    let config = file_sigma_config(&root);
    let (recipes, expected) = {
        let cluster = Arc::new(DedupCluster::with_similarity_router(2, config.clone()));
        let client = BackupClient::new(cluster.clone(), 0);
        let expected: HashMap<u64, Vec<u8>> = (0..4u64)
            .map(|i| {
                let data = random_bytes(40 * 1024, (0x2E0F + i) ^ env_seed());
                let report = client
                    .backup_bytes(&format!("f{i}"), &data)
                    .expect("backup cannot fail");
                (report.file_id, data)
            })
            .collect();
        cluster.try_flush().expect("no faults armed");
        (cluster.director().recipes(), expected)
    };
    let before = snapshot_tree(&root);
    assert!(
        before.len() > 2,
        "both nodes wrote a journal and containers"
    );

    // The same constructor over the same root: every node reopens its
    // directory, sweeping, truncating and discarding nothing.
    let cluster = DedupCluster::with_similarity_router(2, config);
    assert_eq!(
        snapshot_tree(&root),
        before,
        "opening left the medium as it was"
    );
    for recipe in &recipes {
        let mut data = Vec::with_capacity(recipe.size as usize);
        for entry in &recipe.chunks {
            let chunk = cluster
                .read_chunk(entry.node, &entry.fingerprint)
                .unwrap_or_else(|e| panic!("chunk of file {} lost: {}", recipe.file_id, e));
            data.extend_from_slice(&chunk);
        }
        assert_eq!(
            &data, &expected[&recipe.file_id],
            "file {} corrupted across the reopen",
            recipe.file_id
        );
    }
    drop(cluster);
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}

#[test]
fn an_empty_medium_opens_as_a_fresh_node() {
    let root = scratch_dir("empty-medium");
    let config = file_sigma_config(&root);
    let volatile = SigmaConfig {
        storage_backend: BackendKind::Memory,
        storage_root: None,
        ..config.clone()
    };
    let fresh = RecoveryReport {
        node_id: 3,
        ..RecoveryReport::default()
    };
    let (_, report) = DedupNode::open(3, &volatile, Arc::new(MemoryBackend::new()))
        .expect("an empty memory medium opens");
    assert_eq!(report, fresh);
    let (node, report) = open_dir(3, &config);
    assert_eq!(report, fresh);
    assert_eq!(node.storage_usage(), 0);
    assert_eq!(node.journal().len_bytes(), 0);
    drop(node);
    std::fs::remove_dir_all(&root).expect("clean up scenario directory");
}
