//! Real-file persistence: back a file tree up into a file-backed cluster,
//! throw away every in-memory handle (simulating a process exit), open the
//! cluster again over the same directories, and restore byte-exactly.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example persistent_restart
//! ```
//!
//! The storage directory defaults to a scratch path under the system temp dir,
//! removed at the end; set `SIGMA_STORAGE_DIR` to keep it there and re-run:
//! the second run's cluster opens the first run's containers and index, so
//! its backup of the same tree transfers nothing.

use sigma_dedupe::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

const NODES: usize = 2;

fn storage_root() -> PathBuf {
    std::env::var_os("SIGMA_STORAGE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("sigma-persistent-restart-{}", std::process::id()))
        })
}

fn config(root: &std::path::Path) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .file_storage(root)
        .build()
        .expect("valid example config")
}

/// Sealed containers across the cluster's nodes.
fn containers(cluster: &DedupCluster) -> u64 {
    cluster
        .stats()
        .nodes
        .iter()
        .map(|n| n.containers.sealed_containers)
        .sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = storage_root();
    let config = config(&root);

    // ---- "process one": ingest and exit -------------------------------------
    // The recipes are the client-side catalog a real backup application keeps;
    // everything else lives only in the node directories after this block.
    let (recipes, originals): (Vec<Arc<FileRecipe>>, HashMap<u64, Vec<u8>>) = {
        let cluster = Arc::new(DedupCluster::with_similarity_router(NODES, config.clone()));
        println!(
            "opened {}: {} containers already on disk",
            root.display(),
            containers(&cluster)
        );
        let client = BackupClient::new(cluster.clone(), 1);
        let shared = random_bytes(1 << 20, 77);
        let tree = vec![
            ("src/main.rs".to_string(), random_bytes(64 * 1024, 1)),
            ("assets/video.bin".to_string(), random_bytes(3 << 20, 2)),
            ("assets/logo.png".to_string(), shared.clone()),
            ("docs/logo-copy.png".to_string(), shared),
        ];
        let mut originals = HashMap::new();
        for (name, data) in tree {
            let report = client.backup_bytes(&name, &data)?;
            println!(
                "backed up {:<20} {:>9} logical, {:>9} transferred",
                name,
                human_bytes(report.logical_bytes),
                human_bytes(report.transferred_bytes)
            );
            originals.insert(report.file_id, data);
        }
        cluster.try_flush()?;
        println!("acknowledged: {} containers on disk", containers(&cluster));
        (cluster.director().recipes(), originals)
        // cluster, nodes, journals: all dropped here.
    };

    // ---- "process two": open the same directories again ---------------------
    let cluster = DedupCluster::with_similarity_router(NODES, config);
    for node in cluster.nodes() {
        let stats = node.stats();
        println!(
            "node {} reopened: {} containers, {} stored",
            stats.node_id,
            stats.containers.sealed_containers,
            human_bytes(stats.physical_bytes)
        );
        node.verify_consistency()
            .map_err(|e| format!("node {} inconsistent after restart: {}", stats.node_id, e))?;
    }

    // Reassemble every file from its recipe against the reopened nodes.
    for recipe in &recipes {
        let mut restored = Vec::with_capacity(recipe.size as usize);
        for entry in &recipe.chunks {
            restored.extend_from_slice(&cluster.read_chunk(entry.node, &entry.fingerprint)?);
        }
        assert_eq!(
            &restored, &originals[&recipe.file_id],
            "{} must survive the restart byte-identically",
            recipe.name
        );
        println!(
            "restored {:<20} bit-exact ({})",
            recipe.name,
            human_bytes(recipe.size)
        );
    }
    println!(
        "persistent_restart: restart OK, {} files bit-exact",
        recipes.len()
    );

    if std::env::var_os("SIGMA_STORAGE_DIR").is_none() {
        drop(cluster);
        std::fs::remove_dir_all(&root)?;
        println!("removed scratch directory (set SIGMA_STORAGE_DIR to keep state)");
    }
    Ok(())
}
