//! Backup and restore of a small file tree from multiple clients, exercising the
//! director's sessions and file recipes, chunk-level integrity on restore, and the
//! bandwidth saving reported to each source-deduplicating client.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example backup_restore
//! ```

use sigma_dedupe::prelude::*;
use std::sync::Arc;

/// Builds a small generated "project tree": sources, a binary, and duplicated assets.
fn project_tree(seed: u64) -> Vec<(String, Vec<u8>)> {
    let shared_asset = random_bytes(2 << 20, seed + 1000);
    let mut files = vec![
        ("src/main.rs".to_string(), random_bytes(48 * 1024, seed)),
        ("src/lib.rs".to_string(), random_bytes(96 * 1024, seed + 1)),
        (
            "target/app.bin".to_string(),
            random_bytes(6 << 20, seed + 2),
        ),
        ("assets/logo.png".to_string(), shared_asset.clone()),
        // The same asset appears twice under different names — classic duplication.
        ("docs/logo-copy.png".to_string(), shared_asset),
    ];
    // A log file that is mostly zeros compresses (deduplicates) internally.
    files.push(("logs/run.log".to_string(), vec![0u8; 3 << 20]));
    files
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        4,
        SigmaConfig::default(),
    ));

    // Two clients back up almost identical project trees (e.g. two developer
    // machines); the second client's backup is nearly free.
    let mut table = TextTable::new(vec!["client", "file", "logical", "transferred"]);
    let mut recipes = Vec::new();
    for (client_id, seed) in [(1u64, 42u64), (2u64, 42u64)] {
        let client = BackupClient::new(cluster.clone(), client_id);
        for (name, data) in project_tree(seed) {
            let report = client.backup_bytes(&name, &data)?;
            table.add_row(vec![
                format!("client-{}", client_id),
                name.clone(),
                human_bytes(report.logical_bytes),
                human_bytes(report.transferred_bytes),
            ]);
            recipes.push((client_id, name, data, report.file_id));
        }
    }
    cluster.try_flush()?;
    println!("{}", table.render());

    // Verify every file restores bit-exactly through its recipe.
    for (client_id, name, original, file_id) in &recipes {
        let restored = cluster.restore_file(*file_id)?;
        assert_eq!(
            &restored, original,
            "client {} file {} must restore exactly",
            client_id, name
        );
    }
    println!(
        "restored {} files across {} backup sessions — all bit-exact",
        recipes.len(),
        2
    );

    let stats = cluster.stats();
    println!(
        "cluster stored {} for {} of logical data (DR {:.2}) across {} nodes",
        human_bytes(stats.physical_bytes),
        human_bytes(stats.logical_bytes),
        stats.dedup_ratio,
        stats.node_count
    );
    println!(
        "director tracked {} files in {} sessions",
        cluster.director().file_count(),
        cluster.director().session_count()
    );
    Ok(())
}
