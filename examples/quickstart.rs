//! Quickstart: back up two generations of a dataset to a small Σ-Dedupe cluster,
//! watch the second generation deduplicate, and restore a file.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sigma_dedupe::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-node cluster with the paper's default parameters: 4 KB static chunking,
    // SHA-1 fingerprints, 1 MB super-chunks, handprints of 8.
    let config = SigmaConfig::default();
    let cluster = Arc::new(DedupCluster::with_similarity_router(4, config));
    let client = BackupClient::new(cluster.clone(), 0);

    // Two backup generations of the same 16 MB "volume": the second differs in ~5%
    // of its 4 KB regions, as a nightly backup would.
    let generations = versioned_payloads(VersionedPayloadParams {
        seed: 7,
        versions: 2,
        version_size: 16 << 20,
        mutation_rate: 0.05,
    });

    println!(
        "backing up {} generations of {}",
        generations.len(),
        human_bytes(16 << 20)
    );
    let mut file_ids = Vec::new();
    for (name, data) in &generations {
        let report = client.backup_bytes(name, data)?;
        println!(
            "  {:<10}  logical {:>10}  transferred {:>10}  bandwidth saved {:>5.1}%",
            name,
            human_bytes(report.logical_bytes),
            human_bytes(report.transferred_bytes),
            report.bandwidth_saving() * 100.0
        );
        file_ids.push(report.file_id);
    }
    cluster.try_flush()?;

    let stats = cluster.stats();
    println!("\ncluster after backup:");
    println!("  nodes                : {}", stats.node_count);
    println!(
        "  logical bytes        : {}",
        human_bytes(stats.logical_bytes)
    );
    println!(
        "  physical bytes       : {}",
        human_bytes(stats.physical_bytes)
    );
    println!("  deduplication ratio  : {:.2}", stats.dedup_ratio);
    println!("  storage usage skew   : {:.3}", stats.usage_skew);
    println!(
        "  fingerprint lookups  : {} pre-routing + {} post-routing",
        stats.messages.prerouting_lookups, stats.messages.postrouting_lookups
    );

    // Restore the second generation and verify it byte-for-byte.
    let restored = cluster.restore_file(file_ids[1])?;
    assert_eq!(restored, generations[1].1, "restore must be bit-exact");
    println!(
        "\nrestored generation 2: {} (verified)",
        human_bytes(restored.len() as u64)
    );
    Ok(())
}
