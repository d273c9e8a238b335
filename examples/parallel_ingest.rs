//! Parallel ingest: many backup streams through one
//! `BackupClient::backup_streams` call on a worker pool, with a
//! serial-vs-parallel throughput comparison and proof that the parallel path
//! restores byte-identically.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example parallel_ingest
//! ```

use sigma_dedupe::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const STREAMS: u64 = 8;
const STREAM_BYTES: usize = 2 << 20;

fn streams() -> Vec<StreamPayload> {
    (0..STREAMS)
        .flat_map(|s| {
            versioned_payloads(VersionedPayloadParams {
                seed: 0xA11CE + s,
                versions: 2,
                version_size: STREAM_BYTES,
                mutation_rate: 0.05,
            })
            .into_iter()
            .map(move |(name, data)| StreamPayload::new(s, format!("user-{s}/{name}"), data))
        })
        .collect()
}

fn main() {
    let inputs = streams();
    let total: u64 = inputs.iter().map(|s| s.data.len() as u64).sum();
    println!(
        "Parallel ingest: {} streams, {} total, 4-node cluster\n",
        STREAMS,
        human_bytes(total)
    );

    // Serial baseline: one BackupClient per stream, driven back to back.
    let serial_cluster = Arc::new(DedupCluster::with_similarity_router(
        4,
        SigmaConfig::default(),
    ));
    let start = Instant::now();
    for input in &inputs {
        let client = BackupClient::new(serial_cluster.clone(), input.stream_id);
        client
            .backup_bytes(&input.name, &input.data)
            .expect("serial backup");
    }
    serial_cluster
        .try_flush()
        .expect("no faults in the serial run");
    let serial_secs = start.elapsed().as_secs_f64();

    // The same streams through one backup_streams call, on a worker pool
    // sized to the machine.
    let config = SigmaConfig::builder().parallelism(0).build().unwrap();
    let threads = config.effective_parallelism();
    let parallel_cluster = Arc::new(DedupCluster::with_similarity_router(4, config));
    let start = Instant::now();
    let reports = BackupClient::new(parallel_cluster.clone(), 0)
        .backup_streams(&inputs)
        .expect("parallel backup");
    parallel_cluster
        .try_flush()
        .expect("no faults in the parallel run");
    let parallel_secs = start.elapsed().as_secs_f64();

    // Every file restores byte-identically through the parallel path.
    for (report, input) in reports.iter().zip(&inputs) {
        let restored = parallel_cluster
            .restore_file(report.file_id)
            .expect("restore");
        assert_eq!(restored, input.data, "{} must restore intact", input.name);
    }

    let mut table = TextTable::new(vec!["path", "threads", "seconds", "MB/s", "dedup ratio"]);
    let serial_stats = serial_cluster.stats();
    let parallel_stats = parallel_cluster.stats();
    table.add_row(vec![
        "serial client".to_string(),
        "1".to_string(),
        format!("{serial_secs:.2}"),
        format!("{:.1}", total as f64 / 1e6 / serial_secs),
        format!("{:.2}", serial_stats.dedup_ratio),
    ]);
    table.add_row(vec![
        "backup_streams".to_string(),
        threads.to_string(),
        format!("{parallel_secs:.2}"),
        format!("{:.1}", total as f64 / 1e6 / parallel_secs),
        format!("{:.2}", parallel_stats.dedup_ratio),
    ]);
    println!("{}", table.render());
    println!(
        "\nAll {} files restored byte-identically through the parallel path.",
        reports.len()
    );
}
