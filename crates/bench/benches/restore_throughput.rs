//! Restore throughput: the planned restore pipeline against the serial
//! per-chunk reference path.
//!
//! Worker fan-out 1/2/4 on the in-memory and real-file backends, with
//! criterion's repeated iterations measuring the *warm* steady state where the
//! container read cache serves repeat visits from RAM.
//!
//! The banner prints a one-shot comparison table with the pipeline's own
//! report counters — chunks, coalesced runs, cache hit rate and read
//! amplification — so a perf change shows up next to the mechanism that
//! caused it.  Every banner pass checks each restored file against the bytes
//! backed up, after its clock stops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_core::{BackupClient, DedupCluster, RestoreReport, SigmaConfig};
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const STREAMS: u64 = 4;
const VERSION_BYTES: usize = 1 << 20;
const WORKERS: [usize; 3] = [1, 2, 4];

fn bench_config(file_root: Option<&Path>) -> SigmaConfig {
    let mut builder = SigmaConfig::builder()
        .parallelism(1)
        .chunker(sigma_chunking::ChunkerParams::cdc(
            1 << 10,
            4 << 10,
            16 << 10,
        ))
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024);
    if let Some(root) = file_root {
        builder = builder.file_storage(root);
    }
    builder.build().expect("valid bench config")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sigma-restore-bench-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after the epoch")
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// A 2-node cluster pre-loaded with two overlapping versions per stream, so
/// restored files share containers and the read cache has repeats to serve.
/// Returns each file's id with the bytes backed up.
fn populated_cluster(file_root: Option<&Path>) -> (Arc<DedupCluster>, Vec<(u64, Vec<u8>)>) {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        2,
        bench_config(file_root),
    ));
    let mut files = Vec::new();
    for stream in 0..STREAMS {
        let client = BackupClient::new(cluster.clone(), stream);
        for (name, data) in versioned_payloads(VersionedPayloadParams {
            seed: 0x4E57 + stream,
            versions: 2,
            version_size: VERSION_BYTES,
            mutation_rate: 0.05,
        }) {
            let report = client
                .backup_bytes(&format!("u{stream}/{name}"), &data)
                .expect("payload backup cannot fail");
            files.push((report.file_id, data));
        }
    }
    cluster.flush();
    (cluster, files)
}

fn total_bytes(files: &[(u64, Vec<u8>)]) -> u64 {
    files.iter().map(|(_, data)| data.len() as u64).sum()
}

/// Panics unless every restored file equals the bytes backed up.
fn check_restored(files: &[(u64, Vec<u8>)], restored: &[Vec<u8>]) {
    for ((file_id, expected), got) in files.iter().zip(restored) {
        assert!(got == expected, "restore corrupted file {file_id}");
    }
}

/// Restores every file once through the pipeline, returning elapsed MB/s and
/// the summed pipeline report; the bytes are checked after the clock stops.
fn pipelined_pass(
    cluster: &DedupCluster,
    files: &[(u64, Vec<u8>)],
    workers: usize,
) -> (f64, RestoreReport) {
    let mut restored = Vec::with_capacity(files.len());
    let mut summed = RestoreReport::default();
    let sw = sigma_metrics::Stopwatch::start();
    for (file_id, _) in files {
        let (bytes, report) = cluster
            .restore_file_pipelined(*file_id, workers)
            .expect("restore cannot fail in bench");
        restored.push(bytes);
        summed.logical_bytes += report.logical_bytes;
        summed.chunks_read += report.chunks_read;
        summed.containers_read += report.containers_read;
        summed.cache_hits += report.cache_hits;
        summed.cache_misses += report.cache_misses;
        summed.backend_bytes_read += report.backend_bytes_read;
        summed.coalesced_runs += report.coalesced_runs;
    }
    let mbps = sw.stop(total_bytes(files)).mb_per_sec();
    check_restored(files, &restored);
    (mbps, summed)
}

/// Restores every file once through the serial reference, returning elapsed
/// MB/s; the bytes are checked after the clock stops.
fn reference_pass(cluster: &DedupCluster, files: &[(u64, Vec<u8>)]) -> f64 {
    let sw = sigma_metrics::Stopwatch::start();
    let restored: Vec<Vec<u8>> = files
        .iter()
        .map(|(file_id, _)| {
            cluster
                .restore_file_reference(*file_id)
                .expect("restore cannot fail in bench")
        })
        .collect();
    let mbps = sw.stop(total_bytes(files)).mb_per_sec();
    check_restored(files, &restored);
    mbps
}

fn report() {
    sigma_bench::banner(
        "restore throughput",
        "planned pipeline (batched reads + cache + fan-out) vs serial per-chunk reference",
    );
    let mut table = sigma_metrics::report::TextTable::new(vec![
        "backend",
        "path",
        "MB/s",
        "chunks",
        "runs",
        "cache hit rate",
        "read amp",
    ]);
    for (label, file_backed) in [("memory", false), ("file", true)] {
        let root = file_backed.then(scratch_dir);
        let (cluster, files) = populated_cluster(root.as_deref());
        let ref_mbps = reference_pass(&cluster, &files);
        table.add_row(vec![
            label.to_string(),
            "reference".to_string(),
            format!("{ref_mbps:.1}"),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
        for workers in WORKERS {
            let (mbps, r) = pipelined_pass(&cluster, &files, workers);
            let hits = r.cache_hits + r.cache_misses;
            let hit_rate = if hits > 0 {
                format!("{:.2}", r.cache_hits as f64 / hits as f64)
            } else {
                "-".to_string()
            };
            table.add_row(vec![
                label.to_string(),
                format!("pipelined x{workers}"),
                format!("{mbps:.1}"),
                r.chunks_read.to_string(),
                r.coalesced_runs.to_string(),
                hit_rate,
                format!("{:.2}", r.read_amplification()),
            ]);
        }
        if let Some(root) = root {
            drop(cluster);
            let _ = std::fs::remove_dir_all(root);
        }
    }
    sigma_bench::print_table(
        "restore of 8 files, each byte-identical to its input (2 nodes, 256 KiB containers; pipelined rows run warm)",
        &table.render(),
    );
}

fn bench_restore(c: &mut Criterion) {
    report();
    for (label, file_backed) in [("mem", false), ("file", true)] {
        let root = file_backed.then(scratch_dir);
        let (cluster, files) = populated_cluster(root.as_deref());
        let total = total_bytes(&files);
        let mut group = c.benchmark_group("restore");
        group.throughput(Throughput::Bytes(total));
        group.bench_function(&format!("{label}/reference"), |b| {
            b.iter(|| {
                for (file_id, _) in &files {
                    std::hint::black_box(
                        cluster
                            .restore_file_reference(*file_id)
                            .expect("restore cannot fail in bench"),
                    );
                }
            })
        });
        for workers in WORKERS {
            group.bench_function(&format!("{label}/pipelined_w{workers}"), |b| {
                b.iter(|| {
                    for (file_id, _) in &files {
                        std::hint::black_box(
                            cluster
                                .restore_file_pipelined(*file_id, workers)
                                .expect("restore cannot fail in bench"),
                        );
                    }
                })
            });
        }
        group.finish();
        if let Some(root) = root {
            drop(cluster);
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_restore
}
criterion_main!(benches);
