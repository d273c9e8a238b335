//! Ingest throughput vs. worker-thread count.
//!
//! Four measurements, all in the spirit of the paper's Figure 4 throughput study but
//! measuring the ingest core end to end:
//!
//! * **payload pipeline** — real bytes (versioned backup generations) pushed
//!   through `BackupClient::backup_streams`: chunking + SHA-1 fingerprinting
//!   on the worker pool, concurrent multi-stream routing into a cluster.
//!   Reported as MB/s of *logical pre-dedup* client bytes (the paper's
//!   Figure 4 basis — post-dedup MB/s would scale with the dedup ratio and
//!   say nothing about backup-window sizing).
//! * **linux-like trace** — the linux-like workload preset replayed through the
//!   threaded `SimulationRunner`, exercising the sharded node indexes and the
//!   per-container store locks without client-side hashing cost.
//! * **small files** — 16 KiB unique files backed up one `backup_bytes` call
//!   each into a file-backed cluster, plus the closing `try_flush` that
//!   acknowledges them: per-request durable cost (journal appends, fsyncs,
//!   container objects) without a transport in front.  Every file is checked
//!   restorable after the clock stops.
//! * **unique 1 MiB files** — the same, with 1 MiB files that share nothing:
//!   every byte is appended to a container and written out in its sealed
//!   object, so the seal path (and the closing flush's seals) dominates.
//!
//! On a multi-core machine the pipeline at 4+ threads beats the serial path; on a
//! single-core machine the sweep degenerates to measuring the (small) coordination
//! overhead.  The banner prints a one-shot MB/s-per-thread-count table so the
//! comparison is visible without reading criterion output.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sigma_core::{BackupClient, DedupCluster, SigmaConfig, StreamPayload};
use sigma_simulation::runner::{run_cluster, SimulationConfig};
use sigma_workloads::payload::{random_bytes, versioned_payloads, VersionedPayloadParams};
use sigma_workloads::{presets, Scale};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STREAMS: usize = 8;
const STREAM_BYTES: usize = 2 << 20;

fn payload_streams() -> Vec<StreamPayload> {
    // 8 streams, each a distinct "user" backing up a versioned dataset: streams
    // share no data with each other, versions inside a stream mostly deduplicate.
    (0..STREAMS as u64)
        .flat_map(|s| {
            versioned_payloads(VersionedPayloadParams {
                seed: 0xF00D + s,
                versions: 1,
                version_size: STREAM_BYTES,
                mutation_rate: 0.05,
            })
            .into_iter()
            .map(move |(name, data)| StreamPayload::new(s, format!("u{s}/{name}"), data))
        })
        .collect()
}

fn ingest_once(threads: usize, streams: &[StreamPayload]) -> f64 {
    let config = SigmaConfig::builder().parallelism(threads).build().unwrap();
    let cluster = Arc::new(DedupCluster::with_similarity_router(4, config));
    let client = BackupClient::new(cluster.clone(), 0);
    let total: u64 = streams.iter().map(|s| s.data.len() as u64).sum();
    let start = std::time::Instant::now();
    client
        .backup_streams(streams)
        .expect("payload ingest cannot fail");
    cluster.try_flush().expect("no faults in bench");
    total as f64 / 1e6 / start.elapsed().as_secs_f64()
}

const SMALL_FILES: usize = 256;
const SMALL_FILE_BYTES: usize = 16 << 10;

fn small_files() -> Vec<Vec<u8>> {
    (0..SMALL_FILES as u64)
        .map(|i| random_bytes(SMALL_FILE_BYTES, 0x5A11 + i))
        .collect()
}

const UNIQUE_FILES: usize = 32;
const UNIQUE_FILE_BYTES: usize = 1 << 20;

fn unique_files() -> Vec<Vec<u8>> {
    (0..UNIQUE_FILES as u64)
        .map(|i| random_bytes(UNIQUE_FILE_BYTES, 0x1B16 + i))
        .collect()
}

/// A fresh 4-node cluster on the file backend, in its own scratch directory.
struct FileCluster {
    root: PathBuf,
    cluster: Arc<DedupCluster>,
    file_ids: Vec<u64>,
}

impl FileCluster {
    fn new() -> Self {
        let root = std::env::temp_dir().join(format!(
            "sigma-ingest-bench-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after the epoch")
                .as_nanos()
        ));
        let config = SigmaConfig::builder()
            .file_storage(&root)
            .build()
            .expect("valid bench config");
        let cluster = Arc::new(DedupCluster::with_similarity_router(4, config));
        FileCluster {
            root,
            cluster,
            file_ids: Vec::new(),
        }
    }

    /// The measured part: one `backup_bytes` per file, then the flush that
    /// acknowledges them.
    fn backup(&mut self, files: &[Vec<u8>]) {
        let client = BackupClient::new(self.cluster.clone(), 0);
        for (i, data) in files.iter().enumerate() {
            let report = client
                .backup_bytes(&format!("file/{i}"), data)
                .expect("file backup cannot fail");
            self.file_ids.push(report.file_id);
        }
        self.cluster
            .try_flush()
            .expect("flush cannot fail in bench");
    }

    /// Panics unless every file backed up restores byte-identically, then
    /// removes the cluster's directory.
    fn check_and_remove(self, files: &[Vec<u8>]) {
        assert_eq!(self.file_ids.len(), files.len(), "every file was backed up");
        for (file_id, expected) in self.file_ids.iter().zip(files) {
            let restored = self
                .cluster
                .restore_file(*file_id)
                .expect("acknowledged file restores");
            assert!(&restored == expected, "restore corrupted file {file_id}");
        }
        drop(self.cluster);
        let _ = std::fs::remove_dir_all(self.root);
    }
}

fn report() {
    sigma_bench::banner(
        "ingest throughput",
        "parallel pipeline MB/s vs. worker threads (8 streams x 2 MiB, 4 nodes)",
    );
    let streams = payload_streams();
    let serial = ingest_once(1, &streams);
    let mut table = sigma_metrics::report::TextTable::new(vec!["threads", "MB/s", "speedup"]);
    table.add_row(vec![
        "1 (serial)".to_string(),
        format!("{serial:.1}"),
        "1.00x".to_string(),
    ]);
    for &threads in &THREAD_COUNTS[1..] {
        let mbps = ingest_once(threads, &streams);
        table.add_row(vec![
            threads.to_string(),
            format!("{mbps:.1}"),
            format!("{:.2}x", mbps / serial),
        ]);
    }
    sigma_bench::print_table("pipeline ingest MB/s", &table.render());

    for (label, files) in [
        (
            format!("small files: {SMALL_FILES} x 16 KiB"),
            small_files(),
        ),
        (
            format!("unique files: {UNIQUE_FILES} x 1 MiB"),
            unique_files(),
        ),
    ] {
        let mut run = FileCluster::new();
        let sw = sigma_metrics::Stopwatch::start();
        run.backup(&files);
        let mbps = sw
            .stop(files.iter().map(|f| f.len() as u64).sum())
            .mb_per_sec();
        run.check_and_remove(&files);
        println!(
            "{label} into a 4-node file-backed cluster, flush included: \
             {mbps:.1} MB/s (all restored byte-identical)"
        );
    }
}

fn bench_pipeline_ingest(c: &mut Criterion) {
    report();
    let streams = payload_streams();
    let total: u64 = streams.iter().map(|s| s.data.len() as u64).sum();
    let mut group = c.benchmark_group("ingest_throughput/pipeline");
    group.throughput(Throughput::Bytes(total));
    for &threads in &THREAD_COUNTS {
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| std::hint::black_box(ingest_once(threads, &streams)))
        });
    }
    group.finish();
}

/// `ingest_throughput/<name>`: `files` backed up into a fresh file-backed
/// cluster per iteration, flush included.
fn bench_file_ingest(c: &mut Criterion, name: &str, files: &[Vec<u8>]) {
    let mut group = c.benchmark_group("ingest_throughput");
    group.throughput(Throughput::Bytes(
        files.iter().map(|f| f.len() as u64).sum(),
    ));
    // Each iteration backs up into a fresh cluster (set up off the clock);
    // the next set-up, also off the clock, checks and removes the last one.
    let done: RefCell<Option<FileCluster>> = RefCell::new(None);
    group.bench_function(name, |b| {
        b.iter_batched(
            || {
                if let Some(run) = done.take() {
                    run.check_and_remove(files);
                }
                FileCluster::new()
            },
            |mut run| {
                run.backup(files);
                done.replace(Some(run));
            },
            BatchSize::PerIteration,
        )
    });
    if let Some(run) = done.take() {
        run.check_and_remove(files);
    }
    group.finish();
}

fn bench_small_file_ingest(c: &mut Criterion) {
    bench_file_ingest(c, "file_small_files", &small_files());
}

fn bench_unique_file_ingest(c: &mut Criterion) {
    bench_file_ingest(c, "file_unique_1m", &unique_files());
}

fn bench_trace_ingest(c: &mut Criterion) {
    let dataset = presets::linux_dataset(Scale::Tiny);
    let mut group = c.benchmark_group("ingest_throughput/linux_trace");
    group.throughput(Throughput::Bytes(dataset.logical_bytes()));
    for &threads in &THREAD_COUNTS {
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| {
                let sigma = SigmaConfig::builder().parallelism(threads).build().unwrap();
                let config = SimulationConfig {
                    node_count: 4,
                    sigma,
                    client_streams: 8,
                };
                std::hint::black_box(run_cluster(
                    &dataset,
                    Box::new(sigma_core::SimilarityRouter::new(true)),
                    &config,
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline_ingest, bench_small_file_ingest, bench_unique_file_ingest,
        bench_trace_ingest
}
criterion_main!(benches);
