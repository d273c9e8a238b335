//! Ingest throughput vs. worker-thread count.
//!
//! Two sweeps, both in the spirit of the paper's Figure 4 throughput study but
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
//!
//! On a multi-core machine the pipeline at 4+ threads beats the serial path; on a
//! single-core machine the sweep degenerates to measuring the (small) coordination
//! overhead.  The banner prints a one-shot MB/s-per-thread-count table so the
//! comparison is visible without reading criterion output.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_core::{BackupClient, DedupCluster, SigmaConfig, StreamPayload};
use sigma_simulation::runner::{run_cluster, SimulationConfig};
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
use sigma_workloads::{presets, Scale};
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
    cluster.flush();
    total as f64 / 1e6 / start.elapsed().as_secs_f64()
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
    targets = bench_pipeline_ingest, bench_trace_ingest
}
criterion_main!(benches);
