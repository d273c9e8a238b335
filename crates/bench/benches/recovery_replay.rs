//! Recovery throughput: how fast a crashed node comes back.
//!
//! Not a figure of the paper — its prototype has no durability story — but the
//! metric that gates restart latency once nodes journal: how quickly
//! [`DedupNode::open`] turns the medium a crash left behind — the
//! metadata-only journal plus one object per container — back into a serving
//! node (journal replayed, every container object checked against its
//! checksum, chunk + similarity indexes rebuilt).  The byte basis is the
//! *container bytes the recovered node serves again*, which the journal's
//! layout cannot move, so numbers stay comparable when the journal's records
//! change (but not to ingest MB/s).
//!
//! The banner prints a one-shot table of the journal's size and the recovery
//! rate at two reporting scales, after checking that the recovered node
//! serves every ingested chunk at the location the crashed node had.
//! Criterion then measures recovery of the raw (append-by-append) journal on
//! a mid-size medium.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_core::{DedupNode, SigmaConfig};
use sigma_storage::{MemoryBackend, StorageBackend, StorageObject};
use std::sync::Arc;

fn bench_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .build()
        .expect("valid bench config")
}

/// Ingests `bytes` of deterministic payload into a node and returns
/// the medium a crash would leave behind — journal and container objects —
/// as it stands after the flush.
fn crash_image(config: &SigmaConfig, bytes: usize) -> MemoryBackend {
    let node = DedupNode::new(0, config);
    let client_chunks: Vec<Vec<u8>> = sigma_workloads::payload::random_bytes(bytes, 0x4EC0)
        .chunks(4096)
        .map(<[u8]>::to_vec)
        .collect();
    let mut fingerprints = Vec::new();
    for (i, window) in client_chunks.chunks(16).enumerate() {
        let sc = sigma_core::SuperChunk::from_payloads(
            sigma_hashkit::FingerprintAlgorithm::Sha1,
            i as u64,
            window.to_vec(),
        );
        node.process_super_chunk(0, &sc.view(), &sc.handprint(8))
            .expect("payload ingest cannot fail");
        fingerprints.extend(sc.descriptors().iter().map(|d| d.fingerprint));
    }
    node.try_flush().expect("no faults in bench");
    let raw = copy(node.journal().backend().as_ref());
    // The image holds the flushed state: a node recovered from it serves
    // every ingested chunk where the crashed node did.
    let recovered = recover_node(config, copy(&raw));
    assert_eq!(recovered.storage_usage(), node.storage_usage());
    for fp in &fingerprints {
        let location = node.chunk_location(fp);
        assert!(location.is_some(), "ingest lost chunk {fp}");
        assert_eq!(recovered.chunk_location(fp), location, "chunk {fp}");
    }
    raw
}

/// Recovers a node from `medium`.
fn recover_node(config: &SigmaConfig, medium: MemoryBackend) -> DedupNode {
    let (node, report) =
        DedupNode::open(0, config, Arc::new(medium)).expect("recovery cannot fail");
    assert!(report.containers_recovered > 0);
    node
}

/// Recovers a node from `medium`; returns the container bytes it serves.
fn recover(config: &SigmaConfig, medium: MemoryBackend) -> u64 {
    recover_node(config, medium).storage_usage()
}

fn copy(image: &dyn StorageBackend) -> MemoryBackend {
    MemoryBackend::copy_of(image).expect("in-memory medium")
}

fn report() {
    sigma_bench::banner(
        "recovery",
        "recovery throughput of DedupNode::open over a raw journal",
    );
    let config = bench_config();
    let mut table =
        sigma_metrics::report::TextTable::new(vec!["payload MiB", "journal KiB", "recover MB/s"]);
    for payload_bytes in [4 << 20, 16 << 20] {
        let raw = crash_image(&config, payload_bytes);
        let journal_len = raw
            .object_len(StorageObject::Journal)
            .expect("in-memory medium")
            .unwrap_or(0);
        let medium = copy(&raw);
        let sw = sigma_metrics::Stopwatch::start();
        let recovered = recover(&config, medium);
        let tp = sw.stop(recovered);
        assert!(recovered > 0);
        table.add_row(vec![
            format!("{:.1}", payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", journal_len as f64 / 1024.0),
            format!("{:.1}", tp.mb_per_sec()),
        ]);
    }
    sigma_bench::print_table("recovery throughput", &table.render());
}

fn bench(c: &mut Criterion) {
    report();

    let config = bench_config();
    let raw = crash_image(&config, 8 << 20);
    let served = recover(&config, copy(&raw));

    let mut group = c.benchmark_group("recovery_replay");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(served));
    group.bench_function("raw_journal", |b| {
        b.iter_batched(
            || copy(&raw),
            |medium| recover(&config, medium),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
