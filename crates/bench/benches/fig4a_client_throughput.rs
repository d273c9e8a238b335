//! Figure 4(a): chunking and fingerprinting throughput at the backup client.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_chunking::{CdcChunker, Chunker};
use sigma_hashkit::{Digest, FingerprintAlgorithm, Md5, Sha1};
use sigma_simulation::experiments::fig4a;
use sigma_workloads::payload::random_bytes;

fn report() {
    sigma_bench::banner(
        "Figure 4(a)",
        "parallel chunking and fingerprinting throughput vs. number of data streams",
    );
    let rows = fig4a::run(&fig4a::Fig4aParams {
        bytes_per_stream: 8 << 20,
        stream_counts: vec![1, 2, 4, 8, 16],
    });
    sigma_bench::print_table("aggregate MB/s per operation", &fig4a::render(&rows));
}

fn bench_client_ops(c: &mut Criterion) {
    report();
    let buffer = random_bytes(1 << 20, 0x4a);
    let mut group = c.benchmark_group("fig4a");
    group.throughput(Throughput::Bytes(buffer.len() as u64));
    group.bench_function("sha1_fingerprint_1MiB_in_4K_chunks", |b| {
        b.iter(|| {
            for chunk in buffer.chunks(4096) {
                std::hint::black_box(Sha1::fingerprint(chunk));
            }
        })
    });
    let chunks: Vec<&[u8]> = buffer.chunks(4096).collect();
    let per_chunk: Vec<_> = chunks.iter().map(|c| Sha1::fingerprint(c)).collect();
    assert_eq!(
        FingerprintAlgorithm::Sha1.fingerprint_batch(&chunks),
        per_chunk,
        "batch and per-chunk SHA-1 disagree"
    );
    group.bench_function("sha1_fingerprint_batch_1MiB_in_4K_chunks", |b| {
        b.iter(|| std::hint::black_box(FingerprintAlgorithm::Sha1.fingerprint_batch(&chunks)))
    });
    group.bench_function("md5_fingerprint_1MiB_in_4K_chunks", |b| {
        b.iter(|| {
            for chunk in buffer.chunks(4096) {
                std::hint::black_box(Md5::fingerprint(chunk));
            }
        })
    });
    let chunker = CdcChunker::with_average_4k();
    group.bench_function("cdc_chunking_1MiB", |b| {
        b.iter(|| std::hint::black_box(chunker.chunk_boundaries(&buffer)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_client_ops
}
criterion_main!(benches);
