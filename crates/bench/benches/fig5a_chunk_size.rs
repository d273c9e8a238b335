//! Figure 5(a): single-node deduplication efficiency vs. chunk size (SC vs. CDC).

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_core::{DedupNode, SigmaConfig, SuperChunk};
use sigma_hashkit::FingerprintAlgorithm;
use sigma_simulation::experiments::fig5a;
use sigma_workloads::payload::random_bytes;

fn report() {
    sigma_bench::banner(
        "Figure 5(a)",
        "single-node deduplication efficiency (bytes saved per second) vs. chunk size",
    );
    let rows = fig5a::run(&fig5a::Fig5aParams {
        version_size: 8 << 20,
        versions: 4,
        chunk_sizes: vec![1024, 2048, 4096, 8192, 16384, 32768, 65536],
    });
    sigma_bench::print_table(
        "bytes saved per second, SC vs. CDC on versioned payload workloads",
        &fig5a::render(&rows),
    );
}

fn bench_node_dedup(c: &mut Criterion) {
    report();
    let config = SigmaConfig::default();
    let chunks: Vec<Vec<u8>> = random_bytes(1 << 20, 7)
        .chunks(4096)
        .map(|c| c.to_vec())
        .collect();
    let sc = SuperChunk::from_payloads(FingerprintAlgorithm::Sha1, 0, chunks);
    let handprint = sc.handprint(8);
    let view = sc.view();
    c.bench_function("fig5a/dedup_1MiB_super_chunk_all_duplicates", |b| {
        let node = DedupNode::new(0, &config);
        node.process_super_chunk(0, &view, &handprint).unwrap();
        b.iter(|| node.process_super_chunk(0, &view, &handprint).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_node_dedup
}
criterion_main!(benches);
