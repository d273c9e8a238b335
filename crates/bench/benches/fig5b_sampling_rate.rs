//! Figure 5(b): deduplication ratio vs. handprint sampling rate and super-chunk size.

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_core::{DedupNode, SigmaConfig, SuperChunk};
use sigma_hashkit::FingerprintAlgorithm;
use sigma_simulation::experiments::fig5b;
use sigma_workloads::Scale;

fn report() {
    sigma_bench::banner(
        "Figure 5(b)",
        "similarity-index-only deduplication ratio vs. handprint sampling rate",
    );
    let rows = fig5b::run(&fig5b::Fig5bParams {
        scale: Scale::Small,
        super_chunk_sizes: vec![512 << 10, 1 << 20, 2 << 20, 4 << 20],
        sampling_denominators: vec![8, 16, 32, 64, 128, 256, 512],
    });
    sigma_bench::print_table(
        "deduplication ratio normalized to exact deduplication (Linux-like workload)",
        &fig5b::render(&rows),
    );
}

fn bench_resemblance_query(c: &mut Criterion) {
    report();
    let config = SigmaConfig::default();
    let node = DedupNode::new(0, &config);
    let sc = SuperChunk::from_payloads(
        FingerprintAlgorithm::Sha1,
        0,
        (0..256u64).map(|i| i.to_le_bytes().repeat(512)).collect(),
    );
    let handprint = sc.handprint(8);
    node.process_super_chunk(0, &sc.view(), &handprint).unwrap();
    c.bench_function("fig5b/resemblance_query_handprint_8", |b| {
        b.iter(|| node.resemblance_count(&handprint))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_resemblance_query
}
criterion_main!(benches);
