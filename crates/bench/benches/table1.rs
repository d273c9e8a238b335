//! Table 1: comparison of cluster deduplication schemes (measured grades).

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_core::{
    DataRouter, DedupNode, RoutingContext, SigmaConfig, SimilarityRouter, SuperChunk,
};
use sigma_hashkit::FingerprintAlgorithm;
use sigma_simulation::experiments::table1;
use sigma_workloads::Scale;
use std::sync::Arc;

fn report() {
    sigma_bench::banner(
        "Table 1",
        "comparison of representative cluster deduplication schemes",
    );
    let rows = table1::run(table1::Table1Params {
        scale: Scale::Small,
        cluster_size: 32,
    });
    sigma_bench::print_table(
        "measured grades on the Linux-like workload, 32 nodes",
        &table1::render(&rows),
    );
}

fn bench_routing_decision(c: &mut Criterion) {
    report();
    let config = SigmaConfig::default();
    let nodes: Vec<Arc<DedupNode>> = (0..32)
        .map(|i| Arc::new(DedupNode::new(i, &config)))
        .collect();
    let sc = SuperChunk::from_payloads(
        FingerprintAlgorithm::Sha1,
        0,
        (0..256u64).map(|i| i.to_le_bytes().repeat(512)).collect(),
    );
    let handprint = sc.handprint(8);
    let router = SimilarityRouter::new(true);
    c.bench_function("table1/similarity_routing_decision_32_nodes", |b| {
        b.iter(|| {
            router.route(&RoutingContext {
                descriptors: sc.descriptors(),
                handprint: &handprint,
                file_id: None,
                nodes: &nodes,
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_routing_decision
}
criterion_main!(benches);
