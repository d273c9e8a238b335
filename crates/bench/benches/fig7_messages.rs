//! Figure 7: fingerprint-lookup message overhead vs. cluster size.

use criterion::{criterion_group, criterion_main, Criterion};
use sigma_baselines::StatefulRouter;
use sigma_core::{DataRouter, DedupNode, RoutingContext, SigmaConfig, SuperChunk};
use sigma_hashkit::FingerprintAlgorithm;
use sigma_simulation::experiments::fig7;
use sigma_workloads::Scale;
use std::sync::Arc;

fn report() {
    sigma_bench::banner(
        "Figure 7",
        "fingerprint-lookup messages vs. cluster size (system overhead)",
    );
    let rows = fig7::run(&fig7::Fig7Params {
        scale: Scale::Small,
        cluster_sizes: vec![1, 2, 4, 8, 16, 32, 64, 128],
        super_chunk_size: 1 << 20,
    });
    for dataset in ["Linux", "VM"] {
        sigma_bench::print_table(
            &format!("total fingerprint-lookup messages, {} workload", dataset),
            &fig7::render(dataset, &rows),
        );
    }
    println!(
        "overhead shape (sigma flat and within 1.3x of stateless, stateful grows linearly): {}",
        fig7::overhead_shape_holds(&rows, 1.3)
    );
}

fn bench_stateful_broadcast(c: &mut Criterion) {
    report();
    let config = SigmaConfig::default();
    let nodes: Vec<Arc<DedupNode>> = (0..128)
        .map(|i| Arc::new(DedupNode::new(i, &config)))
        .collect();
    let sc = SuperChunk::from_payloads(
        FingerprintAlgorithm::Sha1,
        0,
        (0..256u64).map(|i| i.to_le_bytes().repeat(512)).collect(),
    );
    let handprint = sc.handprint(8);
    let router = StatefulRouter::new();
    c.bench_function("fig7/stateful_broadcast_decision_128_nodes", |b| {
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
    config = Criterion::default().sample_size(10);
    targets = bench_stateful_broadcast
}
criterion_main!(benches);
