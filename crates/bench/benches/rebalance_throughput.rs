//! Rebalance throughput: how fast the elasticity subsystem migrates data.
//!
//! Not a figure of the paper — the paper's clusters are static — but the metric
//! that matters once membership is elastic: MB/s of sealed-container migration
//! when a node joins (`rebalance_onto`) and when a node leaves (`remove_node`
//! drain), including the chunk-index and similarity-index re-homing and the
//! forwarding-tombstone bookkeeping.
//!
//! The banner prints a one-shot join/leave migration table at a reporting scale
//! (driven by the same churn scenario the simulation crate tests), then criterion
//! measures a full join+leave round trip on a pre-populated cluster: add a node,
//! migrate onto it until it holds the cluster mean, then drain it back out.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_core::{BackupClient, DedupCluster, SigmaConfig, SimilarityRouter};
use sigma_simulation::churn::{run_churn, ChurnConfig};
use sigma_simulation::crash_churn::FaultPlan;
use std::sync::Arc;

const STREAMS: usize = 4;
const STREAM_BYTES: usize = 1 << 20;

fn bench_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .build()
        .expect("valid bench config")
}

/// A 4-node cluster pre-loaded with `STREAMS` distinct payload streams.
fn populated_cluster() -> Arc<DedupCluster> {
    let cluster = Arc::new(DedupCluster::with_similarity_router(4, bench_config()));
    for stream in 0..STREAMS as u64 {
        let client = BackupClient::new(cluster.clone(), stream);
        let data = sigma_workloads::payload::random_bytes(STREAM_BYTES, 0xBA1A + stream);
        client
            .backup_bytes(&format!("stream-{stream}"), &data)
            .expect("payload backup cannot fail");
    }
    cluster.try_flush().expect("no faults in bench");
    cluster
}

fn report() {
    sigma_bench::banner(
        "rebalance throughput",
        "container migration MB/s for node join and node leave",
    );
    let mut table = sigma_metrics::report::TextTable::new(vec![
        "migration",
        "containers",
        "bytes moved",
        "MB/s",
    ]);

    // Join: measure `add_node_rebalanced` on a populated cluster.
    let cluster = populated_cluster();
    let sw = sigma_metrics::Stopwatch::start();
    let (join_id, join) = cluster.add_node_rebalanced().expect("no faults in bench");
    let join_tp = sw.stop(join.bytes_moved);
    assert!(join.bytes_moved > 0, "join must migrate data");
    table.add_row(vec![
        "join (rebalance_onto)".to_string(),
        join.containers_moved.to_string(),
        join.bytes_moved.to_string(),
        format!("{:.1}", join_tp.mb_per_sec()),
    ]);

    // Leave: drain the node that just joined.
    let sw = sigma_metrics::Stopwatch::start();
    let leave = cluster.remove_node(join_id).expect("node is active");
    let leave_tp = sw.stop(leave.bytes_moved);
    assert!(leave.bytes_moved > 0, "drain must migrate data");
    table.add_row(vec![
        "leave (remove_node)".to_string(),
        leave.containers_moved.to_string(),
        leave.bytes_moved.to_string(),
        format!("{:.1}", leave_tp.mb_per_sec()),
    ]);
    sigma_bench::print_table("rebalance migration throughput", &table.render());

    // End-to-end churn scenario (backup, join, backup, leave, restore-verify).
    let outcome = run_churn(
        &ChurnConfig::default(),
        Box::new(SimilarityRouter::new(true)),
        &FaultPlan::default(),
    );
    assert!(outcome.all_restored(), "churn scenario must restore intact");
    assert!(
        outcome.bytes_conserved(),
        "churn scenario must conserve bytes"
    );
    let mut churn_table =
        sigma_metrics::report::TextTable::new(vec!["phase", "gen", "nodes", "physical MiB", "DR"]);
    for phase in &outcome.phases {
        churn_table.add_row(vec![
            phase.label.to_string(),
            phase.generation.to_string(),
            phase.node_count.to_string(),
            format!("{:.2}", phase.physical_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", phase.dedup_ratio),
        ]);
    }
    sigma_bench::print_table(
        "churn scenario (all restores byte-identical, bytes conserved)",
        &churn_table.render(),
    );
}

fn bench(c: &mut Criterion) {
    report();

    let cluster = populated_cluster();
    // Probe one round trip for the *actual* migration volume: the join moves
    // containers onto the new node and the drain moves them back out, so the
    // byte basis is the sum of both directions in physical (post-dedup)
    // container bytes — not logical client bytes, and not a guessed share of
    // the cluster's physical footprint.
    let (probe_id, probe_join) = cluster.add_node_rebalanced().expect("no faults in bench");
    let probe_leave = cluster.remove_node(probe_id).expect("node is active");
    assert!(probe_join.bytes_moved > 0, "join must migrate data");
    assert!(probe_leave.bytes_moved > 0, "drain must migrate data");
    let mut group = c.benchmark_group("rebalance");
    group.throughput(Throughput::Bytes(
        probe_join.bytes_moved + probe_leave.bytes_moved,
    ));
    group.sample_size(10);
    group.bench_function("join_leave_round_trip", |b| {
        b.iter(|| {
            let (id, join) = cluster.add_node_rebalanced().expect("no faults in bench");
            let leave = cluster.remove_node(id).expect("node is active");
            (join.bytes_moved, leave.bytes_moved)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
