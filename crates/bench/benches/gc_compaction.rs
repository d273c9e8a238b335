//! Garbage-collection reclaim throughput vs. the liveness threshold.
//!
//! Not a figure of the paper — its clusters are append-only — but the metric
//! that gates a retention policy once backups expire: how fast a mark-and-sweep
//! turns dead generations back into free space, and how the
//! [`SigmaConfig::gc_liveness_threshold`] knob trades reclaimed bytes against
//! compaction (rewrite) I/O.
//!
//! The banner prints a one-shot table sweeping the threshold over the
//! `retention_churn` scenario (reclaimed MiB, reclaim MB/s, drop/compact mix),
//! plus a row where whole streams expire so their containers die outright;
//! criterion then measures the full mark-and-sweep cycle in both shapes: a
//! drop-only sweep (threshold 0) of dead containers and an aggressive
//! compaction (threshold 1) of partly dead ones.  Each timed sweep must
//! reclaim bytes, and the drop-only one must drop containers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_core::{BackupClient, DedupCluster, SigmaConfig};
use sigma_workloads::payload::{generational_payloads, GenerationalPayloadParams};
use std::sync::Arc;

/// Which backups a scenario expires before the sweep.
#[derive(Debug, Clone, Copy)]
enum Expiry {
    /// The oldest `n` generations of every stream.  Later generations still
    /// reference most of their chunks, so the dead bytes are scattered through
    /// containers that also hold live ones: nothing dies whole.
    OldestGenerations(u64),
    /// Every generation of the first `n` streams.  Each stream fills its own
    /// containers and streams share no data, so those containers die whole.
    WholeStreams(u64),
}

fn bench_sigma(threshold: f64) -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(64 * 1024)
        .container_capacity(256 * 1024)
        .gc_liveness_threshold(threshold)
        .build()
        .expect("valid bench config")
}

/// Builds a cluster holding `generations` generational waves from `streams`
/// streams and expires the backups `expiry` names (deletion only — the sweep
/// is what gets measured).
fn expired_cluster(
    threshold: f64,
    streams: u64,
    generations: usize,
    expiry: Expiry,
    bytes_per_stream: usize,
) -> Arc<DedupCluster> {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        4,
        bench_sigma(threshold),
    ));
    let mut files = Vec::new();
    for stream in 0..streams {
        let dataset = generational_payloads(GenerationalPayloadParams {
            seed: 0x6C_0DE ^ stream,
            generations,
            initial_size: bytes_per_stream,
            mutation_rate: 0.2,
            growth_per_generation: bytes_per_stream / 16,
        });
        for (generation, (name, data)) in dataset.iter().enumerate() {
            let client = BackupClient::with_generation(cluster.clone(), stream, generation as u64);
            let report = client
                .backup_bytes(name, data)
                .expect("payload backup cannot fail");
            files.push((stream, report.file_id));
        }
    }
    cluster.flush();
    match expiry {
        Expiry::OldestGenerations(n) => {
            for generation in 0..n {
                cluster
                    .delete_generation(generation)
                    .expect("generation exists");
            }
        }
        Expiry::WholeStreams(n) => {
            for (_, file_id) in files.into_iter().filter(|&(stream, _)| stream < n) {
                cluster.delete_file(file_id).expect("file exists");
            }
        }
    }
    cluster
}

fn report() {
    sigma_bench::banner(
        "gc compaction",
        "mark-and-sweep reclaim vs. the container liveness threshold",
    );
    let mut table = sigma_metrics::report::TextTable::new(vec![
        "expired",
        "threshold",
        "physical MiB",
        "reclaimed MiB",
        "dropped",
        "compacted",
        "kept partial",
        "reclaim MB/s",
    ]);
    let rows = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        .map(|threshold| (Expiry::OldestGenerations(2), threshold))
        .into_iter()
        .chain([(Expiry::WholeStreams(2), 0.0)]);
    for (expiry, threshold) in rows {
        let cluster = expired_cluster(threshold, 4, 4, expiry, 4 << 20);
        let physical_before = cluster.stats().physical_bytes;
        let sw = sigma_metrics::Stopwatch::start();
        let gc = cluster.collect_garbage().expect("no faults in bench");
        let tp = sw.stop(gc.bytes_reclaimed);
        table.add_row(vec![
            format!("{expiry:?}"),
            format!("{:.2}", threshold),
            format!("{:.1}", physical_before as f64 / (1 << 20) as f64),
            format!("{:.1}", gc.bytes_reclaimed as f64 / (1 << 20) as f64),
            gc.containers_dropped.to_string(),
            gc.containers_compacted.to_string(),
            gc.containers_kept_partial.to_string(),
            format!("{:.1}", tp.mb_per_sec()),
        ]);
    }
    sigma_bench::print_table(
        "reclaim vs. liveness threshold (4 streams x 4 generations)",
        &table.render(),
    );
}

fn bench(c: &mut Criterion) {
    report();

    let mut group = c.benchmark_group("gc_compaction");
    group.sample_size(10);
    for (label, threshold, expiry) in [
        ("drop_only", 0.0, Expiry::WholeStreams(1)),
        ("compact_aggressive", 1.0, Expiry::OldestGenerations(1)),
    ] {
        // MB/s here is physical bytes *reclaimed* per second of sweep time.  A
        // sweep is destructive, so each iteration needs a fresh expired
        // cluster — built in the (untimed) setup half of iter_batched so the
        // reported rate covers the mark-and-sweep only, not cluster
        // construction.
        let probe = expired_cluster(threshold, 2, 3, expiry, 1 << 20)
            .collect_garbage()
            .expect("no faults in bench");
        assert!(probe.bytes_reclaimed > 0, "{label} must reclaim space");
        if let Expiry::WholeStreams(_) = expiry {
            assert!(probe.containers_dropped > 0, "{label} must drop containers");
        }
        group.throughput(Throughput::Bytes(probe.bytes_reclaimed));
        group.bench_function(label, |b| {
            b.iter_batched(
                || expired_cluster(threshold, 2, 3, expiry, 1 << 20),
                |cluster| cluster.collect_garbage().expect("no faults in bench"),
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
