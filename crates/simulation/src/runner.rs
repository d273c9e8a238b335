//! Drives workload traces through a deduplication cluster.
//!
//! With `sigma.parallelism <= 1` (the default) every generation is replayed on the
//! calling thread, exactly as discrete backup sessions would arrive one file at a
//! time.  With `parallelism > 1` (or `0` = one per core) the runner puts each of
//! the `client_streams` on a real thread: files keep their round-robin
//! stream assignment and their per-stream order, but the streams hit the cluster
//! concurrently — the multi-user ingest pattern the paper's throughput
//! experiments assume.
//!
//! A trace has fingerprints and lengths but no content, so each chunk is
//! stored with its [stand-in payload](sigma_workloads::ChunkSpec::stand_in_payload):
//! the cluster runs the store path real backups run, and every routing, dedup
//! and accounting decision depends only on the fingerprints and lengths.

use sigma_core::{
    ChunkDescriptor, DataRouter, DedupCluster, SigmaConfig, SuperChunk, SuperChunkBuilder,
};
use sigma_metrics::ClusterRunSummary;
use sigma_workloads::{DatasetTrace, FileTrace};
use std::collections::BTreeMap;

/// Parameters of one simulated cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Number of deduplication nodes.
    pub node_count: usize,
    /// Σ-Dedupe configuration shared by clients and nodes.
    pub sigma: SigmaConfig,
    /// Number of concurrent backup-client streams the generations are spread over.
    pub client_streams: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            node_count: 8,
            sigma: SigmaConfig::default(),
            client_streams: 4,
        }
    }
}

/// The result of one cluster run: the paper's summary metrics plus the full cluster
/// statistics for anyone who wants more detail.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Metric summary (DR, NEDR inputs, message counts).
    pub summary: ClusterRunSummary,
    /// Full per-node statistics.
    pub cluster: sigma_core::ClusterStats,
}

/// Runs `dataset` through a fresh cluster of `config.node_count` nodes using
/// `router`, and returns the summary metrics.
///
/// Every backup generation is flushed (containers sealed) before the next one
/// starts, mirroring discrete backup sessions.
pub fn run_cluster(
    dataset: &DatasetTrace,
    router: Box<dyn DataRouter>,
    config: &SimulationConfig,
) -> ClusterRunSummary {
    run_cluster_detailed(dataset, router, config).summary
}

/// Like [`run_cluster`] but also returns the full cluster statistics.
pub fn run_cluster_detailed(
    dataset: &DatasetTrace,
    router: Box<dyn DataRouter>,
    config: &SimulationConfig,
) -> RunOutcome {
    // File-similarity routers place whole files, so their routing unit must not span
    // file boundaries; all other schemes route the backup *stream*, whose
    // super-chunks freely span consecutive small files (that is what keeps
    // super-chunks at their full 1 MB size on small-file workloads).
    let per_file_super_chunks = router.requires_file_boundaries();
    let cluster = DedupCluster::new(config.node_count, config.sigma.clone(), router);
    let streams = config.client_streams.max(1) as u64;
    let parallelism = config.sigma.effective_parallelism();

    for generation in &dataset.generations {
        // File `i` goes to stream `i mod streams`.
        let assigned = || {
            let files = generation.files.iter().enumerate();
            files.map(|(i, file)| (i as u64 % streams, file))
        };
        if parallelism > 1 && streams > 1 {
            // Threaded mode: one real thread per client stream (up to
            // `parallelism` in flight), each replaying its files in order.
            std::thread::scope(|scope| {
                let mut pending = Vec::new();
                for stream in 0..streams {
                    if pending.len() >= parallelism {
                        // Simple admission control: wait for the oldest stream
                        // before launching another one.
                        let handle: std::thread::ScopedJoinHandle<'_, ()> = pending.remove(0);
                        handle.join().expect("stream worker panicked");
                    }
                    let cluster = &cluster;
                    pending.push(scope.spawn(move || {
                        replay_files(
                            cluster,
                            assigned().filter(|&(s, _)| s == stream),
                            dataset.has_file_boundaries,
                            per_file_super_chunks,
                            config.sigma.super_chunk_size,
                        );
                    }));
                }
                for handle in pending {
                    handle.join().expect("stream worker panicked");
                }
            });
        } else {
            // Serial mode: the streams' files interleave round-robin.
            replay_files(
                &cluster,
                assigned(),
                dataset.has_file_boundaries,
                per_file_super_chunks,
                config.sigma.super_chunk_size,
            );
        }
        cluster
            .try_flush()
            .expect("trace-driven backup failed to seal its containers");
    }

    let stats = cluster.stats();
    let summary = ClusterRunSummary {
        scheme: cluster.router_name(),
        dataset: dataset.name.clone(),
        nodes: config.node_count,
        logical_bytes: stats.logical_bytes,
        physical_bytes: stats.physical_bytes,
        dedup_ratio: stats.dedup_ratio,
        skew: stats.usage_skew,
        single_node_dr: dataset.exact_dedup_ratio(),
        prerouting_lookups: stats.messages.prerouting_lookups,
        postrouting_lookups: stats.messages.postrouting_lookups,
    };
    RunOutcome {
        summary,
        cluster: stats,
    }
}

/// Backs up `(stream, file)` pairs in order, one super-chunk builder per
/// stream and each chunk with its
/// [stand-in payload](sigma_workloads::ChunkSpec::stand_in_payload), then
/// finishes every stream's last super-chunk, in stream order.  A
/// file-similarity router (`per_file_super_chunks`) also gets each file's
/// tail as its own super-chunk.  The serial runner and each thread of the
/// threaded one call this.
fn replay_files<'f>(
    cluster: &DedupCluster,
    files: impl Iterator<Item = (u64, &'f FileTrace)>,
    has_file_boundaries: bool,
    per_file_super_chunks: bool,
    super_chunk_size: usize,
) {
    let backup = |stream, super_chunk: Option<SuperChunk>, file_id| {
        if let Some(sc) = super_chunk {
            cluster
                .backup_super_chunk(stream, &sc, file_id)
                .expect("trace-driven backup failed to store a chunk");
        }
    };
    let mut builders: BTreeMap<u64, SuperChunkBuilder> = BTreeMap::new();
    for (stream, file) in files {
        let file_id = has_file_boundaries.then_some(file.file_id);
        let builder = builders
            .entry(stream)
            .or_insert_with(|| SuperChunkBuilder::new(super_chunk_size));
        for chunk in &file.chunks {
            let descriptor = ChunkDescriptor::new(chunk.fingerprint, chunk.len);
            backup(
                stream,
                builder.push_chunk(descriptor, chunk.stand_in_payload()),
                file_id,
            );
        }
        if per_file_super_chunks {
            backup(stream, builder.finish(), file_id);
        }
    }
    for (stream, mut builder) in builders {
        backup(stream, builder.finish(), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_baselines::{RoundRobinRouter, StatefulRouter, StatelessRouter};
    use sigma_core::SimilarityRouter;
    use sigma_workloads::{presets, Scale};

    fn tiny_config(nodes: usize) -> SimulationConfig {
        SimulationConfig {
            node_count: nodes,
            ..SimulationConfig::default()
        }
    }

    #[test]
    fn single_node_sigma_matches_exact_dedup() {
        // With one node and the chunk-index fallback enabled, the cluster is an exact
        // deduplicator, so its DR must equal the trace's exact DR.
        let dataset = presets::linux_dataset(Scale::Tiny);
        let summary = run_cluster(
            &dataset,
            Box::new(SimilarityRouter::new(true)),
            &tiny_config(1),
        );
        assert!(
            (summary.dedup_ratio - dataset.exact_dedup_ratio()).abs() / dataset.exact_dedup_ratio()
                < 0.01,
            "cluster {} vs exact {}",
            summary.dedup_ratio,
            dataset.exact_dedup_ratio()
        );
        assert!((summary.normalized_dr() - 1.0).abs() < 0.01);
    }

    #[test]
    fn sigma_beats_stateless_and_round_robin_on_linux() {
        let dataset = presets::linux_dataset(Scale::Tiny);
        let cfg = tiny_config(16);
        let sigma = run_cluster(&dataset, Box::new(SimilarityRouter::new(true)), &cfg);
        let stateless = run_cluster(&dataset, Box::new(StatelessRouter::new()), &cfg);
        let round_robin = run_cluster(&dataset, Box::new(RoundRobinRouter::new()), &cfg);
        assert!(
            sigma.nedr() > stateless.nedr(),
            "sigma {} vs stateless {}",
            sigma.nedr(),
            stateless.nedr()
        );
        assert!(
            sigma.dedup_ratio > round_robin.dedup_ratio,
            "sigma {} vs round-robin {}",
            sigma.dedup_ratio,
            round_robin.dedup_ratio
        );
    }

    #[test]
    fn sigma_overhead_stays_near_stateless_while_stateful_explodes() {
        let dataset = presets::web_dataset(Scale::Tiny);
        let cfg = tiny_config(32);
        let sigma = run_cluster(&dataset, Box::new(SimilarityRouter::new(true)), &cfg);
        let stateless = run_cluster(&dataset, Box::new(StatelessRouter::new()), &cfg);
        let stateful = run_cluster(&dataset, Box::new(StatefulRouter::new()), &cfg);
        // Σ-Dedupe's total lookups stay within 1.25× of stateless (Section 4.4).
        assert!(
            (sigma.total_lookups() as f64) <= 1.3 * stateless.total_lookups() as f64,
            "sigma {} vs stateless {}",
            sigma.total_lookups(),
            stateless.total_lookups()
        );
        assert!(stateful.total_lookups() > 2 * sigma.total_lookups());
    }

    #[test]
    fn sigma_approaches_stateful_effectiveness() {
        let dataset = presets::linux_dataset(Scale::Tiny);
        let cfg = tiny_config(16);
        let sigma = run_cluster(&dataset, Box::new(SimilarityRouter::new(true)), &cfg);
        let stateful = run_cluster(&dataset, Box::new(StatefulRouter::new()), &cfg);
        assert!(
            sigma.nedr() > 0.7 * stateful.nedr(),
            "sigma {} vs stateful {}",
            sigma.nedr(),
            stateful.nedr()
        );
    }

    #[test]
    fn threaded_runner_matches_logical_accounting_and_restores_nothing_lost() {
        let dataset = presets::linux_dataset(Scale::Tiny);
        let sigma = sigma_core::SigmaConfig::builder()
            .parallelism(4)
            .build()
            .unwrap();
        let threaded = SimulationConfig {
            node_count: 4,
            sigma,
            client_streams: 4,
        };
        let outcome =
            run_cluster_detailed(&dataset, Box::new(SimilarityRouter::new(true)), &threaded);
        // Logical bytes are workload-determined, independent of interleaving.
        assert_eq!(outcome.summary.logical_bytes, dataset.logical_bytes());
        // Every chunk fingerprint costs one post-routing lookup.
        assert_eq!(
            outcome.summary.postrouting_lookups,
            dataset.chunk_count(),
            "post-routing lookups must equal total chunks"
        );
        // The cluster never stores more than the logical bytes, nor less than the
        // exact unique set.
        assert!(outcome.summary.physical_bytes <= outcome.summary.logical_bytes);
        assert!(outcome.summary.physical_bytes >= dataset.exact_unique_bytes() / 2);
        // Per-node usage sums to the cluster total.
        assert_eq!(
            outcome.cluster.node_usage.iter().sum::<u64>(),
            outcome.summary.physical_bytes
        );
    }

    #[test]
    fn threaded_single_node_run_still_matches_exact_dedup() {
        // On one node with the chunk-index fallback, dedup is exact no matter how
        // streams interleave: the claim protocol stores each fingerprint once.
        let dataset = presets::linux_dataset(Scale::Tiny);
        let sigma = sigma_core::SigmaConfig::builder()
            .parallelism(4)
            .build()
            .unwrap();
        let config = SimulationConfig {
            node_count: 1,
            sigma,
            client_streams: 4,
        };
        let summary = run_cluster(&dataset, Box::new(SimilarityRouter::new(true)), &config);
        assert!(
            (summary.dedup_ratio - dataset.exact_dedup_ratio()).abs() / dataset.exact_dedup_ratio()
                < 1e-9,
            "threaded cluster {} vs exact {}",
            summary.dedup_ratio,
            dataset.exact_dedup_ratio()
        );
    }

    #[test]
    fn sigma_on_tiny_linux_at_four_nodes_gives_the_pinned_figures() {
        // The exact figures, not a bound, so a change that moves any figure
        // fails here.
        let dataset = presets::linux_dataset(Scale::Tiny);
        let summary = run_cluster(
            &dataset,
            Box::new(SimilarityRouter::new(true)),
            &tiny_config(4),
        );
        assert_eq!(summary.logical_bytes, 17_154_928);
        assert_eq!(summary.physical_bytes, 2_160_221);
        assert_eq!(summary.prerouting_lookups, 1_080);
        assert_eq!(summary.postrouting_lookups, 4_891);
        assert_eq!(summary.dedup_ratio, 7.941_283_785_316_409_5);
        assert_eq!(summary.skew, 0.133_625_159_210_748_1);
    }

    #[test]
    fn detailed_run_exposes_node_stats() {
        let dataset = presets::web_dataset(Scale::Tiny);
        let outcome = run_cluster_detailed(
            &dataset,
            Box::new(SimilarityRouter::new(true)),
            &tiny_config(4),
        );
        assert_eq!(outcome.cluster.nodes.len(), 4);
        assert_eq!(outcome.cluster.logical_bytes, outcome.summary.logical_bytes);
        assert_eq!(outcome.summary.dataset, "Web");
    }
}
