//! The node-churn scenario: scale a live cluster out and back in under load.
//!
//! The paper evaluates static clusters; the distributed-middleware literature
//! treats node churn as the baseline condition.  This module drives the end-to-end
//! elastic-membership story on real payload bytes:
//!
//! 1. **bootstrap** — N client streams back up a generation of versioned data;
//! 2. **scale-out** — a node joins and the [`Rebalancer`](sigma_core::Rebalancer)
//!    migrates containers onto it until it carries the cluster mean;
//! 3. **second wave** — every stream backs up a mutated next generation, which
//!    deduplicates against the (partly migrated) first generation;
//! 4. **scale-in** — one of the *original* nodes is removed and drained, leaving
//!    forwarding tombstones behind;
//! 5. **verification** — every file written at *any* generation is restored and
//!    compared byte-for-byte, and physical bytes are checked for conservation
//!    across both migrations (the rebalancer may neither duplicate nor lose a
//!    chunk).
//!
//! The scenario is deterministic (seeded payloads, deterministic rebalance plans),
//! so it doubles as a regression test and as the workload behind the
//! `rebalance_throughput` bench.

use sigma_core::{BackupClient, DedupCluster, RebalanceReport, SigmaConfig};
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of one churn scenario run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Nodes the cluster starts with.
    pub initial_nodes: usize,
    /// Concurrent client streams (each backs up one file per phase).
    pub streams: usize,
    /// Bytes per stream per backup generation.
    pub stream_bytes: usize,
    /// Fraction of 4 KB regions rewritten between the two backup generations.
    pub mutation_rate: f64,
    /// Deterministic seed for the payload generators.
    pub seed: u64,
    /// Σ-Dedupe configuration shared by clients and nodes.
    pub sigma: SigmaConfig,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            initial_nodes: 3,
            streams: 4,
            stream_bytes: 512 * 1024,
            mutation_rate: 0.05,
            seed: 0x5157,
            sigma: SigmaConfig::builder()
                .super_chunk_size(64 * 1024)
                .container_capacity(256 * 1024)
                .build()
                .expect("default churn config is valid"),
        }
    }
}

/// A point-in-time snapshot taken after each phase of the scenario.
#[derive(Debug, Clone)]
pub struct ChurnPhase {
    /// Phase label (`"bootstrap"`, `"scale-out"`, …).
    pub label: &'static str,
    /// Membership generation after the phase.
    pub generation: u64,
    /// Active node count after the phase.
    pub node_count: usize,
    /// Cluster physical bytes after the phase.
    pub physical_bytes: u64,
    /// Cluster dedup ratio after the phase.
    pub dedup_ratio: f64,
    /// Per-node storage-usage skew after the phase.
    pub usage_skew: f64,
}

/// The outcome of a churn scenario run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// One snapshot per phase, in order.
    pub phases: Vec<ChurnPhase>,
    /// Files written across both backup waves.
    pub files: usize,
    /// Files that restored byte-identically at the end of the scenario.
    pub restored_intact: usize,
    /// Rebalance report of the scale-out migration.
    pub join_rebalance: RebalanceReport,
    /// Rebalance report of the scale-in (node-removal) migration.
    pub leave_rebalance: RebalanceReport,
    /// Physical bytes immediately before the node removal.
    pub physical_before_leave: u64,
    /// Physical bytes immediately after the removal's drain completed.
    pub physical_after_leave: u64,
}

impl ChurnOutcome {
    /// True when every file written at any generation restored byte-identically.
    pub fn all_restored(&self) -> bool {
        self.restored_intact == self.files
    }

    /// True when both migrations conserved physical bytes (nothing duplicated or
    /// lost by the rebalancer).
    pub fn bytes_conserved(&self) -> bool {
        self.physical_before_leave == self.physical_after_leave
    }
}

/// Runs the churn scenario: backup → add node → backup → remove node → restore
/// everything.
///
/// # Panics
///
/// Panics if a backup fails (payload-driven backups cannot legitimately fail) or
/// if `config.initial_nodes`/`config.streams` is zero.
pub fn run_churn(config: &ChurnConfig) -> ChurnOutcome {
    assert!(config.initial_nodes > 0, "need at least one node");
    assert!(config.streams > 0, "need at least one stream");
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        config.initial_nodes,
        config.sigma.clone(),
    ));

    // Two generations of payload per stream, generated up front so restores can
    // be verified against ground truth at the end.
    let generations: Vec<Vec<(String, Vec<u8>)>> = (0..config.streams as u64)
        .map(|s| {
            versioned_payloads(VersionedPayloadParams {
                seed: config.seed.wrapping_add(s),
                versions: 2,
                version_size: config.stream_bytes,
                mutation_rate: config.mutation_rate,
            })
        })
        .collect();

    let clients: Vec<BackupClient> = (0..config.streams as u64)
        .map(|s| BackupClient::new(cluster.clone(), s))
        .collect();
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut phases = Vec::new();
    let snapshot = |label: &'static str, cluster: &DedupCluster| {
        let stats = cluster.stats();
        ChurnPhase {
            label,
            generation: cluster.generation(),
            node_count: stats.node_count,
            physical_bytes: stats.physical_bytes,
            dedup_ratio: stats.dedup_ratio,
            usage_skew: stats.usage_skew,
        }
    };

    // Phase 1: bootstrap backups on the initial cluster.
    for (client, gens) in clients.iter().zip(&generations) {
        let (name, data) = &gens[0];
        let report = client.backup_bytes(name, data).expect("backup succeeds");
        expected.insert(report.file_id, data.clone());
    }
    cluster
        .try_flush()
        .expect("no fault injection in the plain churn scenario");
    phases.push(snapshot("bootstrap", &cluster));

    // Phase 2: scale out — join a node and migrate containers onto it.
    let (_joined, join_rebalance) = cluster
        .add_node_rebalanced()
        .expect("no fault injection in the plain churn scenario");
    phases.push(snapshot("scale-out", &cluster));

    // Phase 3: second backup wave, deduplicating against migrated state.
    for (client, gens) in clients.iter().zip(&generations) {
        let (name, data) = &gens[1];
        let report = client.backup_bytes(name, data).expect("backup succeeds");
        expected.insert(report.file_id, data.clone());
    }
    cluster
        .try_flush()
        .expect("no fault injection in the plain churn scenario");
    phases.push(snapshot("second-wave", &cluster));

    // Phase 4: scale in — remove one of the *original* nodes, so recipes from
    // both waves must follow its forwarding tombstones from now on.
    let physical_before_leave = cluster.stats().physical_bytes;
    let victim = cluster.node_ids()[0];
    let leave_rebalance = cluster
        .remove_node(victim)
        .expect("cluster has more than one node");
    let physical_after_leave = cluster.stats().physical_bytes;
    phases.push(snapshot("scale-in", &cluster));

    // Phase 5: restore every file written at any generation.
    let restored_intact = expected
        .iter()
        .filter(|(file_id, data)| {
            cluster
                .restore_file(**file_id)
                .map(|bytes| bytes == **data)
                .unwrap_or(false)
        })
        .count();

    ChurnOutcome {
        phases,
        files: expected.len(),
        restored_intact,
        join_rebalance,
        leave_rebalance,
        physical_before_leave,
        physical_after_leave,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_scenario_restores_everything_and_conserves_bytes() {
        let outcome = run_churn(&ChurnConfig::default());
        assert_eq!(outcome.files, 8, "4 streams x 2 generations");
        assert!(
            outcome.all_restored(),
            "only {}/{} files restored byte-identically",
            outcome.restored_intact,
            outcome.files
        );
        assert!(
            outcome.bytes_conserved(),
            "rebalancer changed physical bytes: {} -> {}",
            outcome.physical_before_leave,
            outcome.physical_after_leave
        );
        // The join migration actually moved data onto the new node.
        assert!(outcome.join_rebalance.containers_moved > 0);
        // The drain moved every sealed container off the victim.
        assert!(outcome.leave_rebalance.containers_moved > 0);
        // Generations: 0 (bootstrap) -> 1 (join) -> 2 (leave).
        assert_eq!(outcome.phases.last().unwrap().generation, 2);
        assert_eq!(
            outcome.phases.last().unwrap().node_count,
            ChurnConfig::default().initial_nodes,
            "grew by one, shrank by one"
        );
    }

    #[test]
    fn second_wave_deduplicates_against_migrated_state() {
        let outcome = run_churn(&ChurnConfig {
            mutation_rate: 0.02,
            ..ChurnConfig::default()
        });
        // Wave 2 rewrites ~2% of each stream; with the chunk-index fallback the
        // second wave must deduplicate heavily against wave 1 even though some of
        // wave 1's containers migrated to the joined node in between.
        let second_wave = outcome
            .phases
            .iter()
            .find(|p| p.label == "second-wave")
            .unwrap();
        assert!(
            second_wave.dedup_ratio > 1.5,
            "dedup ratio {} too low: migration broke dedup continuity",
            second_wave.dedup_ratio
        );
    }

    #[test]
    fn churn_is_deterministic() {
        let a = run_churn(&ChurnConfig::default());
        let b = run_churn(&ChurnConfig::default());
        assert_eq!(a.physical_after_leave, b.physical_after_leave);
        assert_eq!(a.join_rebalance, b.join_rebalance);
        assert_eq!(a.leave_rebalance, b.leave_rebalance);
    }
}
