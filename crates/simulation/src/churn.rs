//! The node-churn scenario: scale a live cluster out and back in under load,
//! with or without injected crashes.
//!
//! The paper evaluates static clusters; the distributed-middleware literature
//! treats node churn as the baseline condition.  [`run_churn`] is the one
//! driver of the elastic-membership story, on real payload bytes, under any
//! router:
//!
//! 1. **bootstrap** — N client streams back up a generation of versioned data;
//! 2. **scale-out** — a node joins and the [`Rebalancer`](sigma_core::Rebalancer)
//!    migrates containers onto it until it carries the cluster mean;
//! 3. **second wave** — every stream backs up a mutated next generation, which
//!    deduplicates against the (partly migrated) first generation;
//! 4. **scale-in** — one of the *original* nodes is removed and drained, leaving
//!    forwarding tombstones behind;
//! 5. **verification** — after every phase, each file acknowledged so far is
//!    restored and compared byte-for-byte; at the end every node the cluster
//!    ever had passes a structural consistency check.
//!
//! A [`FaultPlan`] arms journal crashes (see [`crash_churn`](crate::crash_churn));
//! an empty one is a fault-free run.  A crash surfaces as
//! [`StorageError::Crashed`]; the driver then restarts every crashed node with
//! [`DedupCluster::restart_node`] and retries the interrupted operation, which
//! is safe because backups deduplicate against everything durably recovered
//! and container adoption is idempotent per origin.  With nothing armed no
//! operation fails, so no loop runs twice.
//!
//! The scenario is deterministic (seeded payloads, deterministic rebalance
//! plans, stream-ordered seals), so it doubles as a regression test and as the
//! workload behind the `rebalance_throughput` bench.

use crate::crash_churn::FaultPlan;
use sigma_core::{
    BackupClient, DataRouter, DedupCluster, MessageStats, RebalanceReport, RecoveryReport,
    SigmaConfig, SigmaError,
};
use sigma_storage::StorageError;
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
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
    /// Deterministic seed for the payload generators (and a crash sweep's
    /// fault plans).
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
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPhase {
    /// Phase label: `"bootstrap"`, `"scale-out"`, `"second-wave"` or
    /// `"scale-in"`.
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
    /// Cluster message counters after the phase.
    pub messages: MessageStats,
    /// Files acknowledged so far.
    pub files: usize,
    /// Acknowledged files that restored byte-identically after the phase.
    pub restored_intact: usize,
}

/// The outcome of a churn scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The fault plan the run was armed with (empty for a fault-free run).
    pub plan: FaultPlan,
    /// One snapshot per phase, in order.
    pub phases: Vec<ChurnPhase>,
    /// Rebalance report of the scale-out migration (its last attempt).
    pub join_rebalance: RebalanceReport,
    /// Rebalance report of the scale-in drain (its last attempt).
    pub leave_rebalance: RebalanceReport,
    /// One report per crashed node restarted, in order.
    pub recoveries: Vec<RecoveryReport>,
    /// First consistency-check failure across every node the cluster had.
    pub consistency_error: Option<String>,
    /// `(node, journal appends)` of every node that appended at all: the
    /// activity profile [`FaultPlan::sample_one`] samples kill points from.
    pub journal_appends: Vec<(usize, u64)>,
}

impl ChurnOutcome {
    /// The final phase: every file the run acknowledged.
    fn last(&self) -> &ChurnPhase {
        self.phases.last().expect("a run records every phase")
    }

    /// Files written across both backup waves.
    pub fn files(&self) -> usize {
        self.last().files
    }

    /// Cluster physical bytes at the end of the run.
    pub fn physical_bytes(&self) -> u64 {
        self.last().physical_bytes
    }

    /// True when after every phase every file acknowledged so far restored
    /// byte-identically.
    pub fn all_restored(&self) -> bool {
        self.phases.iter().all(|p| p.restored_intact == p.files)
    }

    /// True when both migrations conserved physical bytes (nothing duplicated
    /// or lost by the rebalancer): the join's and the drain's phase end with
    /// the bytes the phase before it ended with.
    pub fn bytes_conserved(&self) -> bool {
        self.phases
            .windows(2)
            .filter(|w| matches!(w[1].label, "scale-out" | "scale-in"))
            .all(|w| w[0].physical_bytes == w[1].physical_bytes)
    }

    /// True when every restore held and every node is structurally
    /// consistent.
    pub fn is_clean(&self) -> bool {
        self.all_restored() && self.consistency_error.is_none()
    }
}

/// Runs the churn scenario under `router` with `plan` armed: backup → add
/// node → backup → remove node, restore-verifying after every phase.
///
/// A file-backed `config.sigma` starts from an empty medium: whatever is
/// under its `storage_root` is removed first.
///
/// # Panics
///
/// Panics if `config.initial_nodes`/`config.streams` is zero, if an operation
/// fails for any reason but an injected crash, or if a crashed node cannot
/// be recovered (which is exactly the regression a crash sweep exists to
/// catch).
pub fn run_churn(
    config: &ChurnConfig,
    router: Box<dyn DataRouter>,
    plan: &FaultPlan,
) -> ChurnOutcome {
    assert!(config.initial_nodes > 0, "need at least one node");
    assert!(config.streams > 0, "need at least one stream");
    if let Some(root) = config.sigma.storage_root.as_ref().filter(|r| r.exists()) {
        std::fs::remove_dir_all(root).expect("clear the storage root");
    }
    let cluster = Arc::new(DedupCluster::new(
        config.initial_nodes,
        config.sigma.clone(),
        router,
    ));
    plan.arm(&cluster);

    // Two generations of payload per stream, generated up front so restores
    // can be verified against ground truth.
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

    // One backup wave, acknowledged as a unit by its closing flush.  A crash
    // anywhere inside the wave restarts the *whole* wave: files whose backup
    // calls had already returned may still hold chunks in the crashed node's
    // open (never-journaled) containers, so nothing in the wave counts as
    // acknowledged until the flush comes back clean.  Discarded attempts leave
    // orphaned recipes behind — exactly like an aborted backup job — and the
    // retry deduplicates against everything that did survive.
    let backup_wave = |generation: usize| {
        let (clients, generations, cluster) = (&clients, &generations, &cluster);
        move || -> Result<Vec<(u64, Vec<u8>)>, SigmaError> {
            let mut wave = Vec::with_capacity(clients.len());
            for (client, versions) in clients.iter().zip(generations) {
                let (name, data) = &versions[generation];
                let report = client.backup_bytes(name, data)?;
                wave.push((report.file_id, data.clone()));
            }
            cluster.try_flush()?;
            Ok(wave)
        }
    };
    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut recoveries = Vec::new();
    let mut phases = Vec::new();

    // Phase 1: bootstrap backups on the initial cluster.
    acked.extend(retry_crashed(&cluster, &mut recoveries, backup_wave(0)));
    phases.push(phase("bootstrap", &cluster, &acked));

    // Phase 2: scale out — join a node and migrate containers onto it.  The
    // plan is re-armed so kill points aimed at the joined node take effect
    // now that it exists; a crash mid-rebalance is recovered and the rebalance
    // re-planned from live state.
    let joined = cluster.add_node();
    plan.arm(&cluster);
    let join_rebalance =
        retry_crashed(&cluster, &mut recoveries, || cluster.rebalance_onto(joined));
    phases.push(phase("scale-out", &cluster, &acked));

    // Phase 3: second backup wave, deduplicating against migrated state.
    acked.extend(retry_crashed(&cluster, &mut recoveries, backup_wave(1)));
    phases.push(phase("second-wave", &cluster, &acked));

    // Phase 4: scale in — remove one of the *original* nodes, so recipes from
    // both waves must follow its forwarding tombstones from now on.  After a
    // crash the drain resumes (the victim already left the active map).
    let victim = cluster.node_ids()[0];
    let mut removing = true;
    let leave_rebalance = retry_crashed(&cluster, &mut recoveries, || {
        if std::mem::take(&mut removing) {
            cluster.remove_node(victim)
        } else {
            cluster.resume_drain(victim).and_then(|r| r.run())
        }
    });
    phases.push(phase("scale-in", &cluster, &acked));

    // Structural consistency of every node the cluster ever had, retired and
    // recovered ones included.
    let nodes: Vec<_> = (0..=joined)
        .filter_map(|id| cluster.node_by_id(id))
        .collect();
    let consistency_error = nodes.iter().find_map(|n| n.verify_consistency().err());
    let journal_appends = nodes
        .iter()
        .map(|n| (n.id(), n.journal().next_seq()))
        .filter(|&(_, appends)| appends > 0)
        .collect();

    ChurnOutcome {
        plan: plan.clone(),
        phases,
        join_rebalance,
        leave_rebalance,
        recoveries,
        consistency_error,
        journal_appends,
    }
}

/// Snapshots the cluster after a phase and restores every acknowledged file.
fn phase(label: &'static str, cluster: &DedupCluster, acked: &[(u64, Vec<u8>)]) -> ChurnPhase {
    let stats = cluster.stats();
    let restored_intact = acked
        .iter()
        .filter(|(file_id, data)| cluster.restore_file(*file_id).is_ok_and(|b| b == *data))
        .count();
    ChurnPhase {
        label,
        generation: cluster.generation(),
        node_count: stats.node_count,
        physical_bytes: stats.physical_bytes,
        dedup_ratio: stats.dedup_ratio,
        usage_skew: stats.usage_skew,
        messages: stats.messages,
        files: acked.len(),
        restored_intact,
    }
}

/// Runs `op`, recovering crashed nodes and retrying until it succeeds.
fn retry_crashed<T>(
    cluster: &DedupCluster,
    recoveries: &mut Vec<RecoveryReport>,
    mut op: impl FnMut() -> Result<T, SigmaError>,
) -> T {
    loop {
        match op() {
            Ok(value) => return value,
            Err(SigmaError::Storage(StorageError::Crashed)) => {
                let crashed = cluster.crashed_nodes();
                assert!(
                    !crashed.is_empty(),
                    "a crash error surfaced but no node reports a crashed journal"
                );
                for id in crashed {
                    let report = cluster
                        .restart_node(id)
                        .expect("a journaled node must be recoverable");
                    recoveries.push(report);
                }
            }
            Err(e) => panic!("operation failed for a non-crash reason: {}", e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_core::SimilarityRouter;

    fn sigma() -> Box<dyn DataRouter> {
        Box::new(SimilarityRouter::new(true))
    }

    fn run(config: &ChurnConfig) -> ChurnOutcome {
        run_churn(config, sigma(), &FaultPlan::default())
    }

    #[test]
    fn churn_scenario_restores_everything_and_conserves_bytes() {
        let outcome = run(&ChurnConfig::default());
        assert_eq!(outcome.files(), 8, "4 streams x 2 generations");
        assert!(
            outcome.all_restored(),
            "a phase restored a file wrong: {:?}",
            outcome.phases
        );
        assert!(
            outcome.bytes_conserved(),
            "rebalancer changed physical bytes: {:?}",
            outcome.phases
        );
        assert!(outcome.is_clean(), "{:?}", outcome.consistency_error);
        assert!(outcome.recoveries.is_empty(), "nothing was armed");
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

    /// The default scenario's figures, pinned: restoring after every phase
    /// changes none of them.
    #[test]
    fn the_default_scenario_keeps_its_figures() {
        let outcome = run(&ChurnConfig::default());
        let figures: Vec<_> = outcome
            .phases
            .iter()
            .map(|p| {
                let figures = (p.generation, p.node_count, p.physical_bytes);
                (p.label, figures, p.dedup_ratio, p.usage_skew)
            })
            .collect();
        assert_eq!(
            figures,
            [
                ("bootstrap", (0, 3, 2_097_152), 1.0, 0.04419417382415922),
                ("scale-out", (1, 4, 2_097_152), 1.0, 0.0),
                (
                    "second-wave",
                    (1, 4, 2_338_816),
                    1.7933450087565674,
                    0.06154565110614914
                ),
                (
                    "scale-in",
                    (2, 3, 2_338_816),
                    1.7933450087565674,
                    0.032482026253925406
                ),
            ]
        );
        assert_eq!(
            outcome.join_rebalance,
            RebalanceReport {
                containers_moved: 3,
                bytes_moved: 524_288,
                chunks_moved: 128,
                generation: 1,
            }
        );
        assert_eq!(
            outcome.leave_rebalance,
            RebalanceReport {
                containers_moved: 6,
                bytes_moved: 552_960,
                chunks_moved: 135,
                generation: 2,
            }
        );
    }

    #[test]
    fn second_wave_deduplicates_against_migrated_state() {
        let outcome = run(&ChurnConfig {
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
        let a = run(&ChurnConfig::default());
        let b = run(&ChurnConfig::default());
        assert_eq!(a, b);
    }
}
