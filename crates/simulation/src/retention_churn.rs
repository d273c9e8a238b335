//! The retention-churn scenario: generational backups, expiry and reclamation.
//!
//! Protection workloads are generational: every night a new backup wave arrives,
//! and the oldest wave expires.  The paper's clusters are append-only; this
//! scenario drives the lifecycle the ROADMAP's production north-star needs:
//!
//! 1. **ingest** — N client streams back up `generations` successive versions of
//!    their data (each generation mutates a fraction of the previous one and
//!    appends fresh bytes), every wave tagged with its backup generation;
//! 2. **expire** — the oldest `expire` generations are deleted one by one, each
//!    deletion followed by a full [`DedupCluster::collect_garbage`] mark-and-sweep;
//! 3. **verification** — every *surviving* file must restore byte-identically,
//!    physical bytes must strictly shrink versus the no-GC baseline (the
//!    pre-expiry figure — deletion without GC reclaims nothing), and must never
//!    fall below the bytes the mark phase proved live.
//!
//! The scenario is deterministic (seeded payloads, deterministic mark order and
//! sweep plans), so it doubles as a regression test and as the workload behind
//! the `gc_compaction` bench.

use sigma_core::{BackupClient, DedupCluster, GcReport, SigmaConfig};
use sigma_workloads::payload::{generational_payloads, GenerationalPayloadParams};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of one retention-churn run.
#[derive(Debug, Clone)]
pub struct RetentionConfig {
    /// Deduplication nodes in the cluster.
    pub nodes: usize,
    /// Concurrent client streams (one file per stream per generation).
    pub streams: usize,
    /// Backup generations ingested.
    pub generations: usize,
    /// Oldest generations expired (must be < `generations`).
    pub expire: usize,
    /// Bytes per stream in generation 0.
    pub initial_stream_bytes: usize,
    /// Fresh bytes each stream appends per generation.
    pub growth_per_generation: usize,
    /// Fraction of 4 KB regions rewritten between generations.
    pub mutation_rate: f64,
    /// Deterministic seed for the payload generators.
    pub seed: u64,
    /// Σ-Dedupe configuration shared by clients and nodes (including
    /// [`SigmaConfig::gc_liveness_threshold`]).
    pub sigma: SigmaConfig,
}

impl Default for RetentionConfig {
    fn default() -> Self {
        RetentionConfig {
            nodes: 3,
            streams: 3,
            generations: 4,
            expire: 2,
            initial_stream_bytes: 384 * 1024,
            growth_per_generation: 32 * 1024,
            mutation_rate: 0.2,
            seed: 0x9E7E,
            // Threshold 0.9: a container whose data is more than 10% dead is
            // compacted.  With 20% churn per generation, expired generations
            // leave their containers ~20-40% dead, so the default scenario
            // reclaims robustly; lower thresholds trade reclaim for less
            // rewrite I/O (see the `gc_compaction` bench for the curve).
            sigma: SigmaConfig::builder()
                .super_chunk_size(64 * 1024)
                .container_capacity(128 * 1024)
                .gc_liveness_threshold(0.9)
                .build()
                .expect("default retention config is valid"),
        }
    }
}

/// One expiry round: delete a generation, then mark-and-sweep.
#[derive(Debug, Clone)]
pub struct RetentionRound {
    /// The generation this round expired.
    pub generation: u64,
    /// Logical bytes the deletion released from the root set.
    pub logical_freed: u64,
    /// The garbage collection that followed.
    pub gc: GcReport,
    /// Cluster physical bytes after the sweep.
    pub physical_after: u64,
}

/// The outcome of a retention-churn run.
#[derive(Debug, Clone)]
pub struct RetentionOutcome {
    /// Files written across all generations.
    pub files: usize,
    /// Files whose generation survived the expiry.
    pub survivors: usize,
    /// Surviving files that restored byte-identically at the end.
    pub restored_intact: usize,
    /// Cluster physical bytes after ingest, before any expiry — exactly what a
    /// no-GC run would hold forever (deletion without a sweep reclaims nothing).
    pub physical_before_expiry: u64,
    /// Cluster physical bytes after the last sweep.
    pub physical_after: u64,
    /// Physical bytes reclaimed across all sweeps.
    pub reclaimed_bytes: u64,
    /// One record per expiry round, in order.
    pub rounds: Vec<RetentionRound>,
}

impl RetentionOutcome {
    /// True when every surviving file restored byte-identically.
    pub fn all_restored(&self) -> bool {
        self.restored_intact == self.survivors
    }

    /// True when the expiry actually shrank physical storage versus the no-GC
    /// baseline (the acceptance criterion of a working backup lifecycle).
    pub fn space_reclaimed(&self) -> bool {
        self.reclaimed_bytes > 0 && self.physical_after < self.physical_before_expiry
    }

    /// True when no sweep ever took physical bytes below the bytes its own mark
    /// phase proved live — GC may only ever remove garbage.
    pub fn never_below_live(&self) -> bool {
        self.rounds
            .iter()
            .all(|round| round.physical_after >= round.gc.live_bytes)
    }
}

/// Runs the retention-churn scenario: ingest `generations` waves, expire the
/// oldest `expire` of them (delete + mark-and-sweep each), restore-verify the
/// survivors.
///
/// # Panics
///
/// Panics if `expire >= generations`, if `nodes`/`streams` is zero, or if a
/// backup fails (payload-driven backups cannot legitimately fail).
pub fn run_retention(config: &RetentionConfig) -> RetentionOutcome {
    assert!(config.nodes > 0, "need at least one node");
    assert!(config.streams > 0, "need at least one stream");
    assert!(
        config.expire < config.generations,
        "at least one generation must survive"
    );
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        config.nodes,
        config.sigma.clone(),
    ));

    // Ground truth, generated up front: per stream, one payload per generation.
    let datasets: Vec<Vec<(String, Vec<u8>)>> = (0..config.streams as u64)
        .map(|s| {
            generational_payloads(GenerationalPayloadParams {
                seed: config.seed.wrapping_add(s.wrapping_mul(0x9E37)),
                generations: config.generations,
                initial_size: config.initial_stream_bytes,
                mutation_rate: config.mutation_rate,
                growth_per_generation: config.growth_per_generation,
            })
        })
        .collect();

    // Ingest: every generation is one backup wave; each stream's wave runs
    // under a session tagged with the generation, so expiry can target it.
    let mut expected: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
    for generation in 0..config.generations as u64 {
        for (stream, dataset) in datasets.iter().enumerate() {
            let client = BackupClient::with_generation(cluster.clone(), stream as u64, generation);
            let (name, data) = &dataset[generation as usize];
            let report = client
                .backup_bytes(&format!("stream-{}/{}", stream, name), data)
                .expect("backup succeeds");
            expected.insert(report.file_id, (generation, data.clone()));
        }
        cluster
            .try_flush()
            .expect("no faults are injected in the retention scenario");
    }
    let physical_before_expiry = cluster.stats().physical_bytes;

    // Expire the oldest generations, sweeping after each deletion.
    let mut rounds = Vec::with_capacity(config.expire);
    for generation in 0..config.expire as u64 {
        let logical_freed = cluster
            .delete_generation(generation)
            .expect("delete_generation is total");
        let gc = cluster
            .collect_garbage()
            .expect("no fault injection in the plain retention scenario");
        rounds.push(RetentionRound {
            generation,
            logical_freed,
            gc,
            physical_after: cluster.stats().physical_bytes,
        });
    }

    // Verify every surviving file, byte for byte.
    let survivors: Vec<(&u64, &(u64, Vec<u8>))> = expected
        .iter()
        .filter(|(_, (generation, _))| *generation >= config.expire as u64)
        .collect();
    let restored_intact = survivors
        .iter()
        .filter(|(file_id, (_, data))| {
            cluster
                .restore_file(**file_id)
                .map(|bytes| &bytes == data)
                .unwrap_or(false)
        })
        .count();

    RetentionOutcome {
        files: expected.len(),
        survivors: survivors.len(),
        restored_intact,
        physical_before_expiry,
        physical_after: cluster.stats().physical_bytes,
        reclaimed_bytes: rounds.iter().map(|r| r.gc.bytes_reclaimed).sum(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_reclaims_space_and_preserves_survivors() {
        let outcome = run_retention(&RetentionConfig::default());
        assert_eq!(outcome.files, 12, "3 streams x 4 generations");
        assert_eq!(outcome.survivors, 6, "2 of 4 generations survive");
        assert!(
            outcome.all_restored(),
            "only {}/{} survivors restored byte-identically",
            outcome.restored_intact,
            outcome.survivors
        );
        assert!(
            outcome.space_reclaimed(),
            "expiry reclaimed nothing: {} -> {}",
            outcome.physical_before_expiry,
            outcome.physical_after
        );
        assert!(outcome.never_below_live());
        // Physical bytes shrink monotonically round over round.
        let mut previous = outcome.physical_before_expiry;
        for round in &outcome.rounds {
            assert!(round.physical_after <= previous);
            assert!(round.logical_freed > 0);
            previous = round.physical_after;
        }
    }

    #[test]
    fn expiring_nothing_reclaims_nothing() {
        let outcome = run_retention(&RetentionConfig {
            generations: 2,
            expire: 0,
            ..RetentionConfig::default()
        });
        assert!(outcome.rounds.is_empty());
        assert_eq!(outcome.physical_after, outcome.physical_before_expiry);
        assert_eq!(outcome.survivors, outcome.files);
        assert!(outcome.all_restored());
    }

    #[test]
    fn retention_is_deterministic() {
        let a = run_retention(&RetentionConfig::default());
        let b = run_retention(&RetentionConfig::default());
        assert_eq!(a.physical_before_expiry, b.physical_before_expiry);
        assert_eq!(a.physical_after, b.physical_after);
        assert_eq!(a.reclaimed_bytes, b.reclaimed_bytes);
        assert_eq!(
            a.rounds.iter().map(|r| r.gc.clone()).collect::<Vec<_>>(),
            b.rounds.iter().map(|r| r.gc.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn retention_composes_with_membership_churn() {
        // Expiry and GC on a cluster that grew and shrank mid-ingest: the mark
        // phase must follow forwarding tombstones, and reclamation must not
        // disturb migrated survivors.
        let config = RetentionConfig::default();
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            config.nodes,
            config.sigma.clone(),
        ));
        let datasets: Vec<Vec<(String, Vec<u8>)>> = (0..config.streams as u64)
            .map(|s| {
                generational_payloads(GenerationalPayloadParams {
                    seed: config.seed.wrapping_add(s),
                    generations: 3,
                    initial_size: config.initial_stream_bytes,
                    mutation_rate: config.mutation_rate,
                    growth_per_generation: config.growth_per_generation,
                })
            })
            .collect();
        let mut expected: HashMap<u64, (u64, Vec<u8>)> = HashMap::new();
        for generation in 0..3u64 {
            for (stream, dataset) in datasets.iter().enumerate() {
                let client =
                    BackupClient::with_generation(cluster.clone(), stream as u64, generation);
                let (name, data) = &dataset[generation as usize];
                let report = client.backup_bytes(name, data).expect("backup succeeds");
                expected.insert(report.file_id, (generation, data.clone()));
            }
            cluster.try_flush().expect("no faults");
            match generation {
                0 => {
                    cluster.add_node_rebalanced().expect("no faults");
                }
                1 => {
                    let victim = cluster.node_ids()[0];
                    cluster.remove_node(victim).expect("no faults");
                }
                _ => {}
            }
        }

        cluster.delete_generation(0).unwrap();
        let before = cluster.stats().physical_bytes;
        let report = cluster.collect_garbage().unwrap();
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(
            cluster.stats().physical_bytes,
            before - report.bytes_reclaimed
        );
        assert!(cluster.stats().physical_bytes >= report.live_bytes);
        for (file_id, (generation, data)) in &expected {
            if *generation == 0 {
                assert!(cluster.restore_file(*file_id).is_err());
            } else {
                assert_eq!(&cluster.restore_file(*file_id).unwrap(), data);
            }
        }
        for id in cluster.node_ids() {
            cluster
                .node_by_id(id)
                .unwrap()
                .verify_consistency()
                .unwrap();
        }
    }
}
