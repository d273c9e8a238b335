//! Property tests for the backup lifecycle: generational expiry, garbage
//! collection, and GC crash recovery.
//!
//! Three properties:
//!
//! * **retention churn** — for random scenario shapes (generations, expiry
//!   depth, streams, mutation rates), expiring k of n generations leaves every
//!   surviving file restoring byte-identically, strictly shrinks physical bytes
//!   versus the no-GC baseline, and never sweeps below the bytes the mark phase
//!   proved live.
//! * **GC crash boundaries** — on a durable cluster, kill a node at *every*
//!   journal append the delete + mark-and-sweep window performs (recipe-delete
//!   audit records, GC drops and GC compactions alike, torn and clean);
//!   recovery plus one re-run of the sweep must converge to exactly the
//!   fault-free end state: same physical bytes, survivors intact, deleted data
//!   not resurrected, `verify_consistency` green on every node.
//! * **lifecycle edge cases** — unknown/double deletes and delete-then-restore
//!   fail with clean `SigmaError`s; GC on an empty cluster is a no-op.
//!
//! `SIGMA_FAULT_SEED` perturbs the workload seeds, so the CI seed matrix
//! explores different workloads with the same deterministic harness.

use proptest::prelude::*;
use sigma_dedupe::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Extra seed from the environment so a CI matrix varies the workloads.
fn env_seed() -> u64 {
    std::env::var("SIGMA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property of the backup lifecycle: expiring k of n
    /// generations leaves every survivor byte-identical and never sweeps live
    /// bytes, at *any* liveness threshold; at the maximal-reclaim threshold
    /// (1.0 — compact any container with a single dead byte) physical bytes
    /// strictly decrease versus the no-GC baseline.
    #[test]
    fn retention_churn_reclaims_space_and_preserves_survivors(
        generations in 2usize..5,
        expire_frac in 1usize..4,
        streams in 1usize..4,
        mutation in 0.1f64..0.4,
        threshold in 0.0f64..1.0,
    ) {
        let expire = expire_frac.min(generations - 1);
        let config_at = |threshold: f64| RetentionConfig {
            streams,
            generations,
            expire,
            mutation_rate: mutation,
            seed: 0x9E7E ^ env_seed().wrapping_mul(0x2545_F491),
            sigma: SigmaConfig::builder()
                .super_chunk_size(64 * 1024)
                .container_capacity(128 * 1024)
                .gc_liveness_threshold(threshold)
                .build()
                .unwrap(),
            ..RetentionConfig::default()
        };

        // Invariants hold at any sampled threshold: survivors intact, sweeps
        // monotone, never below the proven-live bytes, exact accounting.
        let outcome = run_retention(&config_at(threshold));
        prop_assert!(
            outcome.all_restored(),
            "only {}/{} survivors restored byte-identically",
            outcome.restored_intact,
            outcome.survivors
        );
        prop_assert!(outcome.never_below_live(), "GC swept live bytes");
        prop_assert!(outcome.physical_after <= outcome.physical_before_expiry);
        prop_assert_eq!(
            outcome.physical_after,
            outcome.physical_before_expiry
                - outcome.rounds.iter().map(|r| r.gc.bytes_reclaimed).sum::<u64>(),
            "reclaimed bytes must account exactly for the shrinkage"
        );

        // The same workload under the maximal-reclaim threshold: expiry must
        // strictly shrink physical storage versus the no-GC run (which holds
        // `physical_before_expiry` forever).
        let aggressive = run_retention(&config_at(1.0));
        prop_assert!(
            aggressive.space_reclaimed(),
            "expiring {}/{} generations reclaimed nothing ({} -> {})",
            expire,
            generations,
            aggressive.physical_before_expiry,
            aggressive.physical_after
        );
        prop_assert!(aggressive.all_restored());
        prop_assert!(aggressive.never_below_live());
        // A lower threshold can only reclaim less, never more.
        prop_assert!(outcome.reclaimed_bytes <= aggressive.reclaimed_bytes);
    }
}

// ---- GC crash boundaries ----

fn durable_config() -> SigmaConfig {
    SigmaConfig::builder()
        .super_chunk_size(4 * 1024)
        .chunker(ChunkerParams::fixed(512))
        .container_capacity(8 * 1024)
        .cache_containers(4)
        // Maximal reclaim: every container with a dead byte is compacted, so
        // the crash sweep exercises GcCompact *and* GcDrop records on every run.
        .gc_liveness_threshold(1.0)
        .build()
        .expect("valid test config")
}

/// Ground truth per file: `(generation, payload)`.
type Expected = HashMap<u64, (u64, Vec<u8>)>;

/// Three generations from two streams on a durable 3-node cluster, flushed
/// (acknowledged) per wave; returns the cluster and per-file ground truth.
fn generational_cluster(case: u64) -> (Arc<DedupCluster>, Expected) {
    let cluster = Arc::new(DedupCluster::with_similarity_router(3, durable_config()));
    let datasets: Vec<Vec<(String, Vec<u8>)>> = (0..2u64)
        .map(|stream| {
            generational_payloads(GenerationalPayloadParams {
                seed: case
                    .wrapping_mul(0x9E37)
                    .wrapping_add(stream)
                    .wrapping_add(env_seed().wrapping_mul(0x2545_F491)),
                generations: 3,
                initial_size: 32 * 1024,
                mutation_rate: 0.5,
                growth_per_generation: 2 * 1024,
            })
        })
        .collect();
    let mut expected = HashMap::new();
    for generation in 0..3u64 {
        for (stream, dataset) in datasets.iter().enumerate() {
            let client = BackupClient::with_generation(cluster.clone(), stream as u64, generation);
            let (name, data) = &dataset[generation as usize];
            let report = client
                .backup_bytes(name, data)
                .expect("payload backup cannot fail");
            expected.insert(report.file_id, (generation, data.clone()));
        }
        cluster.try_flush().expect("no fault armed yet");
    }
    (cluster, expected)
}

fn assert_lifecycle_state(cluster: &DedupCluster, expected: &Expected) {
    for (file_id, (generation, data)) in expected {
        if *generation == 0 {
            assert!(
                matches!(
                    cluster.restore_file(*file_id),
                    Err(SigmaError::FileNotFound(_))
                ),
                "deleted file {} must stay deleted",
                file_id
            );
        } else {
            assert_eq!(
                &cluster
                    .restore_file(*file_id)
                    .unwrap_or_else(|e| panic!("file {} failed to restore: {}", file_id, e)),
                data,
                "file {} corrupted",
                file_id
            );
        }
    }
    for id in 0..3 {
        cluster
            .node_by_id(id)
            .unwrap()
            .verify_consistency()
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Killing a node at every journal append inside the delete + sweep window
    /// converges, after recovery and one re-run, to the fault-free end state:
    /// deleted data cannot resurrect, live chunks cannot be lost.
    #[test]
    fn gc_crashed_at_any_record_boundary_converges(case in 0u64..1000) {
        // Fault-free baseline: what the lifecycle must always end at, plus the
        // journal-sequence window the delete + sweep spans on each node.
        let (physical_expected, spans) = {
            let (cluster, expected) = generational_cluster(case);
            let before: Vec<u64> = (0..3)
                .map(|id| cluster.node_by_id(id).unwrap().journal().next_seq())
                .collect();
            cluster.delete_generation(0).expect("generation exists");
            let report = cluster.collect_garbage().expect("no fault armed");
            prop_assert!(report.bytes_reclaimed > 0, "scenario must have garbage");
            assert_lifecycle_state(&cluster, &expected);
            let spans: Vec<(u64, u64)> = (0..3)
                .map(|id| {
                    let after = cluster.node_by_id(id).unwrap().journal().next_seq();
                    (before[id], after)
                })
                .collect();
            (cluster.stats().physical_bytes, spans)
        };

        for (victim, &(start, end)) in spans.iter().enumerate() {
            for seq in start..end {
                let mode = if (seq + case) % 2 == 0 { CrashMode::Torn } else { CrashMode::Clean };
                let (cluster, expected) = generational_cluster(case);
                let journal = cluster.node_by_id(victim).unwrap().journal().clone();
                journal.arm_crash_at_seq(seq, mode);

                // The deletion itself is director state and always succeeds;
                // the armed append fires either on a RecipeDelete audit record
                // (swallowed, by design) or on a GC record (surfaced).
                cluster.delete_generation(0).expect("generation exists");
                match cluster.collect_garbage() {
                    Ok(_) => {
                        prop_assert!(
                            !cluster.crashed_nodes().is_empty() || journal.next_seq() <= seq,
                            "armed seq {} on node {} never fired", seq, victim
                        );
                    }
                    Err(e) => {
                        prop_assert!(
                            matches!(
                                e,
                                SigmaError::Storage(StorageError::Crashed)
                            ),
                            "sweep failed for a non-crash reason: {}", e
                        );
                    }
                }
                if !cluster.crashed_nodes().is_empty() {
                    cluster.restart_node(victim).expect("recoverable");
                }
                // One re-run finishes whatever the crash interrupted; completed
                // drops/compactions are simply absent from the new mark.
                cluster.collect_garbage().expect("retried sweep cannot crash again");

                prop_assert_eq!(
                    cluster.stats().physical_bytes,
                    physical_expected,
                    "victim {} seq {} ({:?}): lifecycle did not converge",
                    victim, seq, mode
                );
                assert_lifecycle_state(&cluster, &expected);
            }
        }
    }
}

// ---- lifecycle edge cases (façade level) ----

#[test]
fn lifecycle_edge_cases_fail_cleanly() {
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        2,
        SigmaConfig::builder()
            .super_chunk_size(64 * 1024)
            .container_capacity(64 * 1024)
            .build()
            .unwrap(),
    ));
    // Unknown IDs.
    assert!(matches!(
        cluster.delete_file(404),
        Err(SigmaError::FileNotFound(404))
    ));
    assert!(matches!(
        cluster.delete_backup(404),
        Err(SigmaError::BackupNotFound(404))
    ));
    // Empty-cluster GC is a no-op.
    let report = cluster.collect_garbage().unwrap();
    assert_eq!(report.bytes_reclaimed, 0);
    assert_eq!(report.containers_scanned, 0);

    let client = BackupClient::new(cluster.clone(), 0);
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let report = client.backup_bytes("once.bin", &data).unwrap();
    cluster.try_flush().unwrap();
    assert_eq!(cluster.restore_file(report.file_id).unwrap(), data);

    assert!(cluster.delete_file(report.file_id).is_ok());
    // Double delete and delete-then-restore: clean errors, not panics.
    assert!(matches!(
        cluster.delete_file(report.file_id),
        Err(SigmaError::FileNotFound(_))
    ));
    assert!(matches!(
        cluster.restore_file(report.file_id),
        Err(SigmaError::FileNotFound(_))
    ));
    // The orphaned chunks are garbage now; a sweep leaves an empty cluster,
    // and sweeping the empty cluster again is a no-op.
    cluster.collect_garbage().unwrap();
    assert_eq!(cluster.stats().physical_bytes, 0);
    let report = cluster.collect_garbage().unwrap();
    assert_eq!(report.bytes_reclaimed, 0);
}

#[test]
fn deleting_one_generation_of_shared_history_keeps_the_rest_restorable() {
    // Generations share most chunks; expiring the oldest must reclaim only the
    // delta that no later generation references.
    let (cluster, expected) = generational_cluster(7);
    let before = cluster.stats().physical_bytes;
    cluster.delete_generation(0).unwrap();
    let report = cluster.collect_garbage().unwrap();
    assert!(report.bytes_reclaimed > 0);
    assert!(
        report.live_bytes > 0,
        "later generations keep shared chunks live"
    );
    assert!(cluster.stats().physical_bytes >= report.live_bytes);
    assert_eq!(
        cluster.stats().physical_bytes,
        before - report.bytes_reclaimed
    );
    assert_lifecycle_state(&cluster, &expected);
}
