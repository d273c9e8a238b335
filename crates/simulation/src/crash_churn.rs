//! The crash-churn scenario: backup → crash → recover → restore-verify, with
//! deterministic fault injection at journal-record boundaries.
//!
//! [`run_churn`](crate::churn::run_churn) shows the cluster surviving *planned*
//! membership changes; this module shows it surviving *unplanned* ones.  A
//! [`FaultPlan`] — seeded from the workload's own [`DeterministicRng`] — arms a
//! crash on one node's write-ahead journal at a chosen append sequence number.
//! Because a node's state only becomes durable through journal appends, and the
//! workload is deterministic up to the kill point, this reproduces "the process
//! died between exactly these two records" for any boundary: inside a backup
//! round, inside a flush, or inside a [`Rebalancer`](sigma_core::Rebalancer)
//! step between the destination's adopt and the source's tombstone.
//!
//! The driver then behaves like an operator supervising a real cluster:
//!
//! 1. the failing operation surfaces [`StorageError::Crashed`];
//! 2. [`DedupCluster::restart_node`] rebuilds the victim from its medium (a
//!    file-backed node from its directory, as a new process would) and
//!    reconciles half-completed migrations (publishing the missing tombstone of
//!    a container its peer already adopted durably, or vice versa);
//! 3. the interrupted operation is retried — safe because backups deduplicate
//!    against everything durably recovered and container adoption is idempotent
//!    per origin;
//! 4. at the end, every file from every phase is restored and compared
//!    byte-for-byte, the recovered nodes pass a structural consistency check,
//!    and no container may have been lost or duplicated by the crash.

use sigma_core::{BackupClient, DedupCluster, RecoveryReport, SigmaConfig, SigmaError};
use sigma_storage::{BackendKind, CrashMode, StorageError};
use sigma_workloads::payload::{versioned_payloads, VersionedPayloadParams};
use sigma_workloads::DeterministicRng;
use std::collections::HashMap;
use std::sync::Arc;

/// One armed crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Stable ID of the node whose journal crashes.
    pub node: usize,
    /// Journal append sequence number at which the crash fires.
    pub at_seq: u64,
    /// Whether the interrupted append leaves a torn frame behind.
    pub mode: CrashMode,
}

/// A deterministic set of crash points for one scenario run.
///
/// Sampled from the per-node journal activity of a fault-free dry run, so every
/// sampled point is guaranteed to fire (the workload is deterministic up to the
/// kill) and the whole space of record boundaries is reachable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The crash points, at most one per node.
    pub points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// Samples one kill point from `appends_per_node` — the `(node, append
    /// count)` activity profile measured by a fault-free dry run.
    ///
    /// Nodes are weighted by their append counts so busy nodes crash as often as
    /// their activity warrants; the torn/clean mode is a coin flip.  Nodes with
    /// no journal activity are never sampled.
    pub fn sample_one(rng: &mut DeterministicRng, appends_per_node: &[(usize, u64)]) -> FaultPlan {
        let total: u64 = appends_per_node.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return FaultPlan::default();
        }
        let mut pick = rng.below(total);
        for &(node, appends) in appends_per_node {
            if pick < appends {
                return FaultPlan {
                    points: vec![FaultPoint {
                        node,
                        at_seq: pick,
                        mode: if rng.chance(0.5) {
                            CrashMode::Torn
                        } else {
                            CrashMode::Clean
                        },
                    }],
                };
            }
            pick -= appends;
        }
        unreachable!("pick is bounded by the total append count");
    }

    /// Arms every crash point whose target node currently exists.
    ///
    /// Points aimed at nodes that join later (the scenario's scale-out adds one)
    /// are skipped for now; call `arm` again after the membership change.
    pub fn arm(&self, cluster: &DedupCluster) {
        for point in &self.points {
            if let Some(node) = cluster.node_by_id(point.node) {
                node.journal().arm_crash_at_seq(point.at_seq, point.mode);
            }
        }
    }
}

/// Parameters of one crash-churn scenario run.
#[derive(Debug, Clone)]
pub struct CrashChurnConfig {
    /// Nodes the cluster starts with.
    pub initial_nodes: usize,
    /// Client streams (each backs up one file per phase).
    pub streams: usize,
    /// Bytes per stream per backup generation.
    pub stream_bytes: usize,
    /// Fraction of 4 KB regions rewritten between the two backup generations.
    pub mutation_rate: f64,
    /// Deterministic seed for payloads and the fault plan.
    pub seed: u64,
    /// Crash points to sample and run (one scenario execution per point).
    pub kill_points: usize,
    /// Σ-Dedupe configuration.
    pub sigma: SigmaConfig,
}

impl Default for CrashChurnConfig {
    fn default() -> Self {
        CrashChurnConfig {
            initial_nodes: 3,
            streams: 3,
            stream_bytes: 256 * 1024,
            mutation_rate: 0.05,
            seed: 0xFA17,
            kill_points: 4,
            sigma: SigmaConfig::builder()
                .super_chunk_size(64 * 1024)
                .container_capacity(128 * 1024)
                .build()
                .expect("default crash-churn config is valid"),
        }
    }
}

impl CrashChurnConfig {
    /// The default scenario re-parameterized onto a different storage backend.
    ///
    /// For [`BackendKind::File`] a `storage_root` must be set on the returned
    /// config's `sigma` (see [`with_file_storage`](Self::with_file_storage));
    /// [`DedupCluster::restart_node`] then re-opens each crashed node's
    /// journal from its directory instead of the surviving in-memory handle,
    /// so the sweep exercises the actual process-restart path.
    pub fn with_backend(kind: BackendKind) -> Self {
        let mut config = CrashChurnConfig::default();
        config.sigma.storage_backend = kind;
        config
    }

    /// The default scenario on the real-file backend rooted at `root`.  Each
    /// execution of the sweep starts from an empty medium, so whatever is
    /// under `root` when one starts is removed.
    pub fn with_file_storage(root: impl Into<std::path::PathBuf>) -> Self {
        let mut config = CrashChurnConfig::with_backend(BackendKind::File);
        config.sigma.storage_root = Some(root.into());
        config
    }
}

/// Outcome of one scenario execution (one kill point, or the dry run).
#[derive(Debug, Clone)]
pub struct KillOutcome {
    /// The fault plan this execution ran under (empty for the dry run).
    pub plan: FaultPlan,
    /// Crashes that actually fired and were recovered.
    pub recoveries: Vec<RecoveryReport>,
    /// Files written across both backup waves.
    pub files: usize,
    /// Files that restored byte-identically at the end.
    pub restored_intact: usize,
    /// Cluster physical bytes at the end of the run.
    pub physical_bytes: u64,
    /// First consistency-check failure across all directory nodes, if any.
    pub consistency_error: Option<String>,
}

impl KillOutcome {
    /// True when every file restored byte-identically and every node is
    /// structurally consistent.
    pub fn is_clean(&self) -> bool {
        self.restored_intact == self.files && self.consistency_error.is_none()
    }
}

/// Outcome of a full crash-churn sweep.
#[derive(Debug, Clone)]
pub struct CrashChurnOutcome {
    /// The fault-free reference execution.
    pub baseline: KillOutcome,
    /// One outcome per sampled kill point.
    pub kills: Vec<KillOutcome>,
}

impl CrashChurnOutcome {
    /// True when the baseline and every faulted execution restored everything
    /// and stayed consistent.
    #[cfg(test)]
    fn all_clean(&self) -> bool {
        self.baseline.is_clean() && self.kills.iter().all(KillOutcome::is_clean)
    }

    /// Total crashes injected and recovered across the sweep.
    #[cfg(test)]
    fn total_recoveries(&self) -> usize {
        self.kills.iter().map(|k| k.recoveries.len()).sum()
    }
}

/// Runs the crash-churn sweep: a fault-free dry run to profile journal activity,
/// then one full backup → churn → restore execution per sampled kill point.
///
/// # Panics
///
/// Panics on zero node/stream counts, or if an injected crash cannot be
/// recovered (which is exactly the regression this scenario exists to catch).
pub fn run_crash_churn(config: &CrashChurnConfig) -> CrashChurnOutcome {
    assert!(config.initial_nodes > 0, "need at least one node");
    assert!(config.streams > 0, "need at least one stream");

    let baseline = execute(config, &FaultPlan::default());
    assert!(
        baseline.is_clean(),
        "fault-free baseline must be clean: {:?}",
        baseline.consistency_error
    );

    // Profile: how many journal appends each node performed fault-free.  The
    // faulted runs behave identically up to their kill point, so any sequence
    // number below these counts is guaranteed to fire.
    let appends = profile_appends(config);
    let mut rng = DeterministicRng::new(config.seed ^ 0xC4A5_11ED);
    let kills = (0..config.kill_points)
        .map(|_| {
            let plan = FaultPlan::sample_one(&mut rng, &appends);
            execute(config, &plan)
        })
        .collect();

    CrashChurnOutcome { baseline, kills }
}

/// Measures per-node journal append counts with a fault-free execution.  The
/// cluster ends with `initial_nodes + 1` directory entries (the join added one).
fn profile_appends(config: &CrashChurnConfig) -> Vec<(usize, u64)> {
    let (cluster, _, _) = drive_workload(config, &FaultPlan::default());
    (0..=config.initial_nodes)
        .filter_map(|id| {
            let node = cluster.node_by_id(id)?;
            let appends = node.journal().next_seq();
            (appends > 0).then_some((id, appends))
        })
        .collect()
}

/// One full scenario execution under `plan`; crashes are recovered and the
/// interrupted operation retried.
fn execute(config: &CrashChurnConfig, plan: &FaultPlan) -> KillOutcome {
    let (cluster, expected, recoveries) = drive_workload(config, plan);

    let restored_intact = expected
        .iter()
        .filter(|(file_id, data)| {
            cluster
                .restore_file(**file_id)
                .map(|bytes| bytes == **data)
                .unwrap_or(false)
        })
        .count();

    // Structural consistency of every node the cluster ever had, retired and
    // recovered ones included.
    let mut consistency_error = None;
    for id in 0..=config.initial_nodes {
        if let Some(node) = cluster.node_by_id(id) {
            if let Err(e) = node.verify_consistency() {
                consistency_error = Some(e);
                break;
            }
        }
    }

    KillOutcome {
        plan: plan.clone(),
        recoveries,
        files: expected.len(),
        restored_intact,
        physical_bytes: cluster.stats().physical_bytes,
        consistency_error,
    }
}

/// Backs up two generations across a join and a leave, recovering and retrying
/// around injected crashes.  Returns the cluster, the ground-truth files and the
/// recovery reports.
#[allow(clippy::type_complexity)]
fn drive_workload(
    config: &CrashChurnConfig,
    plan: &FaultPlan,
) -> (
    Arc<DedupCluster>,
    HashMap<u64, Vec<u8>>,
    Vec<RecoveryReport>,
) {
    // A node opens whatever its medium holds, so a file-backed execution
    // clears the directories the previous one left under the root.
    if let Some(root) = config.sigma.storage_root.as_ref().filter(|r| r.exists()) {
        std::fs::remove_dir_all(root).expect("clear the storage root");
    }
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        config.initial_nodes,
        config.sigma.clone(),
    ));
    plan.arm(&cluster);

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
    let mut recoveries = Vec::new();

    // One backup wave, acknowledged as a unit by its closing flush.  A crash
    // anywhere inside the wave restarts the *whole* wave: files whose backup
    // calls had already returned may still hold chunks in the crashed node's
    // open (never-journaled) containers, so nothing in the wave counts as
    // acknowledged until the flush comes back clean.  Discarded attempts leave
    // orphaned recipes behind — exactly like an aborted backup job — and the
    // retry deduplicates against everything that did survive, so re-running a
    // wave is cheap.
    let backup_wave = |generation: usize,
                       expected: &mut HashMap<u64, Vec<u8>>,
                       recoveries: &mut Vec<RecoveryReport>| {
        loop {
            let mut wave: Vec<(u64, Vec<u8>)> = Vec::new();
            let attempt = (|| {
                for (client, gens) in clients.iter().zip(&generations) {
                    let (name, data) = &gens[generation];
                    let report = client.backup_bytes(name, data)?;
                    wave.push((report.file_id, data.clone()));
                }
                cluster.try_flush()
            })();
            match attempt {
                Ok(()) => {
                    expected.extend(wave);
                    return;
                }
                Err(e) if is_crash(&e) => recover_all(&cluster, recoveries),
                Err(e) => panic!("backup wave failed for a non-crash reason: {}", e),
            }
        }
    };

    // Phase 1: bootstrap backups, acknowledged by the flush.
    backup_wave(0, &mut expected, &mut recoveries);

    // Phase 2: scale out.  A crash mid-rebalance is recovered and the join
    // rebalance re-planned from live state (adoption idempotence makes the
    // retry exactly-once).  The plan is re-armed so kill points aimed at the
    // joined node take effect now that it exists.
    let joined = cluster.add_node();
    plan.arm(&cluster);
    retry_crashed(&cluster, &mut recoveries, || cluster.rebalance_onto(joined));

    // Phase 3: second wave, deduplicating against (partly migrated) state.
    backup_wave(1, &mut expected, &mut recoveries);

    // Phase 4: scale in — drain one of the original nodes.  After a crash the
    // drain resumes via `resume_drain` (the victim already left the active map).
    let victim = cluster.node_ids()[0];
    let mut removing = true;
    loop {
        let attempt = if removing {
            cluster.remove_node(victim)
        } else {
            cluster.resume_drain(victim).and_then(|r| r.run())
        };
        match attempt {
            Ok(_) => break,
            Err(e) if is_crash(&e) => {
                recover_all(&cluster, &mut recoveries);
                removing = false;
            }
            Err(e) => panic!("node removal failed for a non-crash reason: {}", e),
        }
    }

    (cluster, expected, recoveries)
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
            Err(e) if is_crash(&e) => recover_all(cluster, recoveries),
            Err(e) => panic!("operation failed for a non-crash reason: {}", e),
        }
    }
}

/// Restarts every crashed node, recording the recovery reports.
fn recover_all(cluster: &DedupCluster, recoveries: &mut Vec<RecoveryReport>) {
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

fn is_crash(e: &SigmaError) -> bool {
    matches!(e, SigmaError::Storage(StorageError::Crashed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mixes `SIGMA_FAULT_SEED` (the CI matrix axis) into the scenario seed so
    /// each matrix cell sweeps different workloads and kill points.
    fn matrix_config(kill_points: usize) -> CrashChurnConfig {
        let env_seed: u64 = std::env::var("SIGMA_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        CrashChurnConfig {
            seed: 0xFA17 ^ env_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            kill_points,
            ..CrashChurnConfig::default()
        }
    }

    #[test]
    fn crash_churn_sweep_restores_everything() {
        let outcome = run_crash_churn(&matrix_config(4));
        assert_eq!(outcome.baseline.files, 6, "3 streams x 2 generations");
        for (i, kill) in outcome.kills.iter().enumerate() {
            assert!(
                kill.is_clean(),
                "kill point {} ({:?}) lost data: {}/{} restored, consistency: {:?}",
                i,
                kill.plan,
                kill.restored_intact,
                kill.files,
                kill.consistency_error
            );
        }
        assert!(outcome.all_clean());
        assert!(
            outcome.total_recoveries() >= outcome.kills.len(),
            "every sampled kill point must actually fire"
        );
    }

    #[test]
    fn crash_churn_is_deterministic() {
        let a = run_crash_churn(&matrix_config(2));
        let b = run_crash_churn(&matrix_config(2));
        let points_a: Vec<FaultPlan> = a.kills.iter().map(|k| k.plan.clone()).collect();
        let points_b: Vec<FaultPlan> = b.kills.iter().map(|k| k.plan.clone()).collect();
        assert_eq!(points_a, points_b, "fault plans are seed-deterministic");
        assert_eq!(
            a.baseline.physical_bytes, b.baseline.physical_bytes,
            "baseline runs are bit-stable"
        );
    }

    #[test]
    fn crash_churn_outcomes_match_across_backends() {
        let root = std::env::temp_dir().join(format!(
            "sigma-crash-churn-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut file_config = CrashChurnConfig::with_file_storage(&root);
        file_config.kill_points = 2;
        let mut memory_config = CrashChurnConfig::with_backend(BackendKind::Memory);
        memory_config.kill_points = 2;
        let sim_config = CrashChurnConfig {
            kill_points: 2,
            ..CrashChurnConfig::default()
        };

        let file = run_crash_churn(&file_config);
        let memory = run_crash_churn(&memory_config);
        let sim = run_crash_churn(&sim_config);

        for outcome in [&file, &memory, &sim] {
            assert!(outcome.all_clean());
            assert!(outcome.total_recoveries() >= outcome.kills.len());
        }
        // The workload is deterministic and the backend invisible to it: the
        // sampled kill plans and every outcome figure must be bit-identical.
        for other in [&memory, &sim] {
            assert_eq!(file.baseline.files, other.baseline.files);
            assert_eq!(file.baseline.physical_bytes, other.baseline.physical_bytes);
            for (a, b) in file.kills.iter().zip(&other.kills) {
                assert_eq!(a.plan, b.plan, "kill plans must match across backends");
                assert_eq!(a.restored_intact, b.restored_intact);
                assert_eq!(a.physical_bytes, b.physical_bytes);
            }
        }
        // The file-backend sweep really went through the on-disk directories.
        assert!(root.join("node-0").join("journal.wal").exists());
        std::fs::remove_dir_all(&root).expect("clean up scenario directory");
    }

    #[test]
    fn fault_plan_sampling_is_weighted_and_bounded() {
        let mut rng = DeterministicRng::new(7);
        let profile = vec![(0usize, 100u64), (1, 0), (2, 50)];
        for _ in 0..200 {
            let plan = FaultPlan::sample_one(&mut rng, &profile);
            let point = plan.points[0];
            assert_ne!(point.node, 1, "idle nodes are never sampled");
            let cap = profile
                .iter()
                .find(|&&(n, _)| n == point.node)
                .map(|&(_, c)| c)
                .unwrap();
            assert!(point.at_seq < cap, "kill point must be within activity");
        }
        assert!(FaultPlan::sample_one(&mut rng, &[]).points.is_empty());
    }
}
