//! The crash-churn sweep: the churn scenario under deterministic fault
//! injection at journal-record boundaries.
//!
//! [`run_churn`] shows the cluster surviving *planned* membership changes;
//! this module shows it surviving *unplanned* ones.  A [`FaultPlan`] — seeded
//! from the workload's own [`DeterministicRng`] — arms a crash on one node's
//! write-ahead journal at a chosen append sequence number.  Because a node's
//! state only becomes durable through journal appends, and the workload is
//! deterministic up to the kill point, this reproduces "the process died
//! between exactly these two records" for any boundary: inside a backup round,
//! inside a flush, or inside a [`Rebalancer`](sigma_core::Rebalancer) step
//! between the destination's adopt and the source's tombstone.
//!
//! Each execution is one [`run_churn`] under its plan, which behaves like an
//! operator supervising a real cluster: the failing operation surfaces
//! [`StorageError::Crashed`](sigma_storage::StorageError::Crashed),
//! [`DedupCluster::restart_node`] rebuilds the victim from its medium (a
//! file-backed node from its directory, as a new process would) and reconciles
//! half-completed migrations, and the interrupted operation is retried.  Every
//! acknowledged file must restore byte-identically after every phase, and the
//! recovered nodes must pass a structural consistency check.

use crate::churn::{run_churn, ChurnConfig, ChurnOutcome};
use sigma_core::{DedupCluster, SigmaConfig, SimilarityRouter};
use sigma_storage::{BackendKind, CrashMode};
use sigma_workloads::DeterministicRng;

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

/// Parameters of one crash-churn sweep.
#[derive(Debug, Clone)]
pub struct CrashChurnConfig {
    /// The scenario every execution runs; its seed also seeds the fault plans.
    pub churn: ChurnConfig,
    /// Crash points to sample and run (one scenario execution per point).
    pub kill_points: usize,
}

impl Default for CrashChurnConfig {
    fn default() -> Self {
        CrashChurnConfig {
            churn: ChurnConfig {
                initial_nodes: 3,
                streams: 3,
                stream_bytes: 256 * 1024,
                mutation_rate: 0.05,
                seed: 0xFA17,
                sigma: SigmaConfig::builder()
                    .super_chunk_size(64 * 1024)
                    .container_capacity(128 * 1024)
                    .build()
                    .expect("default crash-churn config is valid"),
            },
            kill_points: 4,
        }
    }
}

impl CrashChurnConfig {
    /// The default scenario re-parameterized onto a different storage backend.
    ///
    /// For [`BackendKind::File`] a `storage_root` must be set on the returned
    /// config's `churn.sigma` (see [`with_file_storage`](Self::with_file_storage));
    /// [`DedupCluster::restart_node`] then re-opens each crashed node's
    /// journal from its directory instead of the surviving in-memory handle,
    /// so the sweep exercises the actual process-restart path.
    pub fn with_backend(kind: BackendKind) -> Self {
        let mut config = CrashChurnConfig::default();
        config.churn.sigma.storage_backend = kind;
        config
    }

    /// The default scenario on the real-file backend rooted at `root`.  Each
    /// execution of the sweep starts from an empty medium, so whatever is
    /// under `root` when one starts is removed.
    pub fn with_file_storage(root: impl Into<std::path::PathBuf>) -> Self {
        let mut config = CrashChurnConfig::with_backend(BackendKind::File);
        config.churn.sigma.storage_root = Some(root.into());
        config
    }
}

/// Outcome of a full crash-churn sweep.
#[derive(Debug, Clone)]
pub struct CrashChurnOutcome {
    /// The fault-free reference execution.
    pub baseline: ChurnOutcome,
    /// One outcome per sampled kill point.
    pub kills: Vec<ChurnOutcome>,
}

impl CrashChurnOutcome {
    /// True when the baseline and every faulted execution restored everything
    /// and stayed consistent.
    #[cfg(test)]
    fn all_clean(&self) -> bool {
        self.baseline.is_clean() && self.kills.iter().all(ChurnOutcome::is_clean)
    }

    /// Total crashes injected and recovered across the sweep.
    #[cfg(test)]
    fn total_recoveries(&self) -> usize {
        self.kills.iter().map(|k| k.recoveries.len()).sum()
    }
}

/// Runs the crash-churn sweep: a fault-free baseline that also profiles each
/// node's journal activity, then one full churn execution per kill point
/// sampled from that profile.
///
/// # Panics
///
/// Panics on zero node/stream counts, if the baseline is not clean, or if an
/// injected crash cannot be recovered (which is exactly the regression this
/// scenario exists to catch).
pub fn run_crash_churn(config: &CrashChurnConfig) -> CrashChurnOutcome {
    let execute =
        |plan: &FaultPlan| run_churn(&config.churn, Box::new(SimilarityRouter::new(true)), plan);
    let baseline = execute(&FaultPlan::default());
    assert!(
        baseline.is_clean(),
        "fault-free baseline must be clean: {:?}",
        baseline.consistency_error
    );

    // The faulted runs behave like the baseline up to their kill point, so
    // any sequence number below a node's baseline append count fires.
    let mut rng = DeterministicRng::new(config.churn.seed ^ 0xC4A5_11ED);
    let kills = (0..config.kill_points)
        .map(|_| execute(&FaultPlan::sample_one(&mut rng, &baseline.journal_appends)))
        .collect();

    CrashChurnOutcome { baseline, kills }
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
        let mut config = CrashChurnConfig {
            kill_points,
            ..CrashChurnConfig::default()
        };
        config.churn.seed = 0xFA17 ^ env_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        config
    }

    #[test]
    fn crash_churn_sweep_restores_everything() {
        let outcome = run_crash_churn(&matrix_config(4));
        assert_eq!(outcome.baseline.files(), 6, "3 streams x 2 generations");
        for (i, kill) in outcome.kills.iter().enumerate() {
            assert!(
                kill.is_clean(),
                "kill point {} ({:?}) lost data: phases {:?}, consistency: {:?}",
                i,
                kill.plan,
                kill.phases,
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
        assert_eq!(a.baseline, b.baseline, "baseline runs are bit-stable");
        // Plans, every phase's figures, every recovery report: a kill
        // outcome is a function of the seed.
        assert_eq!(a.kills, b.kills, "kill outcomes are seed-deterministic");
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

        let file = run_crash_churn(&file_config);
        let memory = run_crash_churn(&memory_config);

        for outcome in [&file, &memory] {
            assert!(outcome.all_clean());
            assert!(outcome.total_recoveries() >= outcome.kills.len());
        }
        // The workload is deterministic and the backend invisible to it: the
        // sampled kill plans and every outcome figure must be bit-identical.
        assert_eq!(file.baseline.files(), memory.baseline.files());
        assert_eq!(
            file.baseline.physical_bytes(),
            memory.baseline.physical_bytes()
        );
        for (a, b) in file.kills.iter().zip(&memory.kills) {
            assert_eq!(a.plan, b.plan, "kill plans must match across backends");
            assert_eq!(a.phases, b.phases);
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
